#include "ec/curve.hpp"

#include <deque>
#include <stdexcept>
#include <unordered_map>

#include "crypto/sha256.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::ec {

Curve::Curve(CurveParams params) : params_(std::move(params)) {
  if (!params_.fp) throw std::invalid_argument("Curve: null field");
  if (!params_.fp->p_is_3_mod_4()) {
    throw std::invalid_argument("Curve: y^2 = x^3 + x needs p == 3 (mod 4)");
  }
  if ((params_.h * params_.q) != params_.fp->p() + BigInt{1}) {
    throw std::invalid_argument("Curve: h * q must equal p + 1");
  }
}

Fp Curve::rhs(const Fp& x) const { return x * x * x + x; }

bool Curve::on_curve(const Point& pt) const {
  if (pt.is_infinity()) return true;
  return pt.y() * pt.y() == rhs(pt.x());
}

Point Curve::negate(const Point& pt) const {
  if (pt.is_infinity()) return pt;
  return Point(pt.x(), -pt.y());
}

Point Curve::dbl(const Point& a) const {
  if (a.is_infinity()) return a;
  if (a.y().is_zero()) return Point{};  // order-2 point doubles to infinity
  // λ = (3x² + 1) / 2y   (curve coefficient a = 1, b = 0)
  const Fp xx = a.x() * a.x();
  const Fp lambda = (xx + xx + xx + Fp::one(params_.fp)) * (a.y() + a.y()).inv();
  const Fp x3 = lambda * lambda - a.x() - a.x();
  const Fp y3 = lambda * (a.x() - x3) - a.y();
  return Point(x3, y3);
}

Point Curve::add(const Point& a, const Point& b) const {
  if (a.is_infinity()) return b;
  if (b.is_infinity()) return a;
  if (a.x() == b.x()) {
    if (a.y() == b.y()) return dbl(a);
    return Point{};  // P + (−P) = O
  }
  const Fp lambda = (b.y() - a.y()) * (b.x() - a.x()).inv();
  const Fp x3 = lambda * lambda - a.x() - b.x();
  const Fp y3 = lambda * (a.x() - x3) - a.y();
  return Point(x3, y3);
}

namespace {

// Jacobian coordinates (X, Y, Z) with x = X/Z², y = Y/Z³ make scalar
// multiplication division-free: affine add/dbl each cost a field inversion,
// Jacobian ~10 multiplications. One inversion at the end. Small constant
// factors are additions, a fraction of a multiplication's cost.
struct Jac {
  Fp x, y, z;
  bool inf = true;
};

Jac to_jac(const Point& p) {
  if (p.is_infinity()) return Jac{};
  return Jac{p.x(), p.y(), Fp::one(p.x().ctx()), false};
}

Jac jac_neg(Jac p) {
  if (!p.inf) p.y = -p.y;
  return p;
}

// Doubling on y² = x³ + a·x with a = 1: M = 3X² + Z⁴, S = 4XY².
Jac jac_dbl(const Jac& p) {
  if (p.inf || p.y.is_zero()) return Jac{};
  const Fp y2 = p.y * p.y;
  const Fp xy2 = p.x * y2;
  const Fp s = (xy2 + xy2) + (xy2 + xy2);
  const Fp xx = p.x * p.x;
  const Fp z2 = p.z * p.z;
  const Fp m = xx + xx + xx + z2 * z2;  // a = 1
  const Fp x3 = m * m - s - s;
  const Fp y4 = y2 * y2;
  const Fp y4x2 = y4 + y4;
  const Fp y4x4 = y4x2 + y4x2;
  const Fp y3 = m * (s - x3) - (y4x4 + y4x4);
  const Fp z3 = (p.y + p.y) * p.z;
  return Jac{x3, y3, z3, false};
}

// Mixed addition: Jacobian p + affine q.
Jac jac_add_affine(const Jac& p, const Point& q) {
  if (q.is_infinity()) return p;
  if (p.inf) return to_jac(q);
  const Fp z2 = p.z * p.z;
  const Fp u2 = q.x() * z2;
  const Fp s2 = q.y() * z2 * p.z;
  const Fp h = u2 - p.x;
  const Fp r = s2 - p.y;
  if (h.is_zero()) {
    if (r.is_zero()) return jac_dbl(p);
    return Jac{};  // p + (−p)
  }
  const Fp h2 = h * h;
  const Fp h3 = h2 * h;
  const Fp uh2 = p.x * h2;
  const Fp x3 = r * r - h3 - uh2 - uh2;
  const Fp y3 = r * (uh2 - x3) - p.y * h3;
  const Fp z3 = p.z * h;
  return Jac{x3, y3, z3, false};
}

// General Jacobian + Jacobian addition (needed for wNAF odd-multiple tables
// and fixed-base accumulation, where neither side is affine).
Jac jac_add(const Jac& p, const Jac& q) {
  if (p.inf) return q;
  if (q.inf) return p;
  const Fp z1z1 = p.z * p.z;
  const Fp z2z2 = q.z * q.z;
  const Fp u1 = p.x * z2z2;
  const Fp u2 = q.x * z1z1;
  const Fp s1 = p.y * z2z2 * q.z;
  const Fp s2 = q.y * z1z1 * p.z;
  const Fp h = u2 - u1;
  const Fp r = s2 - s1;
  if (h.is_zero()) {
    if (r.is_zero()) return jac_dbl(p);
    return Jac{};
  }
  const Fp h2 = h * h;
  const Fp h3 = h2 * h;
  const Fp u1h2 = u1 * h2;
  const Fp x3 = r * r - h3 - u1h2 - u1h2;
  const Fp y3 = r * (u1h2 - x3) - s1 * h3;
  const Fp z3 = p.z * q.z * h;
  return Jac{x3, y3, z3, false};
}

Point jac_to_affine(const Jac& p) {
  if (p.inf) return Point{};
  const Fp zi = p.z.inv();
  const Fp zi2 = zi * zi;
  return Point(p.x * zi2, p.y * zi2 * zi);
}

// Batch Jacobian -> affine via Montgomery's trick: prefix products, one
// inversion, back-substitution. Precondition: no input is infinity.
std::vector<Point> jac_to_affine_batch(const std::vector<Jac>& pts) {
  std::vector<Point> out;
  out.reserve(pts.size());
  if (pts.empty()) return out;
  std::vector<Fp> prefix(pts.size());
  Fp running = pts[0].z;
  prefix[0] = running;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    running = running * pts[i].z;
    prefix[i] = running;
  }
  Fp inv = prefix.back().inv();
  out.resize(pts.size());
  for (std::size_t i = pts.size(); i-- > 0;) {
    const Fp zi = i == 0 ? inv : inv * prefix[i - 1];
    const Fp zi2 = zi * zi;
    out[i] = Point(pts[i].x * zi2, pts[i].y * zi2 * zi);
    inv = inv * pts[i].z;
  }
  return out;
}

// Width-4 NAF: digits odd in {±1, ±3, ±5, ±7}, average density 1/5 versus
// 1/2 for the binary expansion. k must be positive.
std::vector<int> wnaf4(BigInt k) {
  std::vector<int> digits;
  digits.reserve(k.bit_length() + 1);
  while (!k.is_zero()) {
    if (k.is_odd()) {
      int d = static_cast<int>(k.low_u64() & 15u);
      if (d > 8) d -= 16;
      digits.push_back(d);
      k = d > 0 ? k - BigInt{d} : k + BigInt{-d};
    } else {
      digits.push_back(0);
    }
    k = k >> 1;
  }
  return digits;
}

// Fixed-base window table for a long-lived base point B: row j holds the
// affine points d·16^j·B for d = 1..15, so B^k costs one mixed addition per
// non-zero nibble of k and no doublings at all. Entries are never infinity:
// q is prime and > 16, so q never divides d·16^j.
struct FixedBaseTable {
  std::size_t rows = 0;
  std::vector<Point> entries;  // rows × 15, entry(j, d) = d·16^j·B

  [[nodiscard]] const Point& at(std::size_t j, unsigned d) const {
    return entries[j * 15 + (d - 1)];
  }
};

FixedBaseTable build_fixed_base(const Point& base, const BigInt& q) {
  FixedBaseTable t;
  t.rows = (q.bit_length() + 3) / 4;
  std::vector<Jac> jacs;
  jacs.reserve(t.rows * 15);
  Jac row_base = to_jac(base);  // 16^j · B
  for (std::size_t j = 0; j < t.rows; ++j) {
    const std::size_t start = jacs.size();
    jacs.push_back(row_base);
    for (unsigned d = 2; d <= 15; ++d) {
      jacs.push_back(d % 2 == 0 ? jac_dbl(jacs[start + d / 2 - 1])
                                : jac_add(jacs[start + d - 2], row_base));
    }
    if (j + 1 < t.rows) row_base = jac_dbl(jacs[start + 7]);  // 2·(8·16^j·B)
  }
  t.entries = jac_to_affine_batch(jacs);
  return t;
}

// Process-wide table registry. Keyed by (p, base) so tables outlive the
// Curve/Session that built them; FIFO eviction bounds memory if a workload
// registers many distinct bases. One magic-static instance so the guarded
// members and their mutex share a lifetime (and the analysis can tie them
// together via SP_GUARDED_BY).
constexpr std::size_t kMaxFixedBaseTables = 64;

struct FixedBaseRegistry {
  sp::Mutex mutex;
  std::unordered_map<std::string, std::shared_ptr<const FixedBaseTable>> map
      SP_GUARDED_BY(mutex);
  std::deque<std::string> fifo SP_GUARDED_BY(mutex);

  static FixedBaseRegistry& get() {
    static FixedBaseRegistry* const instance = new FixedBaseRegistry();  // leaked on purpose
    return *instance;
  }
};

std::shared_ptr<const FixedBaseTable> find_fixed_base(const std::string& key) {
  FixedBaseRegistry& reg = FixedBaseRegistry::get();
  const sp::MutexLock lock(reg.mutex);
  auto it = reg.map.find(key);
  return it == reg.map.end() ? nullptr : it->second;
}

void register_fixed_base(const std::string& key, std::shared_ptr<const FixedBaseTable> table) {
  FixedBaseRegistry& reg = FixedBaseRegistry::get();
  const sp::MutexLock lock(reg.mutex);
  if (reg.map.find(key) == reg.map.end()) {
    reg.fifo.push_back(key);
    if (reg.fifo.size() > kMaxFixedBaseTables) {
      reg.map.erase(reg.fifo.front());
      reg.fifo.pop_front();
    }
  }
  reg.map[key] = std::move(table);
}

}  // namespace

std::string Curve::table_key(const Point& base) const {
  // p disambiguates equal coordinate bytes across fields; serialize() embeds
  // the field byte length, so (p, 0x04||x||y) is collision-free.
  const Bytes pb = params_.fp->p().to_bytes();
  const Bytes bb = serialize(base);
  std::string id(pb.begin(), pb.end());
  id.append(bb.begin(), bb.end());
  return id;
}

void Curve::precompute_fixed_base(const Point& base) const {
  if (base.is_infinity()) return;
  const std::string id = table_key(base);
  if (find_fixed_base(id)) return;
  auto table = std::make_shared<const FixedBaseTable>(build_fixed_base(base, params_.q));
  register_fixed_base(id, std::move(table));
}

bool Curve::has_fixed_base(const Point& base) const {
  if (base.is_infinity()) return false;
  return find_fixed_base(table_key(base)) != nullptr;
}

Point Curve::mul(const Point& pt, const BigInt& k) const {
  if (k.is_negative()) return mul(negate(pt), -k);
  if (k.is_zero() || pt.is_infinity()) return Point{};

  // Fixed-base path: one mixed addition per non-zero nibble, no doublings.
  if (const auto table = find_fixed_base(table_key(pt))) {
    const std::size_t nnibs = (k.bit_length() + 3) / 4;
    if (nnibs <= table->rows) {
      Jac acc{};
      for (std::size_t j = 0; j < nnibs; ++j) {
        unsigned d = 0;
        for (unsigned b = 0; b < 4; ++b) {
          d |= static_cast<unsigned>(k.bit(4 * j + b)) << b;
        }
        if (d != 0) acc = jac_add_affine(acc, table->at(j, d));
      }
      return jac_to_affine(acc);
    }
    // Scalar wider than the table (k >= 16^rows ≥ q): fall through to wNAF.
  }

  // Generic path: width-4 wNAF with an odd-multiple table {1,3,5,7}·P.
  const std::vector<int> digits = wnaf4(k);

  Jac odd[4];
  odd[0] = to_jac(pt);
  const Jac p2 = jac_dbl(odd[0]);
  odd[1] = jac_add_affine(p2, pt);                // 3P
  odd[2] = jac_add_affine(jac_dbl(p2), pt);       // 5P = 4P + P
  odd[3] = jac_add_affine(jac_dbl(odd[1]), pt);   // 7P = 6P + P
  Jac acc{};
  for (std::size_t i = digits.size(); i-- > 0;) {
    acc = jac_dbl(acc);
    const int d = digits[i];
    if (d > 0) acc = jac_add(acc, odd[(d - 1) / 2]);
    else if (d < 0) acc = jac_add(acc, jac_neg(odd[(-d - 1) / 2]));
  }
  return jac_to_affine(acc);
}

Point Curve::mul_binary(const Point& pt, const BigInt& k) const {
  if (k.is_negative()) return mul_binary(negate(pt), -k);
  Jac acc{};
  const std::size_t nbits = k.bit_length();
  for (std::size_t i = nbits; i-- > 0;) {
    acc = jac_dbl(acc);
    if (k.bit(i)) acc = jac_add_affine(acc, pt);
  }
  return jac_to_affine(acc);
}

Point Curve::hash_to_group(std::span<const std::uint8_t> data) const {
  // Try-and-increment over a hash counter; then clear the cofactor to land
  // in the order-q subgroup. Each iteration succeeds with probability ~1/2.
  const Bytes base(data.begin(), data.end());
  for (std::uint32_t counter = 0;; ++counter) {
    Bytes attempt = base;
    attempt.push_back(static_cast<std::uint8_t>(counter >> 24));
    attempt.push_back(static_cast<std::uint8_t>(counter >> 16));
    attempt.push_back(static_cast<std::uint8_t>(counter >> 8));
    attempt.push_back(static_cast<std::uint8_t>(counter));
    // Widen the digest so the reduction mod p is near-uniform.
    Bytes wide = crypto::Sha256::hash(attempt);
    Bytes wide2 = crypto::Sha256::hash(wide);
    wide.insert(wide.end(), wide2.begin(), wide2.end());
    const Fp x = Fp::from_bytes(params_.fp, wide);
    const Fp y2 = rhs(x);
    if (y2.is_zero()) continue;  // would yield a low-order point
    if (y2.legendre() != 1) continue;
    Fp y = y2.sqrt();
    // Deterministic sign choice from the digest.
    if ((wide2[0] & 1) == 1) y = -y;
    const Point candidate = mul(Point(x, y), params_.h);
    if (candidate.is_infinity()) continue;
    return candidate;
  }
}

Point Curve::random_group_element(crypto::Drbg& rng) const {
  return hash_to_group(rng.bytes(32));
}

Bytes Curve::serialize(const Point& pt) const {
  if (pt.is_infinity()) return Bytes{0x00};
  Bytes out{0x04};
  Bytes xb = pt.x().to_bytes();
  Bytes yb = pt.y().to_bytes();
  out.insert(out.end(), xb.begin(), xb.end());
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

Point Curve::deserialize(std::span<const std::uint8_t> data) const {
  if (data.empty()) throw std::invalid_argument("Curve::deserialize: empty");
  if (data[0] == 0x00) {
    if (data.size() != 1) throw std::invalid_argument("Curve::deserialize: bad infinity");
    return Point{};
  }
  const std::size_t flen = params_.fp->byte_length();
  if (data[0] != 0x04 || data.size() != 1 + 2 * flen) {
    throw std::invalid_argument("Curve::deserialize: bad encoding");
  }
  Point pt(Fp::from_bytes(params_.fp, data.subspan(1, flen)),
           Fp::from_bytes(params_.fp, data.subspan(1 + flen, flen)));
  if (!on_curve(pt)) throw std::invalid_argument("Curve::deserialize: point not on curve");
  return pt;
}

}  // namespace sp::ec
