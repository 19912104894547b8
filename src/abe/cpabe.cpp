#include "abe/cpabe.hpp"

#include <functional>
#include <stdexcept>

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"

namespace sp::abe {

namespace {
// FIFO cap for the H(attr) memo: enough for every attribute a serving
// workload revisits, bounded against key churn (same policy as the
// Miller-line table registry).
constexpr std::size_t kMaxAttrCache = 256;
}  // namespace

CpAbe::CpAbe(const ec::Curve& curve) : curve_(&curve), pairing_(curve) {}

BigInt CpAbe::rand_scalar(crypto::Drbg& rng) const {
  auto rb = [&rng](std::size_t n) { return rng.bytes(n); };
  return BigInt::random_below(curve_->order() - BigInt{1}, rb) + BigInt{1};
}

const ec::FixedBase& CpAbe::generator() const {
  std::call_once(generator_once_, [this] {
    generator_ = std::make_unique<const ec::FixedBase>(
        *curve_, curve_->hash_to_group(crypto::to_bytes("sp-cpabe-generator")));
    e_gg_ = pairing_(generator_->base(), generator_->base());
  });
  return *generator_;
}

const Fp2& CpAbe::e_gg() const {
  (void)generator();
  return e_gg_;
}

ec::Point CpAbe::hash_attr(const std::string& attribute) const {
  static obs::Counter& hits = obs::MetricsRegistry::global().counter(
      "abe_attr_hash_hits_total", "H(attr) group hashes served from the CP-ABE memo");
  static obs::Counter& builds = obs::MetricsRegistry::global().counter(
      "abe_attr_hash_builds_total", "H(attr) group hashes computed on a memo miss");
  {
    const sp::MutexLock lock(cache_mutex_);
    auto it = attr_cache_.find(attribute);
    if (it != attr_cache_.end()) {
      hits.inc();
      return it->second;
    }
  }
  builds.inc();
  Bytes labeled = crypto::to_bytes("sp-cpabe-attr");
  Bytes attr = crypto::to_bytes(attribute);
  labeled.insert(labeled.end(), attr.begin(), attr.end());
  // Hash outside the lock (try-and-increment plus a cofactor-sized scalar
  // mul); racing first callers compute the same deterministic point.
  const ec::Point h = curve_->hash_to_group(labeled);
  const sp::MutexLock lock(cache_mutex_);
  if (attr_cache_.find(attribute) == attr_cache_.end()) {
    attr_fifo_.push_back(attribute);
    if (attr_fifo_.size() > kMaxAttrCache) {
      attr_cache_.erase(attr_fifo_.front());
      attr_fifo_.pop_front();
    }
  }
  attr_cache_[attribute] = h;
  return h;
}

std::pair<PublicKey, MasterKey> CpAbe::setup(crypto::Drbg& rng) const {
  const ec::FixedBase& g = generator();
  const BigInt alpha = rand_scalar(rng);
  const BigInt beta = rand_scalar(rng);
  PublicKey pk;
  pk.g = g.base();
  pk.h = g.mul(beta);
  pk.f = g.mul(BigInt::mod_inv(beta, curve_->order()));
  pk.e_gg_alpha = e_gg().pow(alpha);
  MasterKey mk;
  mk.beta = beta;
  mk.g_alpha = g.mul(alpha);
  return {pk, mk};
}

PrivateKey CpAbe::keygen(const MasterKey& mk, const std::vector<std::string>& attributes,
                         crypto::Drbg& rng, const ParallelRunner& runner) const {
  if (attributes.empty()) throw std::invalid_argument("CpAbe::keygen: empty attribute set");
  const ec::FixedBase& g = generator();
  const BigInt r = rand_scalar(rng);
  PrivateKey sk;
  // Every draw happens here, r first and then one r_j per distinct
  // attribute in order, so the key does not depend on job scheduling. The
  // map's nodes are stable, so each job fills its own slot.
  struct AttrDraw {
    const std::string* attr;
    BigInt rj;
    PrivateKey::AttrKey* out;
  };
  std::vector<AttrDraw> draws;
  draws.reserve(attributes.size());
  for (const std::string& attr : attributes) {
    const auto [it, inserted] = sk.attrs.try_emplace(attr);
    if (!inserted) continue;  // dedupe
    draws.push_back({&it->first, rand_scalar(rng), &it->second});
  }
  // g^r is shared by D and every D_j, so it is computed before the fork.
  const ec::Point g_r = g.mul(r);
  std::vector<std::function<void()>> jobs;
  jobs.reserve(draws.size() + 1);
  // D = g^((α+r)/β): g^α is in MK, so compute (g^α · g^r)^(1/β).
  jobs.emplace_back([this, &mk, &g_r, &sk] {
    const BigInt beta_inv = BigInt::mod_inv(mk.beta, curve_->order());
    sk.d = curve_->mul(curve_->add(mk.g_alpha, g_r), beta_inv);
  });
  for (const AttrDraw& draw : draws) {
    jobs.emplace_back([this, &draw, &g, &g_r] {
      draw.out->dj = curve_->add(g_r, curve_->mul(hash_attr(*draw.attr), draw.rj));
      draw.out->dj_prime = g.mul(draw.rj);
    });
  }
  if (runner) {
    runner(jobs);
  } else {
    for (const auto& job : jobs) job();
  }
  return sk;
}

void CpAbe::share_secret(const AccessTree::Node& node, const BigInt& value, std::size_t& next_id,
                         Ciphertext& ct, crypto::Drbg& rng) const {
  const std::size_t my_id = next_id++;
  if (node.is_leaf()) {
    if (node.leaf->perturbed) {
      throw std::invalid_argument("CpAbe::encrypt: policy leaf is perturbed (encrypt first, "
                                  "perturb after)");
    }
    Ciphertext::LeafCt leaf_ct;
    leaf_ct.cy = generator().mul(value);
    leaf_ct.cy_prime = curve_->mul(hash_attr(node.leaf->canonical()), value);
    ct.leaves.emplace(my_id, std::move(leaf_ct));
    return;
  }
  // Polynomial q_x of degree threshold-1, q_x(0) = value; child i gets
  // q_x(i) with 1-based index i.
  const BigInt& q = curve_->order();
  std::vector<BigInt> coeffs;
  coeffs.reserve(node.threshold);
  coeffs.push_back(value.mod(q));
  for (std::size_t i = 1; i < node.threshold; ++i) {
    auto rb = [&rng](std::size_t n) { return rng.bytes(n); };
    coeffs.push_back(BigInt::random_below(q, rb));
  }
  for (std::size_t child = 0; child < node.children.size(); ++child) {
    const BigInt x = BigInt::from_u64(child + 1);
    BigInt y = coeffs.back();
    for (std::size_t i = coeffs.size() - 1; i-- > 0;) {
      y = (BigInt::mod_mul(y, x, q) + coeffs[i]).mod(q);
    }
    share_secret(node.children[child], y, next_id, ct, rng);
  }
}

std::pair<Ciphertext, Bytes> CpAbe::encrypt_key(const PublicKey& pk, const AccessTree& policy,
                                                crypto::Drbg& rng) const {
  Ciphertext ct;
  ct.policy = policy;
  const BigInt s = rand_scalar(rng);
  // KEM message: random target-group element M = e(g,g)^z.
  const BigInt z = rand_scalar(rng);
  const Fp2 m = e_gg().pow(z);
  ct.c_tilde = m * pk.e_gg_alpha.pow(s);
  ct.c = curve_->mul(pk.h, s);
  std::size_t next_id = 0;
  share_secret(policy.root(), s, next_id, ct, rng);
  return {ct, crypto::Sha256::hash(m.to_bytes())};
}

namespace {
// Number of DFS ids a subtree consumes (to skip children without pairing).
std::size_t subtree_size(const AccessTree::Node& node) {
  std::size_t n = 1;
  for (const auto& child : node.children) n += subtree_size(child);
  return n;
}
}  // namespace

std::optional<Fp2> CpAbe::decrypt_node(const PrivateKey& sk, const Ciphertext& ct,
                                       const AccessTree::Node& node,
                                       std::size_t& next_id) const {
  const std::size_t my_id = next_id++;
  if (node.is_leaf()) {
    if (node.leaf->perturbed) return std::nullopt;  // unreconstructed leaf
    const auto key_it = sk.attrs.find(node.leaf->canonical());
    if (key_it == sk.attrs.end()) return std::nullopt;
    const auto ct_it = ct.leaves.find(my_id);
    if (ct_it == ct.leaves.end()) return std::nullopt;  // tree/ct mismatch
    // e(D_j, C_y) / e(D_j', C_y') = e(g,g)^(r·q_y(0)).
    const Fp2 num = pairing_(key_it->second.dj, ct_it->second.cy);
    const Fp2 den = pairing_(key_it->second.dj_prime, ct_it->second.cy_prime);
    return num * den.inv();
  }
  // Evaluate children until the threshold is met; remaining subtrees only
  // advance the DFS id counter (decryption is O(threshold) pairings per
  // gate, matching BSW07's "choose a satisfying subset" semantics).
  std::vector<std::pair<std::size_t, Fp2>> available;  // (1-based index, value)
  for (std::size_t child = 0; child < node.children.size(); ++child) {
    if (available.size() == node.threshold) {
      next_id += subtree_size(node.children[child]);
      continue;
    }
    auto result = decrypt_node(sk, ct, node.children[child], next_id);
    if (result.has_value()) {
      available.emplace_back(child + 1, std::move(*result));
    }
  }
  if (available.size() < node.threshold) return std::nullopt;
  // Lagrange combination at 0 over the chosen child indices, in Z_q.
  const BigInt& q = curve_->order();
  Fp2 acc = Fp2::one(curve_->fp());
  for (std::size_t i = 0; i < available.size(); ++i) {
    BigInt num{1}, den{1};
    const BigInt xi = BigInt::from_u64(available[i].first);
    for (std::size_t j = 0; j < available.size(); ++j) {
      if (i == j) continue;
      const BigInt xj = BigInt::from_u64(available[j].first);
      num = BigInt::mod_mul(num, (-xj).mod(q), q);
      den = BigInt::mod_mul(den, (xi - xj).mod(q), q);
    }
    const BigInt coeff = BigInt::mod_mul(num, BigInt::mod_inv(den, q), q);
    acc = acc * available[i].second.pow(coeff);
  }
  return acc;
}

bool CpAbe::mark_satisfiable(const PrivateKey* sk, const Ciphertext& ct,
                             const AccessTree::Node& node, std::size_t& next_id,
                             std::vector<char>& sat) const {
  const std::size_t my_id = next_id++;
  if (sat.size() <= my_id) sat.resize(my_id + 1, 0);
  bool ok;
  if (node.is_leaf()) {
    ok = !node.leaf->perturbed && ct.leaves.count(my_id) != 0 &&
         (sk == nullptr || sk->attrs.count(node.leaf->canonical()) != 0);
  } else {
    // Visit ALL children (the verdicts drive flatten_node's skip logic);
    // this pass is pure map lookups, no pairings.
    std::size_t satisfied = 0;
    for (const auto& child : node.children) {
      satisfied += mark_satisfiable(sk, ct, child, next_id, sat) ? 1 : 0;
    }
    ok = satisfied >= node.threshold;
  }
  sat[my_id] = ok ? 1 : 0;
  return ok;
}

void CpAbe::flatten_node(const AccessTree::Node& node, std::size_t& next_id, const BigInt& coeff,
                         const std::vector<char>& sat, std::vector<LeafUse>& out) const {
  next_id++;  // my_id; callers only recurse into satisfied nodes
  if (node.is_leaf()) {
    out.push_back({next_id - 1, node.leaf->canonical(), coeff});
    return;
  }
  // Choose the first `threshold` satisfiable children in index order —
  // exactly the subset the reference recursion evaluates — then fold this
  // gate's Lagrange coefficient at 0 into each chosen child's cumulative
  // exponent. (v^a)^b = v^(ab mod q) for the order-q pairing outputs, so
  // one pow per leaf with the collapsed exponent matches the reference's
  // nested pows exactly.
  std::vector<std::size_t> child_ids(node.children.size());
  {
    std::size_t id = next_id;
    for (std::size_t c = 0; c < node.children.size(); ++c) {
      child_ids[c] = id;
      id += subtree_size(node.children[c]);
    }
  }
  std::vector<std::size_t> selected;  // 0-based child positions
  selected.reserve(node.threshold);
  for (std::size_t c = 0; c < node.children.size() && selected.size() < node.threshold; ++c) {
    if (sat[child_ids[c]]) selected.push_back(c);
  }
  const BigInt& q = curve_->order();
  std::size_t pick = 0;
  for (std::size_t c = 0; c < node.children.size(); ++c) {
    if (pick >= selected.size() || selected[pick] != c) {
      next_id += subtree_size(node.children[c]);  // skipped subtree
      continue;
    }
    ++pick;
    const BigInt xi = BigInt::from_u64(c + 1);
    BigInt num{1}, den{1};
    for (const std::size_t other : selected) {
      if (other == c) continue;
      const BigInt xj = BigInt::from_u64(other + 1);
      num = BigInt::mod_mul(num, (-xj).mod(q), q);
      den = BigInt::mod_mul(den, (xi - xj).mod(q), q);
    }
    const BigInt lambda = BigInt::mod_mul(num, BigInt::mod_inv(den, q), q);
    flatten_node(node.children[c], next_id, BigInt::mod_mul(coeff, lambda, q), sat, out);
  }
}

std::optional<std::vector<CpAbe::LeafUse>> CpAbe::select_leaves(const PrivateKey* sk,
                                                               const Ciphertext& ct) const {
  std::vector<char> sat;
  std::size_t next_id = 0;
  if (!mark_satisfiable(sk, ct, ct.policy.root(), next_id, sat)) return std::nullopt;
  std::vector<LeafUse> uses;
  next_id = 0;
  flatten_node(ct.policy.root(), next_id, BigInt{1}, sat, uses);
  return uses;
}

std::optional<std::vector<std::string>> CpAbe::decrypt_attributes(const Ciphertext& ct) const {
  const auto uses = select_leaves(nullptr, ct);
  if (!uses) return std::nullopt;
  std::vector<std::string> attrs;
  attrs.reserve(uses->size());
  for (const LeafUse& use : *uses) attrs.push_back(use.attr);
  return attrs;
}

std::optional<Bytes> CpAbe::decrypt_key(const PublicKey& pk, const PrivateKey& sk,
                                        const Ciphertext& ct,
                                        const ParallelRunner& runner) const {
  (void)pk;
  // Phase 1: pairing-free satisfiability + leaf selection with collapsed
  // Lagrange exponents (same subset and coefficients as the reference).
  const auto uses = select_leaves(&sk, ct);
  if (!uses) return std::nullopt;
  // Phase 2: one multi-pairing. Ciphertext components go FIRST so the
  // Miller-line tables key on the long-lived side (ê is symmetric on the
  // cyclic order-q subgroup; the symmetry is part of the ec equivalence
  // suite) and amortize across every access to the same post. The product
  //   ∏_y ( ê(C_y, D_j)·ê(C_y', D_j')^{-1} )^(Λ_y) · ê(C, D)^{-1}
  // equals A / e(C, D) of the reference, with ONE final exponentiation
  // instead of 2·|leaves| + 1.
  std::vector<ec::Pairing::Term> terms;
  terms.reserve(uses->size() * 2 + 1);
  for (const LeafUse& use : *uses) {
    const auto& ak = sk.attrs.at(use.attr);          // present: sat pass checked
    const auto& leaf_ct = ct.leaves.at(use.id);      // present: sat pass checked
    terms.push_back({leaf_ct.cy, ak.dj, false, use.coeff});
    terms.push_back({leaf_ct.cy_prime, ak.dj_prime, true, use.coeff});
  }
  terms.push_back({ct.c, sk.d, true, BigInt{1}});
  const Fp2 ratio = pairing_.product(terms, runner);
  // M = C̃ · A / e(C, D), with A = e(g,g)^(rs) and e(C, D) = e(g,g)^(s(α+r)).
  const Fp2 m = ct.c_tilde * ratio;
  return crypto::Sha256::hash(m.to_bytes());
}

std::optional<Bytes> CpAbe::decrypt_key_reference(const PublicKey& pk, const PrivateKey& sk,
                                                  const Ciphertext& ct) const {
  (void)pk;
  std::size_t next_id = 0;
  const std::optional<Fp2> a = decrypt_node(sk, ct, ct.policy.root(), next_id);
  if (!a.has_value()) return std::nullopt;
  // M = C̃ · A / e(C, D), with A = e(g,g)^(rs) and e(C, D) = e(g,g)^(s(α+r)).
  const Fp2 e_c_d = pairing_(ct.c, sk.d);
  const Fp2 m = ct.c_tilde * (*a) * e_c_d.inv();
  return crypto::Sha256::hash(m.to_bytes());
}

Ciphertext CpAbe::swap_policy(Ciphertext ct, AccessTree new_policy) {
  ct.policy = std::move(new_policy);
  return ct;
}

Bytes CpAbe::serialize(const PublicKey& pk) const {
  Bytes out;
  crypto::put_blob(out, curve_->serialize(pk.g));
  crypto::put_blob(out, curve_->serialize(pk.h));
  crypto::put_blob(out, curve_->serialize(pk.f));
  crypto::put_blob(out, pk.e_gg_alpha.to_bytes());
  return out;
}

PublicKey CpAbe::deserialize_public_key(std::span<const std::uint8_t> data) const {
  std::size_t off = 0;
  PublicKey pk;
  pk.g = curve_->deserialize(crypto::get_blob(data, off));
  pk.h = curve_->deserialize(crypto::get_blob(data, off));
  pk.f = curve_->deserialize(crypto::get_blob(data, off));
  pk.e_gg_alpha = Fp2::from_bytes(curve_->fp(), crypto::get_blob(data, off));
  if (off != data.size()) throw std::invalid_argument("CpAbe: trailing bytes in public key");
  return pk;
}

Bytes CpAbe::serialize(const MasterKey& mk) const {
  Bytes out;
  crypto::put_blob(out, mk.beta.to_bytes(curve_->fp()->byte_length()));
  crypto::put_blob(out, curve_->serialize(mk.g_alpha));
  return out;
}

MasterKey CpAbe::deserialize_master_key(std::span<const std::uint8_t> data) const {
  std::size_t off = 0;
  MasterKey mk;
  mk.beta = BigInt::from_bytes(crypto::get_blob(data, off));
  mk.g_alpha = curve_->deserialize(crypto::get_blob(data, off));
  if (off != data.size()) throw std::invalid_argument("CpAbe: trailing bytes in master key");
  return mk;
}

Bytes CpAbe::serialize(const PrivateKey& sk) const {
  Bytes out;
  crypto::put_blob(out, curve_->serialize(sk.d));
  crypto::put_u32(out, static_cast<std::uint32_t>(sk.attrs.size()));
  for (const auto& [attr, ak] : sk.attrs) {
    crypto::put_str(out, attr);
    crypto::put_blob(out, curve_->serialize(ak.dj));
    crypto::put_blob(out, curve_->serialize(ak.dj_prime));
  }
  return out;
}

PrivateKey CpAbe::deserialize_private_key(std::span<const std::uint8_t> data) const {
  std::size_t off = 0;
  PrivateKey sk;
  sk.d = curve_->deserialize(crypto::get_blob(data, off));
  const std::uint32_t n = crypto::get_u32(data, off);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string attr = crypto::get_str(data, off);
    PrivateKey::AttrKey ak;
    ak.dj = curve_->deserialize(crypto::get_blob(data, off));
    ak.dj_prime = curve_->deserialize(crypto::get_blob(data, off));
    sk.attrs.emplace(attr, std::move(ak));
  }
  if (off != data.size()) throw std::invalid_argument("CpAbe: trailing bytes in private key");
  return sk;
}

Bytes CpAbe::serialize(const Ciphertext& ct) const {
  Bytes out;
  crypto::put_blob(out, ct.policy.serialize());
  crypto::put_blob(out, ct.c_tilde.to_bytes());
  crypto::put_blob(out, curve_->serialize(ct.c));
  crypto::put_u32(out, static_cast<std::uint32_t>(ct.leaves.size()));
  for (const auto& [id, leaf] : ct.leaves) {
    crypto::put_u32(out, static_cast<std::uint32_t>(id));
    crypto::put_blob(out, curve_->serialize(leaf.cy));
    crypto::put_blob(out, curve_->serialize(leaf.cy_prime));
  }
  return out;
}

Ciphertext CpAbe::deserialize_ciphertext(std::span<const std::uint8_t> data) const {
  std::size_t off = 0;
  Ciphertext ct;
  ct.policy = AccessTree::deserialize(crypto::get_blob(data, off));
  ct.c_tilde = Fp2::from_bytes(curve_->fp(), crypto::get_blob(data, off));
  ct.c = curve_->deserialize(crypto::get_blob(data, off));
  const std::uint32_t n = crypto::get_u32(data, off);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t id = crypto::get_u32(data, off);
    Ciphertext::LeafCt leaf;
    leaf.cy = curve_->deserialize(crypto::get_blob(data, off));
    leaf.cy_prime = curve_->deserialize(crypto::get_blob(data, off));
    ct.leaves.emplace(id, std::move(leaf));
  }
  if (off != data.size()) throw std::invalid_argument("CpAbe: trailing bytes in ciphertext");
  return ct;
}

}  // namespace sp::abe
