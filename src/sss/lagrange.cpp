#include "sss/lagrange.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/secret.hpp"
#include "obs/metrics.hpp"

namespace sp::sss {

namespace {

obs::Counter& lagrange_hits() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "sss_lagrange_cache_hits_total", "Lagrange basis computations served from the cache");
  return c;
}

obs::Counter& lagrange_builds() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "sss_lagrange_cache_builds_total", "Lagrange basis sets computed and inserted");
  return c;
}

std::string cache_key(FpCtxPtr field, std::span<const Fp> xs, const Fp& at) {
  std::vector<crypto::Bytes> encoded;
  encoded.reserve(xs.size());
  for (const Fp& x : xs) encoded.push_back(x.to_bytes());
  std::sort(encoded.begin(), encoded.end());
  std::string key;
  key.reserve((xs.size() + 2) * field->byte_length());
  const crypto::Bytes at_bytes = at.to_bytes();
  key.append(at_bytes.begin(), at_bytes.end());
  const crypto::Bytes p_bytes = field->p().to_bytes(field->byte_length());
  key.append(p_bytes.begin(), p_bytes.end());
  for (crypto::Bytes& e : encoded) {
    key.append(e.begin(), e.end());
    crypto::secure_wipe(e);
  }
  return key;
}

}  // namespace

LagrangeCache::~LagrangeCache() {
  sp::MutexLock lock(mutex_);
  for (auto& [key, entry] : map_) wipe_entry(entry);
  for (std::string& key : fifo_) crypto::secure_wipe(key);
}

void LagrangeCache::wipe_entry(Entry& entry) noexcept {
  for (auto& [abscissa, coeff] : entry.coeffs) {
    abscissa.wipe();
    coeff.wipe();
  }
}

std::vector<Fp> LagrangeCache::compute(FpCtxPtr field, std::span<const Fp> xs,
                                       const Fp& at) {
  const std::size_t n = xs.size();
  if (n == 0) throw std::invalid_argument("LagrangeCache::compute: empty abscissa set");
  std::vector<Fp> out(n);
  if (n == 1) {
    out[0] = Fp::one(field);
    return out;
  }

  // num_j = ∏_{m≠j} (at − x_m) assembled from prefix/suffix products of the
  // differences — O(n) multiplies instead of the O(n²) inner loop.
  std::vector<Fp> diff(n);
  for (std::size_t m = 0; m < n; ++m) diff[m] = at - xs[m];
  std::vector<Fp> prefix(n);
  std::vector<Fp> suffix(n);
  prefix[0] = diff[0];
  for (std::size_t m = 1; m < n; ++m) prefix[m] = prefix[m - 1] * diff[m];
  suffix[n - 1] = diff[n - 1];
  for (std::size_t m = n - 1; m-- > 0;) suffix[m] = diff[m] * suffix[m + 1];

  // den_j = ∏_{m≠j} (x_j − x_m): inherently O(n²) products, but all n
  // inversions collapse into ONE via Montgomery batch inversion.
  std::vector<Fp> den(n);
  for (std::size_t j = 0; j < n; ++j) {
    Fp d = Fp::one(field);
    for (std::size_t m = 0; m < n; ++m) {
      if (m != j) d = d * (xs[j] - xs[m]);
    }
    den[j] = d;
  }
  std::vector<Fp> inv = field::batch_inv(den);

  for (std::size_t j = 0; j < n; ++j) {
    Fp num = j == 0 ? suffix[1] : (j == n - 1 ? prefix[n - 2] : prefix[j - 1] * suffix[j + 1]);
    out[j] = num * inv[j];
    num.wipe();
  }

  // Abscissae are share halves; everything derived from them is scratch.
  for (Fp& x : diff) x.wipe();
  for (Fp& x : prefix) x.wipe();
  for (Fp& x : suffix) x.wipe();
  for (Fp& x : den) x.wipe();
  for (Fp& x : inv) x.wipe();
  return out;
}

std::vector<Fp> LagrangeCache::basis(FpCtxPtr field, std::span<const Fp> xs,
                                     const Fp& at) const {
  std::string key = cache_key(field, xs, at);
  {
    sp::MutexLock lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      // Remap the stored coefficients to this call's share order.
      std::vector<Fp> out(xs.size());
      for (std::size_t j = 0; j < xs.size(); ++j) {
        for (const auto& [abscissa, coeff] : it->second.coeffs) {
          if (abscissa == xs[j]) {
            out[j] = coeff;
            break;
          }
        }
      }
      lagrange_hits().inc();
      crypto::secure_wipe(key);
      return out;
    }
  }

  // Compute outside the lock — racing callers on the same key derive the
  // identical basis, and the second insert is a no-op.
  std::vector<Fp> out = compute(field, xs, at);

  {
    sp::MutexLock lock(mutex_);
    if (map_.find(key) == map_.end()) {
      Entry entry;
      entry.coeffs.reserve(xs.size());
      for (std::size_t j = 0; j < xs.size(); ++j) entry.coeffs.emplace_back(xs[j], out[j]);
      map_.emplace(key, std::move(entry));
      fifo_.push_back(key);
      lagrange_builds().inc();
      while (map_.size() > capacity_ && !fifo_.empty()) {
        auto victim = map_.find(fifo_.front());
        if (victim != map_.end()) {
          wipe_entry(victim->second);
          map_.erase(victim);
        }
        crypto::secure_wipe(fifo_.front());
        fifo_.pop_front();
      }
    }
  }
  crypto::secure_wipe(key);
  return out;
}

std::size_t LagrangeCache::entries() const {
  sp::MutexLock lock(mutex_);
  return map_.size();
}

}  // namespace sp::sss
