// Precomputed Lagrange basis cache (PR 7).
//
// Reconstructing one Construction-1 post always interpolates over the SAME
// abscissa set at the SAME point (x = 0): the shares were fixed at share
// time, and every granted access re-derives P(0) from them. The basis
// coefficients ℓ_j(x) = ∏_{m≠j} (x − x_m)/(x_j − x_m) depend only on
// (field, abscissa set, x) — never on the secret ordinates — so they are
// memoized here and each later reconstruction is just k multiply-adds.
//
// The uncached path is itself batched: numerators via prefix/suffix
// products, denominators inverted with ONE Montgomery batch inversion
// (field::batch_inv) instead of one Fp::inv() per share.
//
// Hygiene: abscissae are halves of secret shares, so the cache is
// deliberately PER-INSTANCE (one per Shamir, one Shamir per Session) rather
// than process-wide — evicting a Session drops its retained abscissae —
// and every evicted or destroyed entry is wiped, like split() wipes its
// polynomial. FIFO-capped against abscissa-set churn.
#pragma once

#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "field/fp.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::sss {

using field::Fp;
using field::FpCtxPtr;

class LagrangeCache {
 public:
  explicit LagrangeCache(std::size_t capacity = 32) : capacity_(capacity) {}
  ~LagrangeCache();
  LagrangeCache(const LagrangeCache&) = delete;
  LagrangeCache& operator=(const LagrangeCache&) = delete;

  /// Basis coefficients ℓ_j(at), aligned with the CALL order of `xs` (the
  /// cache key is order-independent: same abscissa set in any permutation
  /// hits the same entry). Precondition: xs are distinct and non-empty —
  /// callers (Shamir) reject duplicates first.
  [[nodiscard]] std::vector<Fp> basis(FpCtxPtr field, std::span<const Fp> xs,
                                      const Fp& at) const;

  /// The batched no-cache computation (prefix/suffix numerators + one
  /// batch inversion). Public so benches can compare cached vs direct.
  [[nodiscard]] static std::vector<Fp> compute(FpCtxPtr field, std::span<const Fp> xs,
                                               const Fp& at);

  /// Current entry count (tests assert the FIFO cap holds).
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  /// (abscissa, coefficient) pairs; remapped to call order on hit.
  struct Entry {
    std::vector<std::pair<Fp, Fp>> coeffs;
  };

  static void wipe_entry(Entry& entry) noexcept;

  mutable sp::Mutex mutex_;
  mutable std::unordered_map<std::string, Entry> map_ SP_GUARDED_BY(mutex_);
  mutable std::deque<std::string> fifo_ SP_GUARDED_BY(mutex_);
  std::size_t capacity_;
};

}  // namespace sp::sss
