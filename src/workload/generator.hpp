// Seeded load shapes for the benchmark of record (perfbench/).
//
// Post popularity is Zipfian (PAPERS.md: Armknecht et al. on post
// popularity), sampled in O(1) with Hörmann-style rejection-inversion, so a
// large catalog needs no O(catalog) CDF table. Every draw comes from the
// caller's DRBG, so the same seed replays the same picks.
#pragma once

#include <cstdint>

#include "crypto/drbg.hpp"

namespace sp::workload {

/// O(1) Zipf(s) sampler over ranks {0, .., n-1} by rejection-inversion
/// (Hörmann & Derflinger): invert the integral envelope of x^-s and accept
/// with the ratio to the true mass. No table, so a 10^6-post catalog costs
/// nothing to skew.
class ZipfSampler {
 public:
  /// `s` > 0, s != 1 handled exactly; s == 1 uses the log envelope.
  ZipfSampler(std::uint64_t n, double s);

  /// Zero-based rank; rank 0 is the hottest.
  [[nodiscard]] std::uint64_t sample(crypto::Drbg& rng) const;

  [[nodiscard]] double s() const { return s_; }
  [[nodiscard]] std::uint64_t n() const { return n_; }

 private:
  [[nodiscard]] double h_integral(double x) const;  ///< ∫ envelope
  [[nodiscard]] double h_inverse(double y) const;

  std::uint64_t n_;
  double s_;
  double h_x1_;        ///< h_integral(1.5)
  double h_n_;         ///< h_integral(n + 0.5)
  double threshold_;   ///< shortcut acceptance bound for rank 0
};

}  // namespace sp::workload
