#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sp::workload {

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
  if (n < 1) throw std::invalid_argument("ZipfSampler: need n >= 1");
  if (s <= 0) throw std::invalid_argument("ZipfSampler: need s > 0");
  h_x1_ = h_integral(1.5) - 1.0;
  h_n_ = h_integral(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - h_inverse(h_integral(2.5) - std::pow(2.0, -s));
}

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  // ∫ t^-s dt with the s == 1 limit handled by expm1/log1p stability.
  const double t = (1.0 - s_) * log_x;
  return (std::abs(t) < 1e-8 ? log_x * (1.0 + t / 2.0) : std::expm1(t) / (1.0 - s_));
}

double ZipfSampler::h_inverse(double y) const {
  const double t = std::max(y * (1.0 - s_), -1.0 + 1e-12);
  return std::exp(std::abs(t) < 1e-8 ? y * (1.0 - t / 2.0) : std::log1p(t) / (1.0 - s_));
}

std::uint64_t ZipfSampler::sample(crypto::Drbg& rng) const {
  if (n_ == 1) return 0;
  // Hörmann–Derflinger rejection-inversion: invert the integral envelope,
  // round to the nearest rank, accept by the envelope/mass ratio. Expected
  // iterations < 2 for every (n, s); the cap keeps pathological streams
  // deterministic rather than unbounded.
  for (int iter = 0; iter < 128; ++iter) {
    const double u = h_n_ + rng.uniform_real() * (h_x1_ - h_n_);
    const double x = h_inverse(u);
    auto k = static_cast<std::uint64_t>(std::clamp(
        x + 0.5, 1.0, static_cast<double>(n_)));
    const auto kd = static_cast<double>(k);
    if (kd - x <= threshold_) return k - 1;
    if (u >= h_integral(kd + 0.5) - std::pow(kd, -s_)) return k - 1;
  }
  return 0;  // unreachable in practice
}

}  // namespace sp::workload
