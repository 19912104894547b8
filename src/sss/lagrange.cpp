#include "sss/lagrange.hpp"

#include <stdexcept>

namespace sp::sss {

std::vector<Fp> lagrange_basis(FpCtxPtr field, std::span<const Fp> xs, const Fp& at) {
  const std::size_t n = xs.size();
  if (n == 0) throw std::invalid_argument("lagrange_basis: empty abscissa set");
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

}  // namespace sp::sss
