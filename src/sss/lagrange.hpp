// Batched Lagrange basis.
//
// Reconstructing one Construction-1 post interpolates over the receiver's
// abscissa set at x = 0. The basis coefficients
// ℓ_j(x) = ∏_{m≠j} (x − x_m)/(x_j − x_m) are built in one batched pass:
// numerators via prefix/suffix products, denominators inverted with ONE
// Montgomery batch inversion (field::batch_inv) instead of one Fp::inv()
// per share.
//
// Hygiene: abscissae are halves of secret shares, so every intermediate is
// wiped before return, like split() wipes its polynomial.
#pragma once

#include <span>
#include <vector>

#include "field/fp.hpp"

namespace sp::sss {

using field::Fp;
using field::FpCtxPtr;

/// Basis coefficients ℓ_j(at), aligned with the order of `xs`.
/// Precondition: xs are distinct and non-empty — callers (Shamir) reject
/// duplicates first.
[[nodiscard]] std::vector<Fp> lagrange_basis(FpCtxPtr field, std::span<const Fp> xs,
                                             const Fp& at);

}  // namespace sp::sss
