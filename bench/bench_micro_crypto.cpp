// Micro-benchmarks for the crypto substrate: the primitive costs that
// compose into the Fig. 10 curves (AES, hashes, BigInt modular arithmetic,
// curve ops, pairing).
#include <benchmark/benchmark.h>

#include <vector>

#include "crypto/aes.hpp"
#include "crypto/bigint.hpp"
#include "crypto/drbg.hpp"
#include "crypto/modes.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha3.hpp"
#include "ec/pairing.hpp"
#include "ec/params.hpp"
#include "field/fp.hpp"
#include "sig/schnorr.hpp"
#include "sss/lagrange.hpp"
#include "sss/shamir.hpp"

namespace {

using namespace sp;

void BM_Sha256(benchmark::State& state) {
  crypto::Drbg rng("bm-sha256");
  const auto data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha3_256(benchmark::State& state) {
  crypto::Drbg rng("bm-sha3");
  const auto data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha3_256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha3_256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_AesCbcEncrypt(benchmark::State& state) {
  crypto::Drbg rng("bm-aes");
  const auto key = rng.bytes(32);
  const auto iv = rng.bytes(16);
  const auto data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aes_cbc_encrypt(key, iv, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCbcEncrypt)->Arg(100)->Arg(4096)->Arg(65536);

void BM_SealOpen(benchmark::State& state) {
  crypto::Drbg rng("bm-seal");
  const auto key = rng.bytes(32);
  const auto iv = rng.bytes(16);
  const auto data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto env = crypto::seal(key, iv, data);
    benchmark::DoNotOptimize(crypto::open(key, env));
  }
}
BENCHMARK(BM_SealOpen)->Arg(100)->Arg(65536);

void BM_BigIntModPow512(benchmark::State& state) {
  const auto& params = ec::preset_params(ec::ParamPreset::kFull);
  crypto::Drbg rng("bm-modpow");
  const auto base = crypto::BigInt::from_bytes(rng.bytes(60));
  const auto exp = crypto::BigInt::from_bytes(rng.bytes(20));  // 160-bit exponent
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigInt::mod_pow(base, exp, params.fp->p()));
  }
}
BENCHMARK(BM_BigIntModPow512);

void BM_FpMul(benchmark::State& state) {
  const auto& params = ec::preset_params(ec::ParamPreset::kFull);
  crypto::Drbg rng("bm-fpmul");
  const auto a = field::Fp::random(params.fp, rng);
  const auto b = field::Fp::random(params.fp, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_FpMul);

void BM_FpInv(benchmark::State& state) {
  const auto& params = ec::preset_params(ec::ParamPreset::kFull);
  crypto::Drbg rng("bm-fpinv");
  const auto a = field::Fp::random_nonzero(params.fp, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.inv());
  }
}
BENCHMARK(BM_FpInv);

void BM_ScalarMul(benchmark::State& state) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kFull));
  crypto::Drbg rng("bm-mul");
  const auto g = curve.random_group_element(rng);
  const auto k = crypto::BigInt::from_bytes(rng.bytes(20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.mul(g, k));
  }
}
BENCHMARK(BM_ScalarMul);

void BM_ScalarMulFixedBase(benchmark::State& state) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kFull));
  crypto::Drbg rng("bm-mul-fb");
  const ec::FixedBase table(curve, curve.random_group_element(rng));
  const auto k = crypto::BigInt::from_bytes(rng.bytes(20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.mul(k));
  }
}
BENCHMARK(BM_ScalarMulFixedBase);

// One FixedBase table build: what a long-lived generator, or a C1
// receiver's first grant against a sharer, pays once, and what a one-use
// base (CP-ABE's h and f) would pay for nothing.
void BM_FixedBaseBuild(benchmark::State& state) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kFull));
  crypto::Drbg rng("bm-fb-build");
  const auto base = curve.random_group_element(rng);
  for (auto _ : state) {
    const ec::FixedBase table(curve, base);
    benchmark::DoNotOptimize(&table);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FixedBaseBuild)->Unit(benchmark::kMillisecond);

// Schnorr Verify, as a receiver runs it on every C1 grant: g^s from the
// generator's table minus e·pk from the sharer's table, compared with R
// inversion-free. The receiver builds the sharer's table once
// (BM_FixedBaseBuild), so it is built here outside the timed loop.
void BM_SchnorrVerify(benchmark::State& state) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kFull));
  const sig::Schnorr schnorr(curve, curve.hash_to_group(crypto::to_bytes("sp-schnorr-g")));
  crypto::Drbg rng("bm-schnorr-verify");
  const sig::KeyPair kp = schnorr.keygen(rng);
  const ec::FixedBase sharer_key(curve, kp.public_key);
  const auto msg = rng.bytes(100);
  const sig::Signature sig = schnorr.sign(kp, msg);
  for (auto _ : state) {
    const bool ok = schnorr.verify(sharer_key, msg, sig);
    benchmark::DoNotOptimize(ok);
    if (!ok) state.SkipWithError("valid signature rejected");
  }
}
BENCHMARK(BM_SchnorrVerify)->Unit(benchmark::kMicrosecond);

void BM_ScalarMulBinary(benchmark::State& state) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kFull));
  crypto::Drbg rng("bm-mul");
  const auto g = curve.random_group_element(rng);
  const auto k = crypto::BigInt::from_bytes(rng.bytes(20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.mul_binary(g, k));
  }
}
BENCHMARK(BM_ScalarMulBinary);

void BM_HashToGroup(benchmark::State& state) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kFull));
  crypto::Drbg rng("bm-h2g");
  std::uint64_t counter = 0;
  for (auto _ : state) {
    auto input = rng.bytes(16);
    input.push_back(static_cast<std::uint8_t>(counter++));
    benchmark::DoNotOptimize(curve.hash_to_group(input));
  }
}
BENCHMARK(BM_HashToGroup);

void BM_TatePairing(benchmark::State& state) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kFull));
  const ec::Pairing pairing(curve);
  crypto::Drbg rng("bm-pairing");
  const auto g = curve.random_group_element(rng);
  const auto h = curve.random_group_element(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing(g, h));
  }
}
BENCHMARK(BM_TatePairing);

// ---- PR 7: batch verification primitives -------------------------------

/// N independent full pairings (N Miller loops + N final exponentiations):
/// the pre-PR-7 cost of a k-leaf CP-ABE decrypt or a k-term verify product.
void BM_PairingProductNaive(benchmark::State& state) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kFull));
  const ec::Pairing pairing(curve);
  crypto::Drbg rng("bm-multi-pairing");
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<ec::Point> ps, qs;
  for (std::size_t i = 0; i < n; ++i) {
    ps.push_back(curve.random_group_element(rng));
    qs.push_back(curve.random_group_element(rng));
  }
  for (auto _ : state) {
    auto acc = pairing.one();
    for (std::size_t i = 0; i < n; ++i) acc = acc * pairing(ps[i], qs[i]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PairingProductNaive)->Arg(2)->Arg(4)->Arg(8);

/// The same product as one multi-pairing: N Miller loops sharing ONE final
/// exponentiation, with Miller-line tables warmed for the fixed first
/// arguments. The CI smoke step asserts this beats BM_PairingProductNaive.
void BM_PairingProductBatched(benchmark::State& state) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kFull));
  const ec::Pairing pairing(curve);
  crypto::Drbg rng("bm-multi-pairing");
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<ec::Pairing::Term> terms;
  for (std::size_t i = 0; i < n; ++i) {
    terms.push_back({curve.random_group_element(rng), curve.random_group_element(rng)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing.product(terms));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PairingProductBatched)->Arg(2)->Arg(4)->Arg(8);

/// Lagrange basis at x = 0 for k fresh abscissae, per-coefficient modular
/// inversions (the pre-PR-7 interpolate_at inner loop).
void BM_LagrangeBasisNaive(benchmark::State& state) {
  const auto field = field::make_fp(crypto::BigInt::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"));
  crypto::Drbg rng("bm-lagrange");
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<field::Fp> xs;
  for (std::size_t i = 0; i < k; ++i) xs.push_back(field::Fp::random_nonzero(field, rng));
  const field::Fp at = field::Fp::zero(field);
  for (auto _ : state) {
    std::vector<field::Fp> basis;
    basis.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      field::Fp acc = field::Fp::one(field);
      for (std::size_t m = 0; m < k; ++m) {
        if (m == j) continue;
        acc = acc * (at - xs[m]) * (xs[j] - xs[m]).inv();
      }
      basis.push_back(acc);
    }
    benchmark::DoNotOptimize(basis);
  }
}
BENCHMARK(BM_LagrangeBasisNaive)->Arg(4)->Arg(8)->Arg(16);

/// Batched basis build: prefix/suffix numerator products + one Montgomery
/// batch inversion for all k denominators.
void BM_LagrangeBasisBatched(benchmark::State& state) {
  const auto field = field::make_fp(crypto::BigInt::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"));
  crypto::Drbg rng("bm-lagrange");
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<field::Fp> xs;
  for (std::size_t i = 0; i < k; ++i) xs.push_back(field::Fp::random_nonzero(field, rng));
  const field::Fp at = field::Fp::zero(field);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sss::lagrange_basis(field, xs, at));
  }
}
BENCHMARK(BM_LagrangeBasisBatched)->Arg(4)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
