// Heap-allocation guard for the pairing's inner loops at the 512-bit
// preset. This file replaces the global allocation functions of the test_ec
// binary with counting wrappers; a test arms the counter on its own thread
// around one call and reads how many allocations that call made.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "crypto/drbg.hpp"
#include "ec/pairing.hpp"
#include "ec/params.hpp"

namespace {

thread_local bool g_counting = false;
thread_local std::size_t g_allocations = 0;
int* volatile g_sink = nullptr;

// Out of line, so an inlined operator delete never shows the compiler a
// free() of a pointer that came from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace sp::ec {
namespace {

using field::Fp2;

template <typename Fn>
std::size_t count_allocations(Fn&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

TEST(PairingAllocations, MillerLoopReplayAndFinalExpAllocateNothing) {
  const Curve curve(preset_params(ParamPreset::kFull));
  const Pairing pairing(curve);
  crypto::Drbg rng("pairing-alloc-guard");
  const Point p = curve.random_group_element(rng);
  const Point q = curve.random_group_element(rng);
  const Point t = curve.random_group_element(rng);
  pairing.precompute(t);  // ê(t, ·) replays a line table
  // Warm the lazily created metric handles on both paths.
  (void)pairing.miller(p, q);
  (void)pairing.miller(t, q);

  // miller() wraps the loop in one registry lookup whose key (p, serialized
  // P) is built on the heap; has_precomputed() is exactly that lookup, so
  // anything miller() allocates beyond it belongs to the loop.
  const std::size_t lookup_p = count_allocations([&] { (void)pairing.has_precomputed(p); });
  const std::size_t lookup_t = count_allocations([&] { (void)pairing.has_precomputed(t); });
  Fp2 cold;
  Fp2 warm;
  Fp2 out;
  const std::size_t loop = count_allocations([&] { cold = pairing.miller(p, q); });
  const std::size_t replay = count_allocations([&] { warm = pairing.miller(t, q); });
  const std::size_t final_exp =
      count_allocations([&] { out = pairing.final_exponentiation(cold); });

  EXPECT_EQ(loop, lookup_p) << "Miller loop allocated";
  EXPECT_EQ(replay, lookup_t) << "line-table replay allocated";
  EXPECT_EQ(final_exp, 0u) << "final exponentiation allocated";
  // The guarded calls still compute the pairings.
  EXPECT_EQ(out, pairing(p, q));
  EXPECT_EQ(pairing.final_exponentiation(warm), pairing(t, q));
}

TEST(PairingAllocations, CounterSeesHeapTraffic) {
  // The hook itself works: a heap block is counted (the volatile sink keeps
  // the allocation from being optimized away).
  const std::size_t n = count_allocations([] {
    std::vector<int> v(16);
    g_sink = v.data();
  });
  EXPECT_GE(n, 1u);
}

}  // namespace
}  // namespace sp::ec
