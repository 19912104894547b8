// Deterministic random bit generator: a ChaCha20 keystream, keyed either by
// the SHA-256 of a seed or directly by a caller's key and stream number.
//
// All nondeterminism in the library (polynomial coefficients, share
// abscissae, CP-ABE exponents, network jitter, workload generation) is drawn
// from a Drbg so runs are reproducible given a seed string — essential for
// the benchmark harness and the security regression tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "crypto/bytes.hpp"
#include "crypto/chacha20.hpp"

namespace sp::crypto {

class Drbg {
 public:
  /// Seeds from an arbitrary string (hashed to the ChaCha key).
  explicit Drbg(std::string_view seed);
  /// Seeds from raw bytes.
  explicit Drbg(std::span<const std::uint8_t> seed);
  /// Numbered stream `stream` under a 32-byte `key`: ChaCha20 with the
  /// number in the nonce, so opening one hashes nothing and shares no
  /// state. Distinct numbers give independent streams, and one (key,
  /// stream) always gives the same bytes; the caller owns the numbering and
  /// the key. Throws std::invalid_argument on a key of another size.
  Drbg(std::span<const std::uint8_t> key, std::uint64_t stream);

  /// n fresh pseudo-random bytes.
  Bytes bytes(std::size_t n);
  /// Uniform uint64.
  std::uint64_t next_u64();
  /// Uniform integer in [0, bound) via rejection sampling; bound > 0.
  std::uint64_t uniform(std::uint64_t bound);
  /// Uniform double in [0, 1).
  double uniform_real();

 private:
  std::unique_ptr<ChaCha20> stream_;  ///< wipes its key words on destruction
};

}  // namespace sp::crypto
