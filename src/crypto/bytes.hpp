// Byte-buffer utilities shared by every module: hex codecs, XOR blinding,
// constant-time comparison, string <-> bytes conversion, and the field codec
// the protocol objects are written in.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sp::crypto {

/// The library-wide octet-string type. Kept as uint8_t (not std::byte) so
/// arithmetic in the hash/cipher cores stays free of casts.
using Bytes = std::vector<std::uint8_t>;

/// Lowercase hex encoding of an octet string.
std::string to_hex(std::span<const std::uint8_t> data);

/// Decodes a hex string (upper or lower case). Throws std::invalid_argument
/// on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// UTF-8/ASCII string to bytes (no terminator).
Bytes to_bytes(std::string_view s);

/// Bytes to std::string (may embed NULs).
std::string to_string(std::span<const std::uint8_t> data);

/// Element-wise XOR. If the operands differ in length, the result has the
/// length of `a` and `b` is cycled — the paper XORs a secret share with a
/// context answer, which rarely match in size.
Bytes xor_cycle(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

/// Constant-time equality (length leaks; contents do not). Used for answer
/// hash verification at the service provider.
bool ct_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

/// String overload for answer/hash comparisons — views the characters as
/// octets, no copies.
bool ct_equal(std::string_view a, std::string_view b);

/// Concatenates buffers; used when building hash inputs like H(a_i || K_Z).
Bytes concat(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

// The field codec of the protocol objects the SP and DH hold (Z_O, τ', PK,
// MK, CT'; docs/WIRE_FORMAT.md): a u32 is four bytes, most significant
// first, and a blob or string is its u32 length followed by its bytes. Each
// get_* reads the field at `off` and advances `off` past it; a field that
// runs past the end of `data` throws std::invalid_argument.

void put_u32(Bytes& out, std::uint32_t v);
std::uint32_t get_u32(std::span<const std::uint8_t> data, std::size_t& off);
void put_blob(Bytes& out, std::span<const std::uint8_t> blob);
Bytes get_blob(std::span<const std::uint8_t> data, std::size_t& off);
void put_str(Bytes& out, std::string_view s);
std::string get_str(std::span<const std::uint8_t> data, std::size_t& off);

}  // namespace sp::crypto
