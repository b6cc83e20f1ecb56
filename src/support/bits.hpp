// Bit-manipulation helpers shared by the ISA layer, the decompiler's
// bit-width analysis, and the synthesis area/delay models.
#pragma once

#include <bit>
#include <cstdint>

namespace b2h {

/// Extract bits [lo, lo+len) of `word` (len in 1..32).
[[nodiscard]] constexpr std::uint32_t Bits(std::uint32_t word, unsigned lo,
                                           unsigned len) noexcept {
  return (word >> lo) & (len >= 32 ? 0xFFFF'FFFFu : ((1u << len) - 1u));
}

/// Sign-extend the low `width` bits of `value` to 32 bits.
[[nodiscard]] constexpr std::int32_t SignExtend(std::uint32_t value,
                                                unsigned width) noexcept {
  if (width >= 32) return static_cast<std::int32_t>(value);
  const std::uint32_t sign = 1u << (width - 1);
  const std::uint32_t mask = (1u << width) - 1u;
  const std::uint32_t v = value & mask;
  return static_cast<std::int32_t>((v ^ sign) - sign);
}

/// Number of bits needed to represent `value` as an unsigned quantity
/// (minimum 1 so that a zero-valued wire still has a width).
[[nodiscard]] constexpr unsigned UnsignedWidth(std::uint32_t value) noexcept {
  return value == 0 ? 1u : static_cast<unsigned>(std::bit_width(value));
}

/// Number of bits needed to represent `value` in two's complement
/// (-2^(w-1) <= value < 2^(w-1)); e.g. -1 -> 1, 0 -> 1, 127 -> 8, -128 -> 8.
[[nodiscard]] constexpr unsigned SignedWidth(std::int32_t value) noexcept {
  const std::uint32_t magnitude =
      value < 0 ? ~static_cast<std::uint32_t>(value)
                : static_cast<std::uint32_t>(value);
  return static_cast<unsigned>(std::bit_width(magnitude)) + 1u;
}

[[nodiscard]] constexpr bool IsPowerOfTwo(std::uint32_t value) noexcept {
  return value != 0 && (value & (value - 1)) == 0;
}

/// log2 of a power of two (undefined for non-powers; callers must check).
[[nodiscard]] constexpr unsigned Log2(std::uint32_t value) noexcept {
  return static_cast<unsigned>(std::bit_width(value)) - 1u;
}

[[nodiscard]] constexpr unsigned PopCount(std::uint32_t value) noexcept {
  return static_cast<unsigned>(std::popcount(value));
}

/// Mask with the low `width` bits set (width in 0..32).
[[nodiscard]] constexpr std::uint32_t LowMask(unsigned width) noexcept {
  return width >= 32 ? 0xFFFF'FFFFu : ((1u << width) - 1u);
}

}  // namespace b2h
