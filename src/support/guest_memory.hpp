// The guest memory model shared by every executor of guest code: the MIPS
// simulator (the binary), the IR interpreter (the decompiled CDFG) and the
// RTL model (the synthesized circuit).  Co-simulation compares those three,
// so they must agree on the layout, on which addresses exist and on byte
// order.
//
// Layout of the hypothetical platform (text lives in the binary itself, see
// mips/binary.hpp):
//
//   data   [kDataBase,  kDataBase + kDataSize)  1 MiB, initialized from the
//                                               binary's data image, zeros
//                                               after it
//   stack  [kStackBase, kStackTop)              64 KiB, zeroed; every run
//                                               starts with sp = kInitialSp
//
// Accesses are little-endian.  Alignment is *not* checked here: each
// executor checks it itself and maps a miss to its own fault text.
//
// Load and Store are forced inline: the MIPS simulator's run loops are
// single huge functions (mips/simulator.cpp) that GCC otherwise stops
// inlining into, which leaves a call with a runtime-sized byte loop on
// every guest access.  Inlined, each access site assembles its fixed-size
// value in place and only the bounds check (Ptr) stays a call.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace b2h::support {

class GuestMemory {
 public:
  static constexpr std::uint32_t kDataBase = 0x1000'0000u;
  static constexpr std::uint32_t kDataSize = 1u << 20;  // 1 MiB
  static constexpr std::uint32_t kStackTop = 0x7FFF'F000u;
  static constexpr std::uint32_t kStackSize = 1u << 16;  // 64 KiB
  static constexpr std::uint32_t kStackBase = kStackTop - kStackSize;
  /// The stack pointer every run starts with.
  static constexpr std::uint32_t kInitialSp = kStackTop - 64;

  /// Zeroed segments with `data_image` copied to kDataBase.  The image must
  /// fit the data segment (the assembler rejects larger ones).
  explicit GuestMemory(std::span<const std::uint8_t> data_image)
      : data_(kDataSize, 0), stack_(kStackSize, 0) {
    Check(data_image.size() <= kDataSize,
          "GuestMemory: data image larger than the data segment");
    if (!data_image.empty()) {
      std::memcpy(data_.data(), data_image.data(), data_image.size());
    }
  }

  /// Host pointer to the `size` bytes at `addr`, or null when they do not
  /// all lie inside one segment.
  [[nodiscard]] std::uint8_t* Ptr(std::uint32_t addr, unsigned size) noexcept {
    if (InSegment(addr, size, kDataBase, kDataSize)) {
      return data_.data() + (addr - kDataBase);
    }
    if (InSegment(addr, size, kStackBase, kStackSize)) {
      return stack_.data() + (addr - kStackBase);
    }
    return nullptr;
  }
  [[nodiscard]] const std::uint8_t* Ptr(std::uint32_t addr,
                                        unsigned size) const noexcept {
    return const_cast<GuestMemory*>(this)->Ptr(addr, size);
  }

  /// Little-endian load of `size` (1, 2 or 4) bytes, zero-extended into
  /// `*raw`.  False, leaving `*raw` alone, when the bytes are outside memory.
  [[nodiscard, gnu::always_inline]] bool Load(
      std::uint32_t addr, unsigned size, std::uint32_t* raw) const noexcept {
    const std::uint8_t* p = Ptr(addr, size);
    if (p == nullptr) return false;
    std::uint32_t value = 0;
    for (unsigned b = 0; b < size; ++b) {
      value |= static_cast<std::uint32_t>(p[b]) << (8 * b);
    }
    *raw = value;
    return true;
  }

  /// Little-endian store of the low `size` bytes of `value`.  False when
  /// the bytes are outside memory.
  [[nodiscard, gnu::always_inline]] bool Store(
      std::uint32_t addr, unsigned size, std::uint32_t value) noexcept {
    std::uint8_t* p = Ptr(addr, size);
    if (p == nullptr) return false;
    for (unsigned b = 0; b < size; ++b) {
      p[b] = static_cast<std::uint8_t>((value >> (8 * b)) & 0xFFu);
    }
    return true;
  }

  /// Host-side word access for tests and result inspection; throws
  /// InternalError outside memory.
  [[nodiscard]] std::uint32_t Peek(std::uint32_t addr) const {
    std::uint32_t value = 0;
    Check(Load(addr, 4, &value), "GuestMemory::Peek: address outside memory");
    return value;
  }
  void Poke(std::uint32_t addr, std::uint32_t value) {
    Check(Store(addr, 4, value), "GuestMemory::Poke: address outside memory");
  }

 private:
  /// True when the `size` bytes at `addr` all lie in [base, base +
  /// segment_size).  Wrap-safe: a naive `addr + size <= end` wraps 32 bits
  /// for `addr` near UINT32_MAX and passes, so this compares the offset
  /// into the segment against the segment size instead; neither
  /// subtraction can wrap once `addr >= base`.
  [[nodiscard]] static constexpr bool InSegment(
      std::uint32_t addr, unsigned size, std::uint32_t base,
      std::uint32_t segment_size) noexcept {
    if (addr < base) return false;
    const std::uint32_t offset = addr - base;
    return offset < segment_size && size <= segment_size - offset;
  }

  std::vector<std::uint8_t> data_;
  std::vector<std::uint8_t> stack_;
};

}  // namespace b2h::support
