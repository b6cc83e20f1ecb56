// GuestMemory tests: the segment edges, the wrap-safe bounds check, byte
// order, the data image and the host-side Peek/Poke — the memory model
// every guest executor (MIPS simulator, IR interpreter, RTL model) shares.
// How each executor maps a miss to its own fault is tested next to that
// executor (test_simulator, test_ir, test_rtl).
#include "support/guest_memory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace b2h::support {
namespace {

using G = GuestMemory;

TEST(GuestMemory, LayoutConstants) {
  EXPECT_EQ(G::kStackBase, G::kStackTop - G::kStackSize);
  EXPECT_EQ(G::kInitialSp, G::kStackTop - 64);
  EXPECT_LT(G::kDataBase + G::kDataSize, G::kStackBase);
}

TEST(GuestMemory, EdgeTable) {
  struct Edge {
    const char* what;
    std::uint32_t addr;
    unsigned size;
    bool inside;
  };
  constexpr std::uint32_t kDataEnd = G::kDataBase + G::kDataSize;
  const Edge edges[] = {
      {"first data word", G::kDataBase, 4, true},
      {"last data word", kDataEnd - 4, 4, true},
      {"last data byte", kDataEnd - 1, 1, true},
      {"word straddling the data end", kDataEnd - 2, 4, false},
      {"one byte past the data end", kDataEnd, 1, false},
      {"data base - 4", G::kDataBase - 4, 4, false},
      {"byte below the data base", G::kDataBase - 1, 1, false},
      {"first stack word", G::kStackBase, 4, true},
      {"last stack word", G::kStackTop - 4, 4, true},
      {"last stack byte", G::kStackTop - 1, 1, true},
      {"word straddling the stack top", G::kStackTop - 2, 4, false},
      {"one byte past the stack top", G::kStackTop, 1, false},
      {"stack base - 4", G::kStackBase - 4, 4, false},
      {"initial sp", G::kInitialSp, 4, true},
      {"0xFFFFFFFC word (addr + 4 wraps to 0)", 0xFFFF'FFFCu, 4, false},
      {"0xFFFFFFFE half (addr + 2 wraps to 0)", 0xFFFF'FFFEu, 2, false},
      {"0xFFFFFFFF byte (addr + 1 wraps to 0)", 0xFFFF'FFFFu, 1, false},
      {"address 0", 0u, 4, false},
  };
  for (const Edge& edge : edges) {
    SCOPED_TRACE(edge.what);
    G memory(std::vector<std::uint8_t>{});
    EXPECT_EQ(memory.Ptr(edge.addr, edge.size) != nullptr, edge.inside);
    std::uint32_t raw = 0xDEADBEEFu;
    EXPECT_EQ(memory.Load(edge.addr, edge.size, &raw), edge.inside);
    EXPECT_EQ(raw, edge.inside ? 0u : 0xDEADBEEFu);  // a miss leaves *raw
    EXPECT_EQ(memory.Store(edge.addr, edge.size, 0x01020304u), edge.inside);
  }
}

TEST(GuestMemory, LittleEndianRoundTrip) {
  G memory(std::vector<std::uint8_t>{});
  for (const std::uint32_t base : {G::kDataBase + 64, G::kStackBase + 64}) {
    SCOPED_TRACE(base);
    ASSERT_TRUE(memory.Store(base, 4, 0x11223344u));
    const std::uint8_t* p = memory.Ptr(base, 4);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p[0], 0x44u);  // least significant byte first
    EXPECT_EQ(p[1], 0x33u);
    EXPECT_EQ(p[2], 0x22u);
    EXPECT_EQ(p[3], 0x11u);
    std::uint32_t raw = 0;
    ASSERT_TRUE(memory.Load(base, 4, &raw));
    EXPECT_EQ(raw, 0x11223344u);
    ASSERT_TRUE(memory.Load(base, 2, &raw));
    EXPECT_EQ(raw, 0x3344u);  // zero-extended
    ASSERT_TRUE(memory.Load(base + 2, 2, &raw));
    EXPECT_EQ(raw, 0x1122u);
    ASSERT_TRUE(memory.Load(base + 3, 1, &raw));
    EXPECT_EQ(raw, 0x11u);
    // Narrow stores write only the low bytes of the value.
    ASSERT_TRUE(memory.Store(base, 1, 0xFFFFFFAAu));
    ASSERT_TRUE(memory.Store(base + 2, 2, 0xFFFFBBCCu));
    EXPECT_EQ(memory.Peek(base), 0xBBCC33AAu);
  }
}

TEST(GuestMemory, DataImageAtTheBaseZerosAfterIt) {
  const std::vector<std::uint8_t> image = {1, 2, 3, 4, 5, 6};
  G memory(image);
  EXPECT_EQ(memory.Peek(G::kDataBase), 0x04030201u);
  std::uint32_t raw = 0xFFu;
  ASSERT_TRUE(memory.Load(G::kDataBase + 4, 2, &raw));
  EXPECT_EQ(raw, 0x0605u);
  EXPECT_EQ(memory.Peek(G::kDataBase + 4), 0x00000605u);
  EXPECT_EQ(memory.Peek(G::kDataBase + 8), 0u);
  EXPECT_EQ(memory.Peek(G::kDataBase + G::kDataSize - 4), 0u);
  EXPECT_EQ(memory.Peek(G::kStackBase), 0u);
  EXPECT_EQ(memory.Peek(G::kStackTop - 4), 0u);
}

TEST(GuestMemory, ImageFillingTheWholeSegmentIsKept) {
  std::vector<std::uint8_t> image(G::kDataSize, 0);
  image.back() = 0x5A;
  G memory(image);
  EXPECT_EQ(memory.Peek(G::kDataBase + G::kDataSize - 4), 0x5A000000u);
}

TEST(GuestMemory, ImageLargerThanTheSegmentIsRejected) {
  const std::vector<std::uint8_t> image(G::kDataSize + 1, 0);
  EXPECT_THROW(G{image}, InternalError);
}

TEST(GuestMemory, PeekPokeThrowOutsideBothSegments) {
  G memory(std::vector<std::uint8_t>{});
  memory.Poke(G::kDataBase, 7);
  EXPECT_EQ(memory.Peek(G::kDataBase), 7u);
  memory.Poke(G::kStackTop - 4, 9);
  EXPECT_EQ(memory.Peek(G::kStackTop - 4), 9u);
  for (const std::uint32_t addr :
       {G::kDataBase - 4, G::kDataBase + G::kDataSize,
        G::kDataBase + G::kDataSize - 2, G::kStackBase - 4, G::kStackTop,
        0xFFFF'FFFCu, 0u}) {
    SCOPED_TRACE(addr);
    EXPECT_THROW((void)memory.Peek(addr), InternalError);
    EXPECT_THROW(memory.Poke(addr, 1), InternalError);
  }
}

}  // namespace
}  // namespace b2h::support
