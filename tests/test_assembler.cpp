// Assembler tests: labels, pseudo-instructions, data directives, errors.
#include "mips/assembler.hpp"

#include <gtest/gtest.h>

#include "mips/isa.hpp"
#include "mips/simulator.hpp"
#include "support/guest_memory.hpp"

namespace b2h::mips {
namespace {

TEST(Assembler, MinimalProgram) {
  auto binary = Assemble(R"(
    main:
      li $v0, 42
      jr $ra
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  EXPECT_EQ(binary.value().entry, kTextBase);
  EXPECT_EQ(binary.value().text.size(), 2u);
  Simulator sim(binary.value());
  const auto run = sim.Run();
  EXPECT_EQ(run.reason, HaltReason::kReturned);
  EXPECT_EQ(run.return_value, 42);
}

TEST(Assembler, ForwardAndBackwardLabels) {
  auto binary = Assemble(R"(
    main:
      li $t0, 3
      li $v0, 0
    loop:
      addiu $v0, $v0, 5
      addiu $t0, $t0, -1
      bgtz $t0, loop
      j done
      addiu $v0, $v0, 100   # skipped
    done:
      jr $ra
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  Simulator sim(binary.value());
  EXPECT_EQ(sim.Run().return_value, 15);
}

TEST(Assembler, LiExpansions) {
  // Small immediates: 1 word; large: lui+ori.
  auto small = Assemble("main:\n li $v0, 100\n jr $ra\n");
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.value().text.size(), 2u);

  auto negative = Assemble("main:\n li $v0, -5\n jr $ra\n");
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(negative.value().text.size(), 2u);
  Simulator sim_neg(negative.value());
  EXPECT_EQ(sim_neg.Run().return_value, -5);

  auto large = Assemble("main:\n li $v0, 0x12345678\n jr $ra\n");
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(large.value().text.size(), 3u);
  Simulator sim_large(large.value());
  EXPECT_EQ(sim_large.Run().return_value, 0x12345678);

  // lui-only form (low halfword zero).
  auto hi_only = Assemble("main:\n li $v0, 0x40000\n jr $ra\n");
  ASSERT_TRUE(hi_only.ok());
  EXPECT_EQ(hi_only.value().text.size(), 2u);
  Simulator sim_hi(hi_only.value());
  EXPECT_EQ(sim_hi.Run().return_value, 0x40000);
}

TEST(Assembler, PseudoBranches) {
  auto binary = Assemble(R"(
    main:
      li $t0, 5
      li $t1, 9
      li $v0, 0
      blt $t0, $t1, less
      jr $ra
    less:
      li $v0, 1
      bge $t1, $t0, both
      jr $ra
    both:
      addiu $v0, $v0, 2
      jr $ra
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  Simulator sim(binary.value());
  EXPECT_EQ(sim.Run().return_value, 3);
}

TEST(Assembler, DataDirectives) {
  auto binary = Assemble(R"(
    main:
      la $t0, tab
      lw $v0, 4($t0)
      la $t1, bytes
      lbu $t2, 1($t1)
      addu $v0, $v0, $t2
      jr $ra
    .data
    tab:
      .word 10, 20, 30
    bytes:
      .byte 1, 2, 3
    pad:
      .space 8
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  EXPECT_EQ(binary.value().symbols.at("tab"), kDataBase);
  EXPECT_EQ(binary.value().symbols.at("bytes"), kDataBase + 12);
  EXPECT_EQ(binary.value().data.size(), 12u + 3u + 8u);
  Simulator sim(binary.value());
  EXPECT_EQ(sim.Run().return_value, 22);
}

TEST(Assembler, WordLabelReferences) {
  auto binary = Assemble(R"(
    main:
      la $t0, ptrs
      lw $v0, 0($t0)
      jr $ra
    .data
    target:
      .word 77
    ptrs:
      .word target
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  Simulator sim(binary.value());
  EXPECT_EQ(static_cast<std::uint32_t>(sim.Run().return_value), kDataBase);
}

TEST(Assembler, DataLargerThanTheDataSegmentIsRejected) {
  // One byte too many: rejected up front, naming the segment size, instead
  // of being cut short by the executors and faulting later.
  for (const char* data : {".space 1048577\n",
                           ".space 1048576\n .byte 1\n",
                           ".space 1048576\n .word 7\n",
                           ".space 4294967296\n"}) {
    SCOPED_TRACE(data);
    const auto status =
        Assemble(std::string("main:\n jr $ra\n.data\n") + data).status();
    EXPECT_EQ(status.kind(), ErrorKind::kParse);
    EXPECT_NE(status.message().find("1048576-byte data segment"),
              std::string::npos)
        << status.message();
  }
}

TEST(Assembler, DataFillingTheDataSegmentAssembles) {
  // Exactly 1 MiB fits, and its last byte is readable at the segment end.
  auto binary = Assemble(R"(
    main:
      la $t0, tail
      lbu $v0, 0($t0)
      jr $ra
    .data
    pad:
      .space 1048575
    tail:
      .byte 42
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  EXPECT_EQ(binary.value().data.size(), support::GuestMemory::kDataSize);
  EXPECT_EQ(binary.value().symbols.at("tail"),
            kDataBase + support::GuestMemory::kDataSize - 1);
  Simulator sim(binary.value());
  const RunResult run = sim.Run();
  ASSERT_EQ(run.reason, HaltReason::kReturned) << run.fault_message;
  EXPECT_EQ(run.return_value, 42);

  auto spaced = Assemble("main:\n jr $ra\n.data\n .space 1048576\n");
  ASSERT_TRUE(spaced.ok()) << spaced.status().message();
  Simulator zeros(spaced.value());
  EXPECT_EQ(zeros.PeekWord(kDataBase + support::GuestMemory::kDataSize - 4),
            0u);
}

TEST(Assembler, Errors) {
  EXPECT_FALSE(Assemble("main:\n bogus $t0\n").ok());
  EXPECT_FALSE(Assemble("main:\n j nowhere\n").ok());
  EXPECT_FALSE(Assemble("main:\n li $t0\n").ok());
  EXPECT_FALSE(Assemble("main:\nmain:\n jr $ra\n").ok());  // duplicate label
  EXPECT_FALSE(Assemble(".data\n .word 1\n.text\n .word 2\n").ok());
  const auto status = Assemble("main:\n frob $t0, $t1\n").status();
  EXPECT_EQ(status.kind(), ErrorKind::kParse);
  EXPECT_NE(status.message().find("frob"), std::string::npos);
}

TEST(Assembler, MovePseudoUsesOr) {
  auto binary = Assemble("main:\n move $v0, $a0\n jr $ra\n");
  ASSERT_TRUE(binary.ok());
  const auto decoded = Decode(binary.value().text[0]);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, Op::kOr);
  EXPECT_EQ(decoded->rt, 0);
}

TEST(Assembler, CommentsAndWhitespace) {
  auto binary = Assemble(R"(
    # leading comment
    main:   li $v0, 7   # trailing comment
            jr $ra
  )");
  ASSERT_TRUE(binary.ok());
  Simulator sim(binary.value());
  EXPECT_EQ(sim.Run().return_value, 7);
}

}  // namespace
}  // namespace b2h::mips
