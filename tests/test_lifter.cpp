// Lifter / CFG recovery tests: block discovery, SSA construction, the
// indirect-jump failure mode, function discovery through jal, profile
// annotation, and recovery's edge cases with their exact diagnostics.
#include "decomp/lifter.hpp"

#include <gtest/gtest.h>

#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "mips/assembler.hpp"
#include "mips/simulator.hpp"

namespace b2h::decomp {
namespace {

mips::SoftBinary Asm(const std::string& source) {
  auto binary = mips::Assemble(source);
  EXPECT_TRUE(binary.ok()) << binary.status().message();
  return std::move(binary).take();
}

/// Recovery failures are pinned by kind and full message.
void ExpectLiftError(const Result<ir::Module>& module, ErrorKind kind,
                     const std::string& message) {
  ASSERT_FALSE(module.ok());
  EXPECT_EQ(module.status().kind(), kind);
  EXPECT_EQ(module.status().message(), message);
}

std::uint32_t Word(const mips::Instr& instr) { return mips::Encode(instr); }

TEST(Lifter, StraightLineCode) {
  const auto binary = Asm(R"(
    main:
      li $t0, 5
      addiu $t0, $t0, 3
      move $v0, $t0
      jr $ra
  )");
  auto module = Lift(binary);
  ASSERT_TRUE(module.ok()) << module.status().message();
  EXPECT_TRUE(ir::Verify(module.value()).ok());
  EXPECT_EQ(module.value().functions.size(), 1u);
  const ir::Function* main = module.value().main;
  EXPECT_EQ(main->blocks().size(), 1u);
  EXPECT_EQ(main->name(), "main");
}

TEST(Lifter, BranchMakesDiamond) {
  const auto binary = Asm(R"(
    main:
      bgez $a0, pos
      subu $v0, $zero, $a0
      jr $ra
    pos:
      move $v0, $a0
      jr $ra
  )");
  auto module = Lift(binary);
  ASSERT_TRUE(module.ok()) << module.status().message();
  const ir::Function* main = module.value().main;
  EXPECT_EQ(main->blocks().size(), 3u);
  const Status status = ir::Verify(*main);
  EXPECT_TRUE(status.ok()) << status.message();
}

TEST(Lifter, LoopGetsPhi) {
  const auto binary = Asm(R"(
    main:
      li $t0, 0
      li $t1, 0
    loop:
      addu $t1, $t1, $t0
      addiu $t0, $t0, 1
      slti $t2, $t0, 10
      bne $t2, $zero, loop
      move $v0, $t1
      jr $ra
  )");
  auto module = Lift(binary);
  ASSERT_TRUE(module.ok()) << module.status().message();
  const ir::Function* main = module.value().main;
  std::size_t phis = 0;
  for (const auto& block : main->blocks()) {
    phis += block->Phis().size();
  }
  EXPECT_GE(phis, 2u);  // induction variable + accumulator
  EXPECT_TRUE(ir::Verify(*main).ok());
}

TEST(Lifter, IndirectJumpFailsRecovery) {
  const auto binary = Asm(R"(
    main:
      la $t0, main
      jr $t0
  )");
  ExpectLiftError(Lift(binary), ErrorKind::kIndirectJump,
                  "unresolvable indirect jump (jr $t0) at 0x400008");
}

TEST(Lifter, JalrFailsRecovery) {
  const auto binary = Asm(R"(
    main:
      la $t0, main
      jalr $t0
      jr $ra
  )");
  ExpectLiftError(Lift(binary), ErrorKind::kIndirectJump,
                  "unresolvable indirect call (jalr) at 0x400008");
}

TEST(Lifter, DiscoversCalleesThroughJal) {
  const auto binary = Asm(R"(
    main:
      li $a0, 4
      jal helper
      jr $ra
    helper:
      sll $v0, $a0, 1
      jr $ra
  )");
  auto module = Lift(binary);
  ASSERT_TRUE(module.ok()) << module.status().message();
  EXPECT_EQ(module.value().functions.size(), 2u);
  const ir::Function* helper =
      module.value().FindByEntry(binary.symbols.at("helper"));
  ASSERT_NE(helper, nullptr);
  EXPECT_EQ(helper->name(), "helper");
  // main contains a call op referencing the helper entry.
  bool found_call = false;
  for (const auto& block : module.value().main->blocks()) {
    for (const ir::Instr* instr : block->instrs) {
      if (instr->op == ir::Opcode::kCall) {
        found_call = true;
        EXPECT_EQ(instr->call_target, binary.symbols.at("helper"));
      }
    }
  }
  EXPECT_TRUE(found_call);
}

TEST(Lifter, MalformedBinaryFails) {
  mips::SoftBinary binary;
  binary.text = {0xFFFFFFFFu};  // undecodable
  ExpectLiftError(Lift(binary), ErrorKind::kMalformedBinary,
                  "undecodable instruction at 0x400000");
}

TEST(Lifter, BranchOutsideTextFails) {
  mips::SoftBinary binary;
  // j 0x0800000 (far outside the one-instruction text segment)
  binary.text = {mips::Encode(
      {.op = mips::Op::kJ, .target = 0x0800000 >> 2})};
  ExpectLiftError(Lift(binary), ErrorKind::kMalformedBinary,
                  "control flows outside text at 0x800000");
  // A call target is recovered as a function of its own, and fails there.
  ExpectLiftError(Lift(Asm("main:\n jal 0x500000\n jr $ra\n")),
                  ErrorKind::kMalformedBinary,
                  "control flows outside text at 0x500000");
}

TEST(Lifter, ProfileAnnotations) {
  const auto binary = Asm(R"(
    main:
      li $t0, 6
      li $v0, 0
    loop:
      addiu $v0, $v0, 2
      addiu $t0, $t0, -1
      bgtz $t0, loop
      jr $ra
  )");
  mips::Simulator sim(binary);
  const auto run = sim.Run();
  ASSERT_EQ(run.return_value, 12);

  LiftOptions options;
  options.profile = &run.profile;
  auto module = Lift(binary, options);
  ASSERT_TRUE(module.ok());
  const ir::Function* main = module.value().main;
  // Find the loop block and check counts: executes 6 times, 5 back edges.
  bool found = false;
  for (const auto& block : main->blocks()) {
    if (block->exec_count == 6) {
      found = true;
      EXPECT_EQ(block->taken_count + block->not_taken_count, 6u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lifter, HiLoRegistersFlowThroughMultDiv) {
  const auto binary = Asm(R"(
    main:
      li $t0, 100
      li $t1, 7
      div $t0, $t1
      mflo $t2
      mfhi $t3
      sll $t2, $t2, 8
      or $v0, $t2, $t3
      jr $ra
  )");
  auto lifted = Lift(binary);
  ASSERT_TRUE(lifted.ok());
  EXPECT_TRUE(ir::Verify(lifted.value()).ok());
}

// ---------------------------------------------------------------------------
// CFG recovery edge cases, pinned by exact kind and message (or exact IR).
// ---------------------------------------------------------------------------
TEST(CfgRecovery, FallthroughOffTheEndOfText) {
  ExpectLiftError(Lift(Asm("main:\n li $t0, 1\n addu $v0, $t0, $t0\n")),
                  ErrorKind::kMalformedBinary,
                  "control flows outside text at 0x400008");
}

TEST(CfgRecovery, FirstErrorFollowsBreadthFirstOrder) {
  // The branch target (0x40000c) is visited before the fallthrough
  // (0x400004), so its error is the one reported.
  mips::SoftBinary binary;
  binary.text = {Word({.op = mips::Op::kBeq, .rs = 4, .rt = 5, .imm = 2}),
                 Word({.op = mips::Op::kJr, .rs = mips::kT0}),
                 Word({.op = mips::Op::kSll}), 0xFFFFFFFFu};
  ExpectLiftError(Lift(binary), ErrorKind::kMalformedBinary,
                  "undecodable instruction at 0x40000c");
}

TEST(CfgRecovery, BeqZeroZeroIsUnconditional) {
  // The word after `beq $0,$0` is never reached, so it may be garbage.
  mips::SoftBinary binary;
  binary.text = {Word({.op = mips::Op::kBeq, .rs = 0, .rt = 0, .imm = 1}),
                 0xFFFFFFFFu, Word({.op = mips::Op::kJr, .rs = mips::kRa})};
  auto module = Lift(binary);
  ASSERT_TRUE(module.ok()) << module.status().message();
  EXPECT_EQ(ir::Print(module.value()),
            "func func_0x400000 @0x400000 {\n"
            "bb_400000:\n"
            "  %0:i32 = input r2\n"
            "  br bb_400008\n"
            "bb_400008:\n"
            "  ret %0\n"
            "}\n\n");
}

TEST(CfgRecovery, BneSameRegisterIsNeverTaken) {
  // The target of `bne $r,$r` is never reached, so it may be garbage.
  mips::SoftBinary binary;
  binary.text = {Word({.op = mips::Op::kBne, .rs = 8, .rt = 8, .imm = 1}),
                 Word({.op = mips::Op::kJr, .rs = mips::kRa}), 0xFFFFFFFFu};
  auto module = Lift(binary);
  ASSERT_TRUE(module.ok()) << module.status().message();
  EXPECT_EQ(ir::Print(module.value()),
            "func func_0x400000 @0x400000 {\n"
            "bb_400000:\n"
            "  %0:i32 = input r2\n"
            "  br bb_400004\n"
            "bb_400004:\n"
            "  ret %0\n"
            "}\n\n");
}

TEST(CfgRecovery, BranchWhoseSuccessorsAreOneBlock) {
  auto module = Lift(Asm(R"(
    main:
      li $v0, 3
      beq $a0, $a1, next
    next:
      addiu $v0, $v0, 1
      jr $ra
  )"));
  ASSERT_TRUE(module.ok()) << module.status().message();
  EXPECT_TRUE(ir::Verify(module.value()).ok());
  EXPECT_EQ(ir::Print(module.value()),
            "func main @0x400000 {\n"
            "bb_400000:\n"
            "  %0:i32 = input r4\n"
            "  %1:i32 = input r5\n"
            "  %2:i32 = add 0, 3\n"
            "  %3:i1 = eq %0, %1\n"
            "  condbr %3, bb_400008, bb_400008\n"
            "bb_400008:\n"
            "  %5:i32 = add %2, 1\n"
            "  ret %5\n"
            "}\n\n");
}

TEST(CfgRecovery, LiftAtRootOutsideText) {
  const auto binary = Asm("main:\n jr $ra\n");
  for (const std::uint32_t root : {0x00400100u, 0x10000000u, 0x00400002u}) {
    SCOPED_TRACE(root);
    ExpectLiftError(LiftAt(binary, root), ErrorKind::kMalformedBinary,
                    "LiftAt: root entry outside text segment");
  }
}

TEST(TrivialPhis, RemovedAfterLifting) {
  // A block with a single predecessor gets placeholder phis during lifting;
  // they must all be gone afterwards.
  const auto binary = Asm(R"(
    main:
      li $t0, 1
      b next
    next:
      move $v0, $t0
      jr $ra
  )");
  auto module = Lift(binary);
  ASSERT_TRUE(module.ok());
  for (const auto& block : module.value().main->blocks()) {
    for (const ir::Instr* instr : block->instrs) {
      if (instr->op == ir::Opcode::kPhi) {
        EXPECT_GE(block->preds.size(), 2u)
            << "trivial phi survived in " << block->name;
      }
    }
  }
}

}  // namespace
}  // namespace b2h::decomp
