// Simulator halt paths end-to-end: binaries that exhaust the instruction
// budget (HaltReason::kMaxInstructions) or fault (HaltReason::kFault) must
// surface as clean Result errors from every flow entry point —
// Toolchain::Run, Toolchain::Explore, and RunDynamic — never as partial or
// garbage estimates.
#include <gtest/gtest.h>

#include <memory>

#include "mips/assembler.hpp"
#include "mips/simulator.hpp"
#include "testing_support.hpp"
#include "toolchain/toolchain.hpp"

namespace b2h {
namespace {

// Toolchain's default constructor reads B2H_CACHE_DIR; pin it unset so the
// Explore sweep below starts cold whatever the environment exports.
const testing_support::ScopedEnv kPinnedCacheDirEnv("B2H_CACHE_DIR", nullptr);

std::shared_ptr<const mips::SoftBinary> InfiniteLoopBinary() {
  auto assembled = mips::Assemble(R"(
    main:
      li $t0, 0
    loop:
      addiu $t0, $t0, 1
      j loop
  )");
  Check(assembled.ok(), "assemble failed");
  return std::make_shared<const mips::SoftBinary>(std::move(assembled).take());
}

std::shared_ptr<const mips::SoftBinary> FaultingBinary() {
  // Runs a short loop, then stores to an unmapped address.
  auto assembled = mips::Assemble(R"(
    main:
      li $t0, 8
      li $v0, 0
    loop:
      addiu $v0, $v0, 3
      addiu $t0, $t0, -1
      bgtz $t0, loop
      sw $v0, 0($zero)
      jr $ra
  )");
  Check(assembled.ok(), "assemble failed");
  return std::make_shared<const mips::SoftBinary>(std::move(assembled).take());
}

TEST(HaltPaths, SimulatorReportsBudgetAndFault) {
  {
    // The simulator references the binary; keep it alive past the call.
    const auto binary = InfiniteLoopBinary();
    mips::Simulator sim(*binary);
    const auto run = sim.Run({}, 10'000);
    EXPECT_EQ(run.reason, mips::HaltReason::kMaxInstructions);
    EXPECT_EQ(run.instructions, 10'000u);
    EXPECT_EQ(run.profile.total_instructions, 10'000u);
  }
  {
    const auto binary = FaultingBinary();
    mips::Simulator sim(*binary);
    const auto run = sim.Run();
    EXPECT_EQ(run.reason, mips::HaltReason::kFault);
    EXPECT_NE(run.fault_message.find("store outside memory"),
              std::string::npos)
        << run.fault_message;
    // The profile is consistent up to the fault.
    EXPECT_EQ(run.profile.total_instructions, run.instructions);
  }
}

TEST(HaltPaths, ToolchainRunPropagatesBothHaltReasons) {
  Toolchain budgeted;
  budgeted.WithMaxSimInstructions(5'000);
  auto exhausted = budgeted.Run(InfiniteLoopBinary(), "spin");
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().kind(), ErrorKind::kMalformedBinary);
  EXPECT_NE(exhausted.status().message().find("did not complete"),
            std::string::npos)
      << exhausted.status().message();

  Toolchain toolchain;
  auto faulted = toolchain.Run(FaultingBinary(), "faulty");
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().kind(), ErrorKind::kMalformedBinary);
  EXPECT_NE(faulted.status().message().find("fault"), std::string::npos)
      << faulted.status().message();
}

std::shared_ptr<const mips::SoftBinary> GoodBinary() {
  auto assembled = mips::Assemble(R"(
    main:
      li $t0, 200
      li $v0, 0
    loop:
      addiu $v0, $v0, 2
      addiu $t0, $t0, -1
      bgtz $t0, loop
      jr $ra
  )");
  Check(assembled.ok(), "assemble failed");
  return std::make_shared<const mips::SoftBinary>(std::move(assembled).take());
}

// The daemon's entry point: a sweep mixing a good binary, a faulting one,
// a budget-buster and a null one.  Exactly the bad points fail — the two
// halting binaries with the error Toolchain::Run gives — the good one
// still partitions, and the failures are cached, so a repeat sweep
// simulates nothing.
TEST(HaltPaths, ExploreReportsHaltsPerPointAndCachesThem) {
  Toolchain toolchain;
  toolchain.WithMaxSimInstructions(5'000);
  explore::ExploreSpec spec;
  spec.binaries = {{"good", GoodBinary()},
                   {"faulty", FaultingBinary()},
                   {"spin", InfiniteLoopBinary()},
                   {"null", nullptr}};
  spec.strategies = {"paper-greedy", "knapsack-optimal"};

  const explore::ExploreResult cold = toolchain.Explore(spec);
  ASSERT_EQ(cold.points.size(), 4u * spec.platforms.size() * 2u);
  EXPECT_EQ(cold.simulations_run, 3u);
  EXPECT_EQ(cold.decompilations_run, 1u);
  for (const explore::ExplorePoint& point : cold.points) {
    if (point.binary_name == "good") {
      ASSERT_TRUE(point.status.ok()) << point.status.message();
      // Clean estimates, not garbage: positive speedup and time.
      EXPECT_GT(point.speedup, 0.0) << point.platform_name;
      EXPECT_GT(point.partitioned_time, 0.0) << point.platform_name;
      continue;
    }
    ASSERT_FALSE(point.status.ok()) << point.binary_name;
    EXPECT_EQ(point.status.kind(), ErrorKind::kMalformedBinary);
    if (point.binary_name == "null") continue;
    const auto single = toolchain.Run(
        point.binary_name == "faulty" ? spec.binaries[1].binary
                                      : spec.binaries[2].binary,
        point.binary_name);
    ASSERT_FALSE(single.ok());
    EXPECT_EQ(point.status.message(), single.status().message())
        << point.binary_name << " on " << point.platform_name;
  }
  EXPECT_NE(cold.At(2, 0, 0, 0).status.message().find("did not complete"),
            std::string::npos);

  const explore::ExploreResult warm = toolchain.Explore(spec);
  EXPECT_EQ(warm.simulations_run, 0u);
  EXPECT_EQ(warm.decompilations_run, 0u);
  ASSERT_EQ(warm.points.size(), cold.points.size());
  for (std::size_t i = 0; i < warm.points.size(); ++i) {
    EXPECT_EQ(warm.points[i].status.kind(), cold.points[i].status.kind());
    EXPECT_EQ(warm.points[i].status.message(),
              cold.points[i].status.message());
  }
}

TEST(HaltPaths, DynamicFrontDoorPropagatesBudgetExhaustion) {
  Toolchain toolchain;
  toolchain.WithMaxSimInstructions(5'000);
  auto result = toolchain.RunDynamic(InfiniteLoopBinary(), "spin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().kind(), ErrorKind::kMalformedBinary);
}

}  // namespace
}  // namespace b2h
