// Partitioner and estimator tests: the three steps of the paper's
// algorithm, area budgeting, the performance/energy model, and the platform
// trends the paper reports (slower CPU -> larger speedup and savings).
#include "partition/partitioner.hpp"

#include <gtest/gtest.h>

#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "toolchain/toolchain.hpp"

namespace b2h::partition {
namespace {

/// The paper's flow on one binary: Toolchain::Run on `platform`.
Result<ToolchainRun> RunOn(const mips::SoftBinary& binary,
                           Platform platform = {},
                           PartitionOptions options = {}) {
  return Toolchain()
      .WithPlatform(std::move(platform))
      .WithPartitionOptions(std::move(options))
      .Run(std::make_shared<const mips::SoftBinary>(binary));
}

ToolchainRun RunBenchmark(const std::string& name, Platform platform = {},
                          PartitionOptions options = {}) {
  const suite::Benchmark* bench = suite::FindBenchmark(name);
  EXPECT_NE(bench, nullptr);
  auto binary = suite::BuildBinary(*bench, 1);
  EXPECT_TRUE(binary.ok());
  auto flow = RunOn(binary.value(), std::move(platform), std::move(options));
  EXPECT_TRUE(flow.ok()) << flow.status().message();
  return std::move(flow).take();
}

TEST(Partitioner, SelectsHotLoopsFirst) {
  const ToolchainRun flow = RunBenchmark("fir");
  ASSERT_FALSE(flow.partition.hw.empty());
  // The first (frequency-step) region must be the hottest one.
  const auto& first = flow.partition.hw.front();
  EXPECT_EQ(first.selected_by, SelectedBy::kFrequency);
  for (const auto& other : flow.partition.hw) {
    if (other.selected_by == SelectedBy::kFrequency) {
      EXPECT_LE(other.sw_cycles, first.sw_cycles);
      break;
    }
  }
  // The 90-10 rule holds on this suite: loops dominate execution.
  EXPECT_GT(flow.partition.loop_coverage, 0.5);
}

TEST(Partitioner, RespectsAreaBudget) {
  Platform tiny;
  tiny.fpga.capacity_gates = 30'000;
  tiny.fpga.usable_fraction = 1.0;
  const ToolchainRun flow = RunBenchmark("fir", tiny);
  EXPECT_LE(flow.partition.area_used_gates, 30'000.0);
  // Something must have been rejected for area on this multi-loop program.
  bool area_rejection = false;
  for (const auto& reason : flow.partition.rejected) {
    if (reason.find("area") != std::string::npos) area_rejection = true;
  }
  EXPECT_TRUE(area_rejection);
}

TEST(Partitioner, ZeroBudgetSelectsNothing) {
  Platform none;
  none.fpga.capacity_gates = 0;
  const ToolchainRun flow = RunBenchmark("fir", none);
  EXPECT_TRUE(flow.partition.hw.empty());
  EXPECT_NEAR(flow.estimate.speedup, 1.0, 1e-9);
  EXPECT_NEAR(flow.estimate.energy_savings, 0.0, 1e-9);
}

TEST(Partitioner, AliasStepMakesArraysResident) {
  // fir: samples/coeffs/output are shared between the init loops and the
  // kernel; once all loops touching them are in hardware the arrays become
  // FPGA-resident.
  const ToolchainRun flow = RunBenchmark("fir");
  bool any_resident = false;
  for (const auto& selected : flow.partition.hw) {
    if (selected.arrays_resident) any_resident = true;
  }
  EXPECT_TRUE(any_resident);
}

TEST(Partitioner, StepsCanBeDisabled) {
  PartitionOptions no_steps;
  no_steps.enable_alias_step = false;
  no_steps.enable_greedy_step = false;
  const ToolchainRun base = RunBenchmark("fir");
  const ToolchainRun reduced = RunBenchmark("fir", {}, no_steps);
  EXPECT_LE(reduced.partition.hw.size(), base.partition.hw.size());
  for (const auto& selected : reduced.partition.hw) {
    EXPECT_EQ(selected.selected_by, SelectedBy::kFrequency);
  }
}

TEST(Estimator, SpeedupRequiresPositiveTimes) {
  const ToolchainRun flow = RunBenchmark("brev");
  const AppEstimate& est = flow.estimate;
  EXPECT_GT(est.sw_time, 0.0);
  EXPECT_GT(est.partitioned_time, 0.0);
  EXPECT_LT(est.partitioned_time, est.sw_time);
  EXPECT_GT(est.speedup, 1.0);
  EXPECT_GT(est.avg_kernel_speedup, est.speedup * 0.5);
  EXPECT_GT(est.energy_savings, 0.0);
  EXPECT_LT(est.energy_savings, 1.0);
}

TEST(Estimator, RegionSwCyclesAttributesAll) {
  // All-leaders attribution: a region covering every block gets all cycles.
  const suite::Benchmark* bench = suite::FindBenchmark("bcnt");
  auto binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok());
  mips::Simulator sim(binary.value());
  const auto run = sim.Run();
  std::vector<std::uint32_t> all_leaders{mips::kTextBase};
  const std::uint64_t cycles =
      RegionSwCycles(run.profile, all_leaders, all_leaders);
  EXPECT_EQ(cycles, run.cycles);
}

TEST(Platforms, SlowerCpuMeansBiggerWins) {
  // Paper trend: 40 MHz -> speedup 12.6 / savings 84%;
  //              200 MHz -> 5.4 / 69%;  400 MHz -> 3.8 / 49%.
  const suite::Benchmark* bench = suite::FindBenchmark("fir");
  auto binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok());

  double speedups[3];
  double savings[3];
  const double mhz[3] = {40.0, 200.0, 400.0};
  for (int i = 0; i < 3; ++i) {
    auto flow = RunOn(binary.value(), Platform::WithCpuMhz(mhz[i]));
    ASSERT_TRUE(flow.ok());
    speedups[i] = flow.value().estimate.speedup;
    savings[i] = flow.value().estimate.energy_savings;
  }
  EXPECT_GT(speedups[0], speedups[1]);
  EXPECT_GT(speedups[1], speedups[2]);
  EXPECT_GT(savings[0], savings[1]);
  EXPECT_GT(savings[1], savings[2]);
  EXPECT_GT(speedups[2], 1.0);  // still wins at 400 MHz
}

TEST(Platforms, PowerModelScalesWithFrequency) {
  const CpuModel cpu40 = Platform::WithCpuMhz(40).cpu;
  const CpuModel cpu400 = Platform::WithCpuMhz(400).cpu;
  EXPECT_LT(cpu40.active_watts(), cpu400.active_watts());
  EXPECT_LT(cpu40.idle_watts(), cpu40.active_watts());
  const FpgaModel fpga;
  EXPECT_GT(fpga.dynamic_watts(50'000, 100),
            fpga.dynamic_watts(10'000, 100));
  EXPECT_GT(fpga.dynamic_watts(50'000, 100), 0.0);
  EXPECT_GT(fpga.budget_gates(), 0.0);
}

TEST(Flow, ReportMentionsEverything) {
  const ToolchainRun flow = RunBenchmark("fir");
  const std::string report = flow.Report();
  EXPECT_NE(report.find("decompile:"), std::string::npos);
  EXPECT_NE(report.find("partition:"), std::string::npos);
  EXPECT_NE(report.find("speedup"), std::string::npos);
  EXPECT_NE(report.find("energy savings"), std::string::npos);
  EXPECT_NE(report.find("gates"), std::string::npos);
}

TEST(Flow, IndirectJumpBinariesFailCleanly) {
  const suite::Benchmark* bench = suite::FindBenchmark("switch01");
  ASSERT_NE(bench, nullptr);
  auto binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok());
  auto flow = RunOn(binary.value());
  ASSERT_FALSE(flow.ok());
  EXPECT_EQ(flow.status().kind(), ErrorKind::kIndirectJump);
}

TEST(Flow, FaultingBinaryReported) {
  mips::SoftBinary bad;
  bad.text = {mips::Encode({.op = mips::Op::kLw, .rs = 0, .rt = 2,
                            .imm = 0})};  // load from address 0 faults
  auto flow = RunOn(bad);
  ASSERT_FALSE(flow.ok());
  EXPECT_EQ(flow.status().kind(), ErrorKind::kMalformedBinary);
}

}  // namespace
}  // namespace b2h::partition
