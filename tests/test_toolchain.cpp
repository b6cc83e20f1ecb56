// Toolchain facade tests: platform registry, builder configuration, and
// the single-run front doors (Run/RunOn).  Sweeps over many binaries go
// through Toolchain::Explore and are tested in test_explore.
#include "toolchain/toolchain.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "suite/runner.hpp"
#include "suite/suite.hpp"

namespace b2h {
namespace {

std::shared_ptr<const mips::SoftBinary> BuildBench(const std::string& name,
                                                   int opt_level = 1) {
  const suite::Benchmark* bench = suite::FindBenchmark(name);
  EXPECT_NE(bench, nullptr) << name;
  auto binary = suite::BuildBinary(*bench, opt_level);
  EXPECT_TRUE(binary.ok()) << binary.status().message();
  return std::make_shared<const mips::SoftBinary>(std::move(binary).take());
}

TEST(PlatformRegistry, BuiltinsCoverThePaperEvaluationPoints) {
  const auto p40 = PlatformRegistry::Global().Find("mips40");
  const auto p200 = PlatformRegistry::Global().Find("mips200-xc2v1000");
  const auto p400 = PlatformRegistry::Global().Find("mips400");
  ASSERT_TRUE(p40.has_value());
  ASSERT_TRUE(p200.has_value());
  ASSERT_TRUE(p400.has_value());
  EXPECT_DOUBLE_EQ(p40->cpu.clock_mhz, 40.0);
  EXPECT_DOUBLE_EQ(p200->cpu.clock_mhz, 200.0);
  EXPECT_DOUBLE_EQ(p400->cpu.clock_mhz, 400.0);
  EXPECT_FALSE(PlatformRegistry::Global().Find("no-such").has_value());
}

TEST(PlatformRegistry, CustomRegistrationIsUsableByName) {
  partition::Platform tiny = partition::Platform::WithCpuMhz(100.0);
  tiny.fpga.capacity_gates = 20'000.0;
  tiny.fpga.usable_fraction = 1.0;
  PlatformRegistry::Global().Register("test-tiny", tiny);

  Toolchain toolchain;
  auto run = toolchain.RunOn("test-tiny", BuildBench("fir"), "fir");
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run.value().platform_name, "test-tiny");
  EXPECT_LE(run.value().partition.area_budget_gates, 20'000.0);
}

TEST(Toolchain, RunOnRegisteredDefaultMatchesCustomPlatform) {
  const auto binary = BuildBench("fir");

  auto flow = Toolchain().WithPlatform(partition::Platform{}).Run(binary);
  ASSERT_TRUE(flow.ok());

  Toolchain toolchain;
  auto run = toolchain.Run(binary, "fir");
  ASSERT_TRUE(run.ok());

  EXPECT_DOUBLE_EQ(run.value().estimate.speedup, flow.value().estimate.speedup);
  EXPECT_DOUBLE_EQ(run.value().estimate.energy_savings,
                   flow.value().estimate.energy_savings);
  EXPECT_EQ(run.value().partition.hw.size(), flow.value().partition.hw.size());
}

TEST(Toolchain, RunResultOutlivesCallerBinary) {
  // Regression for the dangling-pointer hazard: the ToolchainRun (and the
  // program inside it) must stay valid after the caller's binary handle
  // and the surrounding scope are gone.
  ToolchainRun flow = [] {
    auto binary = BuildBench("brev");
    auto result = Toolchain().WithPlatform(partition::Platform{}).Run(binary);
    EXPECT_TRUE(result.ok());
    binary.reset();  // drop the caller's only handle
    return std::move(result).take();
  }();
  ASSERT_NE(flow.program, nullptr);
  ASSERT_NE(flow.program->binary, nullptr);
  EXPECT_GT(flow.program->binary->text.size(), 0u);
  EXPECT_FALSE(flow.Report().empty());
}

TEST(Toolchain, UnknownPlatformIsAnError) {
  Toolchain toolchain;
  auto run = toolchain.RunOn("atari2600", BuildBench("fir"), "fir");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().kind(), ErrorKind::kUnsupported);
}

TEST(Toolchain, BadPipelineSpecSurfacesAtRunTime) {
  Toolchain toolchain;
  toolchain.WithPipeline("default,-simplify-constants,no-such-pass");
  auto run = toolchain.Run(BuildBench("fir"), "fir");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().kind(), ErrorKind::kUnsupported);
}

TEST(Toolchain, PipelineSpecSelectsPasses) {
  Toolchain toolchain;
  toolchain.WithPipeline("none");
  auto run = toolchain.Run(BuildBench("fir"), "fir");
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run.value().program->pass_runs.empty());

  toolchain.WithPipeline("default");
  auto full = toolchain.Run(BuildBench("fir"), "fir");
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full.value().program->pass_runs.empty());
}

}  // namespace
}  // namespace b2h
