// Toolchain facade tests: platform registry, builder configuration, and
// the RunMany batch API — in particular that a platform sweep reuses ONE
// decompilation per binary and that parallel and serial batches produce
// identical results.
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

const std::vector<std::string> kPaperPlatforms = {"mips40", "mips200-xc2v1000",
                                                  "mips400"};

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

// Acceptance criterion: RunMany over the three paper platforms performs
// exactly one decompilation (and one profiling run) per binary, and every
// platform's run shares that decompiled program.
TEST(Toolchain, RunManyDecompilesEachBinaryOnce) {
  const std::vector<NamedBinary> binaries = {{"fir", BuildBench("fir")},
                                             {"brev", BuildBench("brev")}};
  Toolchain toolchain;
  const BatchResult batch = toolchain.RunMany(binaries, kPaperPlatforms);

  ASSERT_EQ(batch.runs.size(), binaries.size() * kPaperPlatforms.size());
  EXPECT_EQ(batch.decompilations_run, binaries.size());
  EXPECT_EQ(batch.simulations_run, binaries.size());

  for (std::size_t b = 0; b < binaries.size(); ++b) {
    const auto& first = batch.At(b, 0);
    ASSERT_TRUE(first.ok()) << first.status().message();
    for (std::size_t p = 1; p < kPaperPlatforms.size(); ++p) {
      const auto& other = batch.At(b, p);
      ASSERT_TRUE(other.ok()) << other.status().message();
      // Same object, not an equal copy: the decompilation was reused.
      EXPECT_EQ(first.value().program.get(), other.value().program.get());
      EXPECT_EQ(first.value().software_run.get(),
                other.value().software_run.get());
    }
  }

  // The sweep trend the paper reports: slower CPU -> larger speedup.
  for (std::size_t b = 0; b < binaries.size(); ++b) {
    const double s40 =
        batch.At(b, 0).value().estimate.speedup;
    const double s400 =
        batch.At(b, 2).value().estimate.speedup;
    EXPECT_GT(s40, s400);
  }
}

// Platforms with a different CPU cycle model must NOT share a profile:
// RunMany groups by cycle model and decompiles once per group, so the
// batch row agrees exactly with the single-run path.
TEST(Toolchain, RunManyGroupsByCycleModel) {
  partition::Platform slow_mem = partition::Platform::WithCpuMhz(200.0);
  slow_mem.cpu.cycle_model.load_extra = 5;
  PlatformRegistry::Global().Register("test-slow-mem", slow_mem);

  const std::vector<NamedBinary> binaries = {{"fir", BuildBench("fir")}};
  Toolchain toolchain;
  const BatchResult batch =
      toolchain.RunMany(binaries, {"mips200-xc2v1000", "test-slow-mem"});
  ASSERT_EQ(batch.runs.size(), 2u);
  ASSERT_TRUE(batch.At(0, 0).ok());
  ASSERT_TRUE(batch.At(0, 1).ok());
  EXPECT_EQ(batch.decompilations_run, 2u);  // one per distinct cycle model
  EXPECT_NE(batch.At(0, 0).value().program.get(),
            batch.At(0, 1).value().program.get());

  auto single = toolchain.RunOn("test-slow-mem", binaries[0].binary, "fir");
  ASSERT_TRUE(single.ok());
  const auto& batched = batch.At(0, 1).value();
  EXPECT_EQ(batched.ReportBody(), single.value().ReportBody());
}

TEST(Toolchain, RunManyParallelEqualsSerial) {
  const std::vector<NamedBinary> binaries = {{"fir", BuildBench("fir")},
                                             {"crc", BuildBench("crc")},
                                             {"brev", BuildBench("brev")}};
  Toolchain serial;
  serial.WithThreads(1);
  Toolchain parallel;
  parallel.WithThreads(4);

  const BatchResult a = serial.RunMany(binaries, kPaperPlatforms);
  const BatchResult b = parallel.RunMany(binaries, kPaperPlatforms);

  ASSERT_EQ(a.runs.size(), b.runs.size());
  EXPECT_EQ(a.decompilations_run, b.decompilations_run);
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    ASSERT_EQ(a.runs[i].ok(), b.runs[i].ok()) << i;
    if (!a.runs[i].ok()) continue;
    // Semantic reports (partition layout, cycle counts, estimates) match
    // bit-for-bit between thread counts.  ToolchainRun::Report() also
    // prints wall-clock pass timings, which legitimately vary — compare
    // the timing-free body instead.
    const auto& ra = a.runs[i].value();
    const auto& rb = b.runs[i].value();
    EXPECT_EQ(ra.ReportBody(), rb.ReportBody()) << i;
  }
}

TEST(Toolchain, RunManyReportsPerSlotFailures) {
  const std::vector<NamedBinary> binaries = {{"fir", BuildBench("fir")},
                                             {"null", nullptr}};
  const std::vector<std::string> platforms = {"mips200-xc2v1000", "bogus"};
  Toolchain toolchain;
  const BatchResult batch = toolchain.RunMany(binaries, platforms);
  ASSERT_EQ(batch.runs.size(), 4u);
  EXPECT_TRUE(batch.At(0, 0).ok());
  EXPECT_FALSE(batch.At(0, 1).ok());  // unknown platform
  EXPECT_FALSE(batch.At(1, 0).ok());  // null binary
  EXPECT_FALSE(batch.At(1, 1).ok());

  // No resolvable platform: every slot fails, and nothing is profiled or
  // decompiled for the platforms no slot can use.
  const BatchResult unresolved = toolchain.RunMany(binaries, {"bogus"});
  ASSERT_EQ(unresolved.runs.size(), 2u);
  for (const auto& run : unresolved.runs) {
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().kind(), ErrorKind::kUnsupported);
  }
  EXPECT_EQ(unresolved.simulations_run, 0u);
  EXPECT_EQ(unresolved.decompilations_run, 0u);
}

// The two jump-table EEMBC-style benchmarks fail CDFG recovery in RunMany
// exactly as they do in the one-shot flow (paper: two failures).
TEST(Toolchain, RunManyPropagatesCdfgFailures) {
  std::vector<NamedBinary> binaries;
  for (const auto& bench : suite::AllBenchmarks()) {
    if (!bench.expect_cdfg_failure) continue;
    binaries.push_back({bench.name, BuildBench(bench.name)});
  }
  ASSERT_EQ(binaries.size(), 2u);
  Toolchain toolchain;
  const BatchResult batch =
      toolchain.RunMany(binaries, {"mips200-xc2v1000"});
  for (const auto& run : batch.runs) {
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().kind(), ErrorKind::kIndirectJump);
  }
}

}  // namespace
}  // namespace b2h
