// Exploration-engine tests: strategy registry completeness, paper-greedy
// parity between Toolchain::Run and the pooled candidate set the explorer
// uses (bit-identical PartitionResult), knapsack-optimal dominance over
// the paper heuristic on every decompilable benchmark, Pareto-frontier
// invariants, artifact-cache determinism (a warm identical sweep performs
// zero decompilations and reports identically), parallel == serial
// reports, and annealing determinism under a fixed seed.
#include "explore/explorer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <vector>

#include "ir/interp.hpp"
#include "ir/verifier.hpp"
#include "partition/candidates.hpp"
#include "partition/strategy.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "support/json.hpp"
#include "support/schema.hpp"
#include "synth/vhdl.hpp"
#include "testing_support.hpp"
#include "toolchain/toolchain.hpp"

namespace b2h {
namespace {

using explore::ExploreResult;
using explore::ExploreSpec;
using explore::ParetoFrontier;
using explore::ParetoMetrics;
using partition::Objective;

std::shared_ptr<const mips::SoftBinary> BuildBench(const std::string& name) {
  const suite::Benchmark* bench = suite::FindBenchmark(name);
  EXPECT_NE(bench, nullptr) << name;
  auto binary = suite::BuildBinary(*bench, 1);
  EXPECT_TRUE(binary.ok()) << binary.status().message();
  return std::make_shared<const mips::SoftBinary>(std::move(binary).take());
}

std::vector<NamedBinary> AllWorkingBinaries() {
  std::vector<NamedBinary> binaries;
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    binaries.push_back({bench->name, BuildBench(bench->name)});
  }
  return binaries;
}

const std::vector<std::string> kPaperPlatforms = {"mips40", "mips200-xc2v1000",
                                                  "mips400"};
const std::vector<std::string> kAllStrategies = {"paper-greedy",
                                                 "knapsack-optimal",
                                                 "annealing"};

using testing_support::ScopedEnv;
using TempCacheDir = testing_support::TempDir;

// Hermetic for the whole binary: Toolchain's default constructor reads
// B2H_CACHE_DIR, so a developer's exported cache dir would make every
// "cold" sweep disk-warm and flip the work-counter assertions below.  The
// env-override test re-sets the variable within its own scope.
const ScopedEnv kPinnedCacheDirEnv("B2H_CACHE_DIR", nullptr);

void ExpectIdenticalPartitions(const partition::PartitionResult& a,
                               const partition::PartitionResult& b) {
  ASSERT_EQ(a.hw.size(), b.hw.size());
  for (std::size_t i = 0; i < a.hw.size(); ++i) {
    const auto& ra = a.hw[i];
    const auto& rb = b.hw[i];
    EXPECT_EQ(ra.synthesized.region.name, rb.synthesized.region.name) << i;
    EXPECT_EQ(ra.selected_by, rb.selected_by) << i;
    EXPECT_EQ(ra.sw_cycles, rb.sw_cycles) << i;
    EXPECT_EQ(ra.invocations, rb.invocations) << i;
    EXPECT_EQ(ra.comm_words, rb.comm_words) << i;
    EXPECT_EQ(ra.mem_accesses, rb.mem_accesses) << i;
    EXPECT_EQ(ra.arrays_resident, rb.arrays_resident) << i;
    EXPECT_EQ(ra.alias_regions, rb.alias_regions) << i;
    EXPECT_EQ(ra.synthesized.hw_cycles, rb.synthesized.hw_cycles) << i;
    EXPECT_EQ(ra.synthesized.clock_mhz, rb.synthesized.clock_mhz) << i;
    EXPECT_EQ(ra.synthesized.area.total_gates, rb.synthesized.area.total_gates)
        << i;
    EXPECT_EQ(synth::EmitVhdl(ra.synthesized.region, ra.synthesized.schedule),
              synth::EmitVhdl(rb.synthesized.region, rb.synthesized.schedule))
        << i;
  }
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.area_used_gates, b.area_used_gates);
  EXPECT_EQ(a.area_budget_gates, b.area_budget_gates);
  EXPECT_EQ(a.total_sw_cycles, b.total_sw_cycles);
  EXPECT_EQ(a.loop_coverage, b.loop_coverage);
}

TEST(StrategyRegistry, BuiltinsRegistered) {
  const auto names = partition::StrategyRegistry::Global().Names();
  for (const char* expected :
       {"paper-greedy", "knapsack-optimal", "annealing"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
    EXPECT_NE(partition::StrategyRegistry::Global().Create(expected), nullptr)
        << expected;
  }
  EXPECT_EQ(partition::StrategyRegistry::Global().Create("no-such-strategy"),
            nullptr);
}

TEST(StrategyRegistry, PaperGreedyIsObjectiveInsensitive) {
  const auto greedy = partition::MakePaperGreedyStrategy();
  EXPECT_FALSE(greedy->objective_sensitive());
  EXPECT_TRUE(partition::MakeKnapsackStrategy()->objective_sensitive());
  EXPECT_TRUE(partition::MakeAnnealingStrategy()->objective_sensitive());
}

// Toolchain::Run (paper-greedy over a fresh candidate scan) and the
// "paper-greedy" strategy fed the pooled CandidateSet the explorer uses
// must produce bit-identical PartitionResults (same selections, same
// rejection log, same metrics): pooling changes where work happens, never
// results.
TEST(Strategy, PaperGreedyParityWithToolchainRun) {
  partition::CandidateSetPool pool;
  for (const char* name : {"fir", "crc", "brev", "autcor00"}) {
    const partition::Platform platform;
    auto flow = Toolchain().WithPlatform(platform).Run(BuildBench(name));
    ASSERT_TRUE(flow.ok()) << name;
    const auto& program = *flow.value().program;
    const auto& profile = flow.value().software_run->profile;

    const auto strategy =
        partition::StrategyRegistry::Global().Create("paper-greedy");
    ASSERT_NE(strategy, nullptr);
    partition::StrategyOptions pooled;
    pooled.candidates = pool.Obtain(name, flow.value().program, profile);
    auto result = strategy->Partition(program, profile, platform, {}, pooled);
    ASSERT_TRUE(result.ok()) << name;
    ExpectIdenticalPartitions(result.value(), flow.value().partition);
  }
}

// Acceptance criterion: a full {18 benchmarks} x {3 platforms} x
// {3 strategies} sweep where knapsack-optimal beats or matches paper-greedy
// on every (benchmark, platform) point, the cache-warm repeat performs zero
// simulations/decompilations/partitions and reports identically, and
// annealing never falls below greedy either (it refines the greedy start).
TEST(Explore, FullSweepKnapsackDominatesGreedyAndCacheWarmRepeatIsFree) {
  ExploreSpec spec;
  spec.binaries = AllWorkingBinaries();
  spec.platforms = kPaperPlatforms;
  spec.strategies = kAllStrategies;
  spec.objectives = {Objective::kSpeedup};

  Toolchain toolchain;
  const ExploreResult cold = toolchain.Explore(spec);
  ASSERT_EQ(cold.points.size(), spec.binaries.size() * 3 * 3);
  EXPECT_EQ(cold.decompilations_run, spec.binaries.size());
  EXPECT_EQ(cold.simulations_run, spec.binaries.size());

  for (std::size_t b = 0; b < spec.binaries.size(); ++b) {
    for (std::size_t p = 0; p < kPaperPlatforms.size(); ++p) {
      const auto& greedy = cold.At(b, p, 0, 0);
      const auto& optimal = cold.At(b, p, 1, 0);
      const auto& annealed = cold.At(b, p, 2, 0);
      ASSERT_TRUE(greedy.status.ok())
          << spec.binaries[b].name << ": " << greedy.status.message();
      ASSERT_TRUE(optimal.status.ok())
          << spec.binaries[b].name << ": " << optimal.status.message();
      ASSERT_TRUE(annealed.status.ok())
          << spec.binaries[b].name << ": " << annealed.status.message();
      EXPECT_GE(optimal.speedup, greedy.speedup - 1e-12)
          << spec.binaries[b].name << " on " << kPaperPlatforms[p];
      EXPECT_GE(annealed.speedup, greedy.speedup - 1e-12)
          << spec.binaries[b].name << " on " << kPaperPlatforms[p];
    }
    // The paper's clock trend: hardware time does not depend on the CPU
    // clock, so the slow CPU gains more than the fast one.
    EXPECT_GT(cold.At(b, 0, 0, 0).speedup, cold.At(b, 2, 0, 0).speedup)
        << spec.binaries[b].name;
  }

  // Cache-warm repeat: all artifacts served from the cache, report
  // bit-identical.
  const ExploreResult warm = toolchain.Explore(spec);
  EXPECT_EQ(warm.simulations_run, 0u);
  EXPECT_EQ(warm.decompilations_run, 0u);
  EXPECT_EQ(warm.partitions_run, 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(cold.Report(), warm.Report());
  for (const auto& point : warm.points) {
    ASSERT_TRUE(point.status.ok());
    EXPECT_TRUE(point.from_cache);
  }
}

TEST(Explore, ParallelEqualsSerial) {
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")},
                   {"crc", BuildBench("crc")},
                   {"brev", BuildBench("brev")}};
  spec.strategies = kAllStrategies;
  spec.objectives = {Objective::kSpeedup, Objective::kEnergy};

  Toolchain serial;
  serial.WithThreads(1);
  Toolchain parallel;
  parallel.WithThreads(8);
  const ExploreResult a = serial.Explore(spec);
  const ExploreResult b = parallel.Explore(spec);
  EXPECT_EQ(a.Report(), b.Report());
  EXPECT_EQ(a.simulations_run, b.simulations_run);
  EXPECT_EQ(a.decompilations_run, b.decompilations_run);
  EXPECT_EQ(a.partitions_run, b.partitions_run);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
}

TEST(Explore, AnnealingIsDeterministicUnderAFixedSeed) {
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}, {"crc", BuildBench("crc")}};
  spec.strategies = {"annealing"};
  spec.strategy_options.seed = 42;

  // Fresh toolchains (fresh caches) so the second sweep recomputes from
  // scratch rather than replaying cached artifacts.
  const ExploreResult first = Toolchain().Explore(spec);
  const ExploreResult second = Toolchain().Explore(spec);
  EXPECT_GT(second.partitions_run, 0u);
  EXPECT_EQ(first.Report(), second.Report());
}

TEST(Explore, SeedSweepSharesSynthesisThroughTheCandidatePool) {
  // The repeated-request shape the serve daemon sees: the same benchmark
  // partitioned under the annealing strategy with different seeds.  Each
  // seed is a distinct partition artifact, but the candidate scan and every
  // synthesis result are shared through the toolchain cache's
  // CandidateSetPool — synthesis work stays flat across the sweep.
  Toolchain toolchain;
  toolchain.WithThreads(1);
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = {"mips200-xc2v1000"};
  spec.strategies = {"annealing"};

  spec.strategy_options.seed = 1;
  const ExploreResult first = toolchain.Explore(spec);
  EXPECT_EQ(first.partitions_run, 1u);
  const auto& pool = *toolchain.artifact_cache()->candidate_pool();
  const auto after_first = pool.stats();
  EXPECT_EQ(after_first.scans, 1u);
  EXPECT_GT(after_first.synthesis_runs, 0u);

  for (std::uint64_t seed = 2; seed <= 4; ++seed) {
    spec.strategy_options.seed = seed;
    const ExploreResult next = toolchain.Explore(spec);
    EXPECT_EQ(next.partitions_run, 1u) << seed;  // new artifact per seed
  }
  const auto after_sweep = pool.stats();
  EXPECT_EQ(after_sweep.scans, 1u);
  EXPECT_EQ(after_sweep.hits, 3u);
  // The sharing contract: later seeds synthesized NOTHING new.
  EXPECT_EQ(after_sweep.synthesis_runs, after_first.synthesis_runs);
}

TEST(Explore, ObjectiveInsensitiveStrategySharesArtifacts) {
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = {"mips200-xc2v1000"};
  spec.strategies = {"paper-greedy"};
  spec.objectives = {Objective::kSpeedup, Objective::kEnergy,
                     Objective::kEnergyDelay};

  const ExploreResult result = Toolchain().Explore(spec);
  // One partition serves all three objective points.
  EXPECT_EQ(result.partitions_run, 1u);
  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_EQ(result.At(0, 0, 0, 0).speedup, result.At(0, 0, 0, 1).speedup);
  EXPECT_EQ(result.At(0, 0, 0, 0).speedup, result.At(0, 0, 0, 2).speedup);
}

TEST(Explore, ParetoFrontierInvariants) {
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = kPaperPlatforms;
  spec.strategies = kAllStrategies;

  const ExploreResult result = Toolchain().Explore(spec);
  std::vector<const explore::ExplorePoint*> ok_points;
  for (const auto& point : result.points) {
    ASSERT_TRUE(point.status.ok());
    ok_points.push_back(&point);
  }
  const auto metrics_of = [](const explore::ExplorePoint& point) {
    return ParetoMetrics{point.speedup, point.energy, point.area_gates};
  };
  std::size_t frontier_count = 0;
  for (const auto* point : ok_points) {
    if (point->on_frontier) {
      ++frontier_count;
      // No frontier point is dominated by any other point.
      for (const auto* other : ok_points) {
        EXPECT_FALSE(
            explore::Dominates(metrics_of(*other), metrics_of(*point)));
      }
    } else {
      // Every dominated point is dominated by some frontier point.
      bool dominated_by_frontier = false;
      for (const auto* other : ok_points) {
        if (other->on_frontier &&
            explore::Dominates(metrics_of(*other), metrics_of(*point))) {
          dominated_by_frontier = true;
          break;
        }
      }
      EXPECT_TRUE(dominated_by_frontier);
    }
  }
  EXPECT_GT(frontier_count, 0u);
}

TEST(Explore, ParetoFrontierUnitCases) {
  // a dominates b; c trades speedup for energy; d duplicates a.
  const std::vector<ParetoMetrics> points = {
      {4.0, 1.0, 100.0},   // a
      {3.0, 2.0, 100.0},   // b: dominated by a
      {2.0, 0.5, 50.0},    // c: non-dominated trade-off
      {4.0, 1.0, 100.0}};  // d: tie with a — both survive
  const auto frontier = ParetoFrontier(points);
  EXPECT_EQ(frontier, (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_TRUE(explore::Dominates(points[0], points[1]));
  EXPECT_FALSE(explore::Dominates(points[0], points[2]));
  EXPECT_FALSE(explore::Dominates(points[0], points[3]));
}

// Platforms with a different CPU cycle model must NOT share a profile: the
// decompile key covers the cycle model, so a sweep decompiles once per
// model and the slow-memory point agrees exactly with the single-run path.
TEST(Explore, DistinctCycleModelsGetTheirOwnDecompilation) {
  partition::Platform slow_mem = partition::Platform::WithCpuMhz(200.0);
  slow_mem.cpu.cycle_model.load_extra = 5;
  PlatformRegistry::Global().Register("test-slow-mem", slow_mem);

  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = {"mips200-xc2v1000", "test-slow-mem"};
  spec.strategies = {"paper-greedy"};
  spec.objectives = {Objective::kSpeedup};

  Toolchain toolchain;
  const ExploreResult result = toolchain.Explore(spec);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.decompilations_run, 2u);  // one per distinct cycle model
  const explore::ExplorePoint& point = result.At(0, 1, 0, 0);
  ASSERT_TRUE(point.status.ok()) << point.status.message();

  const auto single =
      toolchain.RunOn("test-slow-mem", spec.binaries[0].binary, "fir");
  ASSERT_TRUE(single.ok()) << single.status().message();
  const partition::AppEstimate& estimate = single.value().estimate;
  std::vector<std::string> hw_names;
  for (const auto& region : single.value().partition.hw) {
    hw_names.push_back(region.synthesized.region.name);
  }
  EXPECT_EQ(point.speedup, estimate.speedup);
  EXPECT_EQ(point.energy_savings, estimate.energy_savings);
  EXPECT_EQ(point.area_gates, estimate.area_gates);
  EXPECT_EQ(point.hw_names, hw_names);
}

TEST(Explore, PerPointFailuresDoNotAbortTheSweep) {
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")},
                   {"null", nullptr},
                   {"switch01", BuildBench("switch01")}};  // CDFG failure
  spec.platforms = {"mips200-xc2v1000", "no-such-platform"};
  spec.strategies = {"paper-greedy", "no-such-strategy"};

  Toolchain toolchain;
  const ExploreResult result = toolchain.Explore(spec);
  ASSERT_EQ(result.points.size(), 3u * 2u * 2u);
  EXPECT_TRUE(result.At(0, 0, 0, 0).status.ok());
  EXPECT_FALSE(result.At(0, 1, 0, 0).status.ok());  // unknown platform
  EXPECT_FALSE(result.At(0, 0, 1, 0).status.ok());  // unknown strategy
  EXPECT_FALSE(result.At(1, 0, 0, 0).status.ok());  // null binary
  EXPECT_FALSE(result.At(2, 0, 0, 0).status.ok());  // CDFG recovery failure
  EXPECT_EQ(result.At(2, 0, 0, 0).status.kind(), ErrorKind::kIndirectJump);
  EXPECT_NE(result.Report().find("FAILED"), std::string::npos);

  // Failures are cached artifacts too: the warm repeat performs zero work
  // (the CDFG-failing binary is NOT re-simulated or re-decompiled) and
  // reports identically.
  const ExploreResult warm = toolchain.Explore(spec);
  EXPECT_EQ(warm.simulations_run, 0u);
  EXPECT_EQ(warm.decompilations_run, 0u);
  EXPECT_EQ(warm.partitions_run, 0u);
  EXPECT_EQ(result.Report(), warm.Report());

  // No resolvable platform: every point fails, and nothing is profiled or
  // decompiled for platforms no point can use.
  ExploreSpec unresolved;
  unresolved.binaries = {spec.binaries[0], spec.binaries[2]};
  unresolved.platforms = {"bogus"};
  unresolved.strategies = {"paper-greedy"};
  const ExploreResult none = Toolchain().Explore(unresolved);
  ASSERT_EQ(none.points.size(), 2u);
  for (const explore::ExplorePoint& point : none.points) {
    ASSERT_FALSE(point.status.ok());
    EXPECT_EQ(point.status.kind(), ErrorKind::kUnsupported);
  }
  EXPECT_EQ(none.simulations_run, 0u);
  EXPECT_EQ(none.decompilations_run, 0u);
}

TEST(Explore, SeedChangesOnlyInvalidateSeedSensitiveStrategies) {
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = {"mips200-xc2v1000"};
  spec.strategies = {"paper-greedy", "knapsack-optimal", "annealing"};
  spec.strategy_options.seed = 1;

  Toolchain toolchain;
  const ExploreResult cold = toolchain.Explore(spec);
  EXPECT_EQ(cold.partitions_run, 3u);

  // A new seed only affects the annealing strategy's artifact key: the
  // deterministic strategies replay from the cache.
  spec.strategy_options.seed = 2;
  const ExploreResult reseeded = toolchain.Explore(spec);
  EXPECT_EQ(reseeded.decompilations_run, 0u);
  EXPECT_EQ(reseeded.partitions_run, 1u);  // annealing only
  EXPECT_TRUE(reseeded.At(0, 0, 0, 0).from_cache);
  EXPECT_TRUE(reseeded.At(0, 0, 1, 0).from_cache);
  EXPECT_FALSE(reseeded.At(0, 0, 2, 0).from_cache);
}

// Satellite: rejection reasons must be surfaced through the printed report
// and the JSON output so strategy comparisons can explain skipped regions.
TEST(Toolchain, ReportAndJsonSurfaceRejectedRegions) {
  partition::Platform tiny = partition::Platform::WithCpuMhz(200.0);
  tiny.fpga.capacity_gates = 30'000.0;
  tiny.fpga.usable_fraction = 1.0;
  PlatformRegistry::Global().Register("test-explore-tiny", tiny);

  Toolchain toolchain;
  auto run = toolchain.RunOn("test-explore-tiny", BuildBench("fir"), "fir");
  ASSERT_TRUE(run.ok()) << run.status().message();
  ASSERT_FALSE(run.value().partition.rejected.empty());
  EXPECT_NE(run.value().Report().find("rejected"), std::string::npos);
  const std::string json = run.value().Json();
  EXPECT_NE(json.find("\"rejected\":["), std::string::npos);
  EXPECT_NE(json.find("area constraint violated"), std::string::npos);
  EXPECT_NE(json.find("\"speedup\":"), std::string::npos);

  // The explore report surfaces the same reasons per point.
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = {"test-explore-tiny"};
  spec.strategies = {"paper-greedy"};
  const ExploreResult result = toolchain.Explore(spec);
  ASSERT_TRUE(result.At(0, 0, 0, 0).status.ok());
  EXPECT_FALSE(result.At(0, 0, 0, 0).rejected.empty());
  EXPECT_NE(result.Report().find("rejected ["), std::string::npos);
}

// Acceptance criterion (PR 4): the same sweep run twice from two separate
// "processes" — emulated by two Toolchains with fresh memory tiers sharing
// one cache dir — performs 0 simulations/decompilations/partitions on the
// second run and produces a bit-identical Report().  Failures (the
// CDFG-failing switch01) replay from disk too.  The CI cache-warm step
// enforces the same invariant across real processes.
TEST(Explore, DiskCacheMakesProcessRestartedSweepsFree) {
  TempCacheDir dir;
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")},
                   {"crc", BuildBench("crc")},
                   {"switch01", BuildBench("switch01")}};  // CDFG failure
  spec.platforms = kPaperPlatforms;
  spec.strategies = kAllStrategies;

  Toolchain cold;
  cold.WithCacheDir(dir.path);
  ASSERT_TRUE(cold.artifact_cache()->disk_enabled());
  const ExploreResult first = cold.Explore(spec);
  EXPECT_EQ(first.simulations_run, 3u);
  EXPECT_GT(first.decompilations_run, 0u);
  EXPECT_GT(first.partitions_run, 0u);
  EXPECT_GT(cold.CacheStats().disk_stores, 0u);

  // Fresh Toolchain = fresh memory tier: every artifact must come off disk.
  Toolchain warm;
  warm.WithCacheDir(dir.path);
  const ExploreResult second = warm.Explore(spec);
  EXPECT_EQ(second.simulations_run, 0u);
  EXPECT_EQ(second.decompilations_run, 0u);
  EXPECT_EQ(second.partitions_run, 0u);
  EXPECT_EQ(second.cache_misses, 0u);
  EXPECT_EQ(second.cache_memory_hits, 0u);
  EXPECT_GT(second.cache_disk_hits, 0u);
  EXPECT_EQ(first.Report(), second.Report());
  for (const auto& point : second.points) {
    if (point.status.ok()) EXPECT_TRUE(point.from_cache);
  }
}

// Partial warmth across a restart: adding a strategy to a disk-warm sweep
// re-runs only the new partitions.  The decompiled program is rebuilt from
// the cached profile (a "rehydration") without re-simulating — disk
// decompile entries deliberately carry the profile, not the IR.
TEST(Explore, DiskCacheRehydratesOnlyWhatNewWorkNeeds) {
  TempCacheDir dir;
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = {"mips200-xc2v1000"};
  spec.strategies = {"paper-greedy"};

  Toolchain first;
  first.WithCacheDir(dir.path);
  (void)first.Explore(spec);

  spec.strategies = {"paper-greedy", "knapsack-optimal"};
  Toolchain second;
  second.WithCacheDir(dir.path);
  const ExploreResult partial = second.Explore(spec);
  EXPECT_EQ(partial.simulations_run, 0u);  // profile came off disk
  EXPECT_EQ(partial.decompilations_run, 1u);
  EXPECT_EQ(partial.decompile_rehydrations, 1u);
  EXPECT_EQ(partial.partitions_run, 1u);  // knapsack only
  ASSERT_TRUE(partial.At(0, 0, 0, 0).status.ok());
  ASSERT_TRUE(partial.At(0, 0, 1, 0).status.ok());
  EXPECT_TRUE(partial.At(0, 0, 0, 0).from_cache);
  EXPECT_FALSE(partial.At(0, 0, 1, 0).from_cache);
  EXPECT_GE(partial.At(0, 0, 1, 0).speedup, partial.At(0, 0, 0, 0).speedup);

  // And a third restart replays the widened sweep entirely from disk,
  // identically.
  Toolchain third;
  third.WithCacheDir(dir.path);
  const ExploreResult replay = third.Explore(spec);
  EXPECT_EQ(replay.simulations_run + replay.decompilations_run +
                replay.partitions_run,
            0u);
  EXPECT_EQ(partial.Report(), replay.Report());
}

// Memory-only resolve (the serve daemon's warm path).  An artifact that is
// only on disk is a miss that reads, promotes and counts nothing; once
// everything is resident the result equals a computing sweep's and each
// hit is counted once.  switch01's cached CDFG failure is resident without
// partition artifacts, which the resolve must accept.
TEST(Explore, MemoryOnlyResolveNeverComputesOrReadsDisk) {
  TempCacheDir dir;
  ExploreSpec spec;
  spec.binaries = {{"crc", BuildBench("crc")},
                   {"switch01", BuildBench("switch01")}};  // CDFG failure
  spec.platforms = {"mips200-xc2v1000"};
  spec.strategies = {"paper-greedy", "knapsack-optimal"};
  Toolchain writer;
  writer.WithCacheDir(dir.path);
  const ExploreResult computed = writer.Explore(spec);

  Toolchain reader;
  reader.WithCacheDir(dir.path);
  ExploreSpec memory_only = spec;
  memory_only.memory_only = true;
  const ExploreResult disk_only = reader.Explore(memory_only);
  EXPECT_TRUE(disk_only.memory_miss);
  EXPECT_EQ(disk_only.simulations_run + disk_only.decompilations_run +
                disk_only.partitions_run,
            0u);
  const explore::ArtifactCache::Stats untouched = reader.CacheStats();
  EXPECT_EQ(untouched.hits() + untouched.misses, 0u);
  EXPECT_EQ(untouched.entries, 0u);  // nothing promoted from disk

  const ExploreResult loaded = reader.Explore(spec);  // now resident
  const explore::ArtifactCache::Stats before = reader.CacheStats();
  const ExploreResult hit = reader.Explore(memory_only);
  EXPECT_FALSE(hit.memory_miss);
  EXPECT_EQ(hit.Json(), computed.Json());
  EXPECT_EQ(hit.cache_misses + hit.cache_disk_hits, 0u);
  EXPECT_EQ(hit.cache_memory_hits, loaded.cache_hits);
  const explore::ArtifactCache::Stats after = reader.CacheStats();
  EXPECT_EQ(after.memory_hits - before.memory_hits, hit.cache_memory_hits);
  EXPECT_EQ(after.disk_hits, before.disk_hits);
  EXPECT_EQ(after.misses, before.misses);

  // A partial hit (one strategy never computed) stops without counting.
  memory_only.strategies.push_back("annealing");
  const ExploreResult partial = reader.Explore(memory_only);
  EXPECT_TRUE(partial.memory_miss);
  EXPECT_EQ(partial.partitions_run, 0u);
  const explore::ArtifactCache::Stats unchanged = reader.CacheStats();
  EXPECT_EQ(unchanged.memory_hits, after.memory_hits);
  EXPECT_EQ(unchanged.disk_hits, after.disk_hits);
  EXPECT_EQ(unchanged.misses, after.misses);
}

// B2H_CACHE_DIR plumbing: the environment variable gives every Toolchain a
// disk-backed cache and overrides WithCacheDir's configured directory.
TEST(Explore, CacheDirEnvironmentOverride) {
  TempCacheDir env_dir;
  TempCacheDir other_dir;
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = {"mips200-xc2v1000"};
  spec.strategies = {"paper-greedy"};

  ExploreResult cold;
  ExploreResult replay;
  {
    ScopedEnv env("B2H_CACHE_DIR", env_dir.path.c_str());

    Toolchain from_env;  // constructor picks the env dir up
    ASSERT_TRUE(from_env.artifact_cache()->disk_enabled());
    EXPECT_EQ(from_env.artifact_cache()->disk()->directory(), env_dir.path);

    Toolchain overridden;  // env wins over the configured directory
    overridden.WithCacheDir(other_dir.path);
    EXPECT_EQ(overridden.artifact_cache()->disk()->directory(), env_dir.path);

    cold = from_env.Explore(spec);
    EXPECT_EQ(cold.decompilations_run, 1u);

    Toolchain warm;  // fresh process stand-in, also via env
    replay = warm.Explore(spec);
  }
  EXPECT_EQ(replay.simulations_run + replay.decompilations_run +
                replay.partitions_run,
            0u);
  EXPECT_EQ(cold.Report(), replay.Report());

  Toolchain memory_only;  // env gone: back to the memory-only default
  EXPECT_FALSE(memory_only.artifact_cache()->disk_enabled());
}

// The knapsack strategy must agree with an exhaustive check on a small
// program: its reported estimate equals the best EvaluateSubset score over
// every feasible subset.
TEST(Strategy, KnapsackMatchesExhaustiveSearchOnFir) {
  const partition::Platform platform;
  auto flow = Toolchain().WithPlatform(platform).Run(BuildBench("fir"));
  ASSERT_TRUE(flow.ok());
  const auto& program = *flow.value().program;
  const auto& profile = flow.value().software_run->profile;
  const partition::PartitionOptions options;

  const auto set = partition::CandidateSet::Scan(program, profile);
  std::vector<std::size_t> viable;
  for (std::size_t id = 0; id < set.size(); ++id) {
    if (set.candidates()[id].sw_cycles == 0) continue;
    if (set.Synthesize(id, options.synth).ok()) viable.push_back(id);
  }
  ASSERT_LT(viable.size(), 16u);  // fir is small; exhaustive is cheap
  double best = 1.0;
  for (std::size_t mask = 0; mask < (1u << viable.size()); ++mask) {
    std::vector<std::size_t> subset;
    for (std::size_t v = 0; v < viable.size(); ++v) {
      if (mask & (1u << v)) subset.push_back(viable[v]);
    }
    const auto estimate =
        partition::EvaluateSubset(set, subset, platform, options);
    if (estimate.has_value()) best = std::max(best, estimate->speedup);
  }

  const auto strategy =
      partition::StrategyRegistry::Global().Create("knapsack-optimal");
  auto result = strategy->Partition(program, profile, platform, options, {});
  ASSERT_TRUE(result.ok());
  const auto estimate =
      partition::EstimatePartition(result.value(), platform);
  EXPECT_NEAR(estimate.speedup, best, 1e-9);
}

// Once the pass pipeline ends it frees every instruction no block holds.
// A program fresh from ProfileAndDecompile must still verify, interpret,
// partition and synthesize; CI's sanitizer job runs this under ASan.
TEST(ProfileAndDecompile, ReleasedProgramsStayUsable) {
  const partition::Platform platform;
  const auto pipeline = decomp::PassManager::FromSpec("default");
  ASSERT_TRUE(pipeline.ok());
  for (const auto& [name, level] :
       {std::pair{"adpcm_enc", 3}, {"jpeg_dct", 3}, {"fir", 1}, {"crc", 0}}) {
    SCOPED_TRACE(std::string(name) + "@O" + std::to_string(level));
    const suite::Benchmark* bench = suite::FindBenchmark(name);
    ASSERT_NE(bench, nullptr);
    auto built = suite::BuildBinary(*bench, level);
    ASSERT_TRUE(built.ok()) << built.status().message();
    const auto binary =
        std::make_shared<const mips::SoftBinary>(std::move(built).take());
    explore::DecompileWork work;
    const explore::DecompileArtifact artifact = explore::ProfileAndDecompile(
        binary, platform.cpu.cycle_model, 200'000'000, pipeline.value(), work);
    ASSERT_TRUE(artifact.status.ok()) << artifact.status.message();
    const decomp::DecompiledProgram& program = *artifact.program;

    std::size_t slots = 0;
    std::size_t allocated = 0;
    std::size_t held = 0;
    for (const auto& function : program.module.functions) {
      slots += function->NumSlots();
      allocated += function->NumAllocated();
      held += function->NumInstrs();
    }
    EXPECT_EQ(allocated, held) << "dead instructions were not released";
    EXPECT_LT(allocated, slots);
    EXPECT_TRUE(ir::Verify(program.module).ok());

    ir::Interpreter interp(program.module, binary->data);
    const auto result = interp.Run();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.return_value, bench->reference());

    const auto strategy =
        partition::StrategyRegistry::Global().Create("paper-greedy");
    const auto partitioned =
        strategy->Partition(program, artifact.software_run->profile, platform,
                            partition::PartitionOptions{}, {});
    ASSERT_TRUE(partitioned.ok()) << partitioned.status().message();
    ASSERT_FALSE(partitioned.value().hw.empty());
    for (const auto& hw : partitioned.value().hw) {
      EXPECT_NE(synth::EmitVhdl(hw.synthesized.region, hw.synthesized.schedule)
                    .find("end architecture rtl;"),
                std::string::npos);
      EXPECT_GT(hw.synthesized.area.total_gates, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Report writer oracle: the append-based writers against the ostringstream +
// snprintf("%.9g") encoder they replaced, kept here as the reference.
// ---------------------------------------------------------------------------

std::string ReferenceEscape(const std::string& text) {
  std::string escaped;
  for (char c : text) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\n': escaped += "\\n"; break;
      case '\t': escaped += "\\t"; break;
      case '\r': escaped += "\\r"; break;
      default:
        if (u < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", u);
          escaped += buffer;
        } else {
          escaped.push_back(c);
        }
    }
  }
  return escaped;
}

std::string ReferenceNumber(double value) {
  char number[64];
  std::snprintf(number, sizeof number, "%.9g", value);
  return number;
}

std::string ReferenceStrings(const std::vector<std::string>& values) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out << ",";
    out << "\"" << ReferenceEscape(values[i]) << "\"";
  }
  out << "]";
  return out.str();
}

std::string ReferenceExploreJson(const ExploreResult& result,
                                 bool include_stage_ms) {
  std::ostringstream out;
  out << "{\"schema\":" << kReportSchemaVersion << ",\"binaries\":"
      << result.num_binaries << ",\"platforms\":" << result.num_platforms
      << ",\"strategies\":" << result.num_strategies << ",\"objectives\":"
      << result.num_objectives << ",\"points\":[";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const explore::ExplorePoint& point = result.points[i];
    if (i != 0) out << ",";
    out << "{\"binary\":\"" << ReferenceEscape(point.binary_name)
        << "\",\"platform\":\"" << ReferenceEscape(point.platform_name)
        << "\",\"strategy\":\"" << ReferenceEscape(point.strategy_name)
        << "\",\"objective\":\"" << partition::ObjectiveName(point.objective)
        << "\"";
    if (!point.status.ok()) {
      out << ",\"error\":\"" << ReferenceEscape(point.status.message())
          << "\"}";
      continue;
    }
    out << ",\"speedup\":" << ReferenceNumber(point.speedup)
        << ",\"energy\":" << ReferenceNumber(point.energy)
        << ",\"energy_savings\":" << ReferenceNumber(point.energy_savings)
        << ",\"edp\":" << ReferenceNumber(point.edp)
        << ",\"area_gates\":" << ReferenceNumber(point.area_gates)
        << ",\"hw_regions\":" << ReferenceStrings(point.hw_names)
        << ",\"rejected\":" << ReferenceStrings(point.rejected);
    if (include_stage_ms) {
      out << ",\"decompile_ms\":" << ReferenceNumber(point.decompile_ms)
          << ",\"synth_ms\":" << ReferenceNumber(point.synth_ms)
          << ",\"partition_ms\":" << ReferenceNumber(point.partition_ms);
    }
    out << ",\"pareto\":" << (point.on_frontier ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

std::string ReferencePointJson(const std::string& binary,
                               const std::string& platform, double speedup,
                               double energy_savings, double area_gates,
                               const std::vector<std::string>& hw_regions,
                               const std::vector<std::string>& rejected) {
  std::ostringstream out;
  out << "{\"schema\":" << kReportSchemaVersion << ",\"binary\":\""
      << ReferenceEscape(binary) << "\",\"platform\":\""
      << ReferenceEscape(platform) << "\",\"speedup\":"
      << ReferenceNumber(speedup)
      << ",\"energy_savings\":" << ReferenceNumber(energy_savings)
      << ",\"area_gates\":" << ReferenceNumber(area_gates)
      << ",\"hw_regions\":" << ReferenceStrings(hw_regions)
      << ",\"rejected\":" << ReferenceStrings(rejected) << "}";
  return out.str();
}

std::string WriterNumber(double value) {
  std::string out;
  support::AppendJsonNumber(out, value);
  return out;
}

double FromBits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

TEST(ReportWriter, NumbersMatchPrintfPercentNineG) {
  using Limits = std::numeric_limits<double>;
  const std::vector<double> special = {
      0.0, -0.0, Limits::infinity(), -Limits::infinity(),
      Limits::quiet_NaN(), -Limits::quiet_NaN(), FromBits(0x7ff0'0000'0000'0001),
      FromBits(0xfff8'0000'0000'0001), Limits::denorm_min(),
      -Limits::denorm_min(), Limits::min(), Limits::max(), -Limits::max(),
      Limits::epsilon(), 1.0, -1.0, 0.1, 1e-5, 1e-4, 1e8, 1e9, 123456789.0,
      1234567890.0, 999999999.5, 0.000123456789, 6.225, 0.718, 1.0 / 3.0};
  for (const double value : special) {
    EXPECT_EQ(WriterNumber(value), ReferenceNumber(value))
        << "bits " << std::hex << std::bit_cast<std::uint64_t>(value);
  }
  std::mt19937_64 rng(20051017);
  std::uniform_real_distribution<double> report_range(0.0, 1e6);
  std::size_t mismatches = 0;
  for (int i = 0; i < 200'000; ++i) {
    // Every exponent (raw bit patterns) and the magnitudes reports carry.
    for (const double value : {FromBits(rng()), report_range(rng)}) {
      if (WriterNumber(value) != ReferenceNumber(value) && ++mismatches < 5) {
        ADD_FAILURE() << "bits " << std::hex
                      << std::bit_cast<std::uint64_t>(value) << ": "
                      << WriterNumber(value) << " vs "
                      << ReferenceNumber(value);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ReportWriter, EscapingMatchesTheReference) {
  std::string every_byte;
  for (int c = 0; c < 256; ++c) every_byte += static_cast<char>(c);
  EXPECT_EQ(support::JsonEscape(every_byte), ReferenceEscape(every_byte));
  std::string appended = "prefix";
  support::JsonEscapeTo(appended, every_byte);
  EXPECT_EQ(appended, "prefix" + ReferenceEscape(every_byte));
}

TEST(ReportWriter, ReportsAreByteIdenticalToTheReferenceEncoder) {
  ExploreSpec spec;
  spec.binaries = AllWorkingBinaries();
  // A name that needs escaping rides through every writer.
  spec.binaries.front().name += "\"quoted\\\n\x01";
  spec.platforms = kPaperPlatforms;
  // The unknown strategy makes every third point an error point.
  spec.strategies = {"paper-greedy", "knapsack-optimal", "no-such-strategy"};

  Toolchain toolchain;
  const ExploreResult result = toolchain.Explore(spec);
  ASSERT_EQ(result.points.size(), spec.binaries.size() * 3 * 3);
  for (const bool include_stage_ms : {false, true}) {
    EXPECT_EQ(result.Json(include_stage_ms),
              ReferenceExploreJson(result, include_stage_ms))
        << "include_stage_ms=" << include_stage_ms;
  }
  // The serve daemon's `partition` reply for each point.
  for (const explore::ExplorePoint& point : result.points) {
    if (!point.status.ok()) continue;
    EXPECT_EQ(explore::PointReportJson(
                  point.binary_name, point.platform_name, point.speedup,
                  point.energy_savings, point.area_gates, point.hw_names,
                  point.rejected),
              ReferencePointJson(point.binary_name, point.platform_name,
                                 point.speedup, point.energy_savings,
                                 point.area_gates, point.hw_names,
                                 point.rejected))
        << point.binary_name << " on " << point.platform_name;
  }

  // ToolchainRun::Json() writes the same shape.
  for (const NamedBinary& named : spec.binaries) {
    for (const std::string& platform : kPaperPlatforms) {
      const auto run = toolchain.RunOn(platform, named.binary, named.name);
      ASSERT_TRUE(run.ok()) << run.status().message();
      const ToolchainRun& value = run.value();
      std::vector<std::string> hw_names;
      for (const auto& region : value.partition.hw) {
        hw_names.push_back(region.synthesized.region.name);
      }
      EXPECT_EQ(value.Json(),
                ReferencePointJson(value.binary_name, value.platform_name,
                                   value.estimate.speedup,
                                   value.estimate.energy_savings,
                                   value.estimate.area_gates, hw_names,
                                   value.partition.rejected))
          << value.binary_name << " on " << value.platform_name;
    }
  }
}

}  // namespace
}  // namespace b2h
