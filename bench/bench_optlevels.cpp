// Experiment E3: compiler optimization level study.
//
//   "we performed the same experiments on binaries generated using four
//    different optimization levels for four of the previous examples.  As
//    expected, software execution times improved as the level of compiler
//    optimizations increased.  In most cases, the execution times of the
//    synthesized examples also improved with more compiler optimizations.
//    ... Speedup was significant for all levels of compiler optimizations,
//    although the speedup did not always increase with more compiler
//    optimizations."  (paper §4)
//
// Four benchmarks x {O0..O3}: software time, partitioned time, speedup, and
// energy savings per level, plus the trend checks the paper argues from.
// Each -O level is a distinct binary, run once through Toolchain::RunOn.
#include <cstdio>
#include <memory>
#include <string>

#include "bench_json.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "toolchain/toolchain.hpp"

using namespace b2h;

int main() {
  bench::JsonWriter json("optlevels");
  printf("=== E3: four benchmarks at gcc -O0..-O3 (MIPS@200MHz) ===\n\n");
  const char* names[] = {"fir", "brev", "autcor00", "adpcm_dec"};

  const Toolchain toolchain;
  for (const char* name : names) {
    const suite::Benchmark* bench = suite::FindBenchmark(name);
    if (bench == nullptr) continue;
    printf("%s (%s):\n", bench->name.c_str(), bench->description.c_str());
    printf("  %-4s %10s %10s %9s %9s %9s %8s\n", "opt", "sw (ms)", "hw (ms)",
           "speedup", "energy%", "rerolled", "stackops");
    double sw_prev = 0.0;
    for (int level = 0; level <= 3; ++level) {
      auto binary = suite::BuildBinary(*bench, level);
      if (!binary.ok()) continue;
      const std::string label =
          std::string(name) + "@O" + std::to_string(level);
      const auto run = toolchain.RunOn(
          "mips200-xc2v1000",
          std::make_shared<const mips::SoftBinary>(std::move(binary).take()),
          label);
      if (!run.ok()) {
        printf("  -O%d  flow failed: %s\n", level,
               run.status().message().c_str());
        continue;
      }
      const auto& est = run.value().estimate;
      const auto& stats = run.value().program->stats;
      json.Record("speedup", est.speedup, "x", label);
      printf("  -O%d  %10.3f %10.3f %9.1f %9.0f %9zu %8zu%s\n", level,
             est.sw_time * 1e3, est.partitioned_time * 1e3, est.speedup,
             est.energy_savings * 100.0, stats.loops_rerolled,
             stats.stack_ops_removed,
             level > 0 && est.sw_time > sw_prev ? "  (!)" : "");
      sw_prev = est.sw_time;
    }
    printf("\n");
  }
  printf("Expected shapes (paper): sw time falls with -O level; speedup is\n"
         "significant at every level but not monotonic; energy savings stay\n"
         "similar across levels.\n");
  return 0;
}
