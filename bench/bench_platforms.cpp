// Experiment E2: platform clock sweep.
//
//   "Compared to a 400 MHz MIPS, the application speedups were 3.8 and the
//    energy savings were 49%.  For slower platforms with a 40 MHz
//    microprocessor, the application speedup was 12.6 and the energy
//    savings were 84%."  (paper §4)
//
// The same suite is partitioned against the three registered platforms
// (mips40 / mips200-xc2v1000 / mips400) in ONE Toolchain::Explore sweep
// with the paper-greedy strategy: each benchmark binary is profiled and
// decompiled once, and the cached CDFG is re-partitioned per platform on
// the thread pool.  Hardware time is CPU-frequency independent, so slower
// processors see larger speedups — the trend must fall out of the model,
// not be pasted in.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "toolchain/toolchain.hpp"

using namespace b2h;

int main() {
  bench::JsonWriter json("platforms");
  printf("=== E2: platform sweep (suite averages at each CPU clock) ===\n\n");
  printf("%10s %12s %12s %14s\n", "cpu (MHz)", "speedup", "energy %",
         "paper (s/e%)");
  const std::vector<std::string> platforms = {"mips40", "mips200-xc2v1000",
                                              "mips400"};
  const double clocks[] = {40.0, 200.0, 400.0};
  const char* paper[] = {"12.6 / 84%", "5.4 / 69%", "3.8 / 49%"};

  // One sweep: |suite| binaries x 3 platforms, one decompilation each.
  explore::ExploreSpec spec;
  spec.platforms = platforms;
  spec.strategies = {"paper-greedy"};
  spec.objectives = {partition::Objective::kSpeedup};
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    auto binary = suite::BuildBinary(*bench, 1);
    if (!binary.ok()) continue;
    spec.binaries.push_back(
        {bench->name,
         std::make_shared<const mips::SoftBinary>(std::move(binary).take())});
  }

  Toolchain toolchain;
  const explore::ExploreResult sweep = toolchain.Explore(spec);

  for (std::size_t p = 0; p < platforms.size(); ++p) {
    double sum_speedup = 0.0;
    double sum_energy = 0.0;
    int count = 0;
    for (std::size_t b = 0; b < spec.binaries.size(); ++b) {
      const explore::ExplorePoint& point = sweep.At(b, p, 0, 0);
      if (!point.status.ok()) continue;
      sum_speedup += point.speedup;
      sum_energy += point.energy_savings;
      ++count;
    }
    printf("%10.0f %12.1f %12.0f %14s\n", clocks[p], sum_speedup / count,
           sum_energy / count * 100.0, paper[p]);
    json.Record("avg_speedup", sum_speedup / count, "x", platforms[p]);
    json.Record("avg_energy_savings", sum_energy / count * 100.0, "%",
                platforms[p]);
  }
  printf("\n(%zu binaries, %zu points, %zu decompilations — one per "
         "binary)\n",
         spec.binaries.size(), sweep.points.size(),
         sweep.decompilations_run);
  printf("Shape check: speedup and savings must both fall as the CPU "
         "clock rises.\n");
  return 0;
}
