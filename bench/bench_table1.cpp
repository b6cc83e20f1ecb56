// Experiment E1 ("Table 1"): the paper's headline result set.
//
//   "The decompilation-based approach showed consistently good application
//    speedups and energy savings, averaging 5.4 and 69%, compared to a MIPS
//    processor running at 200 MHz.  The average kernel speedup was 44.8.
//    ... The average area required was an equivalent of 26,261 logic gates.
//    ... The only unsuccessful situations occurred during CDFG recovery,
//    which failed for two EEMBC examples because of indirect jumps."
//
// This harness compiles every benchmark at -O1 (as the paper does), runs
// each through Toolchain::RunOn on the 200 MHz platform, and prints one row
// per benchmark plus the averages to compare against the paper.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "toolchain/toolchain.hpp"

using namespace b2h;

int main() {
  bench::JsonWriter json("table1");
  printf("=== E1 / Table 1: decompilation-based partitioning, "
         "MIPS@200MHz + Virtex-II, gcc -O1 ===\n\n");
  printf("%-11s %-11s %9s %9s %8s %8s %8s %10s\n", "benchmark", "suite",
         "sw(ms)", "hw(ms)", "speedup", "kernel", "energy%", "gates");

  std::vector<NamedBinary> binaries;
  std::vector<const suite::Benchmark*> built;
  for (const auto& bench : suite::AllBenchmarks()) {
    auto binary = suite::BuildBinary(bench, 1);
    if (!binary.ok()) {
      printf("%-11s %-11s BUILD FAILED: %s\n", bench.name.c_str(),
             bench.origin.c_str(), binary.status().message().c_str());
      continue;
    }
    binaries.push_back(
        {bench.name,
         std::make_shared<const mips::SoftBinary>(std::move(binary).take())});
    built.push_back(&bench);
  }

  const Toolchain toolchain;

  double sum_speedup = 0.0;
  double sum_kernel = 0.0;
  double sum_energy = 0.0;
  double sum_area = 0.0;
  int successes = 0;
  int failures = 0;

  for (std::size_t i = 0; i < binaries.size(); ++i) {
    const auto run = toolchain.RunOn("mips200-xc2v1000", binaries[i].binary,
                                     binaries[i].name);
    const suite::Benchmark& bench = *built[i];
    if (!run.ok()) {
      printf("%-11s %-11s CDFG recovery failed (%s)\n", bench.name.c_str(),
             bench.origin.c_str(), ToString(run.status().kind()));
      ++failures;
      continue;
    }
    const auto& est = run.value().estimate;
    printf("%-11s %-11s %9.3f %9.3f %8.1f %8.1f %8.0f %10.0f\n",
           bench.name.c_str(), bench.origin.c_str(), est.sw_time * 1e3,
           est.partitioned_time * 1e3, est.speedup, est.avg_kernel_speedup,
           est.energy_savings * 100.0, est.area_gates);
    json.Record("speedup", est.speedup, "x", bench.name);
    sum_speedup += est.speedup;
    sum_kernel += est.avg_kernel_speedup;
    sum_energy += est.energy_savings;
    sum_area += est.area_gates;
    ++successes;
  }

  printf("\n%-23s %28.1f %8.1f %8.0f %10.0f\n", "AVERAGE (measured)",
         sum_speedup / successes, sum_kernel / successes,
         sum_energy / successes * 100.0, sum_area / successes);
  printf("%-23s %28.1f %8.1f %8.0f %10.0f\n", "PAPER (reported)", 5.4, 44.8,
         69.0, 26261.0);
  printf("\nCDFG recovery failures: %d (paper: 2, both EEMBC, "
         "indirect jumps)\n", failures);
  json.Record("avg_speedup", sum_speedup / successes, "x");
  json.Record("avg_kernel_speedup", sum_kernel / successes, "x");
  json.Record("avg_energy_savings", sum_energy / successes * 100.0, "%");
  json.Record("avg_area", sum_area / successes, "gates");
  json.Record("cdfg_failures", failures, "count");
  return 0;
}
