// Experiment E4: decompilation-pass ablation.
//
// Paper §2 argues each recovery technique is needed for good synthesis:
// constant propagation kills move-idiom ALUs, stack-op removal avoids
// serializing through the memory port, strength promotion frees the
// synthesis tool to choose the multiplier implementation, loop rerolling
// recovers compact loop bodies, and size reduction shrinks every operator.
// Each variant is a pipeline spec ("default,-reroll-loops", ...) handed to
// Toolchain::WithPipeline — the PassManager disable strings replace the old
// boolean ablation flags — and the suite-average hardware time and area are
// re-measured: the delta is that pass's contribution.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "toolchain/toolchain.hpp"

using namespace b2h;

namespace {

struct Variant {
  const char* name;
  const char* pipeline;  ///< PassManager spec string
};

struct Totals {
  double hw_time = 0.0;
  double area = 0.0;
  double speedup = 0.0;
  int count = 0;
};

Totals Measure(const std::vector<NamedBinary>& binaries,
               const Variant& variant) {
  Totals totals;
  Toolchain toolchain;
  toolchain.WithPipeline(variant.pipeline);
  for (const NamedBinary& named : binaries) {
    const auto run =
        toolchain.RunOn("mips200-xc2v1000", named.binary, named.name);
    if (!run.ok()) continue;
    double hw_time = 0.0;
    for (const auto& kernel : run.value().estimate.kernels) {
      hw_time += kernel.hw_time;
    }
    totals.hw_time += hw_time;
    totals.area += run.value().estimate.area_gates;
    totals.speedup += run.value().estimate.speedup;
    ++totals.count;
  }
  return totals;
}

}  // namespace

int main() {
  printf("=== E4: decompilation optimization ablation (suite at -O3) ===\n\n");
  const std::vector<Variant> variants = {
      {"all passes (baseline)", "default"},
      {"no constant propagation", "default,-simplify-constants"},
      {"no stack-op removal", "default,-remove-stack-ops"},
      {"no loop rerolling", "default,-reroll-loops"},
      {"no strength promotion", "default,-promote-strength"},
      {"no strength reduction", "default,-reduce-strength"},
      {"no size reduction", "default,-reduce-operator-sizes"},
      {"no inlining", "default,-inline-small-functions"},
      {"no if-conversion", "default,-convert-ifs"},
  };

  // -O3 binaries stress rerolling; -O0 would stress stack removal most,
  // but O3 exercises every pass at once.  Built once, reused per variant.
  std::vector<NamedBinary> binaries;
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    auto binary = suite::BuildBinary(*bench, 3);
    if (!binary.ok()) continue;
    binaries.push_back(
        {bench->name,
         std::make_shared<const mips::SoftBinary>(std::move(binary).take())});
  }

  bench::JsonWriter json("ablation");
  printf("%-26s %10s %12s %12s %9s\n", "variant", "ok", "hw time(ms)",
         "avg gates", "speedup");
  Totals baseline;
  bool first = true;
  for (const Variant& variant : variants) {
    const Totals totals = Measure(binaries, variant);
    if (first) {
      baseline = totals;
      first = false;
    }
    printf("%-26s %7d/18 %12.3f %12.0f %9.2f", variant.name, totals.count,
           totals.hw_time * 1e3, totals.area / totals.count,
           totals.speedup / totals.count);
    json.Record("hw_time", totals.hw_time * 1e3, "ms", variant.pipeline);
    json.Record("avg_area", totals.area / totals.count, "gates",
                variant.pipeline);
    json.Record("avg_speedup", totals.speedup / totals.count, "x",
                variant.pipeline);
    if (&variant != &variants.front() && totals.count > 0) {
      const double area_delta =
          (totals.area / totals.count) / (baseline.area / baseline.count);
      printf("   (area x%.2f)", area_delta);
    }
    printf("\n");
  }
  printf("\nReading: disabling a recovery pass should not change results\n"
         "(co-simulation guards that) but costs area and/or hardware time.\n");
  return 0;
}
