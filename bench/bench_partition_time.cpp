// Experiment E5: partitioning speed (google-benchmark).
//
// Paper §3: "we use a simpler technique based on the well-known 90-10 rule
// in order to reduce the time required for partitioning.  Achieving a small
// partitioning execution time is important because we intend to integrate
// our approach with existing dynamic partitioning and dynamic synthesis
// approaches."
//
// Measures the wall time of each flow stage on representative binaries:
// the machine-code front end (assembly, lift), decompilation alone,
// partitioning+synthesis alone, and the full flow.
// For dynamic (on-chip) use the whole flow must be milliseconds-scale.
// Binaries are held as shared_ptr so the timed loops measure the stages
// themselves, not a defensive binary copy.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "decomp/lifter.hpp"
#include "decomp/pass_manager.hpp"
#include "minicc/codegen.hpp"
#include "mips/assembler.hpp"
#include "mips/simulator.hpp"
#include "partition/strategy.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "toolchain/toolchain.hpp"

using namespace b2h;

namespace {

struct Prepared {
  std::shared_ptr<const mips::SoftBinary> binary;
  mips::RunResult run;
};

Prepared Prepare(const char* name, int opt_level = 1) {
  const suite::Benchmark* bench = suite::FindBenchmark(name);
  auto binary = suite::BuildBinary(*bench, opt_level);
  Prepared prepared;
  prepared.binary =
      std::make_shared<const mips::SoftBinary>(std::move(binary).take());
  mips::Simulator sim(*prepared.binary);
  prepared.run = sim.Run();
  return prepared;
}

// Front-end layer guards: the assembler on the compiler's output, and the
// lift (CFG recovery + SSA construction) that starts every decompile.
void BM_Assemble(benchmark::State& state, const char* name, int opt_level) {
  minicc::CompileOptions options;
  options.opt_level = opt_level;
  auto compiled =
      minicc::Compile(suite::FindBenchmark(name)->source, options);
  if (!compiled.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  const std::string assembly = std::move(compiled).take().assembly;
  for (auto _ : state) {
    auto binary = mips::Assemble(assembly);
    benchmark::DoNotOptimize(binary);
  }
  state.SetLabel(std::to_string(assembly.size()) + " bytes");
}

void BM_Lift(benchmark::State& state, const char* name, int opt_level) {
  const Prepared prepared = Prepare(name, opt_level);
  decomp::LiftOptions options;
  options.profile = &prepared.run.profile;
  for (auto _ : state) {
    auto module = decomp::Lift(*prepared.binary, options);
    benchmark::DoNotOptimize(module);
  }
  state.SetLabel(std::to_string(prepared.binary->text.size()) + " instrs");
}

void BM_Decompile(benchmark::State& state, const char* name,
                  int opt_level = 1) {
  const Prepared prepared = Prepare(name, opt_level);
  const auto pipeline = decomp::PassManager::Preset("default").value();
  for (auto _ : state) {
    auto program = pipeline.Run(prepared.binary, &prepared.run.profile);
    benchmark::DoNotOptimize(program);
  }
  state.SetLabel(std::to_string(prepared.binary->text.size()) + " instrs");
}

void BM_PartitionAndSynthesize(benchmark::State& state, const char* name) {
  const Prepared prepared = Prepare(name);
  auto program = decomp::PassManager::Preset("default").value().Run(
      prepared.binary, &prepared.run.profile);
  if (!program.ok()) {
    state.SkipWithError("decompilation failed");
    return;
  }
  const partition::Platform platform;
  const auto greedy = partition::MakePaperGreedyStrategy();
  for (auto _ : state) {
    auto result = greedy->Partition(program.value(), prepared.run.profile,
                                    platform, {}, {});
    benchmark::DoNotOptimize(result);
  }
}

void BM_FullFlow(benchmark::State& state, const char* name) {
  const Prepared prepared = Prepare(name);
  Toolchain toolchain;
  toolchain.WithPlatform(partition::Platform{});
  for (auto _ : state) {
    auto flow = toolchain.Run(prepared.binary);
    benchmark::DoNotOptimize(flow);
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_Decompile, fir, "fir");
BENCHMARK_CAPTURE(BM_Decompile, adpcm_enc, "adpcm_enc");
BENCHMARK_CAPTURE(BM_Decompile, matmul, "matmul");
// The slowest suite decompile (72 if-converted diamonds): the binary behind
// the cold-request p99.
BENCHMARK_CAPTURE(BM_Decompile, adpcm_enc_O3, "adpcm_enc", 3);
// The next slowest: jpeg_dct@O3 (~2.2-2.6 ms in process).
BENCHMARK_CAPTURE(BM_Decompile, jpeg_dct_O3, "jpeg_dct", 3);
// jpeg_dct@O3 (~1.2k instructions) is the slowest suite binary to assemble.
BENCHMARK_CAPTURE(BM_Assemble, jpeg_dct_O3, "jpeg_dct", 3);
BENCHMARK_CAPTURE(BM_Lift, jpeg_dct_O3, "jpeg_dct", 3);
BENCHMARK_CAPTURE(BM_PartitionAndSynthesize, fir, "fir");
BENCHMARK_CAPTURE(BM_PartitionAndSynthesize, adpcm_enc, "adpcm_enc");
BENCHMARK_CAPTURE(BM_PartitionAndSynthesize, matmul, "matmul");
BENCHMARK_CAPTURE(BM_FullFlow, fir, "fir");
BENCHMARK_CAPTURE(BM_FullFlow, brev, "brev");

BENCHMARK_MAIN();
