// Whole-application synthesis (paper §1: "our methods are also applicable
// for synthesizing an entire software application, not just kernels, to a
// custom circuit").
//
// Decompiles the brev benchmark binary, synthesizes *all of main* as one
// circuit, verifies the synthesized design against the software run via the
// RTL simulator, and writes the VHDL to a file.
//
// Build & run:  ./build/examples/whole_app_synthesis [out.vhd]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "decomp/pass_manager.hpp"
#include "mips/simulator.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "support/guest_memory.hpp"
#include "synth/rtl_sim.hpp"
#include "synth/synth.hpp"
#include "synth/vhdl.hpp"

using namespace b2h;

int main(int argc, char** argv) {
  const suite::Benchmark* bench = suite::FindBenchmark("brev");
  auto binary = suite::BuildBinary(*bench, 1);
  if (!binary.ok()) {
    printf("build error: %s\n", binary.status().message().c_str());
    return 1;
  }

  // Software reference run (also provides the profile).
  mips::Simulator sim(binary.value());
  const auto run = sim.Run();
  printf("software: rv=%d, %llu cycles\n", run.return_value,
         static_cast<unsigned long long>(run.cycles));

  // Decompile through the default registered pipeline (pass manager API).
  auto pipeline = decomp::PassManager::Preset("default");
  auto program = pipeline.value().Run(
      std::make_shared<const mips::SoftBinary>(binary.value()), &run.profile);
  if (!program.ok()) {
    printf("decompile error: %s\n", program.status().message().c_str());
    return 1;
  }
  printf("pipeline:");
  for (const auto& pass_run : program.value().pass_runs) {
    printf(" %s", pass_run.pass.c_str());
  }
  printf("\n");

  // The whole of main as one hardware region (helpers were inlined).
  const ir::Function* main_fn = program.value().module.main;
  const synth::HwRegion region = synth::ExtractFunctionRegion(*main_fn);
  if (!region.synthesizable) {
    printf("not synthesizable: %s\n", region.reject_reason.c_str());
    return 1;
  }
  decomp::AliasAnalysis alias(*main_fn, &binary.value().symbols);
  auto synthesized = synth::Synthesize(region, &alias);
  if (!synthesized.ok()) {
    printf("synthesis error: %s\n", synthesized.status().message().c_str());
    return 1;
  }

  printf("synthesized whole application:\n");
  printf("  FSM states:  %d\n", synthesized.value().schedule.total_states);
  printf("  clock:       %.0f MHz\n", synthesized.value().clock_mhz);
  printf("  area:        %.0f equivalent gates\n",
         synthesized.value().area.total_gates);
  printf("  est. cycles: %llu\n",
         static_cast<unsigned long long>(synthesized.value().hw_cycles));

  // Execute the synthesized design and compare against software.
  synth::RtlSimulator rtl(region, synthesized.value().schedule,
                          binary.value().data);
  std::map<unsigned, std::int32_t> inputs;
  inputs[29] = static_cast<std::int32_t>(support::GuestMemory::kInitialSp);
  const auto result = rtl.Run({}, inputs);
  if (!result.ok) {
    printf("RTL simulation failed: %s\n", result.error.c_str());
    return 1;
  }
  printf("RTL simulation: rv=%d, %llu FSM cycles -> %s\n",
         result.return_value,
         static_cast<unsigned long long>(result.fsm_cycles),
         result.return_value == run.return_value ? "MATCHES software"
                                                 : "MISMATCH!");

  // Default under the build tree so ad-hoc runs don't litter the checkout.
  std::string path = argc > 1 ? argv[1] : "build/vhdl/hw_brev_main.vhd";
  std::error_code mkdir_error;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::filesystem::create_directories(parent, mkdir_error);
  }
  std::ofstream out(path);
  if (mkdir_error || !out) {
    printf("cannot write %s%s%s\n", path.c_str(),
           mkdir_error ? ": " : "",
           mkdir_error ? mkdir_error.message().c_str() : "");
    return 1;
  }
  const std::string vhdl = synth::EmitVhdl(synthesized.value().region,
                                           synthesized.value().schedule);
  out << vhdl;
  printf("VHDL written to %s (%zu bytes)\n", path.c_str(), vhdl.size());
  return result.return_value == run.return_value ? 0 : 1;
}
