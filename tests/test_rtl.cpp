// RTL simulator co-simulation: the synthesized FSM+datapath executed on the
// RTL model must reproduce the IR interpreter / MIPS simulator results for
// whole-function regions across the benchmark suite.  This is the third leg
// of the verification triangle (DESIGN.md §5) and doubles as a strict
// schedule-legality check (the RTL model refuses to read unscheduled
// values).
#include "synth/rtl_sim.hpp"

#include <gtest/gtest.h>

#include "mips/simulator.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "support/guest_memory.hpp"
#include "synth/synth.hpp"
#include "testing_support.hpp"

namespace b2h::synth {
namespace {

class RtlCosim : public ::testing::TestWithParam<const char*> {};

TEST_P(RtlCosim, WholeMainMatchesSoftware) {
  const suite::Benchmark* bench = suite::FindBenchmark(GetParam());
  ASSERT_NE(bench, nullptr);
  auto binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok()) << binary.status().message();

  mips::Simulator sim(binary.value());
  const auto run = sim.Run();
  ASSERT_EQ(run.reason, mips::HaltReason::kReturned);
  ASSERT_EQ(run.return_value, bench->reference());

  auto program = testing_support::RunPipeline(binary.value(), &run.profile);
  ASSERT_TRUE(program.ok()) << program.status().message();

  // Whole-application synthesis (paper: "our methods are also applicable
  // for synthesizing an entire software application ... to a custom
  // circuit"): main must be call-free after inlining for this to work.
  const ir::Function* main_fn = program.value().module.main;
  const HwRegion region = ExtractFunctionRegion(*main_fn);
  if (!region.synthesizable) {
    GTEST_SKIP() << "main still contains calls: " << region.reject_reason;
  }
  decomp::AliasAnalysis alias(*main_fn, &binary.value().symbols);
  auto synthesized = Synthesize(region, &alias);
  ASSERT_TRUE(synthesized.ok()) << synthesized.status().message();

  RtlSimulator rtl(region, synthesized.value().schedule,
                   binary.value().data);
  std::map<unsigned, std::int32_t> inputs;
  inputs[29] =  // sp
      static_cast<std::int32_t>(support::GuestMemory::kInitialSp);
  const auto result = rtl.Run({}, inputs);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.return_value, bench->reference())
      << "RTL result diverged from software";
  EXPECT_GT(result.fsm_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, RtlCosim,
    ::testing::Values("autcor00", "conven00", "rgbcmy01", "idct01",
                      "bitmnp01", "crc", "bcnt", "blit", "fir", "engine",
                      "g3fax", "adpcm_enc", "adpcm_dec", "g721_quan",
                      "jpeg_dct", "brev", "matmul", "checksum"),
    [](const auto& info) { return std::string(info.param); });

TEST(RtlSim, SequentialFsmIsSlowerThanSoftwareClaims) {
  // Sanity: the *sequential* FSM cycle count relates to states x trips;
  // the speedup comes from chaining (fewer states than instructions) and
  // pipelining (accounted analytically in EstimateCycles).
  const suite::Benchmark* bench = suite::FindBenchmark("brev");
  auto binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok());
  mips::Simulator sim(binary.value());
  const auto run = sim.Run();
  auto program = testing_support::RunPipeline(binary.value(), &run.profile);
  ASSERT_TRUE(program.ok());
  const HwRegion region =
      ExtractFunctionRegion(*program.value().module.main);
  ASSERT_TRUE(region.synthesizable);
  auto synthesized = Synthesize(region, nullptr);
  ASSERT_TRUE(synthesized.ok());
  RtlSimulator rtl(region, synthesized.value().schedule,
                   binary.value().data);
  std::map<unsigned, std::int32_t> inputs;
  inputs[29] = static_cast<std::int32_t>(support::GuestMemory::kInitialSp);
  const auto result = rtl.Run({}, inputs);
  ASSERT_TRUE(result.ok) << result.error;
  // Chaining compresses the bit-reversal tree: far fewer cycles than the
  // MIPS instruction count.
  EXPECT_LT(result.fsm_cycles, run.instructions);
}

TEST(RtlSim, LiveOutValuesExposed) {
  // Build a small kernel whose loop produces a live-out accumulator.
  const suite::Benchmark* bench = suite::FindBenchmark("checksum");
  auto binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok());
  mips::Simulator sim(binary.value());
  const auto run = sim.Run();
  auto program = testing_support::RunPipeline(binary.value(), &run.profile);
  ASSERT_TRUE(program.ok());
  const ir::Function* main_fn = program.value().module.main;
  const HwRegion region = ExtractFunctionRegion(*main_fn);
  ASSERT_TRUE(region.synthesizable);
  // A whole-function region has no live-outs (the ret consumes them).
  EXPECT_TRUE(region.live_outs.empty());
  EXPECT_TRUE(region.live_ins.empty());
}

/// Synthesizes main() { return *(u32*)address; } (or a store there) and
/// runs it on the RTL model.
RtlResult RunAccess(std::uint32_t address, bool store) {
  ir::Function function("access");
  ir::Block* entry = function.CreateBlock("entry", 0x100);
  const ir::Value where =
      ir::Value::Const(static_cast<std::int32_t>(address));
  ir::Instr* ret = function.Create(ir::Opcode::kRet);
  if (store) {
    ir::Instr* write = function.Create(ir::Opcode::kStore);
    write->operands = {where, ir::Value::Const(7)};
    entry->Append(write);
    ret->operands = {ir::Value::Const(0)};
  } else {
    ret->operands = {
        ir::Value::Of(function.Emit(entry, ir::Opcode::kLoad, {where}))};
  }
  entry->Append(ret);
  function.RecomputeCfg();

  const HwRegion region = ExtractFunctionRegion(function);
  EXPECT_TRUE(region.synthesizable) << region.reject_reason;
  auto synthesized = Synthesize(region, nullptr);
  EXPECT_TRUE(synthesized.ok()) << synthesized.status().message();
  if (!synthesized.ok()) return {};
  RtlSimulator rtl(region, synthesized.value().schedule,
                   std::vector<std::uint8_t>{});
  return rtl.Run();
}

TEST(RtlSim, AccessesPastTheTopOfTheAddressSpaceFaultCleanly) {
  // addr + 4 wraps to 0 for these addresses: a 32-bit end check passes
  // them and indexes gigabytes past the data segment.
  for (const std::uint32_t address : {0xFFFF'FFFCu, 0xFFFF'FFF0u}) {
    for (const bool store : {false, true}) {
      const RtlResult result = RunAccess(address, store);
      EXPECT_FALSE(result.ok) << std::hex << address;
      EXPECT_NE(result.error.find(store ? "bad store" : "bad load"),
                std::string::npos)
          << result.error;
    }
  }
  const std::uint32_t data_end =
      support::GuestMemory::kDataBase + support::GuestMemory::kDataSize;
  EXPECT_TRUE(RunAccess(data_end - 4, /*store=*/false).ok);
  EXPECT_FALSE(RunAccess(data_end, /*store=*/false).ok);

  const HwRegion empty;
  const RegionSchedule schedule;
  const RtlSimulator rtl(empty, schedule, std::vector<std::uint8_t>{});
  EXPECT_THROW((void)rtl.PeekWord(0xFFFF'FFFCu), InternalError);
  EXPECT_EQ(rtl.PeekWord(data_end - 4), 0u);
}

}  // namespace
}  // namespace b2h::synth
