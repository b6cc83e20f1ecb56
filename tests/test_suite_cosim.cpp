// The repo's capstone property test (DESIGN.md §5): for every benchmark at
// every compiler optimization level, three independent executors agree with
// the native C++ reference:
//   1. the MIPS simulator running the compiled binary,
//   2. the IR interpreter running the fully-optimized decompiled CDFG,
//   3. (at -O1) the RTL simulator running the synthesized whole-app circuit
//      — covered separately in test_rtl.cpp.
// Also checks the decompilation stats tell the expected story per level
// (heavy stack traffic removed at -O0, loops rerolled at -O3).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "ir/interp.hpp"
#include "ir/printer.hpp"
#include "mips/simulator.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "synth/vhdl.hpp"
#include "testing_support.hpp"
#include "toolchain/toolchain.hpp"

namespace b2h {
namespace {

class SuiteCosim
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(SuiteCosim, SimulatorInterpreterReferenceAgree) {
  const auto& [name, level] = GetParam();
  const suite::Benchmark* bench = suite::FindBenchmark(name);
  ASSERT_NE(bench, nullptr);
  const std::int32_t expected = bench->reference();

  auto binary = suite::BuildBinary(*bench, level);
  ASSERT_TRUE(binary.ok()) << binary.status().message();

  mips::Simulator sim(binary.value());
  const auto run = sim.Run();
  ASSERT_EQ(run.reason, mips::HaltReason::kReturned) << run.fault_message;
  EXPECT_EQ(run.return_value, expected) << "compiler or simulator bug";

  auto program = testing_support::RunPipeline(binary.value(), &run.profile);
  ASSERT_TRUE(program.ok()) << program.status().message();

  ir::Interpreter interp(program.value().module, binary.value().data);
  const auto result = interp.Run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.return_value, expected) << "decompilation changed semantics";
}

std::vector<std::tuple<const char*, int>> AllCombos() {
  std::vector<std::tuple<const char*, int>> combos;
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    for (int level = 0; level <= 3; ++level) {
      combos.emplace_back(bench->name.c_str(), level);
    }
  }
  return combos;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllLevels, SuiteCosim, ::testing::ValuesIn(AllCombos()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_O" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SuiteInventory, TwentyBenchmarksTwoExpectedFailures) {
  // Paper §4: twenty examples; CDFG recovery fails for two EEMBC examples
  // because of indirect jumps.
  const auto& all = suite::AllBenchmarks();
  EXPECT_EQ(all.size(), 20u);
  std::size_t failures = 0;
  std::size_t eembc_failures = 0;
  for (const auto& bench : all) {
    if (bench.expect_cdfg_failure) {
      ++failures;
      if (bench.origin == "EEMBC") ++eembc_failures;
    }
  }
  EXPECT_EQ(failures, 2u);
  EXPECT_EQ(eembc_failures, 2u);
  EXPECT_EQ(suite::WorkingBenchmarks().size(), 18u);
  // Origins span the suites the paper lists.
  std::set<std::string> origins;
  for (const auto& bench : all) origins.insert(bench.origin);
  EXPECT_TRUE(origins.count("EEMBC"));
  EXPECT_TRUE(origins.count("PowerStone"));
  EXPECT_TRUE(origins.count("MediaBench"));
  EXPECT_TRUE(origins.count("local"));
}

TEST(SuiteInventory, AssemblyBenchmarksRunButDoNotDecompile) {
  for (const auto& bench : suite::AllBenchmarks()) {
    if (!bench.expect_cdfg_failure) continue;
    auto binary = suite::BuildBinary(bench, 1);
    ASSERT_TRUE(binary.ok()) << bench.name;
    mips::Simulator sim(binary.value());
    const auto run = sim.Run();
    EXPECT_EQ(run.reason, mips::HaltReason::kReturned) << bench.name;
    EXPECT_EQ(run.return_value, bench.reference()) << bench.name;
    auto program = testing_support::RunPipeline(binary.value());
    ASSERT_FALSE(program.ok()) << bench.name;
    EXPECT_EQ(program.status().kind(), ErrorKind::kIndirectJump)
        << bench.name;
  }
}

TEST(DecompStats, StackRemovalDominatesAtO0) {
  const suite::Benchmark* bench = suite::FindBenchmark("fir");
  auto at_o0 = suite::BuildBinary(*bench, 0);
  ASSERT_TRUE(at_o0.ok());
  auto program = testing_support::RunPipeline(at_o0.value());
  ASSERT_TRUE(program.ok());
  // -O0 spills everything: dozens of stack operations must disappear.
  EXPECT_GT(program.value().stats.stack_ops_removed, 20u);
  EXPECT_GT(program.value().stats.stack_slots_promoted, 2u);
}

TEST(DecompStats, RerollingFiresAtO3) {
  std::size_t rerolled_totals = 0;
  for (const char* name : {"fir", "bcnt", "brev", "autcor00"}) {
    const suite::Benchmark* bench = suite::FindBenchmark(name);
    auto at_o3 = suite::BuildBinary(*bench, 3);
    ASSERT_TRUE(at_o3.ok());
    auto program = testing_support::RunPipeline(at_o3.value());
    ASSERT_TRUE(program.ok()) << name;
    rerolled_totals += program.value().stats.loops_rerolled;
  }
  EXPECT_GT(rerolled_totals, 0u)
      << "no unrolled loop recovered across the O3 suite";
}

TEST(DecompStats, RerollingShrinksO3TowardO2) {
  // The rerolled O3 CDFG should be close in size to the O2 CDFG (the paper:
  // roll loops "back into a representation similar to their original
  // representation").
  const suite::Benchmark* bench = suite::FindBenchmark("brev");
  auto at_o2 = suite::BuildBinary(*bench, 2);
  auto at_o3 = suite::BuildBinary(*bench, 3);
  ASSERT_TRUE(at_o2.ok());
  ASSERT_TRUE(at_o3.ok());
  auto program_o2 = testing_support::RunPipeline(at_o2.value());
  auto program_o3 = testing_support::RunPipeline(at_o3.value());
  ASSERT_TRUE(program_o2.ok());
  ASSERT_TRUE(program_o3.ok());
  ASSERT_GT(program_o3.value().stats.loops_rerolled, 0u);
  const double o2_size =
      static_cast<double>(program_o2.value().stats.final_instrs);
  const double o3_size =
      static_cast<double>(program_o3.value().stats.final_instrs);
  EXPECT_LT(o3_size, o2_size * 1.5)
      << "rerolling failed to recover the compact representation";
}

TEST(DecompStats, StrengthPromotionFiresAtO2) {
  // -O2 decomposes x*181 etc. into shift/add chains; promotion must
  // recover multiplications somewhere in the DCT-style benchmarks.
  std::size_t recovered = 0;
  for (const char* name : {"idct01", "jpeg_dct", "autcor00"}) {
    const suite::Benchmark* bench = suite::FindBenchmark(name);
    auto at_o2 = suite::BuildBinary(*bench, 2);
    ASSERT_TRUE(at_o2.ok());
    auto program = testing_support::RunPipeline(at_o2.value());
    ASSERT_TRUE(program.ok()) << name;
    recovered += program.value().stats.muls_recovered;
  }
  EXPECT_GT(recovered, 0u);
}

TEST(DecompStats, SizeReductionNarrowsByteKernels) {
  const suite::Benchmark* bench = suite::FindBenchmark("rgbcmy01");
  auto binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok());
  auto program = testing_support::RunPipeline(binary.value());
  ASSERT_TRUE(program.ok());
  EXPECT_GT(program.value().stats.instrs_narrowed, 5u);
  EXPECT_GT(program.value().stats.bits_saved, 50u);
}

TEST(DecompStats, ConstantsSimplifiedEverywhere) {
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    auto binary = suite::BuildBinary(*bench, 1);
    ASSERT_TRUE(binary.ok());
    auto program = testing_support::RunPipeline(binary.value());
    ASSERT_TRUE(program.ok()) << bench->name;
    // Lifted code always carries move idioms / address chains to fold.
    EXPECT_GT(program.value().stats.constants_simplified, 0u) << bench->name;
    EXPECT_LT(program.value().stats.final_instrs,
              program.value().stats.lifted_instrs)
        << bench->name;
  }
}

// ---------------------------------------------------------------------------
// IR digests: the printed decompiled IR of every decompiling suite binary,
// at every opt level, under three pipeline presets, hashed and compared
// against a checked-in table.  A pass rewrite that claims "same IR, less
// work" must leave every digest unchanged.  An intentional IR change shows
// up as a named list of differing binary@Ox/preset keys plus the full
// regenerated table, to be reviewed and pasted over kIrDigests below.
// ---------------------------------------------------------------------------

constexpr std::array<const char*, 3> kDigestPresets = {
    "default", "no-undo", "is-overhead-only"};

struct IrDigest {
  const char* key;  ///< "binary@Ox"
  std::array<std::uint64_t, kDigestPresets.size()> fnv;  ///< per preset
};

// clang-format off
constexpr IrDigest kIrDigests[] = {
    {"autcor00@O0", {0x95447b4a0fee941bull, 0xce50a795f1c7616eull, 0xb448e65534a35d7aull}},
    {"autcor00@O1", {0x634e1313465702f3ull, 0x1f513aa2e2bdeeb3ull, 0x91b9bea218f31fd3ull}},
    {"autcor00@O2", {0x25de89d0f6efb217ull, 0xa617715057b03ad5ull, 0xcb328194903f47adull}},
    {"autcor00@O3", {0x2967f5c232ec9f0cull, 0x8cb7115610555b76ull, 0xf2ac95d1c8ead84aull}},
    {"conven00@O0", {0xd81760319583570eull, 0xb270bf32547069beull, 0x31a2da9e46e00ce1ull}},
    {"conven00@O1", {0xb7547d8f2e635947ull, 0x5ea8e959f910df3bull, 0x4a8ca03914e37bb8ull}},
    {"conven00@O2", {0xe8b1288aa05028d6ull, 0x1569ea3f940c8c11ull, 0xc4af816dcba52d9aull}},
    {"conven00@O3", {0x1c25d1f196809e8aull, 0x597757593bf75cd0ull, 0x7c8906962414bccfull}},
    {"rgbcmy01@O0", {0x6c705dd5946ba01dull, 0x31a72795144c415eull, 0x303e897e56a722eaull}},
    {"rgbcmy01@O1", {0x0a7bf24e5ed9c7d3ull, 0xafbdc3aae5acbf32ull, 0x0802dde2c6c744deull}},
    {"rgbcmy01@O2", {0xc5625af25164be9bull, 0x77f1b5e7a9bda001ull, 0x07f5cc1574bc4feeull}},
    {"rgbcmy01@O3", {0x764e4614eb4a5d5aull, 0x9e74908acc26fdd2ull, 0x51fd626b2922085full}},
    {"idct01@O0", {0x9cf0797f59ce1856ull, 0x48db362e49652e1bull, 0xfebba82c0347481full}},
    {"idct01@O1", {0xdbce6007b44e161bull, 0xbe2ed5b3fd871815ull, 0xc87fb3e9a19bb0adull}},
    {"idct01@O2", {0x479355aeb6b7433aull, 0x4aea8f761eccac8bull, 0x3fe1fee1b57ce2dfull}},
    {"idct01@O3", {0x6a77666cd606e978ull, 0x365d7d1402d2f020ull, 0x718edb4cb0ff0f14ull}},
    {"bitmnp01@O0", {0x1ce1708fc372d28eull, 0x72e3eb7de587bc8eull, 0x841db8136ae2bfc2ull}},
    {"bitmnp01@O1", {0x6a5eb440640c648cull, 0x391af2858f816420ull, 0x97717c277545d964ull}},
    {"bitmnp01@O2", {0x2278f483a55e1b46ull, 0x65c0c1c649cfe6d5ull, 0x1a38907a6dccc4f9ull}},
    {"bitmnp01@O3", {0x6bce1ee4a05e7ce2ull, 0x50c97a2f4a1ab260ull, 0xfd88ca2072746a58ull}},
    {"crc@O0", {0x7aaee70eee0e1eaaull, 0x93ea06ec9933d7e2ull, 0x6e7ad977df35ec83ull}},
    {"crc@O1", {0x71a09689c1d6fe1full, 0x42917bbda5c66d89ull, 0xb4f8fa7c4785d044ull}},
    {"crc@O2", {0x6f72a4df57138287ull, 0x4eb258e3fbab94eeull, 0xce8963eff9f02151ull}},
    {"crc@O3", {0xb0d299f77c3874fdull, 0x274c38ad83cb59e4ull, 0x67f5413155de4502ull}},
    {"bcnt@O0", {0xd882e48ce4750100ull, 0x2cca4e4c656f1d82ull, 0xbb61d61e23823b02ull}},
    {"bcnt@O1", {0x2832ab2aaa2ca7b9ull, 0x19d58dde0e17a8c9ull, 0xab742e3c714a42b9ull}},
    {"bcnt@O2", {0xdec6453e46da88c1ull, 0xaede6501073ae3a3ull, 0xb826741aeae1a93bull}},
    {"bcnt@O3", {0x7dce15d794e7d0dbull, 0xfb4b000fdc7ca563ull, 0xeaa45a9f65ae1cc7ull}},
    {"blit@O0", {0x8b38d04519832191ull, 0x37aa2a8777540a6dull, 0x7e3527462c913181ull}},
    {"blit@O1", {0x355eb7597be9209aull, 0xde05d1994ee55827ull, 0x012a6f8f1bf1b8dfull}},
    {"blit@O2", {0xcd82e6a5569871eeull, 0x950c1c8875d5d325ull, 0x906c945e651bc299ull}},
    {"blit@O3", {0x60d528946a6e55feull, 0x5700f1266d7f7ff3ull, 0xc71aaedcb8fe50afull}},
    {"fir@O0", {0x94bce4849146d67full, 0xdbea673db1671f87ull, 0xdeb4864d65dec5bfull}},
    {"fir@O1", {0x6dfff0572a53d980ull, 0x7d29eafc14627ab6ull, 0x40f782c021f256caull}},
    {"fir@O2", {0x2987c5c9a1adeebbull, 0xad60dacd699968dfull, 0xd7cb2c7bfa26622full}},
    {"fir@O3", {0x0de210adf39186ffull, 0x0c1258fb9c85d9ffull, 0x758c374d487ca1d7ull}},
    {"engine@O0", {0xcbfda128f078f524ull, 0x569c7750b34324cfull, 0x11562520021aa023ull}},
    {"engine@O1", {0x850084f0cc3b28f9ull, 0x5ba61b1968faa5a3ull, 0x3fe12c499693b6b0ull}},
    {"engine@O2", {0x4522a5d126331c64ull, 0x14a44804dc00ee10ull, 0xd7f625a4793af02eull}},
    {"engine@O3", {0x88ed61dbed01d105ull, 0xb05f3af7e2fcaf12ull, 0x56b36cef1638d827ull}},
    {"g3fax@O0", {0xf0b2677e4bd79918ull, 0x40149fc3bda8b18cull, 0xdbfb0db4ebdbc2d8ull}},
    {"g3fax@O1", {0x75e16577c68445c2ull, 0x2984a975e9610bb5ull, 0x7e84dc60937e9481ull}},
    {"g3fax@O2", {0x7aee8c23795dcb04ull, 0xa74d7c6ca0f7fcdeull, 0x873c16fedfc4cae2ull}},
    {"g3fax@O3", {0x9db9aa5cb779325bull, 0xf8527a2e112e7de4ull, 0xee7e44b4f75c0158ull}},
    {"adpcm_enc@O0", {0x0007b1172de111c7ull, 0x6f8c9221a604cc01ull, 0xd715a4d4bf257d45ull}},
    {"adpcm_enc@O1", {0x095e200297531356ull, 0x2434a5edbeee43f0ull, 0x3fe2f041a0528390ull}},
    {"adpcm_enc@O2", {0x9531b00431dac723ull, 0xad462828424031cdull, 0x408ea9e5268ecc63ull}},
    {"adpcm_enc@O3", {0x13b8ec9d9b720557ull, 0x28b12f7f42e41db3ull, 0xd42e18d556679612ull}},
    {"adpcm_dec@O0", {0xa485287b479b8b6full, 0x5329a0d67c08b26eull, 0x73dc406a22c64227ull}},
    {"adpcm_dec@O1", {0x3ecf4cbc1f8d8feaull, 0x6786ce2a4488c23dull, 0x443674c190bcc1b8ull}},
    {"adpcm_dec@O2", {0x1a6d48a2b319b416ull, 0x17b07f094cc53728ull, 0xb23f14d8fdd48c23ull}},
    {"adpcm_dec@O3", {0x69b2805813927188ull, 0x3d8f3b6f83c19eafull, 0x5aaa6fcfbf6f38b6ull}},
    {"g721_quan@O0", {0x2237fe05654a1d03ull, 0xf52fd105991e5331ull, 0xb34ead96a6a6a67eull}},
    {"g721_quan@O1", {0xc08bcdc69e4ad7edull, 0x6534118f0c61e12dull, 0x3ed6810ba2b44e7full}},
    {"g721_quan@O2", {0xeca76493e31252d6ull, 0x4b8a107357fb6796ull, 0x304b7c185de1f36cull}},
    {"g721_quan@O3", {0x6c4313951226a333ull, 0x6a0fe16393d8d6f9ull, 0xda86e24a0b24ba20ull}},
    {"jpeg_dct@O0", {0x56b4e11c8d83302bull, 0xa0f1fdb3c7a7473eull, 0x8ca42a6bd6bf6e66ull}},
    {"jpeg_dct@O1", {0x8d806e250ef2116eull, 0x4091403bfd4c2590ull, 0xc8231ba01a949a08ull}},
    {"jpeg_dct@O2", {0x4fc9fc971165a951ull, 0xf6d97bc5ced441c5ull, 0xe47296a3048fe55dull}},
    {"jpeg_dct@O3", {0x136020376d418223ull, 0x91e88c820312755bull, 0x925a0ff37f73682bull}},
    {"brev@O0", {0x448c531f50ac524cull, 0x4eec6588435c3084ull, 0x06f1e38d9d475f90ull}},
    {"brev@O1", {0xc793553304e7ddf5ull, 0xa3c93b99de655a9bull, 0x1e13582cd4ab0cc3ull}},
    {"brev@O2", {0xdfdf57aca96f43d9ull, 0x82e916cc47315b98ull, 0xdd47a86bcc483c14ull}},
    {"brev@O3", {0x9ac9b58e8d2073ddull, 0xccc6c01395c390fdull, 0xa5d62a9e80d96315ull}},
    {"matmul@O0", {0x8747189f46d91ad9ull, 0xe2012a3a1a0bbfc2ull, 0xaafb978ce083045aull}},
    {"matmul@O1", {0x2e02757e50090563ull, 0x425a752c69e3c844ull, 0x95fe52183019c7f0ull}},
    {"matmul@O2", {0x42d468750f50802dull, 0xdc88065b32050b55ull, 0x1c499fadc269f459ull}},
    {"matmul@O3", {0xfc4c52862a45f781ull, 0x66984268cfdfe865ull, 0xcbc74b4aae304ee9ull}},
    {"checksum@O0", {0xfef8e31bfb0690dfull, 0x73a856f56b04a1dfull, 0xbdff2a3288bbbfc7ull}},
    {"checksum@O1", {0x8acfcc6d8ae63023ull, 0x93950a16d6ae55f6ull, 0x3a474cc50c07672eull}},
    {"checksum@O2", {0xb22d68bf422ec5d0ull, 0x4384bab0965b7fa3ull, 0xa0afa800d256ca17ull}},
    {"checksum@O3", {0xac124ee5f0ad39ffull, 0x3ddd7b53616efebbull, 0x50ece74cccdc558bull}},
};
// clang-format on

std::uint64_t Fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

const IrDigest* FindDigest(const std::string& key) {
  for (const IrDigest& digest : kIrDigests) {
    if (key == digest.key) return &digest;
  }
  return nullptr;
}

TEST(IrDigest, PrintedIrMatchesCheckedInTable) {
  std::string differing;
  std::string table;
  std::size_t rows = 0;
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    for (int level = 0; level <= 3; ++level) {
      const std::string key = bench->name + "@O" + std::to_string(level);
      auto binary = suite::BuildBinary(*bench, level);
      ASSERT_TRUE(binary.ok()) << binary.status().message();
      mips::Simulator sim(binary.value());
      const auto run = sim.Run();
      ASSERT_EQ(run.reason, mips::HaltReason::kReturned) << run.fault_message;
      std::array<std::uint64_t, kDigestPresets.size()> fnv{};
      for (std::size_t p = 0; p < kDigestPresets.size(); ++p) {
        auto program = testing_support::RunPipeline(
            binary.value(), &run.profile, kDigestPresets[p]);
        ASSERT_TRUE(program.ok()) << key << "/" << kDigestPresets[p] << ": "
                                  << program.status().message();
        fnv[p] = Fnv1a64(ir::Print(program.value().module));
      }
      const IrDigest* expected = FindDigest(key);
      for (std::size_t p = 0; p < kDigestPresets.size(); ++p) {
        if (expected == nullptr || expected->fnv[p] != fnv[p]) {
          differing += "  " + key + "/" + kDigestPresets[p] + "\n";
        }
      }
      char row[160];
      std::snprintf(row, sizeof row,
                    "    {\"%s\", {0x%016llxull, 0x%016llxull, 0x%016llxull}},\n",
                    key.c_str(), static_cast<unsigned long long>(fnv[0]),
                    static_cast<unsigned long long>(fnv[1]),
                    static_cast<unsigned long long>(fnv[2]));
      table += row;
      ++rows;
    }
  }
  if (rows != std::size(kIrDigests)) {
    differing += "  (table has " + std::to_string(std::size(kIrDigests)) +
                 " rows, the suite " + std::to_string(rows) + ")\n";
  }
  EXPECT_TRUE(differing.empty())
      << "printed IR differs from the checked-in digest for:\n"
      << differing << "If the IR change is intended, replace kIrDigests with:\n"
      << table;
}

// ---------------------------------------------------------------------------
// VHDL digests: the RT-level VHDL that synth::EmitVhdl renders for every
// region Toolchain::Run moves to hardware, for each suite benchmark at -O1
// on the default platform (what binary_partitioner writes), hashed and
// compared against a checked-in table.  A benchmark whose CDFG recovery
// fails is recorded as such.  Synthesis or VHDL changes that claim "same
// hardware" must leave every row unchanged.
// ---------------------------------------------------------------------------

struct VhdlDigest {
  const char* benchmark;
  bool cdfg_failure;
  std::size_t regions;  ///< selected hardware regions
  std::uint64_t fnv;    ///< over their VHDL, concatenated in selection order
};

// clang-format off
constexpr VhdlDigest kVhdlDigests[] = {
    {"autcor00", false, 3, 0x5783e8cb51e0d45dull},
    {"conven00", false, 2, 0x6d8c3ed9c1c2bbf7ull},
    {"rgbcmy01", false, 2, 0x262ada70f874d800ull},
    {"idct01", false, 3, 0xe415a3c12e9d95a1ull},
    {"bitmnp01", false, 2, 0x4311ed8967517fcdull},
    {"switch01", true, 0, 0x0000000000000000ull},
    {"state02", true, 0, 0x0000000000000000ull},
    {"crc", false, 2, 0x101fa539f66ae789ull},
    {"bcnt", false, 2, 0xd66025d92f647dfbull},
    {"blit", false, 2, 0x99655b3fdcad35f3ull},
    {"fir", false, 4, 0x930bf0ea32d0541aull},
    {"engine", false, 3, 0x00c18c0453d112e6ull},
    {"g3fax", false, 3, 0x3e2d957363e6e589ull},
    {"adpcm_enc", false, 2, 0x734781e0f0cd68e0ull},
    {"adpcm_dec", false, 2, 0xb38323661facacfcull},
    {"g721_quan", false, 2, 0x25b7344b14f46e1cull},
    {"jpeg_dct", false, 3, 0xad19d961c213544full},
    {"brev", false, 2, 0x06bd04f8150d58acull},
    {"matmul", false, 3, 0x690f28ab009c2000ull},
    {"checksum", false, 2, 0x7a837dcf988aabdfull},
};
// clang-format on

TEST(VhdlDigest, SuiteMatchesCheckedInTable) {
  std::string differing;
  std::string table;
  std::size_t rows = 0;
  const Toolchain toolchain;
  for (const suite::Benchmark& bench : suite::AllBenchmarks()) {
    auto binary = suite::BuildBinary(bench, 1);
    ASSERT_TRUE(binary.ok()) << bench.name << ": " << binary.status().message();
    auto run = toolchain.Run(
        std::make_shared<const mips::SoftBinary>(std::move(binary).take()),
        bench.name);
    VhdlDigest actual{bench.name.c_str(), !run.ok(), 0, 0};
    if (run.ok()) {
      std::string vhdl;
      for (const auto& kernel : run.value().partition.hw) {
        vhdl += synth::EmitVhdl(kernel.synthesized.region,
                                kernel.synthesized.schedule);
      }
      actual.regions = run.value().partition.hw.size();
      actual.fnv = Fnv1a64(vhdl);
    }
    const VhdlDigest* expected = nullptr;
    for (const VhdlDigest& digest : kVhdlDigests) {
      if (bench.name == digest.benchmark) expected = &digest;
    }
    if (expected == nullptr || expected->cdfg_failure != actual.cdfg_failure ||
        expected->regions != actual.regions || expected->fnv != actual.fnv) {
      differing += "  " + bench.name + "\n";
    }
    char row[160];
    std::snprintf(row, sizeof row, "    {\"%s\", %s, %zu, 0x%016llxull},\n",
                  actual.benchmark, actual.cdfg_failure ? "true" : "false",
                  actual.regions, static_cast<unsigned long long>(actual.fnv));
    table += row;
    ++rows;
  }
  if (rows != std::size(kVhdlDigests)) {
    differing += "  (table has " + std::to_string(std::size(kVhdlDigests)) +
                 " rows, the suite " + std::to_string(rows) + ")\n";
  }
  EXPECT_TRUE(differing.empty())
      << "emitted VHDL differs from the checked-in digest for:\n"
      << differing
      << "If the hardware change is intended, replace kVhdlDigests with:\n"
      << table;
}

}  // namespace
}  // namespace b2h
