// Seeded mutation fuzzing of the machine-code front end: the assembler and
// the lifter's CFG recovery, the two parsers of outside input that turn text
// and machine words into a program.  No libFuzzer: a fixed-seed generator
// mutates the suite's own assembly (dropped, duplicated and swapped tokens,
// numeric literals set to field-boundary values, random bytes) into
// mips::Assemble, and feeds random text words to decomp::Lift.  Every
// rejection must come back as a Status, never the assembler's internal
// pass-1/pass-2 size mismatch, and every program that lifts must pass the
// IR verifier; an exception or (under the sanitizer build) undefined
// behaviour fails the test.  The iteration counts keep the whole file well
// under a second.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "decomp/lifter.hpp"
#include "ir/verifier.hpp"
#include "minicc/codegen.hpp"
#include "mips/assembler.hpp"
#include "mips/isa.hpp"
#include "suite/suite.hpp"

namespace b2h {
namespace {

/// splitmix64: small, fast and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  std::size_t Below(std::size_t bound) {
    return static_cast<std::size_t>(Next() % bound);
  }

 private:
  std::uint64_t state_;
};

/// The assembly of every suite benchmark: MiniC ones compiled at O1 and O3.
std::vector<std::string> SuiteAssembly() {
  std::vector<std::string> sources;
  for (const suite::Benchmark& bench : suite::AllBenchmarks()) {
    if (!bench.assembly.empty()) {
      sources.push_back(bench.assembly);
      continue;
    }
    for (const int level : {1, 3}) {
      minicc::CompileOptions options;
      options.opt_level = level;
      auto compiled = minicc::Compile(bench.source, options);
      EXPECT_TRUE(compiled.ok()) << bench.name;
      if (compiled.ok()) sources.push_back(std::move(compiled).take().assembly);
    }
  }
  return sources;
}

/// Byte ranges of the whitespace/comma separated tokens of `text`.
std::vector<std::string_view> Tokens(std::string_view text) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\n' ||
                               text[i] == ',' || text[i] == '\t')) {
      ++i;
    }
    const std::size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\n' &&
           text[i] != ',' && text[i] != '\t') {
      ++i;
    }
    if (i > start) tokens.push_back(text.substr(start, i - start));
  }
  return tokens;
}

/// One random edit of `source`: drop, duplicate or swap tokens, set a
/// literal to a boundary value, or write random bytes (printable assembly
/// characters or any byte at all).
std::string Mutate(const std::string& source, Rng& rng) {
  const std::vector<std::string_view> tokens = Tokens(source);
  if (tokens.empty()) return source;
  const auto offset = [&](std::string_view token) {
    return static_cast<std::size_t>(token.data() - source.data());
  };
  const std::string_view a = tokens[rng.Below(tokens.size())];
  const std::string_view b = tokens[rng.Below(tokens.size())];
  std::string out = source;
  switch (rng.Below(6)) {
    case 0:  // drop a token
      out.erase(offset(a), a.size());
      break;
    case 1:  // duplicate a token in place
      out.insert(offset(a), std::string(a) + " ");
      break;
    case 2: {  // swap two tokens
      const std::string_view first = offset(a) < offset(b) ? a : b;
      const std::string_view second = offset(a) < offset(b) ? b : a;
      if (first.data() == second.data()) break;
      out.replace(offset(second), second.size(), first);
      out.replace(offset(first), first.size(), second);
      break;
    }
    case 3: {  // overwrite bytes with assembly-ish characters
      static constexpr std::string_view kAlphabet =
          "$(),:#-+.0123456789xabtsvzr \n\r\t";
      const std::size_t at = rng.Below(out.size());
      const std::size_t count = 1 + rng.Below(4);
      for (std::size_t i = at; i < out.size() && i < at + count; ++i) {
        out[i] = kAlphabet[rng.Below(kAlphabet.size())];
      }
      break;
    }
    case 4: {  // set a literal (immediate, offset, data value) to a
               // value at the edge of an instruction field or data width
      static constexpr std::string_view kBoundaries[] = {
          "0xFFFF", "0x10000", "-1",         "-32769",
          "255",    "256",     "0x7fffffff", "0x80000000"};
      std::vector<std::string_view> literals;
      for (const std::string_view token : tokens) {
        const std::size_t digit = token[0] == '-' ? 1 : 0;
        if (digit < token.size() && token[digit] >= '0' &&
            token[digit] <= '9') {
          literals.push_back(token.substr(0, token.find('(')));
        }
      }
      if (literals.empty()) break;
      const std::string_view literal = literals[rng.Below(literals.size())];
      out.replace(offset(literal), literal.size(),
                  kBoundaries[rng.Below(std::size(kBoundaries))]);
      break;
    }
    default: {  // insert arbitrary bytes, NUL and high bytes included
      std::string noise(1 + rng.Below(8), '\0');
      for (char& c : noise) c = static_cast<char>(rng.Next() & 0xFF);
      out.insert(rng.Below(out.size() + 1), noise);
      break;
    }
  }
  return out;
}

TEST(FrontendFuzz, MutatedSuiteAssemblyFailsWithAStatus) {
  const std::vector<std::string> sources = SuiteAssembly();
  ASSERT_FALSE(sources.empty());
  Rng rng(0x5eed'a55eull);
  std::size_t assembled = 0;
  std::size_t rejected = 0;
  constexpr int kCases = 800;
  for (int i = 0; i < kCases; ++i) {
    std::string source = sources[rng.Below(sources.size())];
    const std::size_t edits = 1 + rng.Below(4);
    for (std::size_t e = 0; e < edits; ++e) source = Mutate(source, rng);
    try {
      auto binary = mips::Assemble(source);
      if (!binary.ok()) {
        const std::string& message = binary.status().message();
        EXPECT_FALSE(message.empty()) << "case " << i;
        EXPECT_EQ(message.find("internal error"), std::string::npos)
            << "case " << i << ": " << message;
        ++rejected;
        continue;
      }
      ++assembled;
      // A mutant that still assembles is an odd but well-formed binary:
      // lifting it must not throw either, and what lifts must verify.
      auto module = decomp::Lift(binary.value());
      if (module.ok()) {
        const Status verified = ir::Verify(module.value());
        EXPECT_TRUE(verified.ok()) << "case " << i << ": " << verified.message();
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << " threw: " << e.what();
    }
  }
  // Both outcomes must be exercised for the test to mean anything.
  EXPECT_GT(assembled, 0u);
  EXPECT_GT(rejected, 0u);
}

/// A random word: either any 32 bits, or a valid encoding with small
/// branch/jump offsets so recovery walks real control flow before failing.
std::uint32_t RandomWord(Rng& rng, std::size_t text_words) {
  if (rng.Below(4) == 0) return static_cast<std::uint32_t>(rng.Next());
  mips::Instr instr;
  instr.op = static_cast<mips::Op>(rng.Below(static_cast<std::size_t>(
      mips::Op::kInvalid)));
  const auto reg = [&] { return static_cast<std::uint8_t>(rng.Below(32)); };
  instr.rs = reg();
  instr.rt = reg();
  instr.rd = reg();
  instr.shamt = static_cast<std::uint8_t>(rng.Below(32));
  const auto span = static_cast<std::int32_t>(text_words);
  instr.imm = static_cast<std::int32_t>(rng.Below(2 * text_words + 1)) - span;
  switch (instr.op) {
    case mips::Op::kAndi: case mips::Op::kOri: case mips::Op::kXori:
    case mips::Op::kLui:
      instr.imm = static_cast<std::int32_t>(rng.Below(0x10000));
      break;
    case mips::Op::kJr:
      if (rng.Below(2) == 0) instr.rs = mips::kRa;  // mostly returns
      break;
    case mips::Op::kJ: case mips::Op::kJal:
      instr.target = static_cast<std::uint32_t>(
          (mips::kTextBase >> 2) + rng.Below(text_words + 2));
      break;
    default:
      break;
  }
  return mips::Encode(instr);
}

TEST(FrontendFuzz, RandomTextWordsLiftOrFailWithAStatus) {
  Rng rng(0x11f7'5eedull);
  std::size_t lifted = 0;
  std::size_t rejected = 0;
  constexpr int kCases = 4000;
  for (int i = 0; i < kCases; ++i) {
    mips::SoftBinary binary;
    const std::size_t words = 1 + rng.Below(48);
    for (std::size_t w = 0; w < words; ++w) {
      binary.text.push_back(RandomWord(rng, words));
    }
    // Half the programs end in a return, so some of them lift.
    if (rng.Below(2) == 0) {
      binary.text.push_back(
          mips::Encode({.op = mips::Op::kJr, .rs = mips::kRa}));
    }
    binary.entry =
        mips::kTextBase + 4u * static_cast<std::uint32_t>(rng.Below(words));
    try {
      auto module = rng.Below(4) == 0
                        ? decomp::LiftAt(binary, binary.entry)
                        : decomp::Lift(binary);
      if (module.ok()) {
        ++lifted;
        const Status verified = ir::Verify(module.value());
        EXPECT_TRUE(verified.ok()) << "case " << i << ": " << verified.message();
      } else {
        EXPECT_FALSE(module.status().message().empty()) << "case " << i;
        ++rejected;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << " threw: " << e.what();
    }
  }
  EXPECT_GT(lifted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace b2h
