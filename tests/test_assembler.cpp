// Assembler tests: labels, pseudo-instructions, data directives, errors,
// and a digest of every assembled suite binary.
#include "mips/assembler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "mips/isa.hpp"
#include "mips/simulator.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "support/guest_memory.hpp"

namespace b2h::mips {
namespace {

TEST(Assembler, MinimalProgram) {
  auto binary = Assemble(R"(
    main:
      li $v0, 42
      jr $ra
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  EXPECT_EQ(binary.value().entry, kTextBase);
  EXPECT_EQ(binary.value().text.size(), 2u);
  Simulator sim(binary.value());
  const auto run = sim.Run();
  EXPECT_EQ(run.reason, HaltReason::kReturned);
  EXPECT_EQ(run.return_value, 42);
}

TEST(Assembler, ForwardAndBackwardLabels) {
  auto binary = Assemble(R"(
    main:
      li $t0, 3
      li $v0, 0
    loop:
      addiu $v0, $v0, 5
      addiu $t0, $t0, -1
      bgtz $t0, loop
      j done
      addiu $v0, $v0, 100   # skipped
    done:
      jr $ra
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  Simulator sim(binary.value());
  EXPECT_EQ(sim.Run().return_value, 15);
}

TEST(Assembler, LiExpansions) {
  // Small immediates: 1 word; large: lui+ori.
  auto small = Assemble("main:\n li $v0, 100\n jr $ra\n");
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.value().text.size(), 2u);

  auto negative = Assemble("main:\n li $v0, -5\n jr $ra\n");
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(negative.value().text.size(), 2u);
  Simulator sim_neg(negative.value());
  EXPECT_EQ(sim_neg.Run().return_value, -5);

  auto large = Assemble("main:\n li $v0, 0x12345678\n jr $ra\n");
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(large.value().text.size(), 3u);
  Simulator sim_large(large.value());
  EXPECT_EQ(sim_large.Run().return_value, 0x12345678);

  // lui-only form (low halfword zero).
  auto hi_only = Assemble("main:\n li $v0, 0x40000\n jr $ra\n");
  ASSERT_TRUE(hi_only.ok());
  EXPECT_EQ(hi_only.value().text.size(), 2u);
  Simulator sim_hi(hi_only.value());
  EXPECT_EQ(sim_hi.Run().return_value, 0x40000);
}

TEST(Assembler, PseudoBranches) {
  auto binary = Assemble(R"(
    main:
      li $t0, 5
      li $t1, 9
      li $v0, 0
      blt $t0, $t1, less
      jr $ra
    less:
      li $v0, 1
      bge $t1, $t0, both
      jr $ra
    both:
      addiu $v0, $v0, 2
      jr $ra
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  Simulator sim(binary.value());
  EXPECT_EQ(sim.Run().return_value, 3);
}

TEST(Assembler, DataDirectives) {
  auto binary = Assemble(R"(
    main:
      la $t0, tab
      lw $v0, 4($t0)
      la $t1, bytes
      lbu $t2, 1($t1)
      addu $v0, $v0, $t2
      jr $ra
    .data
    tab:
      .word 10, 20, 30
    bytes:
      .byte 1, 2, 3
    pad:
      .space 8
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  EXPECT_EQ(binary.value().symbols.at("tab"), kDataBase);
  EXPECT_EQ(binary.value().symbols.at("bytes"), kDataBase + 12);
  EXPECT_EQ(binary.value().data.size(), 12u + 3u + 8u);
  Simulator sim(binary.value());
  EXPECT_EQ(sim.Run().return_value, 22);
}

TEST(Assembler, WordLabelReferences) {
  auto binary = Assemble(R"(
    main:
      la $t0, ptrs
      lw $v0, 0($t0)
      jr $ra
    .data
    target:
      .word 77
    ptrs:
      .word target
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  Simulator sim(binary.value());
  EXPECT_EQ(static_cast<std::uint32_t>(sim.Run().return_value), kDataBase);
}

TEST(Assembler, DataLargerThanTheDataSegmentIsRejected) {
  // One byte too many: rejected up front, naming the segment size, instead
  // of being cut short by the executors and faulting later.
  for (const char* data : {".space 1048577\n",
                           ".space 1048576\n .byte 1\n",
                           ".space 1048576\n .word 7\n",
                           ".space 4294967296\n"}) {
    SCOPED_TRACE(data);
    const auto status =
        Assemble(std::string("main:\n jr $ra\n.data\n") + data).status();
    EXPECT_EQ(status.kind(), ErrorKind::kParse);
    EXPECT_NE(status.message().find("1048576-byte data segment"),
              std::string::npos)
        << status.message();
  }
}

TEST(Assembler, DataFillingTheDataSegmentAssembles) {
  // Exactly 1 MiB fits, and its last byte is readable at the segment end.
  auto binary = Assemble(R"(
    main:
      la $t0, tail
      lbu $v0, 0($t0)
      jr $ra
    .data
    pad:
      .space 1048575
    tail:
      .byte 42
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  EXPECT_EQ(binary.value().data.size(), support::GuestMemory::kDataSize);
  EXPECT_EQ(binary.value().symbols.at("tail"),
            kDataBase + support::GuestMemory::kDataSize - 1);
  Simulator sim(binary.value());
  const RunResult run = sim.Run();
  ASSERT_EQ(run.reason, HaltReason::kReturned) << run.fault_message;
  EXPECT_EQ(run.return_value, 42);

  auto spaced = Assemble("main:\n jr $ra\n.data\n .space 1048576\n");
  ASSERT_TRUE(spaced.ok()) << spaced.status().message();
  Simulator zeros(spaced.value());
  EXPECT_EQ(zeros.PeekWord(kDataBase + support::GuestMemory::kDataSize - 4),
            0u);
}

/// Every diagnostic the assembler gives, pinned byte for byte: the kind and
/// the full "asm:<line>: ..." message.
TEST(Assembler, Errors) {
  struct Case {
    const char* source;
    const char* message;
  };
  const Case cases[] = {
      // Unknown mnemonic, and bad operands for every operand format.
      {"main:\n frob $t0, $t1\n", "asm:2: unknown mnemonic 'frob'"},
      {"main:\n bogus $t0\n", "asm:2: unknown mnemonic 'bogus'"},
      {"main:\n move $t0\n", "asm:2: move: bad operands"},
      {"main:\n neg $t0, 5\n", "asm:2: neg: bad operands"},
      {"main:\n not $t0\n", "asm:2: not: bad operands"},
      {"main:\n li $t0\n", "asm:2: li: bad operands"},
      {"main:\n la $t0\n", "asm:2: la: bad operands"},
      {"main:\n bgt $t0, $t1\n", "asm:2: bgt: bad operands"},
      {"main:\n sll $t0, $t1, 32\n", "asm:2: shift: bad operands"},
      {"main:\n sllv $t0, $t1\n", "asm:2: shiftv: bad operands"},
      {"main:\n addu $t0, $t1, $32\n", "asm:2: r3: bad operands"},
      {"main:\n jr 5\n", "asm:2: rs: bad operands"},
      {"main:\n jalr 5\n", "asm:2: jalr: bad operands"},
      {"main:\n mflo\n", "asm:2: mfhi/mflo: bad operands"},
      {"main:\n mult $t0\n", "asm:2: mult/div: bad operands"},
      {"main:\n beq $t0, $t1\n", "asm:2: branch: bad operands"},
      {"main:\n blez $t0\n", "asm:2: branch: bad operands"},
      {"main:\n addiu $t0, $t1\n", "asm:2: imm: bad operands"},
      {"main:\n lui $t0\n", "asm:2: lui: bad operands"},
      {"main:\n lw $t0\n", "asm:2: mem: bad operands"},
      {"main:\n lw $t0, 4\n", "asm:2: mem: bad address operand"},
      {"main:\n lw $t0, 4($zz)\n", "asm:2: mem: bad address operand"},
      // Unresolvable targets.
      {"main:\n b nowhere\n", "asm:2: b: unknown target"},
      {"main:\n ble $t0, $t1, nowhere\n", "asm:2: ble: unknown target"},
      {"main:\n beq $t0, $t1, nowhere\n",
       "asm:2: branch: unknown target nowhere"},
      {"main:\n bgtz $t0, nowhere\n", "asm:2: branch: unknown target nowhere"},
      {"main:\n j nowhere\n", "asm:2: jump: unknown target nowhere"},
      {"main:\n jal nowhere\n", "asm:2: jump: unknown target nowhere"},
      {"main:\n la $t0, nowhere\n", "asm:2: la: unknown symbol nowhere"},
      // Data label references resolve after both passes, so carry no line.
      {"main:\n jr $ra\n.data\n .word nowhere\n",
       "undefined data label 'nowhere'"},
      // Labels.
      {"main:\nmain:\n jr $ra\n", "asm:2: duplicate label 'main'"},
      {":\n jr $ra\n", "asm:1: empty label"},
      {"main: :\n jr $ra\n", "asm:1: empty label"},
      // Directives in the wrong section.
      {"main:\n .word 1\n", "asm:2: .word only allowed in .data"},
      {".data\n .word 1\n.text\n .word 2\n",
       "asm:4: .word only allowed in .data"},
      {"main:\n .byte 1\n", "asm:2: .byte only allowed in .data"},
      {".data\n addu $t0, $t1, $t2\n", "asm:2: instruction outside .text"},
      {"main:\n .space 4\n", "asm:2: bad .space directive"},
      // Bad data.
      {".data\n .space\n", "asm:2: bad .space directive"},
      {".data\n .space -1\n", "asm:2: bad .space size"},
      {".data\n .space x\n", "asm:2: bad .space size"},
      {".data\n .byte x\n", "asm:2: bad .byte value"},
      {".data\n .space 1048577\n",
       "asm:2: data exceeds the 1048576-byte data segment"},
      // Missing operands and out-of-range fields: a Status, not an
      // exception from the encoder.
      {"main:\n b\n", "asm:2: b: bad operands"},
      {"main:\n j\n", "asm:2: jump: bad operands"},
      {"main:\n jal\n", "asm:2: jump: bad operands"},
      {"main:\n addiu $t0, $t0, 40000\n", "asm:2: imm: immediate out of range"},
      {"main:\n lw $t0, 40000($sp)\n", "asm:2: mem: offset out of range"},
      {"main:\n beq $t0, $t1, 0x900000\n",
       "asm:2: branch: target out of range"},
      {"main:\n b 0x900000\n", "asm:2: b: target out of range"},
      {"main:\n blt $t0, $t1, 0x900000\n", "asm:2: blt: target out of range"},
      {"main:\n li $t0, 99999999999999999999999\n", "asm:2: li: bad operands"},
      // A value its field cannot hold, even after wrapping through int32,
      // and an extra operand that pass 1 would size differently from what
      // pass 2 emits (shifting every later label), are rejected too.
      {"main:\n ori $v0, $v0, 0x12345\n", "asm:2: imm: immediate out of range"},
      {"main:\n andi $v0, $v0, -1\n", "asm:2: imm: immediate out of range"},
      {"main:\n xori $v0, $v0, 0x10000\n",
       "asm:2: imm: immediate out of range"},
      {"main:\n addiu $v0, $v0, 0x100000005\n",
       "asm:2: imm: immediate out of range"},
      {"main:\n lw $v0, 0x100000000($sp)\n", "asm:2: mem: offset out of range"},
      {"main:\n li $v0, 5, 6\n nop\nend: jr $ra\n", "asm:2: li: bad operands"},
      {".data\n .byte 300\n", "asm:2: bad .byte value"},
      {".data\n .byte 1, -129\n", "asm:2: bad .byte value"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.source);
    const Status status = Assemble(c.source).status();
    EXPECT_EQ(status.kind(), ErrorKind::kParse);
    EXPECT_EQ(status.message(), c.message);
  }
}

TEST(Assembler, LineEndingsCommentsAndLabelOnlyLines) {
  const char* lf =
      "# only a comment\n"
      "main:\n"
      "  li $v0, 7  # trailing\n"
      "  b done\n"
      "done:\n"
      "  jr $ra";  // last line has no newline
  auto plain = Assemble(lf);
  ASSERT_TRUE(plain.ok()) << plain.status().message();
  EXPECT_EQ(plain.value().text.size(), 3u);
  EXPECT_EQ(plain.value().symbols.at("done"), kTextBase + 8);
  Simulator sim(plain.value());
  EXPECT_EQ(sim.Run().return_value, 7);

  std::string crlf;
  for (const char* c = lf; *c != '\0'; ++c) {
    if (*c == '\n') crlf += '\r';
    crlf += *c;
  }
  auto windows = Assemble(crlf);
  ASSERT_TRUE(windows.ok()) << windows.status().message();
  EXPECT_EQ(windows.value().text, plain.value().text);
  EXPECT_EQ(windows.value().symbols, plain.value().symbols);

  // Line numbers count every line, blank, comment-only and label-only ones.
  const Status status =
      Assemble("\r\n# c\r\nmain:\r\n\r\n frob\r\n").status();
  EXPECT_EQ(status.message(), "asm:5: unknown mnemonic 'frob'");
  // An error on a last line without a newline still names its line.
  EXPECT_EQ(Assemble("main:\n jr $ra\n bogus").status().message(),
            "asm:3: unknown mnemonic 'bogus'");
}

TEST(Assembler, MovePseudoUsesOr) {
  auto binary = Assemble("main:\n move $v0, $a0\n jr $ra\n");
  ASSERT_TRUE(binary.ok());
  const auto decoded = Decode(binary.value().text[0]);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, Op::kOr);
  EXPECT_EQ(decoded->rt, 0);
}

TEST(Assembler, CommentsAndWhitespace) {
  auto binary = Assemble(R"(
    # leading comment
    main:   li $v0, 7   # trailing comment
            jr $ra
  )");
  ASSERT_TRUE(binary.ok());
  Simulator sim(binary.value());
  EXPECT_EQ(sim.Run().return_value, 7);
}

// ---------------------------------------------------------------------------
// Binary digests: every suite binary (all twenty benchmarks at O0-O3; the two
// assembly benchmarks ignore the level, so each appears four times) hashed
// over its entry point, text, data and symbols, and compared against a
// checked-in table.  An assembler rewrite must leave every digest unchanged.
// An intentional change shows up as a named list of differing keys plus the
// regenerated table, to be reviewed and pasted over kBinaryDigests below.
// ---------------------------------------------------------------------------

struct BinaryDigest {
  const char* key;  ///< "binary@Ox"
  std::uint64_t fnv;
};

// clang-format off
constexpr BinaryDigest kBinaryDigests[] = {
    {"autcor00@O0", 0xb11fb39653510577ull},
    {"autcor00@O1", 0x8a90c6a81eb2e634ull},
    {"autcor00@O2", 0x08de794fab5f6177ull},
    {"autcor00@O3", 0x09884551a3515e19ull},
    {"conven00@O0", 0xb62e7cffa46ec083ull},
    {"conven00@O1", 0x4d07d410d6d9c0ebull},
    {"conven00@O2", 0xc80eae47fc0efbcbull},
    {"conven00@O3", 0xb9c55887e54a309cull},
    {"rgbcmy01@O0", 0x83213717a929f4f3ull},
    {"rgbcmy01@O1", 0x762500cd3631dd7dull},
    {"rgbcmy01@O2", 0xa261e8f3c302768eull},
    {"rgbcmy01@O3", 0x1dda0dbc3dc29185ull},
    {"idct01@O0", 0x791add1fcdb7e0fcull},
    {"idct01@O1", 0x913cc606f9679279ull},
    {"idct01@O2", 0x70034589b147a5deull},
    {"idct01@O3", 0xefc18b5de3e17d2eull},
    {"bitmnp01@O0", 0x91958c5347644259ull},
    {"bitmnp01@O1", 0x8ae0d60c6fa958d3ull},
    {"bitmnp01@O2", 0x69c155c2c26aae7cull},
    {"bitmnp01@O3", 0xdeb12f5b6527bde7ull},
    {"switch01@O0", 0xb7c5fb96af9511daull},
    {"switch01@O1", 0xb7c5fb96af9511daull},
    {"switch01@O2", 0xb7c5fb96af9511daull},
    {"switch01@O3", 0xb7c5fb96af9511daull},
    {"state02@O0", 0xd50d1fe53114c04aull},
    {"state02@O1", 0xd50d1fe53114c04aull},
    {"state02@O2", 0xd50d1fe53114c04aull},
    {"state02@O3", 0xd50d1fe53114c04aull},
    {"crc@O0", 0x0b344330937df35full},
    {"crc@O1", 0xbf1a14517514a626ull},
    {"crc@O2", 0x0fe55247804278d2ull},
    {"crc@O3", 0x28af9f00fae4512bull},
    {"bcnt@O0", 0xaced0dc1e7c0700cull},
    {"bcnt@O1", 0xabc36ab539969cb7ull},
    {"bcnt@O2", 0x3fee1177efbceea7ull},
    {"bcnt@O3", 0x1c270382fe87a788ull},
    {"blit@O0", 0xce7eb21ab6494a86ull},
    {"blit@O1", 0x2eb9343fcd464009ull},
    {"blit@O2", 0x32e9910f13400fd8ull},
    {"blit@O3", 0x2a043d3f29cf6ea8ull},
    {"fir@O0", 0xf5c0924db7f26244ull},
    {"fir@O1", 0xdab7e8d97d8ededcull},
    {"fir@O2", 0x0e2d4ec78ab9a377ull},
    {"fir@O3", 0x2af58d34b68c34ebull},
    {"engine@O0", 0x15f35d8b19c495d1ull},
    {"engine@O1", 0xb19c642127a2ac68ull},
    {"engine@O2", 0x3b354676be6b2b86ull},
    {"engine@O3", 0xf26358a0f284ecf0ull},
    {"g3fax@O0", 0x519ae73b8ff27ca4ull},
    {"g3fax@O1", 0xdbe5d2c45cbf4995ull},
    {"g3fax@O2", 0x5e396ba0caf51da3ull},
    {"g3fax@O3", 0xe085ce752eb7f9c4ull},
    {"adpcm_enc@O0", 0xed852ffe6ccb58c2ull},
    {"adpcm_enc@O1", 0xcdd43539d7e3743bull},
    {"adpcm_enc@O2", 0x9b06c2fb66a58b3aull},
    {"adpcm_enc@O3", 0x840a6fcd412cdb31ull},
    {"adpcm_dec@O0", 0xd1328393752c7982ull},
    {"adpcm_dec@O1", 0xee527bc5918a5cfbull},
    {"adpcm_dec@O2", 0xe1a2916d5737de1cull},
    {"adpcm_dec@O3", 0x166b7adbc8eb3bb4ull},
    {"g721_quan@O0", 0x934111652fe676f1ull},
    {"g721_quan@O1", 0xc74815c37261746aull},
    {"g721_quan@O2", 0x341a360f07d52420ull},
    {"g721_quan@O3", 0xbdf3ff2beccdeba0ull},
    {"jpeg_dct@O0", 0x842ea79e5f5bcc83ull},
    {"jpeg_dct@O1", 0x60d734e32e0c4981ull},
    {"jpeg_dct@O2", 0x6c38cdf1781d5465ull},
    {"jpeg_dct@O3", 0x46cd2b42adc9e2e3ull},
    {"brev@O0", 0xb1dc750b27be86d3ull},
    {"brev@O1", 0xe1676f1698bdd307ull},
    {"brev@O2", 0x40176e70e93354d8ull},
    {"brev@O3", 0x1806b33645576c7bull},
    {"matmul@O0", 0xa0ba724e55da13b3ull},
    {"matmul@O1", 0xbf420ae721731a1dull},
    {"matmul@O2", 0xe5325fd5143493c5ull},
    {"matmul@O3", 0x94bd09663d17f07dull},
    {"checksum@O0", 0x56441cf5c3182232ull},
    {"checksum@O1", 0x1d1f0182bab6014aull},
    {"checksum@O2", 0x758fd018d821b6cfull},
    {"checksum@O3", 0xb94ae2e05987cc61ull},
};
// clang-format on

/// FNV-1a over the little-endian bytes of a SoftBinary's fields.
class Fnv1a64 {
 public:
  void Bytes(std::string_view bytes) {
    for (const char c : bytes) Byte(static_cast<unsigned char>(c));
  }
  void Word(std::uint32_t word) {
    for (int b = 0; b < 4; ++b) Byte((word >> (8 * b)) & 0xFFu);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void Byte(std::uint32_t byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ull;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t DigestOf(const SoftBinary& binary) {
  Fnv1a64 fnv;
  fnv.Word(binary.entry);
  fnv.Word(static_cast<std::uint32_t>(binary.text.size()));
  for (const std::uint32_t word : binary.text) fnv.Word(word);
  fnv.Word(static_cast<std::uint32_t>(binary.data.size()));
  fnv.Bytes({reinterpret_cast<const char*>(binary.data.data()),
             binary.data.size()});
  fnv.Word(static_cast<std::uint32_t>(binary.symbols.size()));
  for (const auto& [name, address] : binary.symbols) {
    fnv.Bytes(name);
    fnv.Bytes(std::string_view("\0", 1));
    fnv.Word(address);
  }
  return fnv.value();
}

TEST(BinaryDigest, AssembledSuiteMatchesCheckedInTable) {
  std::string differing;
  std::string table;
  std::size_t rows = 0;
  for (const suite::Benchmark& bench : suite::AllBenchmarks()) {
    for (int level = 0; level <= 3; ++level) {
      const std::string key = bench.name + "@O" + std::to_string(level);
      auto binary = suite::BuildBinary(bench, level);
      ASSERT_TRUE(binary.ok()) << key << ": " << binary.status().message();
      const std::uint64_t fnv = DigestOf(binary.value());
      const BinaryDigest* expected = nullptr;
      for (const BinaryDigest& digest : kBinaryDigests) {
        if (key == digest.key) expected = &digest;
      }
      if (expected == nullptr || expected->fnv != fnv) {
        differing += "  " + key + "\n";
      }
      char row[96];
      std::snprintf(row, sizeof row, "    {\"%s\", 0x%016llxull},\n",
                    key.c_str(), static_cast<unsigned long long>(fnv));
      table += row;
      ++rows;
    }
  }
  if (rows != std::size(kBinaryDigests)) {
    differing += "  (table has " + std::to_string(std::size(kBinaryDigests)) +
                 " rows, the suite " + std::to_string(rows) + ")\n";
  }
  EXPECT_TRUE(differing.empty())
      << "assembled binary differs from the checked-in digest for:\n"
      << differing
      << "If the change is intended, replace kBinaryDigests with:\n"
      << table;
}

}  // namespace
}  // namespace b2h::mips
