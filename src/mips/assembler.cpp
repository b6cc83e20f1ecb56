#include "mips/assembler.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mips/isa.hpp"
#include "support/bits.hpp"
#include "support/guest_memory.hpp"
#include "obs/obs.hpp"

namespace b2h::mips {
namespace {

// The assembler does no per-line allocation: lines and tokens are
// string_views into the source, and mnemonics and register names are found
// in tables built once.

/// Character classes of the tokenizer: a token character, a separator
/// (C-locale whitespace or a comma), or the start of a comment.
enum class CharClass : std::uint8_t { kToken, kSeparator, kComment };

constexpr std::array<CharClass, 256> kCharClass = [] {
  std::array<CharClass, 256> classes{};
  classes.fill(CharClass::kToken);
  for (const unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r', ','}) {
    classes[c] = CharClass::kSeparator;
  }
  classes['#'] = CharClass::kComment;
  return classes;
}();

/// Split an assembly line into comma/space separated operand tokens, with
/// the mnemonic first, into `tokens` (cleared first).  Memory operands like
/// "8($sp)" stay one token.
void Tokenize(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t start = 0;
  bool in_token = false;
  std::size_t i = 0;
  for (; i < line.size(); ++i) {
    const CharClass cls = kCharClass[static_cast<unsigned char>(line[i])];
    if (cls == CharClass::kToken) {
      if (!in_token) start = i;
      in_token = true;
      continue;
    }
    if (in_token) tokens.push_back(line.substr(start, i - start));
    in_token = false;
    if (cls == CharClass::kComment) return;
  }
  if (in_token) tokens.push_back(line.substr(start, i - start));
}

/// A name of up to 7 bytes packed into one integer with its length, so table
/// lookups compare integers.  0 for names that are empty or too long, which
/// no table entry is.
constexpr std::uint64_t PackName(std::string_view name) {
  if (name.empty() || name.size() > 7) return 0;
  std::uint64_t key = static_cast<std::uint64_t>(name.size()) << 56;
  for (std::size_t i = 0; i < name.size(); ++i) {
    key |= static_cast<std::uint64_t>(static_cast<unsigned char>(name[i]))
           << (8 * i);
  }
  return key;
}

/// Sorted (key, value) table searched by PackName key.
template <typename T, std::size_t N>
struct NameTable {
  std::array<std::pair<std::uint64_t, T>, N> entries;

  [[nodiscard]] std::optional<T> Find(std::string_view name) const {
    const std::uint64_t key = PackName(name);
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const auto& entry, std::uint64_t k) { return entry.first < k; });
    if (key == 0 || it == entries.end() || it->first != key) {
      return std::nullopt;
    }
    return it->second;
  }
};

/// Register names without the '$', indexed by register number.
const NameTable<std::uint8_t, 32>& RegisterTable() {
  static const NameTable<std::uint8_t, 32> table = [] {
    NameTable<std::uint8_t, 32> built{};
    for (unsigned reg = 0; reg < 32; ++reg) {
      built.entries[reg] = {PackName(std::string_view(RegName(reg)).substr(1)),
                            static_cast<std::uint8_t>(reg)};
    }
    std::sort(built.entries.begin(), built.entries.end());
    return built;
  }();
  return table;
}

/// Pseudo-instructions; kNone for a real instruction.
enum class Pseudo : std::uint8_t {
  kNone, kNop, kMove, kNeg, kNot, kLi, kLa, kB, kBgt, kBlt, kBge, kBle,
};

/// What a statement's mnemonic names.  `op` is kInvalid for a pseudo
/// instruction and for an unknown mnemonic (pseudo kNone).
struct StatementOp {
  Op op = Op::kInvalid;
  Pseudo pseudo = Pseudo::kNone;
};

constexpr std::pair<std::string_view, Pseudo> kPseudoNames[] = {
    {"nop", Pseudo::kNop}, {"move", Pseudo::kMove}, {"neg", Pseudo::kNeg},
    {"not", Pseudo::kNot}, {"li", Pseudo::kLi},     {"la", Pseudo::kLa},
    {"b", Pseudo::kB},     {"bgt", Pseudo::kBgt},   {"blt", Pseudo::kBlt},
    {"bge", Pseudo::kBge}, {"ble", Pseudo::kBle},
};
constexpr std::size_t kMnemonicCount =
    static_cast<std::size_t>(Op::kInvalid) + std::size(kPseudoNames);

StatementOp LookupMnemonic(std::string_view name) {
  static const NameTable<StatementOp, kMnemonicCount> table = [] {
    NameTable<StatementOp, kMnemonicCount> built{};
    std::size_t n = 0;
    for (int i = 0; i < static_cast<int>(Op::kInvalid); ++i) {
      const Op op = static_cast<Op>(i);
      built.entries[n++] = {PackName(Mnemonic(op)), {op, Pseudo::kNone}};
    }
    for (const auto& [pseudo_name, pseudo] : kPseudoNames) {
      built.entries[n++] = {PackName(pseudo_name), {Op::kInvalid, pseudo}};
    }
    std::sort(built.entries.begin(), built.entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return built;
  }();
  return table.Find(name).value_or(StatementOp{});
}

std::optional<std::uint8_t> ParseReg(std::string_view text) {
  if (text.empty() || text[0] != '$') return std::nullopt;
  const std::string_view name = text.substr(1);
  // Numeric form: $0..$31.
  if (!name.empty() && name[0] >= '0' && name[0] <= '9') {
    int value = 0;
    for (char c : name) {
      if (c < '0' || c > '9') return std::nullopt;
      value = value * 10 + (c - '0');
      if (value > 31) return std::nullopt;
    }
    return static_cast<std::uint8_t>(value);
  }
  return RegisterTable().Find(name);
}

/// Decimal or 0x-hex integer with an optional sign; std::nullopt for
/// anything else, including magnitudes beyond int64.
std::optional<std::int64_t> ParseInt(std::string_view text) {
  if (text.empty()) return std::nullopt;
  bool negative = false;
  std::size_t i = 0;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    i = 1;
  }
  if (i >= text.size()) return std::nullopt;
  int base = 10;
  if (text.size() - i > 2 && text[i] == '0' &&
      (text[i + 1] == 'x' || text[i + 1] == 'X')) {
    base = 16;
    i += 2;
  }
  std::int64_t value = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (base == 16 && c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    if (value > (std::numeric_limits<std::int64_t>::max() - digit) / base) {
      return std::nullopt;
    }
    value = value * base + digit;
  }
  return negative ? -value : value;
}

/// True when `value` fits a signed 16-bit immediate field.
bool FitsSigned16(std::int64_t value) {
  return value >= -32768 && value <= 32767;
}

struct MemOperand {
  std::int64_t offset = 0;
  std::uint8_t base = 0;
};

std::optional<MemOperand> ParseMem(std::string_view text) {
  const auto open = text.find('(');
  const auto close = text.find(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    return std::nullopt;
  }
  MemOperand mem;
  const std::string_view offset_text = text.substr(0, open);
  if (offset_text.empty()) {
    mem.offset = 0;
  } else {
    const auto offset = ParseInt(offset_text);
    if (!offset) return std::nullopt;
    mem.offset = *offset;
  }
  const auto reg = ParseReg(text.substr(open + 1, close - open - 1));
  if (!reg) return std::nullopt;
  mem.base = *reg;
  return mem;
}

/// Operand positions an instruction statement reads (mnemonic included).
constexpr std::size_t kMaxOperandTokens = 4;

/// One instruction statement scheduled for pass-2 fixup.
struct PendingInstr {
  StatementOp mnemonic;
  /// First kMaxOperandTokens tokens (mnemonic first); `count` is the full
  /// token count, which the operand checks compare against.
  std::array<std::string_view, kMaxOperandTokens> tokens;
  std::size_t count = 0;
  std::uint32_t address = 0;
  int line = 0;
  std::size_t words = 1;  // pseudo-instructions may expand to 2 words
};

struct PendingDataWord {
  std::string_view label;  // non-empty when the word is a label reference
  std::uint32_t value = 0;
  std::size_t offset = 0;  // byte offset within data segment
};

/// Two-pass assembler over one source; every string_view it holds points
/// into that source, which outlives the run.
class Assembler {
 public:
  Result<SoftBinary> Run(std::string_view source) {
    int line_number = 0;
    std::size_t start = 0;
    // One line per '\n'; a last line without one counts too.
    while (start < source.size()) {
      const void* newline =
          std::memchr(source.data() + start, '\n', source.size() - start);
      const std::size_t end =
          newline == nullptr
              ? source.size()
              : static_cast<std::size_t>(static_cast<const char*>(newline) -
                                         source.data());
      ++line_number;
      if (Status status =
              FirstPassLine(source.substr(start, end - start), line_number);
          !status.ok()) {
        return status;
      }
      start = end + 1;
    }
    return SecondPass();
  }

 private:
  static Status Fail(int line, std::string_view message) {
    std::string text = "asm:" + std::to_string(line) + ": ";
    text += message;
    return Status::Error(ErrorKind::kParse, std::move(text));
  }

  Status FirstPassLine(std::string_view raw, int line) {
    Tokenize(raw, tokens_);
    std::size_t first = 0;
    // Handle any leading labels ("loop:" possibly followed by an instr).
    while (first < tokens_.size() && tokens_[first].back() == ':') {
      const std::string_view label =
          tokens_[first].substr(0, tokens_[first].size() - 1);
      if (label.empty()) return Fail(line, "empty label");
      const auto [it, inserted] =
          symbols_.try_emplace(label, in_text_ ? TextAddress() : DataAddress());
      if (!inserted) {
        return Fail(line, "duplicate label '" + std::string(label) + "'");
      }
      ++first;
    }
    if (first == tokens_.size()) return Status::Ok();
    const std::string_view head = tokens_[first];
    const std::size_t operands = tokens_.size() - first - 1;
    const auto operand = [&](std::size_t i) { return tokens_[first + i]; };

    if (head[0] == '.') {
      if (head == ".text") {
        in_text_ = true;
        return Status::Ok();
      }
      if (head == ".data") {
        in_text_ = false;
        return Status::Ok();
      }
      if (head == ".word") {
        if (in_text_) return Fail(line, ".word only allowed in .data");
        if (!DataFits(4 * operands)) return DataTooLarge(line);
        for (std::size_t i = 1; i <= operands; ++i) {
          PendingDataWord word;
          word.offset = data_.size();
          if (auto value = ParseInt(operand(i))) {
            word.value = static_cast<std::uint32_t>(*value);
          } else {
            word.label = operand(i);
          }
          pending_words_.push_back(word);
          data_.insert(data_.end(), 4, 0);
        }
        return Status::Ok();
      }
      if (head == ".byte") {
        if (in_text_) return Fail(line, ".byte only allowed in .data");
        if (!DataFits(operands)) return DataTooLarge(line);
        for (std::size_t i = 1; i <= operands; ++i) {
          const auto value = ParseInt(operand(i));
          if (!value || *value < -128 || *value > 255) {
            return Fail(line, "bad .byte value");
          }
          data_.push_back(static_cast<std::uint8_t>(*value & 0xFF));
        }
        return Status::Ok();
      }
      if (head == ".space") {
        if (in_text_ || operands != 1) {
          return Fail(line, "bad .space directive");
        }
        const auto size = ParseInt(operand(1));
        if (!size || *size < 0) return Fail(line, "bad .space size");
        if (!DataFits(static_cast<std::uint64_t>(*size))) {
          return DataTooLarge(line);
        }
        data_.insert(data_.end(), static_cast<std::size_t>(*size), 0);
        return Status::Ok();
      }
    }
    if (!in_text_) return Fail(line, "instruction outside .text");

    // An unknown mnemonic is reported in pass 2, in statement order.
    PendingInstr pending;
    pending.mnemonic = LookupMnemonic(head);
    pending.count = operands + 1;
    for (std::size_t i = 0; i < pending.count && i < kMaxOperandTokens; ++i) {
      pending.tokens[i] = operand(i);
    }
    pending.address = TextAddress();
    pending.line = line;
    pending.words = WordCount(pending);
    text_words_ += static_cast<std::uint32_t>(pending.words);
    pending_instrs_.push_back(pending);
    return Status::Ok();
  }

  [[nodiscard]] std::uint32_t TextAddress() const {
    return kTextBase + text_words_ * 4u;
  }
  /// The data image must fit the guest data segment: executors map it
  /// there whole, so anything larger could never be loaded.
  [[nodiscard]] bool DataFits(std::uint64_t more_bytes) const {
    return more_bytes <= support::GuestMemory::kDataSize - data_.size();
  }
  static Status DataTooLarge(int line) {
    return Fail(line, "data exceeds the " +
                          std::to_string(support::GuestMemory::kDataSize) +
                          "-byte data segment");
  }
  [[nodiscard]] std::uint32_t DataAddress() const {
    return kDataBase + static_cast<std::uint32_t>(data_.size());
  }

  /// Number of machine words a (possibly pseudo) instruction expands to.
  static std::size_t WordCount(const PendingInstr& pending) {
    switch (pending.mnemonic.pseudo) {
      case Pseudo::kLa:
        return 2;  // lui + ori
      case Pseudo::kLi:
        // Pass 2 rejects an `li` whose operand count is not 3.
        if (auto value = ParseInt(pending.tokens[2])) {
          const std::int64_t v = *value;
          if (v >= -32768 && v <= 32767) return 1;          // addiu
          if (v >= 0 && v <= 0xFFFF) return 1;              // ori
          if ((v & 0xFFFF) == 0 && v >= 0 && v <= 0xFFFF0000LL) return 1;
        }
        return 2;                                           // lui + ori
      case Pseudo::kBgt: case Pseudo::kBlt: case Pseudo::kBge:
      case Pseudo::kBle:
        return 2;
      default:
        return 1;
    }
  }

  Result<SoftBinary> SecondPass() {
    SoftBinary binary;
    binary.text.reserve(text_words_);
    for (const PendingInstr& pending : pending_instrs_) {
      const std::size_t before = binary.text.size();
      Status status = EmitInstr(pending, binary);
      if (status.ok() && binary.text.size() - before != pending.words) {
        // Every later label was placed by WordCount: it would be off.
        status = Fail(pending.line, "internal error: size differs from pass 1");
      }
      if (!status.ok()) return status;
    }
    for (const PendingDataWord& word : pending_words_) {
      std::uint32_t value = word.value;
      if (!word.label.empty()) {
        const auto it = symbols_.find(word.label);
        if (it == symbols_.end()) {
          return Status::Error(ErrorKind::kParse,
                               "undefined data label '" +
                                   std::string(word.label) + "'");
        }
        value = it->second;
      }
      for (int b = 0; b < 4; ++b) {
        data_[word.offset + static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>((value >> (8 * b)) & 0xFFu);
      }
    }
    binary.data = std::move(data_);
    std::vector<std::pair<std::string_view, std::uint32_t>> sorted(
        symbols_.begin(), symbols_.end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [name, address] : sorted) {
      binary.symbols.emplace_hint(binary.symbols.end(), name, address);
    }
    if (const auto it = symbols_.find("main"); it != symbols_.end()) {
      binary.entry = it->second;
    }
    return binary;
  }

  /// Resolve a branch/jump operand that may be a label or a number.
  std::optional<std::uint32_t> ResolveTarget(std::string_view text) const {
    if (const auto it = symbols_.find(text); it != symbols_.end()) {
      return it->second;
    }
    if (auto value = ParseInt(text)) return static_cast<std::uint32_t>(*value);
    return std::nullopt;
  }

  Status EmitInstr(const PendingInstr& pending, SoftBinary& binary) const {
    const auto& tokens = pending.tokens;
    const std::size_t count = pending.count;
    const std::string_view m = tokens[0];
    const int line = pending.line;
    const std::uint32_t pc = pending.address;

    const auto reg = [&](std::size_t i) -> std::optional<std::uint8_t> {
      return i < count ? ParseReg(tokens[i]) : std::nullopt;
    };
    const auto imm = [&](std::size_t i) -> std::optional<std::int64_t> {
      return i < count ? ParseInt(tokens[i]) : std::nullopt;
    };
    const auto push = [&](const Instr& instr) { binary.text.push_back(Encode(instr)); };
    const auto branch_disp = [&](std::uint32_t target,
                                 std::uint32_t from_pc) -> std::int32_t {
      return static_cast<std::int32_t>(target - (from_pc + 4)) >> 2;
    };

    // ---- pseudo-instructions ----
    switch (pending.mnemonic.pseudo) {
      case Pseudo::kNone:
        break;
      case Pseudo::kNop:
        push({.op = Op::kSll, .rs = 0, .rt = 0, .rd = 0, .shamt = 0});
        return Status::Ok();
      case Pseudo::kMove: {
        const auto rd = reg(1), rs = reg(2);
        if (!rd || !rs) return Fail(line, "move: bad operands");
        push({.op = Op::kOr, .rs = *rs, .rt = 0, .rd = *rd});
        return Status::Ok();
      }
      case Pseudo::kNeg: {
        const auto rd = reg(1), rs = reg(2);
        if (!rd || !rs) return Fail(line, "neg: bad operands");
        push({.op = Op::kSubu, .rs = 0, .rt = *rs, .rd = *rd});
        return Status::Ok();
      }
      case Pseudo::kNot: {
        const auto rd = reg(1), rs = reg(2);
        if (!rd || !rs) return Fail(line, "not: bad operands");
        push({.op = Op::kNor, .rs = *rs, .rt = 0, .rd = *rd});
        return Status::Ok();
      }
      case Pseudo::kLi: {
        const auto rd = reg(1);
        const auto value = imm(2);
        if (!rd || !value || count != 3) return Fail(line, "li: bad operands");
        const std::int64_t v = *value;
        if (v >= -32768 && v <= 32767) {
          push({.op = Op::kAddiu, .rs = 0, .rt = *rd,
                .imm = static_cast<std::int32_t>(v)});
        } else if (v >= 0 && v <= 0xFFFF) {
          push({.op = Op::kOri, .rs = 0, .rt = *rd,
                .imm = static_cast<std::int32_t>(v)});
        } else if ((v & 0xFFFF) == 0 && v >= 0 && v <= 0xFFFF0000LL) {
          push({.op = Op::kLui, .rt = *rd,
                .imm = static_cast<std::int32_t>((v >> 16) & 0xFFFF)});
        } else {
          const auto uv = static_cast<std::uint32_t>(v);
          push({.op = Op::kLui, .rt = *rd,
                .imm = static_cast<std::int32_t>(uv >> 16)});
          push({.op = Op::kOri, .rs = *rd, .rt = *rd,
                .imm = static_cast<std::int32_t>(uv & 0xFFFFu)});
        }
        return Status::Ok();
      }
      case Pseudo::kLa: {
        const auto rd = reg(1);
        if (!rd || count != 3) return Fail(line, "la: bad operands");
        const auto target = ResolveTarget(tokens[2]);
        if (!target) {
          return Fail(line, "la: unknown symbol " + std::string(tokens[2]));
        }
        push({.op = Op::kLui, .rt = *rd,
              .imm = static_cast<std::int32_t>(*target >> 16)});
        push({.op = Op::kOri, .rs = *rd, .rt = *rd,
              .imm = static_cast<std::int32_t>(*target & 0xFFFFu)});
        return Status::Ok();
      }
      case Pseudo::kB: {
        if (count < 2) return Fail(line, "b: bad operands");
        const auto target = ResolveTarget(tokens[1]);
        if (!target) return Fail(line, "b: unknown target");
        const std::int32_t disp = branch_disp(*target, pc);
        if (!FitsSigned16(disp)) return Fail(line, "b: target out of range");
        push({.op = Op::kBeq, .rs = 0, .rt = 0, .imm = disp});
        return Status::Ok();
      }
      case Pseudo::kBgt: case Pseudo::kBlt: case Pseudo::kBge:
      case Pseudo::kBle: {
        const Pseudo p = pending.mnemonic.pseudo;
        const auto ra = reg(1), rb = reg(2);
        if (!ra || !rb || count != 4) {
          return Fail(line, std::string(m) + ": bad operands");
        }
        const auto target = ResolveTarget(tokens[3]);
        if (!target) return Fail(line, std::string(m) + ": unknown target");
        const std::int32_t disp = branch_disp(*target, pc + 4);
        if (!FitsSigned16(disp)) {
          return Fail(line, std::string(m) + ": target out of range");
        }
        // slt $at, x, y; then branch on $at.
        if (p == Pseudo::kBgt) {        // a > b  <=>  slt at, b, a ; bne at
          push({.op = Op::kSlt, .rs = *rb, .rt = *ra, .rd = kAt});
        } else if (p == Pseudo::kBlt) { // a < b  <=>  slt at, a, b ; bne at
          push({.op = Op::kSlt, .rs = *ra, .rt = *rb, .rd = kAt});
        } else if (p == Pseudo::kBge) { // a >= b <=>  slt at, a, b ; beq at
          push({.op = Op::kSlt, .rs = *ra, .rt = *rb, .rd = kAt});
        } else {                        // a <= b <=>  slt at, b, a ; beq at
          push({.op = Op::kSlt, .rs = *rb, .rt = *ra, .rd = kAt});
        }
        const Op branch =
            (p == Pseudo::kBgt || p == Pseudo::kBlt) ? Op::kBne : Op::kBeq;
        push({.op = branch, .rs = kAt, .rt = 0, .imm = disp});
        return Status::Ok();
      }
    }

    // ---- real instructions ----
    const Op op = pending.mnemonic.op;
    if (op == Op::kInvalid) {
      return Fail(line, "unknown mnemonic '" + std::string(m) + "'");
    }

    Instr instr;
    instr.op = op;
    switch (op) {
      case Op::kSll: case Op::kSrl: case Op::kSra: {
        const auto rd = reg(1), rt = reg(2);
        const auto sh = imm(3);
        if (!rd || !rt || !sh || *sh < 0 || *sh > 31) {
          return Fail(line, "shift: bad operands");
        }
        instr.rd = *rd; instr.rt = *rt;
        instr.shamt = static_cast<std::uint8_t>(*sh);
        break;
      }
      case Op::kSllv: case Op::kSrlv: case Op::kSrav: {
        const auto rd = reg(1), rt = reg(2), rs = reg(3);
        if (!rd || !rt || !rs) return Fail(line, "shiftv: bad operands");
        instr.rd = *rd; instr.rt = *rt; instr.rs = *rs;
        break;
      }
      case Op::kAdd: case Op::kAddu: case Op::kSub: case Op::kSubu:
      case Op::kAnd: case Op::kOr: case Op::kXor: case Op::kNor:
      case Op::kSlt: case Op::kSltu: {
        const auto rd = reg(1), rs = reg(2), rt = reg(3);
        if (!rd || !rs || !rt) return Fail(line, "r3: bad operands");
        instr.rd = *rd; instr.rs = *rs; instr.rt = *rt;
        break;
      }
      case Op::kJr: case Op::kMthi: case Op::kMtlo: {
        const auto rs = reg(1);
        if (!rs) return Fail(line, "rs: bad operands");
        instr.rs = *rs;
        break;
      }
      case Op::kJalr: {
        const auto rd = reg(1), rs = reg(2);
        if (rd && rs) {
          instr.rd = *rd; instr.rs = *rs;
        } else if (rd) {
          instr.rd = kRa; instr.rs = *rd;
        } else {
          return Fail(line, "jalr: bad operands");
        }
        break;
      }
      case Op::kMfhi: case Op::kMflo: {
        const auto rd = reg(1);
        if (!rd) return Fail(line, "mfhi/mflo: bad operands");
        instr.rd = *rd;
        break;
      }
      case Op::kMult: case Op::kMultu: case Op::kDiv: case Op::kDivu: {
        const auto rs = reg(1), rt = reg(2);
        if (!rs || !rt) return Fail(line, "mult/div: bad operands");
        instr.rs = *rs; instr.rt = *rt;
        break;
      }
      case Op::kBeq: case Op::kBne: {
        const auto rs = reg(1), rt = reg(2);
        if (!rs || !rt || count != 4) {
          return Fail(line, "branch: bad operands");
        }
        const auto target = ResolveTarget(tokens[3]);
        if (!target) {
          return Fail(line,
                      "branch: unknown target " + std::string(tokens[3]));
        }
        instr.rs = *rs; instr.rt = *rt;
        instr.imm = branch_disp(*target, pc);
        if (!FitsSigned16(instr.imm)) {
          return Fail(line, "branch: target out of range");
        }
        break;
      }
      case Op::kBlez: case Op::kBgtz: case Op::kBltz: case Op::kBgez: {
        const auto rs = reg(1);
        if (!rs || count != 3) return Fail(line, "branch: bad operands");
        const auto target = ResolveTarget(tokens[2]);
        if (!target) {
          return Fail(line,
                      "branch: unknown target " + std::string(tokens[2]));
        }
        instr.rs = *rs;
        instr.imm = branch_disp(*target, pc);
        if (!FitsSigned16(instr.imm)) {
          return Fail(line, "branch: target out of range");
        }
        break;
      }
      case Op::kAddi: case Op::kAddiu: case Op::kSlti: case Op::kSltiu:
      case Op::kAndi: case Op::kOri: case Op::kXori: {
        const auto rt = reg(1), rs = reg(2);
        const auto value = imm(3);
        if (!rt || !rs || !value) return Fail(line, "imm: bad operands");
        instr.rt = *rt; instr.rs = *rs;
        instr.imm = static_cast<std::int32_t>(*value);
        // andi/ori/xori zero-extend their immediate; the others sign-extend.
        const bool logical =
            op == Op::kAndi || op == Op::kOri || op == Op::kXori;
        if (logical ? *value < 0 || *value > 0xFFFF : !FitsSigned16(*value)) {
          return Fail(line, "imm: immediate out of range");
        }
        break;
      }
      case Op::kLui: {
        const auto rt = reg(1);
        const auto value = imm(2);
        if (!rt || !value) return Fail(line, "lui: bad operands");
        instr.rt = *rt;
        instr.imm = static_cast<std::int32_t>(*value & 0xFFFF);
        break;
      }
      case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu: case Op::kLhu:
      case Op::kSb: case Op::kSh: case Op::kSw: {
        const auto rt = reg(1);
        if (!rt || count != 3) return Fail(line, "mem: bad operands");
        const auto mem = ParseMem(tokens[2]);
        if (!mem) return Fail(line, "mem: bad address operand");
        if (!FitsSigned16(mem->offset)) {
          return Fail(line, "mem: offset out of range");
        }
        instr.rt = *rt; instr.rs = mem->base;
        instr.imm = static_cast<std::int32_t>(mem->offset);
        break;
      }
      case Op::kJ: case Op::kJal: {
        if (count < 2) return Fail(line, "jump: bad operands");
        const auto target = ResolveTarget(tokens[1]);
        if (!target) {
          return Fail(line, "jump: unknown target " + std::string(tokens[1]));
        }
        instr.target = (*target >> 2) & 0x03FF'FFFFu;
        break;
      }
      case Op::kInvalid:
        return Fail(line, "invalid op");
    }
    push(instr);
    return Status::Ok();
  }

  bool in_text_ = true;
  std::uint32_t text_words_ = 0;
  std::vector<std::uint8_t> data_;
  std::unordered_map<std::string_view, std::uint32_t> symbols_;
  std::vector<std::string_view> tokens_;  ///< current line, reused
  std::vector<PendingInstr> pending_instrs_;
  std::vector<PendingDataWord> pending_words_;
};

}  // namespace

Result<SoftBinary> Assemble(std::string_view source) {
  obs::ScopedSpan span("mips.assemble", "mips");
  Assembler assembler;
  return assembler.Run(source);
}

}  // namespace b2h::mips
