#include "mips/assembler.hpp"

#include <cctype>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "mips/isa.hpp"
#include "support/bits.hpp"
#include "support/guest_memory.hpp"
#include "obs/obs.hpp"

namespace b2h::mips {
namespace {

struct Token {
  std::string text;
};

/// Split an assembly line into comma/space separated operand tokens, with the
/// mnemonic first.  Memory operands like "8($sp)" stay one token.
std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == '#') break;
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

std::optional<std::uint8_t> ParseReg(std::string_view text) {
  if (text.empty() || text[0] != '$') return std::nullopt;
  const std::string_view name = text.substr(1);
  // Numeric form: $0..$31.
  if (!name.empty() && std::isdigit(static_cast<unsigned char>(name[0]))) {
    int value = 0;
    for (char c : name) {
      if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
      value = value * 10 + (c - '0');
    }
    if (value < 0 || value > 31) return std::nullopt;
    return static_cast<std::uint8_t>(value);
  }
  for (unsigned reg = 0; reg < 32; ++reg) {
    if (name == std::string_view(RegName(reg)).substr(1)) {
      return static_cast<std::uint8_t>(reg);
    }
  }
  return std::nullopt;
}

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
    value = value * base + digit;
  }
  return negative ? -value : value;
}

struct MemOperand {
  std::int32_t offset = 0;
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
    mem.offset = static_cast<std::int32_t>(*offset);
  }
  const auto reg = ParseReg(text.substr(open + 1, close - open - 1));
  if (!reg) return std::nullopt;
  mem.base = *reg;
  return mem;
}

/// One assembly statement scheduled for pass-2 fixup.
struct PendingInstr {
  std::vector<std::string> tokens;  // mnemonic + operands
  std::uint32_t address = 0;
  int line = 0;
  int words = 1;  // pseudo-instructions may expand to 2 words
};

struct PendingDataWord {
  std::string label;       // non-empty when the word is a label reference
  std::uint32_t value = 0;
  std::size_t offset = 0;  // byte offset within data segment
};

class Assembler {
 public:
  Result<SoftBinary> Run(std::string_view source) {
    std::istringstream stream{std::string(source)};
    std::string line;
    int line_number = 0;
    while (std::getline(stream, line)) {
      ++line_number;
      if (Status status = FirstPassLine(line, line_number); !status.ok()) {
        return status;
      }
    }
    return SecondPass();
  }

 private:
  Status Fail(int line, const std::string& message) const {
    std::ostringstream out;
    out << "asm:" << line << ": " << message;
    return Status::Error(ErrorKind::kParse, out.str());
  }

  Status FirstPassLine(std::string_view raw, int line) {
    auto tokens = Tokenize(raw);
    // Handle any leading labels ("loop:" possibly followed by an instr).
    while (!tokens.empty() && tokens.front().back() == ':') {
      std::string label = tokens.front().substr(0, tokens.front().size() - 1);
      if (label.empty()) return Fail(line, "empty label");
      if (symbols_.count(label) != 0) {
        return Fail(line, "duplicate label '" + label + "'");
      }
      symbols_[label] = in_text_ ? TextAddress() : DataAddress();
      tokens.erase(tokens.begin());
    }
    if (tokens.empty()) return Status::Ok();

    const std::string& head = tokens.front();
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
      if (!DataFits(4 * (tokens.size() - 1))) return DataTooLarge(line);
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        PendingDataWord word;
        word.offset = data_.size();
        if (auto value = ParseInt(tokens[i])) {
          word.value = static_cast<std::uint32_t>(*value);
        } else {
          word.label = tokens[i];
        }
        pending_words_.push_back(word);
        data_.insert(data_.end(), 4, 0);
      }
      return Status::Ok();
    }
    if (head == ".byte") {
      if (in_text_) return Fail(line, ".byte only allowed in .data");
      if (!DataFits(tokens.size() - 1)) return DataTooLarge(line);
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto value = ParseInt(tokens[i]);
        if (!value) return Fail(line, "bad .byte value");
        data_.push_back(static_cast<std::uint8_t>(*value & 0xFF));
      }
      return Status::Ok();
    }
    if (head == ".space") {
      if (in_text_ || tokens.size() != 2) {
        return Fail(line, "bad .space directive");
      }
      const auto size = ParseInt(tokens[1]);
      if (!size || *size < 0) return Fail(line, "bad .space size");
      if (!DataFits(static_cast<std::uint64_t>(*size))) {
        return DataTooLarge(line);
      }
      data_.insert(data_.end(), static_cast<std::size_t>(*size), 0);
      return Status::Ok();
    }
    if (!in_text_) return Fail(line, "instruction outside .text");

    PendingInstr pending;
    pending.tokens = std::move(tokens);
    pending.address = TextAddress();
    pending.line = line;
    pending.words = WordCount(pending.tokens);
    text_words_ += static_cast<std::uint32_t>(pending.words);
    pending_instrs_.push_back(std::move(pending));
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
  Status DataTooLarge(int line) const {
    return Fail(line, "data exceeds the " +
                          std::to_string(support::GuestMemory::kDataSize) +
                          "-byte data segment");
  }
  [[nodiscard]] std::uint32_t DataAddress() const {
    return kDataBase + static_cast<std::uint32_t>(data_.size());
  }

  /// Number of machine words a (possibly pseudo) instruction expands to.
  static int WordCount(const std::vector<std::string>& tokens) {
    const std::string& m = tokens.front();
    if (m == "la") return 2;  // lui + ori
    if (m == "li") {
      if (tokens.size() == 3) {
        if (auto value = ParseInt(tokens[2])) {
          const std::int64_t v = *value;
          if (v >= -32768 && v <= 32767) return 1;          // addiu
          if (v >= 0 && v <= 0xFFFF) return 1;              // ori
          if ((v & 0xFFFF) == 0 && v >= 0 && v <= 0xFFFF0000LL) return 1;
          return 2;                                         // lui + ori
        }
      }
      return 2;
    }
    if (m == "bgt" || m == "blt" || m == "bge" || m == "ble") return 2;
    return 1;
  }

  Result<SoftBinary> SecondPass() {
    SoftBinary binary;
    binary.text.reserve(text_words_);
    for (const PendingInstr& pending : pending_instrs_) {
      if (Status status = EmitInstr(pending, binary); !status.ok()) {
        return status;
      }
    }
    for (const PendingDataWord& word : pending_words_) {
      std::uint32_t value = word.value;
      if (!word.label.empty()) {
        const auto it = symbols_.find(word.label);
        if (it == symbols_.end()) {
          return Status::Error(ErrorKind::kParse,
                               "undefined data label '" + word.label + "'");
        }
        value = it->second;
      }
      for (int b = 0; b < 4; ++b) {
        data_[word.offset + static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>((value >> (8 * b)) & 0xFFu);
      }
    }
    binary.data = std::move(data_);
    binary.symbols = symbols_;
    if (const auto it = symbols_.find("main"); it != symbols_.end()) {
      binary.entry = it->second;
    }
    return binary;
  }

  std::optional<std::uint32_t> LookupSymbol(const std::string& name) const {
    const auto it = symbols_.find(name);
    if (it == symbols_.end()) return std::nullopt;
    return it->second;
  }

  /// Resolve a branch/jump operand that may be a label or a number.
  std::optional<std::uint32_t> ResolveTarget(const std::string& text) const {
    if (auto symbol = LookupSymbol(text)) return *symbol;
    if (auto value = ParseInt(text)) return static_cast<std::uint32_t>(*value);
    return std::nullopt;
  }

  Status EmitInstr(const PendingInstr& pending, SoftBinary& binary) {
    const auto& tokens = pending.tokens;
    const std::string& m = tokens.front();
    const int line = pending.line;
    const std::uint32_t pc = pending.address;

    const auto reg = [&](std::size_t i) -> std::optional<std::uint8_t> {
      return i < tokens.size() ? ParseReg(tokens[i]) : std::nullopt;
    };
    const auto imm = [&](std::size_t i) -> std::optional<std::int64_t> {
      return i < tokens.size() ? ParseInt(tokens[i]) : std::nullopt;
    };
    const auto push = [&](const Instr& instr) { binary.text.push_back(Encode(instr)); };
    const auto branch_disp = [&](std::uint32_t target,
                                 std::uint32_t from_pc) -> std::int32_t {
      return static_cast<std::int32_t>(target - (from_pc + 4)) >> 2;
    };

    // ---- pseudo-instructions ----
    if (m == "nop") {
      push({.op = Op::kSll, .rs = 0, .rt = 0, .rd = 0, .shamt = 0});
      return Status::Ok();
    }
    if (m == "move") {
      const auto rd = reg(1), rs = reg(2);
      if (!rd || !rs) return Fail(line, "move: bad operands");
      push({.op = Op::kOr, .rs = *rs, .rt = 0, .rd = *rd});
      return Status::Ok();
    }
    if (m == "neg") {
      const auto rd = reg(1), rs = reg(2);
      if (!rd || !rs) return Fail(line, "neg: bad operands");
      push({.op = Op::kSubu, .rs = 0, .rt = *rs, .rd = *rd});
      return Status::Ok();
    }
    if (m == "not") {
      const auto rd = reg(1), rs = reg(2);
      if (!rd || !rs) return Fail(line, "not: bad operands");
      push({.op = Op::kNor, .rs = *rs, .rt = 0, .rd = *rd});
      return Status::Ok();
    }
    if (m == "li") {
      const auto rd = reg(1);
      const auto value = imm(2);
      if (!rd || !value) return Fail(line, "li: bad operands");
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
    if (m == "la") {
      const auto rd = reg(1);
      if (!rd || tokens.size() != 3) return Fail(line, "la: bad operands");
      const auto target = ResolveTarget(tokens[2]);
      if (!target) return Fail(line, "la: unknown symbol " + tokens[2]);
      push({.op = Op::kLui, .rt = *rd,
            .imm = static_cast<std::int32_t>(*target >> 16)});
      push({.op = Op::kOri, .rs = *rd, .rt = *rd,
            .imm = static_cast<std::int32_t>(*target & 0xFFFFu)});
      return Status::Ok();
    }
    if (m == "b") {
      const auto target = ResolveTarget(tokens.at(1));
      if (!target) return Fail(line, "b: unknown target");
      push({.op = Op::kBeq, .rs = 0, .rt = 0,
            .imm = branch_disp(*target, pc)});
      return Status::Ok();
    }
    if (m == "bgt" || m == "blt" || m == "bge" || m == "ble") {
      const auto ra = reg(1), rb = reg(2);
      if (!ra || !rb || tokens.size() != 4) {
        return Fail(line, m + ": bad operands");
      }
      const auto target = ResolveTarget(tokens[3]);
      if (!target) return Fail(line, m + ": unknown target");
      // slt $at, x, y; then branch on $at.
      if (m == "bgt") {        // a > b  <=>  slt at, b, a ; bne at
        push({.op = Op::kSlt, .rs = *rb, .rt = *ra, .rd = kAt});
      } else if (m == "blt") { // a < b  <=>  slt at, a, b ; bne at
        push({.op = Op::kSlt, .rs = *ra, .rt = *rb, .rd = kAt});
      } else if (m == "bge") { // a >= b <=>  slt at, a, b ; beq at
        push({.op = Op::kSlt, .rs = *ra, .rt = *rb, .rd = kAt});
      } else {                 // a <= b <=>  slt at, b, a ; beq at
        push({.op = Op::kSlt, .rs = *rb, .rt = *ra, .rd = kAt});
      }
      const Op branch = (m == "bgt" || m == "blt") ? Op::kBne : Op::kBeq;
      push({.op = branch, .rs = kAt, .rt = 0,
            .imm = branch_disp(*target, pc + 4)});
      return Status::Ok();
    }

    // ---- real instructions ----
    Op op = Op::kInvalid;
    for (int i = 0; i < static_cast<int>(Op::kInvalid); ++i) {
      if (m == Mnemonic(static_cast<Op>(i))) {
        op = static_cast<Op>(i);
        break;
      }
    }
    if (op == Op::kInvalid) return Fail(line, "unknown mnemonic '" + m + "'");

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
        if (!rs || !rt || tokens.size() != 4) {
          return Fail(line, "branch: bad operands");
        }
        const auto target = ResolveTarget(tokens[3]);
        if (!target) return Fail(line, "branch: unknown target " + tokens[3]);
        instr.rs = *rs; instr.rt = *rt;
        instr.imm = branch_disp(*target, pc);
        break;
      }
      case Op::kBlez: case Op::kBgtz: case Op::kBltz: case Op::kBgez: {
        const auto rs = reg(1);
        if (!rs || tokens.size() != 3) return Fail(line, "branch: bad operands");
        const auto target = ResolveTarget(tokens[2]);
        if (!target) return Fail(line, "branch: unknown target " + tokens[2]);
        instr.rs = *rs;
        instr.imm = branch_disp(*target, pc);
        break;
      }
      case Op::kAddi: case Op::kAddiu: case Op::kSlti: case Op::kSltiu:
      case Op::kAndi: case Op::kOri: case Op::kXori: {
        const auto rt = reg(1), rs = reg(2);
        const auto value = imm(3);
        if (!rt || !rs || !value) return Fail(line, "imm: bad operands");
        instr.rt = *rt; instr.rs = *rs;
        instr.imm = static_cast<std::int32_t>(*value);
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
        if (!rt || tokens.size() != 3) return Fail(line, "mem: bad operands");
        const auto mem = ParseMem(tokens[2]);
        if (!mem) return Fail(line, "mem: bad address operand");
        instr.rt = *rt; instr.rs = mem->base; instr.imm = mem->offset;
        break;
      }
      case Op::kJ: case Op::kJal: {
        const auto target = ResolveTarget(tokens.at(1));
        if (!target) return Fail(line, "jump: unknown target " + tokens[1]);
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
  std::map<std::string, std::uint32_t> symbols_;
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
