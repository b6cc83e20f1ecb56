#include "minicc/codegen.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "minicc/parser.hpp"
#include "mips/assembler.hpp"
#include "obs/obs.hpp"
#include "support/bits.hpp"

namespace b2h::minicc {
namespace {

// ---------------------------------------------------------------------------
// AST utilities: clone, constant folding, loop unrolling.
// ---------------------------------------------------------------------------

std::unique_ptr<Expr> CloneExpr(const Expr& e) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->value = e.value;
  out->name = e.name;
  out->bop = e.bop;
  out->uop = e.uop;
  out->line = e.line;
  if (e.a) out->a = CloneExpr(*e.a);
  if (e.b) out->b = CloneExpr(*e.b);
  for (const auto& arg : e.args) out->args.push_back(CloneExpr(*arg));
  return out;
}

std::unique_ptr<Stmt> CloneStmt(const Stmt& s) {
  auto out = std::make_unique<Stmt>();
  out->kind = s.kind;
  out->name = s.name;
  out->line = s.line;
  if (s.index) out->index = CloneExpr(*s.index);
  if (s.value) out->value = CloneExpr(*s.value);
  if (s.init) out->init = CloneStmt(*s.init);
  if (s.cond) out->cond = CloneExpr(*s.cond);
  if (s.step) out->step = CloneStmt(*s.step);
  if (s.then_body) out->then_body = CloneStmt(*s.then_body);
  if (s.else_body) out->else_body = CloneStmt(*s.else_body);
  for (const auto& child : s.body) out->body.push_back(CloneStmt(*child));
  return out;
}

std::optional<std::int32_t> EvalConst(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kNumber:
      return e.value;
    case Expr::Kind::kUnary: {
      const auto a = EvalConst(*e.a);
      if (!a) return std::nullopt;
      switch (e.uop) {
        case UnaryOp::kNeg: return -*a;
        case UnaryOp::kNot: return *a == 0 ? 1 : 0;
        case UnaryOp::kBitNot: return ~*a;
      }
      return std::nullopt;
    }
    case Expr::Kind::kBinary: {
      const auto a = EvalConst(*e.a);
      const auto b = EvalConst(*e.b);
      if (!a || !b) return std::nullopt;
      const auto ua = static_cast<std::uint32_t>(*a);
      const auto ub = static_cast<std::uint32_t>(*b);
      switch (e.bop) {
        case BinaryOp::kAdd: return static_cast<std::int32_t>(ua + ub);
        case BinaryOp::kSub: return static_cast<std::int32_t>(ua - ub);
        case BinaryOp::kMul: return static_cast<std::int32_t>(ua * ub);
        case BinaryOp::kDiv:
          return *b == 0 ? 0 : (*a == INT32_MIN && *b == -1) ? INT32_MIN
                                                             : *a / *b;
        case BinaryOp::kRem:
          return *b == 0 ? *a : (*a == INT32_MIN && *b == -1) ? 0 : *a % *b;
        case BinaryOp::kAnd: return static_cast<std::int32_t>(ua & ub);
        case BinaryOp::kOr:  return static_cast<std::int32_t>(ua | ub);
        case BinaryOp::kXor: return static_cast<std::int32_t>(ua ^ ub);
        case BinaryOp::kShl: return static_cast<std::int32_t>(ua << (ub & 31));
        case BinaryOp::kShr: return *a >> (ub & 31);
        case BinaryOp::kLt: return *a < *b;
        case BinaryOp::kLe: return *a <= *b;
        case BinaryOp::kGt: return *a > *b;
        case BinaryOp::kGe: return *a >= *b;
        case BinaryOp::kEq: return *a == *b;
        case BinaryOp::kNe: return *a != *b;
        case BinaryOp::kLogicalAnd: return (*a != 0 && *b != 0) ? 1 : 0;
        case BinaryOp::kLogicalOr: return (*a != 0 || *b != 0) ? 1 : 0;
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

void FoldExpr(std::unique_ptr<Expr>& e) {
  if (!e) return;
  FoldExpr(e->a);
  FoldExpr(e->b);
  for (auto& arg : e->args) FoldExpr(arg);
  if (e->kind == Expr::Kind::kUnary || e->kind == Expr::Kind::kBinary) {
    if (const auto v = EvalConst(*e)) {
      auto folded = std::make_unique<Expr>();
      folded->kind = Expr::Kind::kNumber;
      folded->value = *v;
      folded->line = e->line;
      e = std::move(folded);
    }
  }
}

void FoldStmt(Stmt& s) {
  FoldExpr(s.index);
  FoldExpr(s.value);
  FoldExpr(s.cond);
  if (s.init) FoldStmt(*s.init);
  if (s.step) FoldStmt(*s.step);
  if (s.then_body) FoldStmt(*s.then_body);
  if (s.else_body) FoldStmt(*s.else_body);
  for (auto& child : s.body) FoldStmt(*child);
}

/// Substitute every use of variable `name` in `e` with (name + delta).
/// delta == 0 still introduces the addition so that all unrolled sections
/// are textually isomorphic (which is what loop rerolling matches on).
void SubstituteIndex(Expr& e, const std::string& name, std::int32_t delta) {
  if (e.kind == Expr::Kind::kVar && e.name == name) {
    auto base = std::make_unique<Expr>();
    base->kind = Expr::Kind::kVar;
    base->name = name;
    base->line = e.line;
    auto offset = std::make_unique<Expr>();
    offset->kind = Expr::Kind::kNumber;
    offset->value = delta;
    offset->line = e.line;
    e.kind = Expr::Kind::kBinary;
    e.bop = BinaryOp::kAdd;
    e.name.clear();
    e.a = std::move(base);
    e.b = std::move(offset);
    return;
  }
  if (e.a) SubstituteIndex(*e.a, name, delta);
  if (e.b) SubstituteIndex(*e.b, name, delta);
  for (auto& arg : e.args) SubstituteIndex(*arg, name, delta);
}

void SubstituteIndexStmt(Stmt& s, const std::string& name,
                         std::int32_t delta) {
  if (s.index) SubstituteIndex(*s.index, name, delta);
  if (s.value) SubstituteIndex(*s.value, name, delta);
  if (s.cond) SubstituteIndex(*s.cond, name, delta);
  if (s.init) SubstituteIndexStmt(*s.init, name, delta);
  if (s.step) SubstituteIndexStmt(*s.step, name, delta);
  if (s.then_body) SubstituteIndexStmt(*s.then_body, name, delta);
  if (s.else_body) SubstituteIndexStmt(*s.else_body, name, delta);
  for (auto& child : s.body) SubstituteIndexStmt(*child, name, delta);
}

bool AssignsTo(const Stmt& s, const std::string& name) {
  if ((s.kind == Stmt::Kind::kAssign || s.kind == Stmt::Kind::kDecl) &&
      s.name == name && !s.index) {
    return true;
  }
  if (s.init && AssignsTo(*s.init, name)) return true;
  if (s.step && AssignsTo(*s.step, name)) return true;
  if (s.then_body && AssignsTo(*s.then_body, name)) return true;
  if (s.else_body && AssignsTo(*s.else_body, name)) return true;
  for (const auto& child : s.body) {
    if (AssignsTo(*child, name)) return true;
  }
  return false;
}

bool HasReturn(const Stmt& s) {
  if (s.kind == Stmt::Kind::kReturn) return true;
  if (s.init && HasReturn(*s.init)) return true;
  if (s.step && HasReturn(*s.step)) return true;
  if (s.then_body && HasReturn(*s.then_body)) return true;
  if (s.else_body && HasReturn(*s.else_body)) return true;
  for (const auto& child : s.body) {
    if (HasReturn(*child)) return true;
  }
  return false;
}

/// Recognize `for (i = c0; i < N; i = i + s)` with constant c0, N, s.
struct CountedLoop {
  std::string var;
  std::int32_t start = 0;
  std::int32_t bound = 0;
  std::int32_t step = 1;
};

std::optional<CountedLoop> MatchCountedLoop(const Stmt& s) {
  if (s.kind != Stmt::Kind::kFor || !s.init || !s.cond || !s.step) {
    return std::nullopt;
  }
  CountedLoop loop;
  // init: i = const
  const Stmt& init = *s.init;
  if ((init.kind != Stmt::Kind::kDecl && init.kind != Stmt::Kind::kAssign) ||
      init.index || !init.value) {
    return std::nullopt;
  }
  const auto start = EvalConst(*init.value);
  if (!start) return std::nullopt;
  loop.var = init.name;
  loop.start = *start;
  // cond: i < const
  const Expr& cond = *s.cond;
  if (cond.kind != Expr::Kind::kBinary || cond.bop != BinaryOp::kLt ||
      cond.a->kind != Expr::Kind::kVar || cond.a->name != loop.var) {
    return std::nullopt;
  }
  const auto bound = EvalConst(*cond.b);
  if (!bound) return std::nullopt;
  loop.bound = *bound;
  // step: i = i + const
  const Stmt& step = *s.step;
  if (step.kind != Stmt::Kind::kAssign || step.index || step.name != loop.var ||
      !step.value || step.value->kind != Expr::Kind::kBinary ||
      step.value->bop != BinaryOp::kAdd ||
      step.value->a->kind != Expr::Kind::kVar ||
      step.value->a->name != loop.var) {
    return std::nullopt;
  }
  const auto inc = EvalConst(*step.value->b);
  if (!inc || *inc <= 0) return std::nullopt;
  loop.step = *inc;
  return loop;
}

/// O3: unroll eligible innermost counted loops by `factor`.
void UnrollStmt(Stmt& s, int factor) {
  if (s.init) UnrollStmt(*s.init, factor);
  if (s.step) UnrollStmt(*s.step, factor);
  if (s.then_body) UnrollStmt(*s.then_body, factor);
  if (s.else_body) UnrollStmt(*s.else_body, factor);
  for (auto& child : s.body) UnrollStmt(*child, factor);

  const auto loop = MatchCountedLoop(s);
  if (!loop) return;
  // Innermost only: body must not contain loops or returns, and must not
  // reassign the induction variable.
  const std::function<bool(const Stmt&)> has_loop = [&](const Stmt& t) {
    if (t.kind == Stmt::Kind::kFor || t.kind == Stmt::Kind::kWhile) {
      return true;
    }
    if (t.init && has_loop(*t.init)) return true;
    if (t.step && has_loop(*t.step)) return true;
    if (t.then_body && has_loop(*t.then_body)) return true;
    if (t.else_body && has_loop(*t.else_body)) return true;
    for (const auto& child : t.body) {
      if (has_loop(*child)) return true;
    }
    return false;
  };
  if (has_loop(*s.then_body) || HasReturn(*s.then_body) ||
      AssignsTo(*s.then_body, loop->var)) {
    return;
  }
  const std::int64_t trips =
      (static_cast<std::int64_t>(loop->bound) - loop->start + loop->step - 1) /
      loop->step;
  if (trips <= 0) return;
  // Fall back to factor 2 when the trip count is not a multiple of the
  // requested factor (gcc behaves similarly before peeling remainders).
  if (trips % factor != 0) {
    if (factor > 2 && trips % 2 == 0) {
      factor = 2;
    } else {
      return;
    }
  }

  // Build the unrolled body: factor copies with i -> i + j*step.
  auto unrolled = std::make_unique<Stmt>();
  unrolled->kind = Stmt::Kind::kBlock;
  unrolled->line = s.then_body->line;
  for (int j = 0; j < factor; ++j) {
    auto copy = CloneStmt(*s.then_body);
    SubstituteIndexStmt(*copy, loop->var,
                        static_cast<std::int32_t>(j) * loop->step);
    unrolled->body.push_back(std::move(copy));
  }
  s.then_body = std::move(unrolled);
  // New step: i = i + factor*step.
  s.step->value->b->value = loop->step * factor;
}

// ---------------------------------------------------------------------------
// Code generation.
// ---------------------------------------------------------------------------

/// Register names used by the generator (ABI roles in codegen.hpp).
constexpr const char* kTemp[] = {"$t0", "$t1", "$t2", "$t3",
                                 "$t4", "$t5", "$t6", "$t7"};
constexpr int kNumTemps = 8;
constexpr const char* kSaved[] = {"$s0", "$s1", "$s2", "$s3",
                                  "$s4", "$s5", "$s6", "$s7"};
constexpr int kNumSaved = 8;
constexpr int kCallSpillWords = 8;

struct Location {
  enum class Kind { kSReg, kStack };
  Kind kind = Kind::kStack;
  int index = 0;  ///< s-register number or stack word offset
};

class FunctionCodegen {
 public:
  FunctionCodegen(const Program& program, const Function& fn,
                  const CompileOptions& options, std::ostringstream& out,
                  int& label_counter)
      : program_(program), fn_(fn), options_(options), out_(out),
        label_counter_(label_counter) {}

  Status Run() {
    PlanLocals();
    EmitPrologue();
    if (Status s = EmitStmt(*fn_.body); !s.ok()) return s;
    // Fall through to the epilogue (implicit `return 0`).
    EmitLine("move $v0, $zero");
    EmitEpilogue();
    return Status::Ok();
  }

 private:
  // ---- planning -----------------------------------------------------------

  void CollectLocals(const Stmt& s, std::vector<std::string>& names) {
    if (s.kind == Stmt::Kind::kDecl) {
      if (std::find(names.begin(), names.end(), s.name) == names.end()) {
        names.push_back(s.name);
      }
    }
    if (s.init) CollectLocals(*s.init, names);
    if (s.step) CollectLocals(*s.step, names);
    if (s.then_body) CollectLocals(*s.then_body, names);
    if (s.else_body) CollectLocals(*s.else_body, names);
    for (const auto& child : s.body) CollectLocals(*child, names);
  }

  void CollectCalls(const Stmt& s, bool& has_calls) {
    const std::function<void(const Expr&)> walk_expr = [&](const Expr& e) {
      if (e.kind == Expr::Kind::kCall) has_calls = true;
      if (e.a) walk_expr(*e.a);
      if (e.b) walk_expr(*e.b);
      for (const auto& arg : e.args) walk_expr(*arg);
    };
    if (s.index) walk_expr(*s.index);
    if (s.value) walk_expr(*s.value);
    if (s.cond) walk_expr(*s.cond);
    if (s.init) CollectCalls(*s.init, has_calls);
    if (s.step) CollectCalls(*s.step, has_calls);
    if (s.then_body) CollectCalls(*s.then_body, has_calls);
    if (s.else_body) CollectCalls(*s.else_body, has_calls);
    for (const auto& child : s.body) CollectCalls(*child, has_calls);
  }

  /// Global arrays referenced inside `s` (for O2+ base hoisting).
  void CollectArrays(const Stmt& s, std::vector<std::string>& names) {
    const std::function<void(const Expr&)> walk_expr = [&](const Expr& e) {
      if (e.kind == Expr::Kind::kIndex &&
          program_.FindGlobal(e.name) != nullptr &&
          std::find(names.begin(), names.end(), e.name) == names.end()) {
        names.push_back(e.name);
      }
      if (e.a) walk_expr(*e.a);
      if (e.b) walk_expr(*e.b);
      for (const auto& arg : e.args) walk_expr(*arg);
    };
    if (s.kind == Stmt::Kind::kAssign && s.index &&
        program_.FindGlobal(s.name) != nullptr &&
        std::find(names.begin(), names.end(), s.name) == names.end()) {
      names.push_back(s.name);
    }
    if (s.index) walk_expr(*s.index);
    if (s.value) walk_expr(*s.value);
    if (s.cond) walk_expr(*s.cond);
    if (s.init) CollectArrays(*s.init, names);
    if (s.step) CollectArrays(*s.step, names);
    if (s.then_body) CollectArrays(*s.then_body, names);
    if (s.else_body) CollectArrays(*s.else_body, names);
    for (const auto& child : s.body) CollectArrays(*child, names);
  }

  void PlanLocals() {
    std::vector<std::string> names;
    for (const auto& param : fn_.params) names.push_back(param.name);
    CollectLocals(*fn_.body, names);
    CollectCalls(*fn_.body, has_calls_);

    int next_sreg = 0;
    int next_stack_word = kCallSpillWords;  // spill area sits at sp+0
    if (options_.opt_level >= 1) {
      for (const auto& name : names) {
        if (next_sreg < kNumSaved) {
          locals_[name] = {Location::Kind::kSReg, next_sreg++};
        } else {
          locals_[name] = {Location::Kind::kStack, next_stack_word++};
        }
      }
    } else {
      for (const auto& name : names) {
        locals_[name] = {Location::Kind::kStack, next_stack_word++};
      }
    }
    used_sregs_ = next_sreg;
    // Hoist pool: remaining s-registers (O2+).
    hoist_pool_base_ = next_sreg;
    hoist_pool_size_ =
        options_.opt_level >= 2 ? kNumSaved - next_sreg : 0;
    used_sregs_total_ = next_sreg + hoist_pool_size_;

    stack_words_ = next_stack_word;
    // Layout: [0, kCallSpillWords) spills | locals | saved s | ra.
    saved_base_ = stack_words_;
    ra_word_ = saved_base_ + used_sregs_total_;
    frame_words_ = ra_word_ + (has_calls_ ? 1 : 0);
    frame_words_ = (frame_words_ + 1) & ~1;  // 8-byte align
    if (frame_words_ == 0) frame_words_ = 2;
  }

  // ---- emission helpers ---------------------------------------------------

  void EmitLine(const std::string& line) { out_ << "  " << line << "\n"; }
  void EmitLabel(const std::string& label) { out_ << label << ":\n"; }
  std::string NewLabel(const char* hint) {
    std::ostringstream label;
    label << fn_.name << "_" << hint << "_" << label_counter_++;
    return label.str();
  }
  static std::string Imm(std::int32_t v) { return std::to_string(v); }

  void EmitPrologue() {
    EmitLabel(fn_.name);
    EmitLine("addiu $sp, $sp, " + Imm(-4 * frame_words_));
    if (has_calls_) {
      EmitLine("sw $ra, " + Imm(4 * ra_word_) + "($sp)");
    }
    for (int i = 0; i < used_sregs_total_; ++i) {
      EmitLine(std::string("sw ") + kSaved[i] + ", " +
               Imm(4 * (saved_base_ + i)) + "($sp)");
    }
    // Move parameters to their homes.
    static constexpr const char* kArgRegs[] = {"$a0", "$a1", "$a2", "$a3"};
    for (std::size_t i = 0; i < fn_.params.size(); ++i) {
      const Location loc = locals_.at(fn_.params[i].name);
      if (loc.kind == Location::Kind::kSReg) {
        EmitLine(std::string("move ") + kSaved[loc.index] + ", " +
                 kArgRegs[i]);
      } else {
        EmitLine(std::string("sw ") + kArgRegs[i] + ", " +
                 Imm(4 * loc.index) + "($sp)");
      }
    }
  }

  void EmitEpilogue() {
    EmitLabel(fn_.name + "_epilogue");
    for (int i = 0; i < used_sregs_total_; ++i) {
      EmitLine(std::string("lw ") + kSaved[i] + ", " +
               Imm(4 * (saved_base_ + i)) + "($sp)");
    }
    if (has_calls_) {
      EmitLine("lw $ra, " + Imm(4 * ra_word_) + "($sp)");
    }
    EmitLine("addiu $sp, $sp, " + Imm(4 * frame_words_));
    EmitLine("jr $ra");
  }

  // ---- temp register stack ------------------------------------------------

  std::string PushTemp() {
    Check(temp_depth_ < kNumTemps, "minicc: expression too deep");
    return kTemp[temp_depth_++];
  }
  void PopTemp() {
    Check(temp_depth_ > 0, "minicc: temp underflow");
    --temp_depth_;
  }
  [[nodiscard]] std::string TopTemp() const {
    Check(temp_depth_ > 0, "minicc: temp stack empty");
    return kTemp[temp_depth_ - 1];
  }

  // ---- variable access ----------------------------------------------------

  [[nodiscard]] bool IsLocal(const std::string& name) const {
    return locals_.count(name) != 0;
  }

  /// Load variable `name` into `reg`.
  Status LoadVar(const std::string& name, const std::string& reg) {
    if (const auto it = locals_.find(name); it != locals_.end()) {
      if (it->second.kind == Location::Kind::kSReg) {
        EmitLine("move " + reg + ", " + kSaved[it->second.index]);
      } else {
        EmitLine("lw " + reg + ", " + Imm(4 * it->second.index) + "($sp)");
      }
      return Status::Ok();
    }
    const Global* global = program_.FindGlobal(name);
    if (global == nullptr || global->is_array) {
      return Error("unknown scalar variable '" + name + "'");
    }
    EmitLine("la $t8, " + name);
    EmitLine("lw " + reg + ", 0($t8)");
    return Status::Ok();
  }

  /// Store `reg` into variable `name`.
  Status StoreVar(const std::string& name, const std::string& reg) {
    if (const auto it = locals_.find(name); it != locals_.end()) {
      if (it->second.kind == Location::Kind::kSReg) {
        EmitLine(std::string("move ") + kSaved[it->second.index] + ", " + reg);
      } else {
        EmitLine("sw " + reg + ", " + Imm(4 * it->second.index) + "($sp)");
      }
      return Status::Ok();
    }
    const Global* global = program_.FindGlobal(name);
    if (global == nullptr || global->is_array) {
      return Error("unknown scalar variable '" + name + "'");
    }
    EmitLine("la $t8, " + name);
    EmitLine("sw " + reg + ", 0($t8)");
    return Status::Ok();
  }

  /// Element info for array `name`: byte element? local base? hoisted reg?
  struct ArrayRef {
    bool is_byte = false;
    bool base_is_local = false;   // parameter array
    std::string hoisted_reg;      // non-empty when base lives in an s-reg
    std::string name;
  };

  Result<ArrayRef> ResolveArray(const std::string& name) {
    ArrayRef ref;
    ref.name = name;
    if (const auto it = locals_.find(name); it != locals_.end()) {
      // Parameter array: element type from the parameter declaration.
      for (const auto& param : fn_.params) {
        if (param.name == name) {
          if (!param.is_array) return Error("'" + name + "' is not an array");
          ref.is_byte = param.is_byte;
          ref.base_is_local = true;
          return ref;
        }
      }
      return Error("local '" + name + "' used as array");
    }
    const Global* global = program_.FindGlobal(name);
    if (global == nullptr || !global->is_array) {
      return Error("unknown array '" + name + "'");
    }
    ref.is_byte = global->is_byte;
    if (const auto it = hoisted_.find(name); it != hoisted_.end()) {
      ref.hoisted_reg = it->second;
    }
    return ref;
  }

  /// Compute the address of name[index_expr] into $t8 (clobbers $t9).
  Status EmitAddress(const ArrayRef& ref, const Expr& index) {
    if (Status s = EmitExpr(index); !s.ok()) return s;
    const std::string idx = TopTemp();
    if (!ref.is_byte) {
      EmitLine("sll $t9, " + idx + ", 2");
    } else {
      EmitLine("move $t9, " + idx);
    }
    PopTemp();
    if (!ref.hoisted_reg.empty()) {
      EmitLine("addu $t8, " + ref.hoisted_reg + ", $t9");
    } else if (ref.base_is_local) {
      if (Status s = LoadVar(ref.name, "$t8"); !s.ok()) return s;
      EmitLine("addu $t8, $t8, $t9");
    } else {
      EmitLine("la $t8, " + ref.name);
      EmitLine("addu $t8, $t8, $t9");
    }
    return Status::Ok();
  }

  // ---- expressions --------------------------------------------------------

  Status Error(const std::string& message) const {
    return Status::Error(ErrorKind::kParse, "minicc codegen: " + message);
  }

  /// Evaluate `e` into a fresh temp (left on the temp stack).
  Status EmitExpr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kNumber: {
        const std::string reg = PushTemp();
        EmitLine("li " + reg + ", " + Imm(e.value));
        return Status::Ok();
      }
      case Expr::Kind::kVar: {
        // Array name used as a value = its base address.
        if (const Global* g = program_.FindGlobal(e.name);
            g != nullptr && g->is_array && !IsLocal(e.name)) {
          const std::string reg = PushTemp();
          EmitLine("la " + reg + ", " + e.name);
          return Status::Ok();
        }
        const std::string reg = PushTemp();
        return LoadVar(e.name, reg);
      }
      case Expr::Kind::kIndex: {
        auto ref = ResolveArray(e.name);
        if (!ref.ok()) return ref.status();
        if (Status s = EmitAddress(ref.value(), *e.a); !s.ok()) return s;
        const std::string reg = PushTemp();
        EmitLine((ref.value().is_byte ? "lbu " : "lw ") + reg + ", 0($t8)");
        return Status::Ok();
      }
      case Expr::Kind::kUnary:
        return EmitUnary(e);
      case Expr::Kind::kBinary:
        return EmitBinary(e);
      case Expr::Kind::kCall:
        return EmitCall(e);
    }
    return Error("bad expression");
  }

  Status EmitUnary(const Expr& e) {
    if (Status s = EmitExpr(*e.a); !s.ok()) return s;
    const std::string reg = TopTemp();
    switch (e.uop) {
      case UnaryOp::kNeg:
        EmitLine("subu " + reg + ", $zero, " + reg);
        break;
      case UnaryOp::kNot:
        EmitLine("sltiu " + reg + ", " + reg + ", 1");
        break;
      case UnaryOp::kBitNot:
        EmitLine("nor " + reg + ", " + reg + ", $zero");
        break;
    }
    return Status::Ok();
  }

  /// Strength-reduce x*c into shifts/adds (O2+).  Returns true if handled.
  bool TryStrengthReduceMul(const std::string& dst, const std::string& src,
                            std::int32_t c) {
    if (options_.opt_level < 2) return false;
    if (c == 0) {
      EmitLine("move " + dst + ", $zero");
      return true;
    }
    if (c == 1) {
      if (dst != src) EmitLine("move " + dst + ", " + src);
      return true;
    }
    const bool negative = c < 0;
    const auto uc = static_cast<std::uint32_t>(negative ? -c : c);
    if (IsPowerOfTwo(uc)) {
      EmitLine("sll " + dst + ", " + src + ", " + Imm(Log2(uc)));
      if (negative) EmitLine("subu " + dst + ", $zero, " + dst);
      return true;
    }
    // c = 2^a + 2^b (two set bits) -> (x<<a) + (x<<b).
    if (PopCount(uc) == 2) {
      const unsigned hi = Log2(uc);
      const unsigned lo = Log2((uc & (uc - 1)) ^ uc);
      EmitLine("sll $t9, " + src + ", " + Imm(hi));
      if (lo == 0) {
        EmitLine("addu " + dst + ", $t9, " + src);
      } else {
        EmitLine("sll " + dst + ", " + src + ", " + Imm(lo));
        EmitLine("addu " + dst + ", $t9, " + dst);
      }
      if (negative) EmitLine("subu " + dst + ", $zero, " + dst);
      return true;
    }
    // c = 2^k - 1 -> (x<<k) - x.
    if (IsPowerOfTwo(uc + 1)) {
      EmitLine("sll $t9, " + src + ", " + Imm(Log2(uc + 1)));
      EmitLine("subu " + dst + ", $t9, " + src);
      if (negative) EmitLine("subu " + dst + ", $zero, " + dst);
      return true;
    }
    // c = 2^a + 2^b + 2^d (three set bits) -> three shifts, two adds.
    if (PopCount(uc) == 3) {
      const unsigned b2 = Log2(uc);
      std::uint32_t rest = uc ^ (1u << b2);
      const unsigned b1 = Log2(rest);
      rest ^= 1u << b1;
      const unsigned b0 = Log2(rest);
      const std::string scratch = PushTemp();
      EmitLine("sll $t9, " + src + ", " + Imm(b2));
      EmitLine("sll " + scratch + ", " + src + ", " + Imm(b1));
      EmitLine("addu $t9, $t9, " + scratch);
      if (b0 == 0) {
        EmitLine("addu " + dst + ", $t9, " + src);
      } else {
        EmitLine("sll " + dst + ", " + src + ", " + Imm(b0));
        EmitLine("addu " + dst + ", $t9, " + dst);
      }
      PopTemp();
      if (negative) EmitLine("subu " + dst + ", $zero, " + dst);
      return true;
    }
    return false;
  }

  Status EmitBinary(const Expr& e) {
    using enum BinaryOp;
    // Short-circuit logical operators in value context.
    if (e.bop == kLogicalAnd || e.bop == kLogicalOr) {
      const std::string done = NewLabel("sc");
      // Reserve the result register while sub-conditions evaluate (they use
      // temps above it; the early-exit `li` into it must not be clobbered
      // by, nor clobber, the condition value).
      const std::string reg = PushTemp();
      if (e.bop == kLogicalAnd) {
        // Early exit with 0 when either side is false.
        if (Status s = EmitCondBranchInternal(*e.a, done, false, reg, false);
            !s.ok()) {
          return s;
        }
        if (Status s = EmitCondBranchInternal(*e.b, done, false, reg, false);
            !s.ok()) {
          return s;
        }
        EmitLine("li " + reg + ", 1");
      } else {
        // Early exit with 1 when either side is true.
        if (Status s = EmitCondBranchInternal(*e.a, done, true, reg, true);
            !s.ok()) {
          return s;
        }
        if (Status s = EmitCondBranchInternal(*e.b, done, true, reg, true);
            !s.ok()) {
          return s;
        }
        EmitLine("li " + reg + ", 0");
      }
      EmitLabel(done);
      // `reg` is still reserved on the temp stack and now holds the result.
      return Status::Ok();
    }

    // Strength-reduced multiply by constant (O2+).
    if (e.bop == kMul) {
      const auto ca = EvalConst(*e.a);
      const auto cb = EvalConst(*e.b);
      const Expr* var_side = cb ? e.a.get() : (ca ? e.b.get() : nullptr);
      const std::optional<std::int32_t> c = cb ? cb : ca;
      if (var_side != nullptr && c && options_.opt_level >= 2) {
        if (Status s = EmitExpr(*var_side); !s.ok()) return s;
        const std::string reg = TopTemp();
        if (TryStrengthReduceMul(reg, reg, *c)) return Status::Ok();
        // Fall through to the generic path with the value already emitted.
        const std::string rhs = PushTemp();
        EmitLine("li " + rhs + ", " + Imm(*c));
        EmitLine("mult " + reg + ", " + rhs);
        PopTemp();
        EmitLine("mflo " + reg);
        return Status::Ok();
      }
    }
    // Division / remainder by a power of two (O2+): signed shift sequence.
    if ((e.bop == kDiv || e.bop == kRem) && options_.opt_level >= 2) {
      const auto cb = EvalConst(*e.b);
      if (cb && *cb > 1 && IsPowerOfTwo(static_cast<std::uint32_t>(*cb))) {
        const unsigned k = Log2(static_cast<std::uint32_t>(*cb));
        if (Status s = EmitExpr(*e.a); !s.ok()) return s;
        const std::string reg = TopTemp();
        // q = (x + ((x>>31) >>> (32-k))) >> k   (round toward zero)
        EmitLine("sra $t9, " + reg + ", 31");
        EmitLine("srl $t9, $t9, " + Imm(static_cast<std::int32_t>(32 - k)));
        EmitLine("addu $t9, " + reg + ", $t9");
        if (e.bop == kDiv) {
          EmitLine("sra " + reg + ", $t9, " + Imm(static_cast<std::int32_t>(k)));
        } else {
          // r = x - (q << k)
          EmitLine("sra $t9, $t9, " + Imm(static_cast<std::int32_t>(k)));
          EmitLine("sll $t9, $t9, " + Imm(static_cast<std::int32_t>(k)));
          EmitLine("subu " + reg + ", " + reg + ", $t9");
        }
        return Status::Ok();
      }
    }

    // Generic: evaluate both sides.
    if (Status s = EmitExpr(*e.a); !s.ok()) return s;
    // Immediate forms for the common cases (O1+).
    if (options_.opt_level >= 1) {
      const auto cb = EvalConst(*e.b);
      if (cb && *cb >= -32768 && *cb <= 32767) {
        const std::string reg = TopTemp();
        switch (e.bop) {
          case kAdd:
            EmitLine("addiu " + reg + ", " + reg + ", " + Imm(*cb));
            return Status::Ok();
          case kSub:
            if (*cb == -32768) break;  // -cb would overflow the immediate
            EmitLine("addiu " + reg + ", " + reg + ", " + Imm(-*cb));
            return Status::Ok();
          case kAnd:
            if (*cb >= 0) {
              EmitLine("andi " + reg + ", " + reg + ", " + Imm(*cb));
              return Status::Ok();
            }
            break;
          case kOr:
            if (*cb >= 0) {
              EmitLine("ori " + reg + ", " + reg + ", " + Imm(*cb));
              return Status::Ok();
            }
            break;
          case kXor:
            if (*cb >= 0) {
              EmitLine("xori " + reg + ", " + reg + ", " + Imm(*cb));
              return Status::Ok();
            }
            break;
          case kShl:
            EmitLine("sll " + reg + ", " + reg + ", " + Imm(*cb & 31));
            return Status::Ok();
          case kShr:
            EmitLine("sra " + reg + ", " + reg + ", " + Imm(*cb & 31));
            return Status::Ok();
          case kLt:
            EmitLine("slti " + reg + ", " + reg + ", " + Imm(*cb));
            return Status::Ok();
          default:
            break;
        }
      }
    }
    if (Status s = EmitExpr(*e.b); !s.ok()) return s;
    const std::string rb = TopTemp();
    PopTemp();
    const std::string ra = TopTemp();
    switch (e.bop) {
      case kAdd: EmitLine("addu " + ra + ", " + ra + ", " + rb); break;
      case kSub: EmitLine("subu " + ra + ", " + ra + ", " + rb); break;
      case kMul:
        EmitLine("mult " + ra + ", " + rb);
        EmitLine("mflo " + ra);
        break;
      case kDiv:
        EmitLine("div " + ra + ", " + rb);
        EmitLine("mflo " + ra);
        break;
      case kRem:
        EmitLine("div " + ra + ", " + rb);
        EmitLine("mfhi " + ra);
        break;
      case kAnd: EmitLine("and " + ra + ", " + ra + ", " + rb); break;
      case kOr:  EmitLine("or " + ra + ", " + ra + ", " + rb); break;
      case kXor: EmitLine("xor " + ra + ", " + ra + ", " + rb); break;
      case kShl: EmitLine("sllv " + ra + ", " + ra + ", " + rb); break;
      case kShr: EmitLine("srav " + ra + ", " + ra + ", " + rb); break;
      case kLt:  EmitLine("slt " + ra + ", " + ra + ", " + rb); break;
      case kGt:  EmitLine("slt " + ra + ", " + rb + ", " + ra); break;
      case kLe:
        EmitLine("slt " + ra + ", " + rb + ", " + ra);
        EmitLine("xori " + ra + ", " + ra + ", 1");
        break;
      case kGe:
        EmitLine("slt " + ra + ", " + ra + ", " + rb);
        EmitLine("xori " + ra + ", " + ra + ", 1");
        break;
      case kEq:
        EmitLine("subu " + ra + ", " + ra + ", " + rb);
        EmitLine("sltiu " + ra + ", " + ra + ", 1");
        break;
      case kNe:
        EmitLine("subu " + ra + ", " + ra + ", " + rb);
        EmitLine("sltu " + ra + ", $zero, " + ra);
        break;
      case kLogicalAnd:
      case kLogicalOr:
        return Error("unreachable logical op");
    }
    return Status::Ok();
  }

  Status EmitCall(const Expr& e) {
    if (program_.FindFunction(e.name) == nullptr) {
      return Error("call to unknown function '" + e.name + "'");
    }
    if (e.args.size() > 4) return Error("too many call arguments");
    // Spill live temps across the call.
    const int live = temp_depth_;
    Check(live <= kCallSpillWords, "minicc: call spill overflow");
    for (int i = 0; i < live; ++i) {
      EmitLine(std::string("sw ") + kTemp[i] + ", " + Imm(4 * i) + "($sp)");
    }
    // Evaluate arguments into temps first (they may themselves call).
    for (const auto& arg : e.args) {
      if (Status s = EmitExpr(*arg); !s.ok()) return s;
    }
    static constexpr const char* kArgRegs[] = {"$a0", "$a1", "$a2", "$a3"};
    for (std::size_t i = e.args.size(); i-- > 0;) {
      EmitLine(std::string("move ") + kArgRegs[i] + ", " + TopTemp());
      PopTemp();
    }
    EmitLine("jal " + e.name);
    for (int i = 0; i < live; ++i) {
      EmitLine(std::string("lw ") + kTemp[i] + ", " + Imm(4 * i) + "($sp)");
    }
    const std::string reg = PushTemp();
    EmitLine("move " + reg + ", $v0");
    return Status::Ok();
  }

  // ---- conditional branches -----------------------------------------------

  /// Branch to `label` when `e` is true (branch_if_true) or false.
  Status EmitCondBranch(const Expr& e, const std::string& label,
                        bool branch_if_true) {
    return EmitCondBranchInternal(e, label, branch_if_true, "", false);
  }

  /// Like EmitCondBranch; when `result_reg` is non-empty, loads
  /// `result_value` into it before the branch (used by the short-circuit
  /// value form: the early-exit path materializes the result).
  Status EmitCondBranchInternal(const Expr& e, const std::string& label,
                                bool branch_if_true,
                                const std::string& result_reg,
                                bool result_value) {
    const auto emit_result = [&]() {
      if (!result_reg.empty()) {
        EmitLine("li " + result_reg + ", " + Imm(result_value ? 1 : 0));
      }
    };
    // Negation: flip the sense.
    if (e.kind == Expr::Kind::kUnary && e.uop == UnaryOp::kNot) {
      return EmitCondBranchInternal(*e.a, label, !branch_if_true, result_reg,
                                    result_value);
    }
    // Comparisons: branch directly (O1+; O0 materializes booleans).
    if (e.kind == Expr::Kind::kBinary && options_.opt_level >= 1) {
      const auto direct = [&](bool use_slt, const char* op_true,
                              const char* op_false, bool swap) -> Status {
        if (Status s = EmitExpr(*e.a); !s.ok()) return s;
        if (Status s = EmitExpr(*e.b); !s.ok()) return s;
        const std::string rb = TopTemp();
        PopTemp();
        const std::string ra = TopTemp();
        PopTemp();
        const std::string& lhs = swap ? rb : ra;
        const std::string& rhs = swap ? ra : rb;
        emit_result();
        const char* op = branch_if_true ? op_true : op_false;
        if (!use_slt) {
          EmitLine(std::string(op) + " " + lhs + ", " + rhs + ", " + label);
        } else {
          // slt-based: slt $t9, lhs, rhs then branch on $t9.
          EmitLine("slt $t9, " + lhs + ", " + rhs);
          EmitLine(std::string(op) + " $t9, $zero, " + label);
        }
        return Status::Ok();
      };
      switch (e.bop) {
        case BinaryOp::kEq: return direct(false, "beq", "bne", false);
        case BinaryOp::kNe: return direct(false, "bne", "beq", false);
        // a < b: slt t = a<b; true -> bne t,0; false -> beq t,0.
        case BinaryOp::kLt: return direct(true, "bne", "beq", false);
        // a > b: slt t = b<a.
        case BinaryOp::kGt: return direct(true, "bne", "beq", true);
        // a <= b == !(b < a): slt t = b<a; true -> beq; false -> bne.
        case BinaryOp::kLe: return direct(true, "beq", "bne", true);
        // a >= b == !(a < b).
        case BinaryOp::kGe: return direct(true, "beq", "bne", false);
        case BinaryOp::kLogicalAnd: {
          if (branch_if_true) {
            // (A && B) true -> label: if !A skip; if B goto label.
            const std::string skip = NewLabel("and");
            if (Status s = EmitCondBranchInternal(*e.a, skip, false, "",
                                                  false);
                !s.ok()) {
              return s;
            }
            if (Status s = EmitCondBranchInternal(*e.b, label, true,
                                                  result_reg, result_value);
                !s.ok()) {
              return s;
            }
            EmitLabel(skip);
            return Status::Ok();
          }
          // (A && B) false -> label: if !A goto label; if !B goto label.
          if (Status s = EmitCondBranchInternal(*e.a, label, false,
                                                result_reg, result_value);
              !s.ok()) {
            return s;
          }
          return EmitCondBranchInternal(*e.b, label, false, result_reg,
                                        result_value);
        }
        case BinaryOp::kLogicalOr: {
          if (branch_if_true) {
            if (Status s = EmitCondBranchInternal(*e.a, label, true,
                                                  result_reg, result_value);
                !s.ok()) {
              return s;
            }
            return EmitCondBranchInternal(*e.b, label, true, result_reg,
                                          result_value);
          }
          const std::string skip = NewLabel("or");
          if (Status s = EmitCondBranchInternal(*e.a, skip, true, "", false);
              !s.ok()) {
            return s;
          }
          if (Status s = EmitCondBranchInternal(*e.b, label, false,
                                                result_reg, result_value);
              !s.ok()) {
            return s;
          }
          EmitLabel(skip);
          return Status::Ok();
        }
        default:
          break;
      }
    }
    // Fallback: evaluate to a register and branch on zero/non-zero.
    if (Status s = EmitExpr(e); !s.ok()) return s;
    const std::string reg = TopTemp();
    PopTemp();
    emit_result();
    EmitLine((branch_if_true ? "bne " : "beq ") + reg + ", $zero, " + label);
    return Status::Ok();
  }

  // ---- statements ---------------------------------------------------------

  Status EmitStmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::kBlock:
        for (const auto& child : s.body) {
          if (Status st = EmitStmt(*child); !st.ok()) return st;
        }
        return Status::Ok();
      case Stmt::Kind::kDecl:
      case Stmt::Kind::kAssign: {
        if (s.index) {
          auto ref = ResolveArray(s.name);
          if (!ref.ok()) return ref.status();
          if (Status st = EmitExpr(*s.value); !st.ok()) return st;
          // Address into $t8 (value stays on temp stack under it).
          // EmitAddress clobbers $t8/$t9 but not the temp stack.
          if (Status st = EmitAddress(ref.value(), *s.index); !st.ok()) {
            return st;
          }
          const std::string value = TopTemp();
          EmitLine((ref.value().is_byte ? "sb " : "sw ") + value + ", 0($t8)");
          PopTemp();
          return Status::Ok();
        }
        if (s.value == nullptr) return Status::Ok();  // plain decl
        if (Status st = EmitExpr(*s.value); !st.ok()) return st;
        const std::string value = TopTemp();
        Status st = StoreVar(s.name, value);
        PopTemp();
        return st;
      }
      case Stmt::Kind::kIf: {
        const std::string else_label = NewLabel("else");
        const std::string end_label =
            s.else_body ? NewLabel("endif") : else_label;
        if (Status st = EmitCondBranch(*s.cond, else_label, false); !st.ok()) {
          return st;
        }
        if (Status st = EmitStmt(*s.then_body); !st.ok()) return st;
        if (s.else_body) {
          EmitLine("b " + end_label);
          EmitLabel(else_label);
          if (Status st = EmitStmt(*s.else_body); !st.ok()) return st;
          EmitLabel(end_label);
        } else {
          EmitLabel(else_label);
        }
        return Status::Ok();
      }
      case Stmt::Kind::kWhile:
        return EmitLoop(nullptr, s.cond.get(), nullptr, *s.then_body, s);
      case Stmt::Kind::kFor:
        return EmitLoop(s.init.get(), s.cond.get(), s.step.get(),
                        *s.then_body, s);
      case Stmt::Kind::kReturn: {
        if (s.value) {
          if (Status st = EmitExpr(*s.value); !st.ok()) return st;
          EmitLine("move $v0, " + TopTemp());
          PopTemp();
        } else {
          EmitLine("move $v0, $zero");
        }
        EmitLine("b " + fn_.name + "_epilogue");
        return Status::Ok();
      }
      case Stmt::Kind::kExpr: {
        if (Status st = EmitExpr(*s.value); !st.ok()) return st;
        PopTemp();  // discard
        return Status::Ok();
      }
    }
    return Error("bad statement");
  }

  Status EmitLoop(const Stmt* init, const Expr* cond, const Stmt* step,
                  const Stmt& body, const Stmt& loop_stmt) {
    if (init != nullptr) {
      if (Status st = EmitStmt(*init); !st.ok()) return st;
    }
    // O2+: hoist global array bases used in this loop into the spare
    // s-register pool (innermost loops only are profiled hot anyway; the
    // pool resets per loop since hoists are scoped).
    std::vector<std::pair<std::string, std::string>> hoists;
    if (options_.opt_level >= 2 && hoist_pool_size_ > 0) {
      std::vector<std::string> arrays;
      CollectArrays(body, arrays);
      int slot = hoist_used_;
      for (const auto& name : arrays) {
        if (hoisted_.count(name) != 0) continue;
        if (slot >= hoist_pool_size_) break;
        const std::string reg = kSaved[hoist_pool_base_ + slot];
        EmitLine("la " + reg + ", " + name);
        hoisted_[name] = reg;
        hoists.emplace_back(name, reg);
        ++slot;
      }
      hoist_used_ = slot;
    }

    const std::string loop_label = NewLabel("loop");
    const std::string end_label = NewLabel("endloop");
    if (options_.opt_level >= 1) {
      // Rotated loop: guard, then bottom-tested body.
      if (cond != nullptr) {
        if (Status st = EmitCondBranch(*cond, end_label, false); !st.ok()) {
          return st;
        }
      }
      EmitLabel(loop_label);
      if (Status st = EmitStmt(body); !st.ok()) return st;
      if (step != nullptr) {
        if (Status st = EmitStmt(*step); !st.ok()) return st;
      }
      if (cond != nullptr) {
        if (Status st = EmitCondBranch(*cond, loop_label, true); !st.ok()) {
          return st;
        }
      } else {
        EmitLine("b " + loop_label);
      }
      EmitLabel(end_label);
    } else {
      // O0: classic top-tested loop.
      const std::string cond_label = NewLabel("cond");
      EmitLabel(cond_label);
      if (cond != nullptr) {
        if (Status st = EmitCondBranch(*cond, end_label, false); !st.ok()) {
          return st;
        }
      }
      if (Status st = EmitStmt(body); !st.ok()) return st;
      if (step != nullptr) {
        if (Status st = EmitStmt(*step); !st.ok()) return st;
      }
      EmitLine("b " + cond_label);
      EmitLabel(end_label);
    }
    (void)loop_stmt;
    // Restore hoist scope.
    for (const auto& [name, reg] : hoists) {
      hoisted_.erase(name);
      --hoist_used_;
    }
    return Status::Ok();
  }

  const Program& program_;
  const Function& fn_;
  const CompileOptions& options_;
  std::ostringstream& out_;
  int& label_counter_;

  std::map<std::string, Location> locals_;
  std::map<std::string, std::string> hoisted_;  // array -> s-reg
  bool has_calls_ = false;
  int used_sregs_ = 0;
  int used_sregs_total_ = 0;
  int hoist_pool_base_ = 0;
  int hoist_pool_size_ = 0;
  int hoist_used_ = 0;
  int stack_words_ = 0;
  int saved_base_ = 0;
  int ra_word_ = 0;
  int frame_words_ = 0;
  int temp_depth_ = 0;
};

}  // namespace

Result<CompileResult> Compile(std::string_view source,
                              const CompileOptions& options) {
  CompileResult result;
  // Front end and code generation; mips::Assemble spans its own step.
  obs::ScopedSpan compile_span("minicc.compile", "minicc");
  auto parsed = Parse(source);
  if (!parsed.ok()) return parsed.status();
  Program program = std::move(parsed).take();

  // AST-level optimization pipeline.
  if (options.opt_level >= 1) {
    for (auto& fn : program.functions) FoldStmt(*fn.body);
  }
  if (options.opt_level >= 3) {
    for (auto& fn : program.functions) {
      UnrollStmt(*fn.body, options.unroll_factor);
    }
  }

  std::ostringstream out;
  out << ".text\n";
  int label_counter = 0;
  // main must be first so it sits at the entry point.
  std::vector<const Function*> order;
  for (const auto& fn : program.functions) {
    if (fn.name == "main") order.push_back(&fn);
  }
  for (const auto& fn : program.functions) {
    if (fn.name != "main") order.push_back(&fn);
  }
  for (const Function* fn : order) {
    FunctionCodegen codegen(program, *fn, options, out, label_counter);
    if (Status status = codegen.Run(); !status.ok()) return status;
  }

  // Data segment: word data first (alignment), then byte arrays.
  out << ".data\n";
  for (const auto& global : program.globals) {
    if (global.is_byte) continue;
    out << global.name << ":\n";
    if (!global.init.empty()) {
      out << "  .word";
      for (std::size_t i = 0; i < global.init.size(); ++i) {
        out << (i == 0 ? " " : ", ") << global.init[i];
      }
      out << "\n";
    }
    const std::size_t remaining =
        static_cast<std::size_t>(global.size) - global.init.size();
    if (remaining > 0) out << "  .space " << remaining * 4 << "\n";
  }
  for (const auto& global : program.globals) {
    if (!global.is_byte) continue;
    out << global.name << ":\n";
    if (!global.init.empty()) {
      out << "  .byte";
      for (std::size_t i = 0; i < global.init.size(); ++i) {
        out << (i == 0 ? " " : ", ") << (global.init[i] & 0xFF);
      }
      out << "\n";
    }
    const std::size_t remaining =
        static_cast<std::size_t>(global.size) - global.init.size();
    if (remaining > 0) out << "  .space " << remaining << "\n";
  }

  result.assembly = out.str();
  compile_span.Close();
  auto assembled = mips::Assemble(result.assembly);
  if (!assembled.ok()) return assembled.status();
  result.binary = std::move(assembled).take();
  return result;
}

}  // namespace b2h::minicc
