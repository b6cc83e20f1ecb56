#include "decomp/lifter.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <iterator>

#include "mips/isa.hpp"
#include "support/bits.hpp"

namespace b2h::decomp {
namespace {

using mips::Instr;
using mips::Op;
using mips::SoftBinary;

constexpr unsigned kNumLocs = 34;  // 32 GPRs + HI + LO
constexpr unsigned kHi = 32;
constexpr unsigned kLo = 33;

/// Successor addresses of an instruction or block: none (a return), one,
/// or a conditional branch's target then its fallthrough (possibly equal).
struct Successors {
  std::array<std::uint32_t, 2> pcs{};
  std::uint8_t count = 0;

  void Add(std::uint32_t pc) { pcs[count++] = pc; }
};

/// Machine-level basic block discovered during CFG recovery.
struct MBlock {
  std::uint32_t start = 0;  // first instruction address
  std::uint32_t end = 0;    // one past last instruction address
  Successors succs;         // successor leader addresses
};

/// Machine-level CFG of one function.
struct MachineCfg {
  std::uint32_t entry = 0;
  std::vector<MBlock> blocks;               // ascending leader address
  std::vector<std::uint32_t> call_targets;  // jal destinations, ascending
};

/// "0x" + lowercase hex, as iostreams' std::hex prints it.
std::string Hex(std::uint32_t value) {
  char buffer[10] = {'0', 'x'};
  const auto end = std::to_chars(buffer + 2, std::end(buffer), value, 16).ptr;
  return std::string(buffer, end);
}

/// Per-instruction tables of CFG recovery, indexed by (pc - kTextBase) / 4
/// and shared by every function of one lift.  Recovery clears the entries it
/// touched, so a function costs what it visits, not the size of the text.
class CfgRecovery {
 public:
  explicit CfgRecovery(std::size_t words) : flags_(words, 0), flow_(words) {}

  /// Discover the machine CFG of the function entered at `entry`.
  Result<MachineCfg> Recover(const SoftBinary& binary, std::uint32_t entry);

 private:
  static constexpr std::uint8_t kVisited = 1;
  static constexpr std::uint8_t kLeader = 2;

  static std::size_t IndexOf(std::uint32_t pc) {
    return (pc - mips::kTextBase) / 4u;
  }
  /// Set `bit` on the instruction at `index`; false if it was already set.
  bool SetFlag(std::size_t index, std::uint8_t bit) {
    std::uint8_t& flags = flags_[index];
    if ((flags & bit) != 0) return false;
    if (flags == 0) touched_.push_back(index);
    flags |= bit;
    return true;
  }
  void MarkLeader(const SoftBinary& binary, std::uint32_t pc) {
    // A leader outside text is an error once the walk reaches it.
    if (binary.ContainsText(pc) && SetFlag(IndexOf(pc), kLeader)) {
      leaders_.push_back(pc);
    }
  }
  Result<MachineCfg> Walk(const SoftBinary& binary, std::uint32_t entry);
  MachineCfg FormBlocks(std::uint32_t entry);

  std::vector<std::uint8_t> flags_;  ///< kVisited | kLeader
  std::vector<Successors> flow_;  ///< of each visited instruction
  std::vector<std::size_t> touched_;      ///< indices with nonzero flags
  std::vector<std::uint32_t> leaders_;    ///< this function's leaders
  std::vector<std::uint32_t> work_;       ///< breadth-first queue
  std::vector<std::uint32_t> calls_;      ///< jal targets seen
};

Result<MachineCfg> CfgRecovery::Recover(const SoftBinary& binary,
                                       std::uint32_t entry) {
  auto cfg = Walk(binary, entry);
  for (const std::size_t index : touched_) flags_[index] = 0;
  touched_.clear();
  leaders_.clear();
  work_.clear();
  calls_.clear();
  return cfg;
}

Result<MachineCfg> CfgRecovery::Walk(const SoftBinary& binary,
                                    std::uint32_t entry) {
  // Pass 1: walk reachable instructions breadth first, record leaders and
  // flow edges.  The first error in walk order is the one reported.
  MarkLeader(binary, entry);
  work_.push_back(entry);
  for (std::size_t head = 0; head < work_.size(); ++head) {
    const std::uint32_t pc = work_[head];
    if (!binary.ContainsText(pc)) {
      return Status::Error(ErrorKind::kMalformedBinary,
                           "control flows outside text at " + Hex(pc));
    }
    const std::size_t index = IndexOf(pc);
    if (!SetFlag(index, kVisited)) continue;
    const auto decoded = mips::Decode(binary.text[index]);
    if (!decoded) {
      return Status::Error(ErrorKind::kMalformedBinary,
                           "undecodable instruction at " + Hex(pc));
    }
    const Instr& in = *decoded;
    Successors& flow = flow_[index];
    flow = {};
    if (mips::IsBranch(in.op)) {
      const std::uint32_t target = mips::BranchTarget(pc, in);
      // `beq $0,$0` (assembler pseudo `b`) is unconditional.
      if (in.op == Op::kBeq && in.rs == 0 && in.rt == 0) {
        flow.Add(target);
      } else if (in.op == Op::kBne && in.rs == in.rt) {
        flow.Add(pc + 4);
      } else {
        flow.Add(target);
        flow.Add(pc + 4);
      }
      for (std::uint8_t i = 0; i < flow.count; ++i) {
        MarkLeader(binary, flow.pcs[i]);
      }
    } else if (in.op == Op::kJ) {
      const std::uint32_t target = mips::JumpTarget(pc, in);
      flow.Add(target);
      MarkLeader(binary, target);
    } else if (in.op == Op::kJal) {
      // A call: control continues after the call in this function.
      calls_.push_back(mips::JumpTarget(pc, in));
      flow.Add(pc + 4);
    } else if (in.op == Op::kJr) {
      if (in.rs != mips::kRa) {
        // The paper: "CDFG recovery ... failed for two EEMBC examples
        // because of indirect jumps."  Reproduce that failure mode.
        return Status::Error(
            ErrorKind::kIndirectJump,
            "unresolvable indirect jump (jr " +
                std::string(mips::RegName(in.rs)) + ") at " + Hex(pc));
      }
      // A return: no successors.
    } else if (in.op == Op::kJalr) {
      return Status::Error(ErrorKind::kIndirectJump,
                           "unresolvable indirect call (jalr) at " + Hex(pc));
    } else {
      flow.Add(pc + 4);
    }
    for (std::uint8_t i = 0; i < flow.count; ++i) {
      work_.push_back(flow.pcs[i]);
    }
  }
  return FormBlocks(entry);
}

MachineCfg CfgRecovery::FormBlocks(std::uint32_t entry) {
  // Pass 2: form blocks [leader, next leader / control instruction].  Every
  // leader was walked: each one is a successor the walk queued.
  MachineCfg cfg;
  cfg.entry = entry;
  std::sort(leaders_.begin(), leaders_.end());
  cfg.blocks.reserve(leaders_.size());
  for (const std::uint32_t leader : leaders_) {
    MBlock block;
    block.start = leader;
    std::uint32_t pc = leader;
    while (true) {
      const std::size_t index = IndexOf(pc);
      const Successors& flow = flow_[index];
      const bool is_control =
          flow.count != 1 || flow.pcs[0] != pc + 4 ||
          index + 1 >= flags_.size() || (flags_[index + 1] & kLeader) != 0;
      if (is_control) {
        block.end = pc + 4;
        block.succs = flow;
        break;
      }
      pc += 4;
    }
    cfg.blocks.push_back(block);
  }
  std::sort(calls_.begin(), calls_.end());
  calls_.erase(std::unique(calls_.begin(), calls_.end()), calls_.end());
  cfg.call_targets = calls_;
  return cfg;
}

/// Per-function lifter: machine CFG -> SSA function.
class FunctionLifter {
 public:
  FunctionLifter(const SoftBinary& binary, const MachineCfg& cfg,
                 ir::Function& function, const LiftOptions& options)
      : binary_(binary), cfg_(cfg), function_(function), options_(options) {}

  Status Run() {
    CreateBlocks();
    // Lift blocks in discovery (address) order; SSA state resolution handles
    // any order because block-entry reads become placeholders.
    for (const MBlock& mblock : cfg_.blocks) {
      if (Status status = LiftBlock(mblock); !status.ok()) return status;
    }
    function_.RecomputeCfg();
    ResolvePlaceholders();
    function_.RemoveUnreachableBlocks();
    EliminateTrivialPhis(function_);
    function_.RemoveDeadInstrs();
    function_.RecomputeCfg();
    AnnotateProfile();
    return Status::Ok();
  }

 private:
  struct BlockState {
    std::array<ir::Value, kNumLocs> reg;  // value at current point / exit
    ir::Block* block = nullptr;
  };

  void CreateBlocks() {
    // Per-block state is indexed by the leader's position in address order,
    // found through a table indexed by word offset from the first leader.
    const std::size_t count = cfg_.blocks.size();
    first_leader_ = cfg_.blocks.front().start;
    block_index_.assign((cfg_.blocks.back().start - first_leader_) / 4u + 1,
                        kNoBlock);
    for (std::size_t i = 0; i < count; ++i) {
      block_index_[(cfg_.blocks[i].start - first_leader_) / 4u] =
          static_cast<std::uint32_t>(i);
    }
    blocks_.assign(count, nullptr);
    states_.assign(count, BlockState{});
    entry_values_.assign(count * kNumLocs, ir::Value::None());
    // The entry block must be first in the function.
    std::vector<std::uint32_t> order;
    order.reserve(count);
    order.push_back(cfg_.entry);
    for (const MBlock& mblock : cfg_.blocks) {
      if (mblock.start != cfg_.entry) order.push_back(mblock.start);
    }
    for (std::uint32_t leader : order) {
      char name[11] = {'b', 'b', '_'};
      const auto end = std::to_chars(name + 3, std::end(name), leader, 16).ptr;
      ir::Block* block =
          function_.CreateBlock(std::string(name, end), leader);
      blocks_[IndexOf(leader)] = block;
      states_[IndexOf(leader)].block = block;
    }
  }

  /// Position of `leader` among the function's block leaders.
  [[nodiscard]] std::size_t IndexOf(std::uint32_t leader) const {
    const std::uint32_t offset = leader - first_leader_;
    const std::size_t slot = offset / 4u;
    Check(offset % 4u == 0 && slot < block_index_.size() &&
              block_index_[slot] != kNoBlock,
          "lifter: not a block leader");
    return block_index_[slot];
  }

  [[nodiscard]] ir::Block* BlockAt(std::uint32_t leader) const {
    return blocks_[IndexOf(leader)];
  }

  ir::Value Undef() {
    if (undef_ == nullptr) {
      undef_ = function_.Create(ir::Opcode::kUndef);
      // Prepend into entry so it dominates all uses.
      ir::Block* entry = BlockAt(cfg_.entry);
      entry->instrs.insert(entry->instrs.begin(), undef_);
      undef_->parent = entry;
    }
    return ir::Value::Of(undef_);
  }

  /// Value of register `reg` at the entry of `leader`'s block.
  ir::Value EntryValue(std::uint32_t leader, unsigned reg) {
    if (reg == 0) return ir::Value::Const(0);
    ir::Value& memo = entry_values_[IndexOf(leader) * kNumLocs + reg];
    if (!memo.is_none()) return memo;
    ir::Value value;
    if (leader == cfg_.entry) {
      ir::Instr* input = function_.Create(ir::Opcode::kInput);
      input->input_index = static_cast<std::uint16_t>(reg);
      input->src_pc = leader;
      ir::Block* entry = BlockAt(cfg_.entry);
      entry->instrs.insert(entry->instrs.begin(), input);
      input->parent = entry;
      value = ir::Value::Of(input);
    } else {
      // Create a phi placeholder; operands are filled after all blocks are
      // lifted (ResolvePlaceholders).  Memoize first to break cycles.
      ir::Instr* phi = function_.Create(ir::Opcode::kPhi);
      phi->src_pc = leader;
      BlockAt(leader)->PrependPhi(phi);
      memo = ir::Value::Of(phi);
      pending_phis_.emplace_back(phi, leader, reg);
      return memo;
    }
    memo = value;
    return value;
  }

  /// Value of register `reg` at the exit of `leader`'s block.
  ir::Value ExitValue(std::uint32_t leader, unsigned reg) {
    if (reg == 0) return ir::Value::Const(0);
    const BlockState& state = states_[IndexOf(leader)];
    if (!state.reg[reg].is_none()) return state.reg[reg];
    return EntryValue(leader, reg);
  }

  void ResolvePlaceholders() {
    // ExitValue may create further placeholder phis while we fill operands,
    // so iterate by index over the growing vector.
    for (std::size_t i = 0; i < pending_phis_.size(); ++i) {
      const auto [phi, leader, reg] = pending_phis_[i];
      ir::Block* block = BlockAt(leader);
      std::vector<ir::Value> operands;
      operands.reserve(block->preds.size());
      for (ir::Block* pred : block->preds) {
        operands.push_back(ExitValue(pred->start_pc, reg));
      }
      phi->operands = std::move(operands);
    }
  }

  Status LiftBlock(const MBlock& mblock) {
    const std::size_t index = IndexOf(mblock.start);
    ir::Block* block = blocks_[index];
    BlockState& state = states_[index];

    const auto read = [&](unsigned reg) -> ir::Value {
      if (reg == 0) return ir::Value::Const(0);
      if (state.reg[reg].is_none()) {
        state.reg[reg] = EntryValue(mblock.start, reg);
      }
      return state.reg[reg];
    };
    const auto write = [&](unsigned reg, ir::Value value) {
      if (reg != 0) state.reg[reg] = value;
    };
    const auto emit = [&](ir::Opcode op, std::vector<ir::Value> operands,
                          std::uint32_t pc) -> ir::Instr* {
      ir::Instr* instr = function_.Emit(block, op, std::move(operands));
      instr->src_pc = pc;
      return instr;
    };
    const auto binop = [&](ir::Opcode op, ir::Value a, ir::Value b,
                           std::uint32_t pc) -> ir::Value {
      return ir::Value::Of(emit(op, {a, b}, pc));
    };

    for (std::uint32_t pc = mblock.start; pc < mblock.end; pc += 4) {
      const Instr in = *mips::Decode(binary_.WordAt(pc));
      const ir::Value imm = ir::Value::Const(in.imm);
      switch (in.op) {
        case Op::kSll:
          write(in.rd, binop(ir::Opcode::kShl, read(in.rt),
                             ir::Value::Const(in.shamt), pc));
          break;
        case Op::kSrl:
          write(in.rd, binop(ir::Opcode::kShrL, read(in.rt),
                             ir::Value::Const(in.shamt), pc));
          break;
        case Op::kSra:
          write(in.rd, binop(ir::Opcode::kShrA, read(in.rt),
                             ir::Value::Const(in.shamt), pc));
          break;
        case Op::kSllv:
          write(in.rd, binop(ir::Opcode::kShl, read(in.rt),
                             binop(ir::Opcode::kAnd, read(in.rs),
                                   ir::Value::Const(31), pc), pc));
          break;
        case Op::kSrlv:
          write(in.rd, binop(ir::Opcode::kShrL, read(in.rt),
                             binop(ir::Opcode::kAnd, read(in.rs),
                                   ir::Value::Const(31), pc), pc));
          break;
        case Op::kSrav:
          write(in.rd, binop(ir::Opcode::kShrA, read(in.rt),
                             binop(ir::Opcode::kAnd, read(in.rs),
                                   ir::Value::Const(31), pc), pc));
          break;
        case Op::kAdd: case Op::kAddu:
          write(in.rd, binop(ir::Opcode::kAdd, read(in.rs), read(in.rt), pc));
          break;
        case Op::kSub: case Op::kSubu:
          write(in.rd, binop(ir::Opcode::kSub, read(in.rs), read(in.rt), pc));
          break;
        case Op::kAnd:
          write(in.rd, binop(ir::Opcode::kAnd, read(in.rs), read(in.rt), pc));
          break;
        case Op::kOr:
          write(in.rd, binop(ir::Opcode::kOr, read(in.rs), read(in.rt), pc));
          break;
        case Op::kXor:
          write(in.rd, binop(ir::Opcode::kXor, read(in.rs), read(in.rt), pc));
          break;
        case Op::kNor:
          write(in.rd, binop(ir::Opcode::kNor, read(in.rs), read(in.rt), pc));
          break;
        case Op::kSlt:
          write(in.rd, binop(ir::Opcode::kLtS, read(in.rs), read(in.rt), pc));
          break;
        case Op::kSltu:
          write(in.rd, binop(ir::Opcode::kLtU, read(in.rs), read(in.rt), pc));
          break;
        case Op::kMfhi: write(in.rd, read(kHi)); break;
        case Op::kMflo: write(in.rd, read(kLo)); break;
        case Op::kMthi: write(kHi, read(in.rs)); break;
        case Op::kMtlo: write(kLo, read(in.rs)); break;
        case Op::kMult:
          write(kLo, binop(ir::Opcode::kMul, read(in.rs), read(in.rt), pc));
          write(kHi, binop(ir::Opcode::kMulHiS, read(in.rs), read(in.rt), pc));
          break;
        case Op::kMultu:
          write(kLo, binop(ir::Opcode::kMul, read(in.rs), read(in.rt), pc));
          write(kHi, binop(ir::Opcode::kMulHiU, read(in.rs), read(in.rt), pc));
          break;
        case Op::kDiv:
          write(kLo, binop(ir::Opcode::kDivS, read(in.rs), read(in.rt), pc));
          write(kHi, binop(ir::Opcode::kRemS, read(in.rs), read(in.rt), pc));
          break;
        case Op::kDivu:
          write(kLo, binop(ir::Opcode::kDivU, read(in.rs), read(in.rt), pc));
          write(kHi, binop(ir::Opcode::kRemU, read(in.rs), read(in.rt), pc));
          break;
        case Op::kAddi: case Op::kAddiu:
          write(in.rt, binop(ir::Opcode::kAdd, read(in.rs), imm, pc));
          break;
        case Op::kSlti:
          write(in.rt, binop(ir::Opcode::kLtS, read(in.rs), imm, pc));
          break;
        case Op::kSltiu:
          write(in.rt, binop(ir::Opcode::kLtU, read(in.rs), imm, pc));
          break;
        case Op::kAndi:
          write(in.rt, binop(ir::Opcode::kAnd, read(in.rs), imm, pc));
          break;
        case Op::kOri:
          write(in.rt, binop(ir::Opcode::kOr, read(in.rs), imm, pc));
          break;
        case Op::kXori:
          write(in.rt, binop(ir::Opcode::kXor, read(in.rs), imm, pc));
          break;
        case Op::kLui:
          write(in.rt, ir::Value::Const(in.imm << 16));
          break;
        case Op::kLb: case Op::kLbu: case Op::kLh: case Op::kLhu:
        case Op::kLw: {
          // Always materialize the base+offset add, even for offset 0:
          // unrolled loop sections then stay position-isomorphic for the
          // rerolling matcher (constant folding removes the +0 later).
          ir::Value addr = binop(ir::Opcode::kAdd, read(in.rs), imm, pc);
          ir::Instr* load = emit(ir::Opcode::kLoad, {addr}, pc);
          switch (in.op) {
            case Op::kLb:  load->mem_bytes = 1; load->mem_signed = true;
                           load->width = 8;  load->is_signed = true;  break;
            case Op::kLbu: load->mem_bytes = 1; load->mem_signed = false;
                           load->width = 8;  load->is_signed = false; break;
            case Op::kLh:  load->mem_bytes = 2; load->mem_signed = true;
                           load->width = 16; load->is_signed = true;  break;
            case Op::kLhu: load->mem_bytes = 2; load->mem_signed = false;
                           load->width = 16; load->is_signed = false; break;
            default:       load->mem_bytes = 4; break;
          }
          write(in.rt, ir::Value::Of(load));
          break;
        }
        case Op::kSb: case Op::kSh: case Op::kSw: {
          ir::Value addr = binop(ir::Opcode::kAdd, read(in.rs), imm, pc);
          ir::Instr* store = emit(ir::Opcode::kStore, {addr, read(in.rt)}, pc);
          store->mem_bytes = in.op == Op::kSw ? 4 : in.op == Op::kSh ? 2 : 1;
          break;
        }
        case Op::kJal: {
          ir::Instr* call = emit(
              ir::Opcode::kCall,
              {read(mips::kA0), read(mips::kA1), read(mips::kA2),
               read(mips::kA3), read(mips::kSp)},
              pc);
          call->call_target = mips::JumpTarget(pc, in);
          write(mips::kV0, ir::Value::Of(call));
          // Caller-saved registers are clobbered by the call (MIPS ABI).
          write(mips::kV1, Undef());
          write(mips::kAt, Undef());
          write(mips::kRa, Undef());
          for (unsigned reg = mips::kA0; reg <= mips::kA3; ++reg) {
            write(reg, Undef());
          }
          for (unsigned reg = mips::kT0; reg <= mips::kT7; ++reg) {
            write(reg, Undef());
          }
          write(mips::kT8, Undef());
          write(mips::kT9, Undef());
          write(kHi, Undef());
          write(kLo, Undef());
          break;
        }
        case Op::kBeq: case Op::kBne: case Op::kBlez: case Op::kBgtz:
        case Op::kBltz: case Op::kBgez: {
          const std::uint32_t target = mips::BranchTarget(pc, in);
          // Unconditional pseudo-branches were normalized in CFG recovery.
          if (in.op == Op::kBeq && in.rs == 0 && in.rt == 0) {
            ir::Instr* br = emit(ir::Opcode::kBr, {}, pc);
            br->target0 = BlockAt(target);
            break;
          }
          if (in.op == Op::kBne && in.rs == in.rt) {
            ir::Instr* br = emit(ir::Opcode::kBr, {}, pc);
            br->target0 = BlockAt(pc + 4);
            break;
          }
          ir::Value cond;
          switch (in.op) {
            case Op::kBeq:
              cond = binop(ir::Opcode::kEq, read(in.rs), read(in.rt), pc);
              break;
            case Op::kBne:
              cond = binop(ir::Opcode::kNe, read(in.rs), read(in.rt), pc);
              break;
            case Op::kBlez:
              cond = binop(ir::Opcode::kLeS, read(in.rs),
                           ir::Value::Const(0), pc);
              break;
            case Op::kBgtz:
              cond = binop(ir::Opcode::kGtS, read(in.rs),
                           ir::Value::Const(0), pc);
              break;
            case Op::kBltz:
              cond = binop(ir::Opcode::kLtS, read(in.rs),
                           ir::Value::Const(0), pc);
              break;
            default:
              cond = binop(ir::Opcode::kGeS, read(in.rs),
                           ir::Value::Const(0), pc);
              break;
          }
          ir::Instr* br = emit(ir::Opcode::kCondBr, {cond}, pc);
          br->target0 = BlockAt(target);
          br->target1 = BlockAt(pc + 4);
          break;
        }
        case Op::kJ: {
          ir::Instr* br = emit(ir::Opcode::kBr, {}, pc);
          br->target0 = BlockAt(mips::JumpTarget(pc, in));
          break;
        }
        case Op::kJr:
          Check(in.rs == mips::kRa, "lifter: jr to non-ra survived recovery");
          emit(ir::Opcode::kRet, {read(mips::kV0)}, pc);
          break;
        case Op::kJalr:
          throw InternalError("lifter: jalr survived CFG recovery");
        case Op::kInvalid:
          return Status::Error(ErrorKind::kMalformedBinary,
                               "invalid instruction at " + Hex(pc));
      }
    }

    // Fallthrough block (last instruction was not control flow).
    if (!block->has_terminator()) {
      Check(mblock.succs.count == 1, "lifter: fallthrough without successor");
      ir::Instr* br = function_.Create(ir::Opcode::kBr);
      br->src_pc = mblock.end - 4;
      br->target0 = BlockAt(mblock.succs.pcs[0]);
      block->Append(br);
    }
    return Status::Ok();
  }

  void AnnotateProfile() {
    if (options_.profile == nullptr) return;
    const mips::ExecProfile& profile = *options_.profile;
    for (const auto& block_ptr : function_.blocks()) {
      ir::Block* block = block_ptr.get();
      block->exec_count = profile.CountAt(block->start_pc);
      if (!block->has_terminator()) continue;
      ir::Instr* term = block->terminator();
      if (term->op != ir::Opcode::kCondBr || term->src_pc == 0) continue;
      const std::size_t index = (term->src_pc - mips::kTextBase) / 4u;
      if (index < profile.branch_taken.size()) {
        block->taken_count = profile.branch_taken[index];
        block->not_taken_count = profile.branch_not_taken[index];
      }
    }
  }

  const SoftBinary& binary_;
  const MachineCfg& cfg_;
  ir::Function& function_;
  const LiftOptions& options_;
  static constexpr std::uint32_t kNoBlock = ~0u;
  std::uint32_t first_leader_ = 0;  ///< lowest block leader
  /// Block position of each leader, [(leader - first_leader_) / 4];
  /// kNoBlock for addresses that lead no block.
  std::vector<std::uint32_t> block_index_;
  std::vector<ir::Block*> blocks_;
  std::vector<BlockState> states_;
  /// Register value at block entry, [index * kNumLocs + reg]; None = unset.
  std::vector<ir::Value> entry_values_;
  std::vector<std::tuple<ir::Instr*, std::uint32_t, unsigned>> pending_phis_;
  ir::Instr* undef_ = nullptr;
};

}  // namespace

std::size_t EliminateTrivialPhis(ir::Function& function) {
  std::size_t total_removed = 0;
  while (true) {
    // Built on the first trivial phi of a round: most calls find none.
    ir::SlotTable<ir::Value> replacements;
    std::size_t found = 0;
    for (const auto& block : function.blocks()) {
      for (ir::Instr* phi : block->instrs) {
        if (phi->op != ir::Opcode::kPhi) break;
        ir::Value unique = ir::Value::None();
        bool trivial = true;
        for (const ir::Value& operand : phi->operands) {
          if (operand.is_instr() && operand.def == phi) continue;  // self
          if (unique.is_none()) {
            unique = operand;
          } else if (!(unique == operand)) {
            trivial = false;
            break;
          }
        }
        if (trivial && !unique.is_none()) {
          if (found++ == 0) replacements = ir::SlotTable<ir::Value>(function);
          replacements[phi] = unique;
        }
      }
    }
    if (found == 0) break;
    function.ReplaceAllUses(replacements);
    for (const auto& block : function.blocks()) {
      auto& instrs = block->instrs;
      instrs.erase(std::remove_if(instrs.begin(), instrs.end(),
                                  [&](const ir::Instr* instr) {
                                    return !replacements[instr].is_none();
                                  }),
                   instrs.end());
    }
    total_removed += found;
  }
  return total_removed;
}

namespace {

/// Shared lift driver: recover and lift `root_entry` plus its transitive
/// callees.  Whole-binary lifting roots at the binary entry point;
/// region-scoped lifting roots at an arbitrary discovered function.
Result<ir::Module> LiftFrom(const mips::SoftBinary& binary,
                            std::uint32_t root_entry,
                            const LiftOptions& options) {
  ir::Module module;

  // Discover functions breadth first: the root plus transitive jal targets.
  // `work` is the queue and the discovered list; a target outside text is
  // queued as is and fails recovery when its turn comes.
  CfgRecovery recovery(binary.text.size());
  std::vector<bool> discovered(binary.text.size(), false);
  const auto discover = [&](std::uint32_t entry) {
    if (!binary.ContainsText(entry)) return true;
    const std::size_t index = (entry - mips::kTextBase) / 4u;
    if (discovered[index]) return false;
    discovered[index] = true;
    return true;
  };
  std::vector<std::uint32_t> work{root_entry};
  discover(root_entry);
  std::vector<MachineCfg> cfgs;
  for (std::size_t head = 0; head < work.size(); ++head) {
    auto cfg = recovery.Recover(binary, work[head]);
    if (!cfg.ok()) return cfg.status();
    for (std::uint32_t callee : cfg.value().call_targets) {
      if (discover(callee)) work.push_back(callee);
    }
    cfgs.push_back(std::move(cfg).take());
  }
  std::sort(cfgs.begin(), cfgs.end(),
            [](const MachineCfg& a, const MachineCfg& b) {
              return a.entry < b.entry;
            });

  // Names come from symbols when available: the first symbol, in name
  // order, at a function's entry.
  std::vector<const std::string*> symbol_names(cfgs.size(), nullptr);
  for (const auto& [symbol, addr] : binary.symbols) {
    const auto it = std::lower_bound(
        cfgs.begin(), cfgs.end(), addr,
        [](const MachineCfg& cfg, std::uint32_t a) { return cfg.entry < a; });
    if (it == cfgs.end() || it->entry != addr) continue;
    const std::string*& name = symbol_names[it - cfgs.begin()];
    if (name == nullptr) name = &symbol;
  }

  // Lift each function, in entry order.
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const MachineCfg& cfg = cfgs[i];
    const std::uint32_t entry = cfg.entry;
    std::string name = symbol_names[i] != nullptr ? *symbol_names[i]
                                                  : "func_" + Hex(entry);
    auto function = std::make_unique<ir::Function>(name, entry);
    FunctionLifter lifter(binary, cfg, *function, options);
    if (Status status = lifter.Run(); !status.ok()) return status;
    if (entry == root_entry) module.main = function.get();
    module.functions.push_back(std::move(function));
  }
  Check(module.main != nullptr, "Lift: root function missing");
  return module;
}

}  // namespace

Result<ir::Module> Lift(const mips::SoftBinary& binary,
                        const LiftOptions& options) {
  return LiftFrom(binary, binary.entry, options);
}

Result<ir::Module> LiftAt(const mips::SoftBinary& binary,
                          std::uint32_t root_entry,
                          const LiftOptions& options) {
  if (!binary.ContainsText(root_entry)) {
    return Status::Error(ErrorKind::kMalformedBinary,
                         "LiftAt: root entry outside text segment");
  }
  return LiftFrom(binary, root_entry, options);
}

std::vector<std::uint32_t> FunctionEntries(const mips::SoftBinary& binary) {
  std::vector<std::uint32_t> entries{binary.entry};
  for (std::size_t i = 0; i < binary.text.size(); ++i) {
    const auto instr = mips::Decode(binary.text[i]);
    if (!instr.has_value() || instr->op != mips::Op::kJal) continue;
    const std::uint32_t pc = mips::kTextBase + static_cast<std::uint32_t>(i) * 4u;
    const std::uint32_t target = mips::JumpTarget(pc, *instr);
    if (binary.ContainsText(target)) entries.push_back(target);
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  return entries;
}

}  // namespace b2h::decomp
