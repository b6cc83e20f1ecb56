#include "ir/ir.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace b2h::ir {

const char* OpcodeName(Opcode op) noexcept {
  switch (op) {
    case Opcode::kInput: return "input";
    case Opcode::kConst: return "const";
    case Opcode::kUndef: return "undef";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kMulHiS: return "mulhis";
    case Opcode::kMulHiU: return "mulhiu";
    case Opcode::kDivS: return "divs";
    case Opcode::kDivU: return "divu";
    case Opcode::kRemS: return "rems";
    case Opcode::kRemU: return "remu";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kNor: return "nor";
    case Opcode::kShl: return "shl";
    case Opcode::kShrL: return "shrl";
    case Opcode::kShrA: return "shra";
    case Opcode::kEq: return "eq";
    case Opcode::kNe: return "ne";
    case Opcode::kLtS: return "lts";
    case Opcode::kLtU: return "ltu";
    case Opcode::kLeS: return "les";
    case Opcode::kLeU: return "leu";
    case Opcode::kGtS: return "gts";
    case Opcode::kGtU: return "gtu";
    case Opcode::kGeS: return "ges";
    case Opcode::kGeU: return "geu";
    case Opcode::kSelect: return "select";
    case Opcode::kSExt: return "sext";
    case Opcode::kZExt: return "zext";
    case Opcode::kTrunc: return "trunc";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kPhi: return "phi";
    case Opcode::kBr: return "br";
    case Opcode::kCondBr: return "condbr";
    case Opcode::kRet: return "ret";
    case Opcode::kCall: return "call";
  }
  return "?";
}

bool IsTerminator(Opcode op) noexcept {
  return op == Opcode::kBr || op == Opcode::kCondBr || op == Opcode::kRet;
}

bool IsComparison(Opcode op) noexcept {
  switch (op) {
    case Opcode::kEq: case Opcode::kNe: case Opcode::kLtS: case Opcode::kLtU:
    case Opcode::kLeS: case Opcode::kLeU: case Opcode::kGtS:
    case Opcode::kGtU: case Opcode::kGeS: case Opcode::kGeU:
      return true;
    default:
      return false;
  }
}

bool IsCommutative(Opcode op) noexcept {
  switch (op) {
    case Opcode::kAdd: case Opcode::kMul: case Opcode::kAnd: case Opcode::kOr:
    case Opcode::kXor: case Opcode::kNor: case Opcode::kEq: case Opcode::kNe:
    case Opcode::kMulHiS: case Opcode::kMulHiU:
      return true;
    default:
      return false;
  }
}

bool HasSideEffects(Opcode op) noexcept {
  return op == Opcode::kStore || op == Opcode::kCall || IsTerminator(op);
}

std::vector<Block*> Block::succs() const {
  const Instr* term = has_terminator() ? instrs.back() : nullptr;
  std::vector<Block*> out;
  if (term == nullptr) return out;
  if (term->op == Opcode::kBr) {
    out.push_back(term->target0);
  } else if (term->op == Opcode::kCondBr) {
    out.push_back(term->target0);
    out.push_back(term->target1);
  }
  return out;
}

Instr* Block::terminator() const {
  Check(has_terminator(), "Block has no terminator");
  return instrs.back();
}

bool Block::has_terminator() const {
  return !instrs.empty() && instrs.back()->is_terminator();
}

void Block::Append(Instr* instr) {
  Check(instr != nullptr, "Block::Append(nullptr)");
  instr->parent = this;
  if (has_terminator() && !instr->is_terminator()) {
    instrs.insert(instrs.end() - 1, instr);
  } else {
    instrs.push_back(instr);
  }
}

void Block::PrependPhi(Instr* phi) {
  Check(phi != nullptr && phi->op == Opcode::kPhi, "PrependPhi: not a phi");
  phi->parent = this;
  auto it = instrs.begin();
  while (it != instrs.end() && (*it)->op == Opcode::kPhi) ++it;
  instrs.insert(it, phi);
}

void Block::Remove(const Instr* instr) {
  const auto it = std::find(instrs.begin(), instrs.end(), instr);
  Check(it != instrs.end(), "Block::Remove: instruction not in block");
  instrs.erase(it);
}

std::size_t Block::PredIndex(const Block* pred) const {
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == pred) return i;
  }
  throw InternalError("Block::PredIndex: not a predecessor");
}

std::size_t Block::BodySize() const {
  std::size_t count = 0;
  for (const Instr* instr : instrs) {
    if (instr->op != Opcode::kPhi) ++count;
  }
  return count;
}

std::vector<Instr*> Block::Phis() const {
  std::vector<Instr*> phis;
  for (Instr* instr : instrs) {
    if (instr->op != Opcode::kPhi) break;
    phis.push_back(instr);
  }
  return phis;
}

std::size_t Function::NumInstrs() const {
  std::size_t count = 0;
  for (const auto& block : blocks_) count += block->instrs.size();
  return count;
}

std::size_t Function::NumAllocated() const noexcept {
  return static_cast<std::size_t>(std::count_if(
      pool_.begin(), pool_.end(),
      [](const auto& entry) { return entry != nullptr; }));
}

Block* Function::CreateBlock(std::string name, std::uint32_t start_pc) {
  auto block = std::make_unique<Block>();
  block->name = std::move(name);
  block->start_pc = start_pc;
  block->parent = this;
  block->id = static_cast<int>(blocks_.size());
  blocks_.push_back(std::move(block));
  return blocks_.back().get();
}

Instr* Function::Create(Opcode op) {
  auto instr = std::make_unique<Instr>();
  instr->op = op;
  if (IsComparison(op)) instr->width = 1;
  if (IsTerminator(op) || op == Opcode::kStore) instr->width = 0;
  instr->slot = static_cast<std::uint32_t>(pool_.size());
  pool_.push_back(std::move(instr));
  return pool_.back().get();
}

Instr* Function::Emit(Block* block, Opcode op, std::vector<Value> operands,
                      std::uint8_t width) {
  Instr* instr = Create(op);
  instr->operands = std::move(operands);
  if (!IsComparison(op) && !IsTerminator(op) && op != Opcode::kStore) {
    instr->width = width;
  }
  block->Append(instr);
  return instr;
}

void Function::RecomputeCfg() {
  for (auto& block : blocks_) block->preds.clear();
  for (auto& block : blocks_) {
    for (Block* succ : block->succs()) succ->preds.push_back(block.get());
  }
  int block_id = 0;
  int instr_id = 0;
  for (auto& block : blocks_) {
    block->id = block_id++;
    for (Instr* instr : block->instrs) instr->id = instr_id++;
  }
}

void Function::ReplaceAllUses(const SlotTable<Value>& replacements) {
  if (replacements.size() == 0) return;
  const auto chase = [&replacements](Value value) {
    // Follow replacement chains (bounded by the table size to catch cycles).
    std::size_t hops = 0;
    while (value.is_instr()) {
      const Value& next = replacements.Get(value.def);
      if (next.is_none()) break;
      value = next;
      Check(++hops <= replacements.size(), "ReplaceAllUses: replacement cycle");
    }
    return value;
  };
  for (auto& block : blocks_) {
    for (Instr* instr : block->instrs) {
      for (Value& operand : instr->operands) {
        if (operand.is_instr()) operand = chase(operand);
      }
    }
  }
}

std::size_t Function::RemoveDeadInstrs() {
  // Mark: roots are side-effecting instructions; sweep everything else that
  // is not transitively used by a root.
  SlotTable<std::uint8_t> live(*this);
  std::vector<const Instr*> work;
  for (const auto& block : blocks_) {
    for (const Instr* instr : block->instrs) {
      if (HasSideEffects(instr->op)) {
        live[instr] = 1;
        work.push_back(instr);
      }
    }
  }
  while (!work.empty()) {
    const Instr* instr = work.back();
    work.pop_back();
    for (const Value& operand : instr->operands) {
      if (operand.is_instr() && live[operand.def] == 0) {
        live[operand.def] = 1;
        work.push_back(operand.def);
      }
    }
  }
  std::size_t removed = 0;
  for (auto& block : blocks_) {
    auto& instrs = block->instrs;
    const auto new_end = std::remove_if(
        instrs.begin(), instrs.end(),
        [&live](const Instr* instr) { return live[instr] == 0; });
    removed += static_cast<std::size_t>(std::distance(new_end, instrs.end()));
    instrs.erase(new_end, instrs.end());
  }
  return removed;
}

std::size_t Function::ReleaseDeadInstrs() {
  // Held: in a block, or used by an instruction in a block.  An operand
  // this function does not own is left alone (the verifier reports it).
  SlotTable<std::uint8_t> held(*this);
  for (const auto& block : blocks_) {
    for (const Instr* instr : block->instrs) {
      if (Owns(instr)) held[instr] = 1;
      for (const Value& operand : instr->operands) {
        if (operand.is_instr() && Owns(operand.def)) held[operand.def] = 1;
      }
    }
  }
  std::size_t released = 0;
  for (auto& entry : pool_) {
    if (entry != nullptr && held[entry.get()] == 0) {
      entry.reset();
      ++released;
    }
  }
  return released;
}

void Function::RemoveUnreachableBlocks() {
  RecomputeCfg();
  std::unordered_set<const Block*> reachable;
  std::deque<Block*> work{entry()};
  reachable.insert(entry());
  while (!work.empty()) {
    Block* block = work.front();
    work.pop_front();
    for (Block* succ : block->succs()) {
      if (reachable.insert(succ).second) work.push_back(succ);
    }
  }
  // Drop phi operands that came from removed predecessors.
  for (auto& block : blocks_) {
    if (reachable.count(block.get()) == 0) continue;
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < block->preds.size(); ++i) {
      if (reachable.count(block->preds[i]) != 0) keep.push_back(i);
    }
    if (keep.size() == block->preds.size()) continue;
    for (Instr* phi : block->Phis()) {
      std::vector<Value> operands;
      operands.reserve(keep.size());
      for (std::size_t i : keep) operands.push_back(phi->operands[i]);
      phi->operands = std::move(operands);
    }
  }
  blocks_.erase(std::remove_if(blocks_.begin(), blocks_.end(),
                               [&reachable](const auto& block) {
                                 return reachable.count(block.get()) == 0;
                               }),
                blocks_.end());
  RecomputeCfg();
}

void Function::EraseBlock(const Block* block) {
  const auto it = std::find_if(
      blocks_.begin(), blocks_.end(),
      [block](const auto& candidate) { return candidate.get() == block; });
  Check(it != blocks_.end(), "EraseBlock: block not in function");
  Check(it != blocks_.begin(), "EraseBlock: cannot erase the entry block");
  blocks_.erase(it);
}

std::size_t Function::CountOps() const {
  std::size_t count = 0;
  for (const auto& block : blocks_) {
    for (const Instr* instr : block->instrs) {
      if (!instr->is_terminator() && instr->op != Opcode::kPhi) ++count;
    }
  }
  return count;
}

}  // namespace b2h::ir
