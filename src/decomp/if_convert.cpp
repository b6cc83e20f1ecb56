// If-conversion: small, side-effect-free branch diamonds become selects.
//
// Hardware has no branch penalty but a large FSM-state penalty: a loop body
// split across blocks cannot be pipelined by the scheduler (it pipelines
// single-block self-loops).  Converting
//
//        B: condbr c, T, F            B: t...; f...; m_i = select(c, ...)
//        T: t...; br M        ==>     (T, F gone; B falls through to M)
//        F: f...; br M
//        M: m_i = phi(t_i, f_i)
//
// executes both arms speculatively — legal only when the arms are pure ALU
// code (no loads/stores/calls/divides), and worthwhile only when they are
// short.  ADPCM-style clamping kernels collapse to single-block loops and
// pipeline at II=1 after this pass.
//
// Cost model.  Diamonds convert one at a time, always the first candidate
// in block order.  The first conversion is followed by whole-function
// cleanups (unreachable blocks, trivial phis, dead instructions,
// straight-line pairs), because earlier passes may have left any of them.
// After that the function is *clean*, and a conversion of (head H, arms
// T/F, merge M) can only
//   - leave T and F unreachable: they are erased directly;
//   - leave M with the single predecessor H and no phis: M is spliced into
//     H (and M's successors cannot continue the chain, or the function was
//     not clean);
//   - strand dead code only when M had no phis: then the compare chain
//     feeding the old branch lost its last use, and mark-sweep DCE runs.
// With selects, every rewritten value keeps a live user, so nothing dies.
// Only H and H's predecessors (which may now see H as an arm) can change
// candidacy, so the scan resumes at the earliest of them.  A conversion
// therefore costs its arms, its merge and one operand walk for the phi
// rewrite, instead of several whole-function passes.
#include <algorithm>
#include <numeric>
#include <vector>

#include "decomp/lifter.hpp"
#include "decomp/passes.hpp"

namespace b2h::decomp {
namespace {

using ir::Opcode;
using ir::Value;

constexpr std::size_t kMaxArmOps = 8;

/// An arm is convertible when every op can be executed speculatively and
/// cheaply: pure ALU only, no memory, no calls, no multi-cycle units.
bool ArmConvertible(const ir::Block* arm) {
  if (arm->BodySize() > kMaxArmOps) return false;
  if (!arm->Phis().empty()) return false;
  for (const ir::Instr* instr : arm->instrs) {
    if (instr->is_terminator()) {
      if (instr->op != Opcode::kBr) return false;
      continue;
    }
    switch (instr->op) {
      case Opcode::kLoad: case Opcode::kStore: case Opcode::kCall:
      case Opcode::kDivS: case Opcode::kDivU: case Opcode::kRemS:
      case Opcode::kRemU: case Opcode::kPhi:
        return false;
      default:
        break;
    }
  }
  return true;
}

/// True when `arm` is a pure forwarding arm of the diamond:
/// single pred `head`, single succ `merge`.
bool IsArmOf(const ir::Block* arm, const ir::Block* head,
             const ir::Block* merge) {
  if (arm->preds.size() != 1 || arm->preds[0] != head) return false;
  const auto succs = arm->succs();
  return succs.size() == 1 && succs[0] == merge;
}

struct Candidate {
  ir::Block* head = nullptr;
  ir::Block* taken = nullptr;      // may be null (triangle, taken==merge)
  ir::Block* fallthrough = nullptr;  // may be null (triangle)
  ir::Block* merge = nullptr;
};

/// The first diamond or triangle whose head sits at index `from` or later.
Candidate FindCandidate(const ir::Function& function, std::size_t from) {
  const auto& blocks = function.blocks();
  for (std::size_t i = from; i < blocks.size(); ++i) {
    ir::Block* block = blocks[i].get();
    if (!block->has_terminator()) continue;
    ir::Instr* term = block->terminator();
    if (term->op != Opcode::kCondBr) continue;
    ir::Block* t = term->target0;
    ir::Block* f = term->target1;
    if (t == f) continue;
    const auto t_succs = t->succs();
    const auto f_succs = f->succs();
    // Full diamond: both arms forward to the same merge.
    if (t_succs.size() == 1 && f_succs.size() == 1 &&
        t_succs[0] == f_succs[0] && IsArmOf(t, block, t_succs[0]) &&
        IsArmOf(f, block, f_succs[0]) && ArmConvertible(t) &&
        ArmConvertible(f) && t_succs[0]->preds.size() == 2) {
      return {block, t, f, t_succs[0]};
    }
    // Triangle: one arm forwards to the other target (the merge).
    if (t_succs.size() == 1 && t_succs[0] == f && IsArmOf(t, block, f) &&
        ArmConvertible(t) && f->preds.size() == 2) {
      return {block, t, nullptr, f};
    }
    if (f_succs.size() == 1 && f_succs[0] == t && IsArmOf(f, block, t) &&
        ArmConvertible(f) && t->preds.size() == 2) {
      return {block, nullptr, f, t};
    }
  }
  return {};
}

/// Hoist the arms into the head, turn the merge phis into selects in the
/// head, and make the head branch straight to the merge.  Preds lists are
/// left to the caller.  Returns the number of selects created.
std::size_t Convert(ir::Function& function, const Candidate& found) {
  ir::Instr* term = found.head->terminator();
  const Value cond = term->operands[0];
  // Hoist arm bodies into the head (speculative execution).
  for (ir::Block* arm : {found.taken, found.fallthrough}) {
    if (arm == nullptr) continue;
    ir::Instr* arm_term = arm->terminator();
    for (ir::Instr* instr : arm->instrs) {
      if (instr != arm_term) found.head->Append(instr);  // before the branch
    }
    arm->instrs.assign(1, arm_term);
  }

  // Rewrite merge phis as selects in the head.
  const ir::Block* taken_pred =
      found.taken != nullptr ? found.taken : found.head;
  const std::size_t taken_index = found.merge->PredIndex(taken_pred);
  const std::vector<ir::Instr*> phis = found.merge->Phis();
  std::vector<ir::Instr*> selects;
  selects.reserve(phis.size());
  for (ir::Instr* phi : phis) {
    Check(phi->operands.size() == 2, "if-convert: merge phi arity");
    ir::Instr* select = function.Create(Opcode::kSelect);
    select->operands = {cond, phi->operands[taken_index],
                        phi->operands[1 - taken_index]};
    select->width = phi->width;
    select->is_signed = phi->is_signed;
    select->src_pc = phi->src_pc;
    found.head->Append(select);
    selects.push_back(select);
  }
  auto& merge_instrs = found.merge->instrs;
  merge_instrs.erase(merge_instrs.begin(),
                     merge_instrs.begin() +
                         static_cast<std::ptrdiff_t>(phis.size()));
  // Point every use of a merge phi at its select.  No use lists exist, so
  // this is one walk over the operands; a merge has only a few phis.
  if (!phis.empty()) {
    for (const auto& block : function.blocks()) {
      for (ir::Instr* instr : block->instrs) {
        for (Value& operand : instr->operands) {
          if (!operand.is_instr()) continue;
          const auto it = std::find(phis.begin(), phis.end(), operand.def);
          if (it != phis.end()) {
            operand = Value::Of(selects[static_cast<std::size_t>(
                it - phis.begin())]);
          }
        }
      }
    }
  }

  // Head now branches straight to the merge.  Profile: the head's counts
  // flow through unchanged.
  term->op = Opcode::kBr;
  term->operands.clear();
  term->width = 0;
  term->target0 = found.merge;
  term->target1 = nullptr;
  return selects.size();
}

bool HasPhis(const ir::Block* block) {
  return !block->instrs.empty() && block->instrs.front()->op == Opcode::kPhi;
}

/// `block`'s unconditional successor when it can be spliced into `block`:
/// not `block` itself, not the entry, no phis, and `block` its only pred.
ir::Block* SpliceableSuccessor(const ir::Function& function,
                               const ir::Block* block) {
  if (!block->has_terminator()) return nullptr;
  const ir::Instr* term = block->terminator();
  if (term->op != Opcode::kBr) return nullptr;
  ir::Block* next = term->target0;
  if (next == block || next == function.entry()) return nullptr;
  if (next->preds.size() != 1 || HasPhis(next)) return nullptr;
  return next;
}

template <typename T>
std::vector<T> Permuted(const std::vector<T>& items,
                        const std::vector<std::size_t>& order) {
  Check(items.size() == order.size(), "if-convert: phi arity");
  std::vector<T> out;
  out.reserve(order.size());
  for (const std::size_t i : order) out.push_back(items[i]);
  return out;
}

/// Drop `block`'s branch, adopt `next`'s instructions, hand `next`'s
/// successors over to `block`, and erase `next`.  A successor's preds stay
/// in block order, the order RecomputeCfg rebuilds, and its phi operands
/// move with them: `block` may sit before another predecessor that `next`
/// came after, and a later RecomputeCfg would otherwise pair those phi
/// operands with the wrong predecessors.
void Splice(ir::Function& function, ir::Block* block, ir::Block* next) {
  block->instrs.pop_back();
  for (ir::Instr* instr : next->instrs) {
    instr->parent = block;
    block->instrs.push_back(instr);
  }
  next->instrs.clear();
  const auto by_position = [](const ir::Block* a, const ir::Block* b) {
    return a->id < b->id;  // ids are block positions, see ResumeIndex
  };
  for (ir::Block* succ : block->succs()) {
    auto& preds = succ->preds;
    std::replace(preds.begin(), preds.end(), next, block);
    if (std::is_sorted(preds.begin(), preds.end(), by_position)) continue;
    std::vector<std::size_t> order(preds.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return by_position(preds[a], preds[b]);
                     });
    preds = Permuted(preds, order);
    for (ir::Instr* phi : succ->Phis()) {
      phi->operands = Permuted(phi->operands, order);
    }
  }
  function.EraseBlock(next);
}

/// Straighten the CFG: splice single-pred blocks into their unconditional
/// single predecessor.  Converted diamonds then collapse into one block —
/// which is what makes the enclosing loop body pipelinable.  One sweep in
/// block order merges every chain; a second round runs only when blocks
/// were merged, after RemoveUnreachableBlocks, in case the input carried
/// unreachable predecessors whose removal leaves trivial phis.
void MergeStraightLineBlocks(ir::Function& function) {
  for (;;) {
    function.RecomputeCfg();
    EliminateTrivialPhis(function);  // single-pred phis become copies
    bool merged = false;
    const auto& blocks = function.blocks();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      ir::Block* block = blocks[i].get();
      while (ir::Block* next = SpliceableSuccessor(function, block)) {
        // Ids are still block positions (erasing keeps them increasing),
        // so this tells whether `block` moves down one slot.
        if (next->id < block->id) --i;
        Splice(function, block, next);
        merged = true;
      }
    }
    if (!merged) return;
    function.RemoveUnreachableBlocks();
  }
}

/// Index of the earliest block whose candidacy converting at `head` can
/// have changed: `head` itself (new body and terminator) or one of its
/// predecessors (which may now see `head` as an arm).  Block ids are the
/// positions RecomputeCfg assigned; erasing blocks keeps them increasing.
std::size_t ResumeIndex(const ir::Function& function, const ir::Block* head) {
  int first = head->id;
  for (const ir::Block* pred : head->preds) first = std::min(first, pred->id);
  const auto& blocks = function.blocks();
  const auto it = std::lower_bound(
      blocks.begin(), blocks.end(), first,
      [](const auto& block, int id) { return block->id < id; });
  return static_cast<std::size_t>(it - blocks.begin());
}

}  // namespace

IfConversionStats ConvertIfs(ir::Function& function) {
  IfConversionStats stats;
  function.RecomputeCfg();
  std::size_t from = 0;
  for (;;) {
    const Candidate found = FindCandidate(function, from);
    if (found.head == nullptr) break;
    const std::size_t selects = Convert(function, found);
    stats.selects_created += selects;
    ++stats.diamonds_converted;
    if (stats.diamonds_converted == 1) {
      // Earlier passes may have left unreachable blocks, trivial phis, dead
      // code and straight-line pairs anywhere: clean the whole function
      // once.  From here on it stays clean, conversion by conversion.
      function.RemoveUnreachableBlocks();
      EliminateTrivialPhis(function);
      function.RemoveDeadInstrs();
      MergeStraightLineBlocks(function);
      from = 0;
      continue;
    }
    for (const ir::Block* arm : {found.taken, found.fallthrough}) {
      if (arm != nullptr) function.EraseBlock(arm);
    }
    found.merge->preds.assign(1, found.head);
    // Without selects the branch condition may have lost its last use.
    // Dead code anywhere can shrink an arm, so rescan from the top then.
    const bool removed_dead = selects == 0 && function.RemoveDeadInstrs() > 0;
    while (ir::Block* next = SpliceableSuccessor(function, found.head)) {
      Splice(function, found.head, next);
    }
    from = removed_dead ? 0 : ResumeIndex(function, found.head);
  }
  // After a conversion the function is clean already; without one it still
  // gets the straight-line merge and DCE it always got.
  if (stats.diamonds_converted == 0) {
    MergeStraightLineBlocks(function);
    function.RemoveDeadInstrs();
  }
  function.RecomputeCfg();
  return stats;
}

}  // namespace b2h::decomp
