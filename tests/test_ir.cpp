// IR core tests: construction, CFG maintenance, dominators, loops,
// verifier diagnostics, printer, and the interpreter's edge semantics.
#include "ir/ir.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "decomp/passes.hpp"
#include "ir/dominators.hpp"
#include "ir/interp.hpp"
#include "ir/loops.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "support/guest_memory.hpp"

namespace b2h::ir {
namespace {

/// Build a diamond:  entry -> (left | right) -> merge(phi) -> ret.
struct Diamond {
  Function function{"diamond"};
  Block* entry;
  Block* left;
  Block* right;
  Block* merge;
  Instr* input;
  Instr* phi;

  Diamond() {
    entry = function.CreateBlock("entry", 0x100);
    left = function.CreateBlock("left", 0x110);
    right = function.CreateBlock("right", 0x120);
    merge = function.CreateBlock("merge", 0x130);

    input = function.Create(Opcode::kInput);
    input->input_index = 4;
    entry->Append(input);
    Instr* cmp = function.Emit(entry, Opcode::kGtS,
                               {Value::Of(input), Value::Const(0)});
    Instr* br = function.Create(Opcode::kCondBr);
    br->operands = {Value::Of(cmp)};
    br->target0 = left;
    br->target1 = right;
    entry->Append(br);

    Instr* doubled = function.Emit(left, Opcode::kAdd,
                                   {Value::Of(input), Value::Of(input)});
    Instr* br_left = function.Create(Opcode::kBr);
    br_left->target0 = merge;
    left->Append(br_left);

    Instr* negated = function.Emit(right, Opcode::kSub,
                                   {Value::Const(0), Value::Of(input)});
    Instr* br_right = function.Create(Opcode::kBr);
    br_right->target0 = merge;
    right->Append(br_right);

    function.RecomputeCfg();
    phi = function.Create(Opcode::kPhi);
    // Operand order must match merge->preds.
    std::vector<Value> phi_operands;
    for (Block* pred : merge->preds) {
      phi_operands.push_back(pred == left ? Value::Of(doubled)
                                          : Value::Of(negated));
    }
    phi->operands = phi_operands;
    merge->PrependPhi(phi);
    Instr* ret = function.Create(Opcode::kRet);
    ret->operands = {Value::Of(phi)};
    merge->Append(ret);
    function.RecomputeCfg();
  }
};

TEST(IrCore, DiamondIsWellFormed) {
  Diamond d;
  const Status status = Verify(d.function);
  EXPECT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(d.merge->preds.size(), 2u);
  EXPECT_EQ(d.entry->succs().size(), 2u);
  EXPECT_EQ(d.function.NumInstrs(), 9u);
}

TEST(IrCore, PrinterShowsStructure) {
  Diamond d;
  const std::string text = Print(d.function);
  EXPECT_NE(text.find("func diamond"), std::string::npos);
  EXPECT_NE(text.find("phi"), std::string::npos);
  EXPECT_NE(text.find("condbr"), std::string::npos);
  EXPECT_NE(text.find("input r4"), std::string::npos);
}

TEST(IrCore, RemoveDeadInstrs) {
  Diamond d;
  // Add an unused computation chain.
  Instr* dead1 = d.function.Emit(d.entry, Opcode::kAdd,
                                 {Value::Of(d.input), Value::Const(7)});
  d.function.Emit(d.entry, Opcode::kMul,
                  {Value::Of(dead1), Value::Const(3)});
  d.function.RecomputeCfg();
  const std::size_t removed = d.function.RemoveDeadInstrs();
  EXPECT_EQ(removed, 2u);
  EXPECT_TRUE(Verify(d.function).ok());
}

TEST(IrCore, ReplaceAllUsesFollowsChains) {
  Diamond d;
  // input -> const 9, and anything using the phi -> const 1 (chained maps).
  SlotTable<Value> map(d.function);
  map[d.input] = Value::Const(9);
  d.function.ReplaceAllUses(map);
  bool any_input_use = false;
  for (const auto& block : d.function.blocks()) {
    for (const Instr* instr : block->instrs) {
      for (const Value& operand : instr->operands) {
        if (operand.is_instr() && operand.def == d.input) {
          any_input_use = true;
        }
      }
    }
  }
  EXPECT_FALSE(any_input_use);

  // A two-hop chain: phi -> left arm's add -> const 7.
  Diamond chained;
  Instr* doubled = chained.left->instrs.front();
  ASSERT_EQ(doubled->op, Opcode::kAdd);
  SlotTable<Value> chain(chained.function);
  chain[chained.phi] = Value::Of(doubled);
  chain[doubled] = Value::Const(7);
  chained.function.ReplaceAllUses(chain);
  EXPECT_EQ(chained.merge->terminator()->operand(0), Value::Const(7));
  for (const Value& operand : chained.phi->operands) {
    EXPECT_FALSE(operand.is_instr() && operand.def == doubled);
  }
}

TEST(IrCore, ReplaceAllUsesRejectsCycles) {
  Diamond d;
  Instr* doubled = d.left->instrs.front();
  Instr* negated = d.right->instrs.front();
  SlotTable<Value> map(d.function);
  map[doubled] = Value::Of(negated);
  map[negated] = Value::Of(doubled);
  EXPECT_THROW(d.function.ReplaceAllUses(map), InternalError);
}

TEST(IrSlots, CreateHandsOutDenseSlots) {
  Function function("slots");
  std::vector<Instr*> created;
  for (int i = 0; i < 5; ++i) created.push_back(function.Create(Opcode::kUndef));
  ASSERT_EQ(function.NumSlots(), 5u);
  for (std::size_t i = 0; i < created.size(); ++i) {
    EXPECT_EQ(created[i]->slot, i);
    EXPECT_TRUE(function.Owns(created[i]));
  }
  SlotTable<int> table(function, -1);
  EXPECT_EQ(table.size(), 5u);
  table[created[3]] = 3;
  EXPECT_EQ(table[created[3]], 3);
  EXPECT_EQ(table[created[0]], -1);
  // Instructions created after the table are outside it.
  Instr* late = function.Create(Opcode::kUndef);
  EXPECT_EQ(late->slot, 5u);
  EXPECT_FALSE(table.Covers(late));
  EXPECT_EQ(table.Get(late), -1);
  EXPECT_THROW(table[late] = 1, InternalError);
}

/// Slot of every instruction the function's blocks hold.
std::vector<std::pair<const Instr*, std::uint32_t>> HeldSlots(
    const Function& function) {
  std::vector<std::pair<const Instr*, std::uint32_t>> out;
  for (const auto& block : function.blocks()) {
    for (const Instr* instr : block->instrs) out.emplace_back(instr, instr->slot);
  }
  return out;
}

void ExpectSlotsKept(
    const Function& function, std::size_t num_slots,
    const std::vector<std::pair<const Instr*, std::uint32_t>>& before) {
  EXPECT_EQ(function.NumSlots(), num_slots);
  for (const auto& [instr, slot] : HeldSlots(function)) {
    const auto it = std::find_if(before.begin(), before.end(),
                                 [&](const auto& e) { return e.first == instr; });
    ASSERT_NE(it, before.end());
    EXPECT_EQ(slot, it->second);
  }
}

TEST(IrSlots, CfgEditsNeverRenumberSlots) {
  Diamond d;
  Instr* dead = d.function.Emit(d.entry, Opcode::kAdd,
                                {Value::Of(d.input), Value::Const(7)});
  Block* orphan = d.function.CreateBlock("orphan", 0x140);
  Instr* orphan_ret = d.function.Create(Opcode::kRet);
  orphan->Append(orphan_ret);
  const std::size_t num_slots = d.function.NumSlots();
  const auto before = HeldSlots(d.function);

  d.function.RecomputeCfg();
  ExpectSlotsKept(d.function, num_slots, before);
  const int phi_id = d.phi->id;

  EXPECT_EQ(d.function.RemoveDeadInstrs(), 1u);
  d.function.RecomputeCfg();
  ExpectSlotsKept(d.function, num_slots, before);
  EXPECT_EQ(dead->slot, 9u);  // the diamond holds slots 0..8
  // ids are block-order positions and move; slots do not.
  EXPECT_EQ(d.phi->id, phi_id - 1);

  d.function.EraseBlock(orphan);
  ExpectSlotsKept(d.function, num_slots, before);

  Instr* term = d.entry->terminator();
  term->op = Opcode::kBr;
  term->operands.clear();
  term->target0 = d.left;
  term->target1 = nullptr;
  term->width = 0;
  d.function.RemoveUnreachableBlocks();
  ExpectSlotsKept(d.function, num_slots, before);
  EXPECT_TRUE(Verify(d.function).ok());
}

TEST(IrSlots, ReleaseDeadInstrsKeepsSlotsAndHeldInstrs) {
  Diamond d;
  Instr* dead = d.function.Emit(d.entry, Opcode::kAdd,
                                {Value::Of(d.input), Value::Const(7)});
  d.function.RecomputeCfg();
  ASSERT_EQ(d.function.RemoveDeadInstrs(), 1u);
  const std::size_t num_slots = d.function.NumSlots();
  const auto before = HeldSlots(d.function);
  EXPECT_TRUE(d.function.Owns(dead));
  EXPECT_EQ(d.function.ReleaseDeadInstrs(), 1u);
  EXPECT_EQ(d.function.ReleaseDeadInstrs(), 0u);
  ExpectSlotsKept(d.function, num_slots, before);
  EXPECT_TRUE(Verify(d.function).ok());
  // A later Create still appends a fresh slot.
  EXPECT_EQ(d.function.Create(Opcode::kUndef)->slot, num_slots);
}

TEST(IrSlots, InlinedClonesGetFreshCallerSlots) {
  // callee(a0) = a0 + 5; main() = callee(3).
  Module module;
  auto callee = std::make_unique<Function>("add5", 0x200);
  Block* cb = callee->CreateBlock("entry", 0x200);
  Instr* arg = callee->Create(Opcode::kInput);
  arg->input_index = 4;
  cb->Append(arg);
  Instr* sum = callee->Emit(cb, Opcode::kAdd, {Value::Of(arg), Value::Const(5)});
  Instr* cret = callee->Create(Opcode::kRet);
  cret->operands = {Value::Of(sum)};
  cb->Append(cret);
  callee->RecomputeCfg();

  auto caller = std::make_unique<Function>("main", 0x100);
  Block* entry = caller->CreateBlock("entry", 0x100);
  Instr* call = caller->Create(Opcode::kCall);
  call->call_target = 0x200;
  call->operands = {Value::Const(3), Value::Const(0), Value::Const(0),
                    Value::Const(0), Value::Const(0)};
  entry->Append(call);
  Instr* ret = caller->Create(Opcode::kRet);
  ret->operands = {Value::Of(call)};
  entry->Append(ret);
  caller->RecomputeCfg();
  const std::size_t caller_slots = caller->NumSlots();

  Function* main_fn = caller.get();
  module.main = main_fn;
  module.functions.push_back(std::move(caller));
  module.functions.push_back(std::move(callee));
  ASSERT_EQ(decomp::InlineSmallFunctions(module).calls_inlined, 1u);

  EXPECT_GT(main_fn->NumSlots(), caller_slots);
  std::vector<std::uint32_t> seen;
  bool found_clone = false;
  for (const auto& block : main_fn->blocks()) {
    for (const Instr* instr : block->instrs) {
      EXPECT_TRUE(main_fn->Owns(instr));
      EXPECT_EQ(std::count(seen.begin(), seen.end(), instr->slot), 0);
      seen.push_back(instr->slot);
      if (instr->op == Opcode::kAdd) {
        found_clone = true;
        EXPECT_GE(instr->slot, caller_slots);
      }
    }
  }
  EXPECT_TRUE(found_clone);
  EXPECT_TRUE(Verify(*main_fn).ok()) << Verify(*main_fn).message();
}

TEST(Verifier, CatchesForeignInstruction) {
  Diamond d;
  Function other("other");
  Instr* foreign = other.Create(Opcode::kUndef);
  d.entry->instrs.insert(d.entry->instrs.begin(), foreign);
  foreign->parent = d.entry;
  const Status status = Verify(d.function);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not owned"), std::string::npos);
}

TEST(IrCore, RemoveUnreachableBlocksFixesPhis) {
  Diamond d;
  // Make the branch unconditional to the left: right becomes unreachable.
  Instr* term = d.entry->terminator();
  term->op = Opcode::kBr;
  term->operands.clear();
  term->target0 = d.left;
  term->target1 = nullptr;
  term->width = 0;
  d.function.RemoveUnreachableBlocks();
  EXPECT_TRUE(Verify(d.function).ok());
  EXPECT_EQ(d.function.blocks().size(), 3u);
  EXPECT_EQ(d.phi->operands.size(), 1u);
}

TEST(Dominators, DiamondRelations) {
  Diamond d;
  const DominatorTree dom(d.function);
  EXPECT_TRUE(dom.Dominates(d.entry, d.merge));
  EXPECT_TRUE(dom.Dominates(d.entry, d.left));
  EXPECT_FALSE(dom.Dominates(d.left, d.merge));
  EXPECT_FALSE(dom.Dominates(d.merge, d.left));
  EXPECT_TRUE(dom.Dominates(d.merge, d.merge));
  EXPECT_TRUE(dom.StrictlyDominates(d.entry, d.merge));
  EXPECT_FALSE(dom.StrictlyDominates(d.merge, d.merge));
  EXPECT_EQ(dom.Idom(d.merge), d.entry);
  EXPECT_EQ(dom.Idom(d.left), d.entry);
  EXPECT_EQ(dom.Idom(d.entry), nullptr);
}

TEST(Dominators, FrontierOfDiamondArms) {
  Diamond d;
  const DominatorTree dom(d.function);
  const auto& left_frontier = dom.Frontier(d.left);
  ASSERT_EQ(left_frontier.size(), 1u);
  EXPECT_EQ(left_frontier[0], d.merge);
  EXPECT_TRUE(dom.Frontier(d.entry).empty());
}

/// Self-loop function: entry -> loop (self edge) -> exit.
struct LoopFunction {
  Function function{"looper"};
  Block* entry;
  Block* loop;
  Block* exit;
  Instr* phi = nullptr;

  LoopFunction() {
    entry = function.CreateBlock("entry", 0x200);
    loop = function.CreateBlock("loop", 0x210);
    exit = function.CreateBlock("exit", 0x220);

    Instr* enter = function.Create(Opcode::kBr);
    enter->target0 = loop;
    entry->Append(enter);

    phi = function.Create(Opcode::kPhi);
    loop->PrependPhi(phi);
    Instr* next = function.Emit(loop, Opcode::kAdd,
                                {Value::Of(phi), Value::Const(1)});
    Instr* cmp = function.Emit(loop, Opcode::kLtS,
                               {Value::Of(next), Value::Const(10)});
    Instr* br = function.Create(Opcode::kCondBr);
    br->operands = {Value::Of(cmp)};
    br->target0 = loop;
    br->target1 = exit;
    loop->Append(br);

    Instr* ret = function.Create(Opcode::kRet);
    ret->operands = {Value::Of(next)};
    exit->Append(ret);

    function.RecomputeCfg();
    // Phi operands in preds order: [entry -> 0, loop -> next].
    std::vector<Value> operands;
    for (Block* pred : loop->preds) {
      operands.push_back(pred == entry ? Value::Const(0) : Value::Of(next));
    }
    phi->operands = operands;
    function.RecomputeCfg();
  }
};

TEST(Loops, DiscoversSelfLoop) {
  LoopFunction lf;
  ASSERT_TRUE(Verify(lf.function).ok());
  const DominatorTree dom(lf.function);
  LoopForest forest(lf.function, dom);
  ASSERT_EQ(forest.loops().size(), 1u);
  const Loop* loop = forest.loops().front().get();
  EXPECT_EQ(loop->header, lf.loop);
  EXPECT_EQ(loop->blocks.size(), 1u);
  EXPECT_TRUE(loop->IsInnermost());
  EXPECT_EQ(loop->depth, 1);
  ASSERT_EQ(loop->exit_blocks.size(), 1u);
  EXPECT_EQ(loop->exit_blocks[0], lf.exit);
  EXPECT_EQ(forest.LoopFor(lf.loop), loop);
  EXPECT_EQ(forest.LoopFor(lf.entry), nullptr);
}

TEST(Loops, ProfileTripCount) {
  LoopFunction lf;
  lf.loop->exec_count = 10;
  lf.loop->taken_count = 9;       // back edges
  lf.loop->not_taken_count = 1;   // exit
  const DominatorTree dom(lf.function);
  LoopForest forest(lf.function, dom);
  forest.AnnotateProfile();
  const Loop* loop = forest.loops().front().get();
  EXPECT_EQ(loop->header_count, 10u);
  EXPECT_EQ(loop->entry_count, 1u);
  EXPECT_DOUBLE_EQ(loop->AverageTripCount(), 10.0);
}

TEST(Verifier, CatchesMissingTerminator) {
  Function function("broken");
  function.CreateBlock("entry", 0);
  const Status status = Verify(function);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesPhiArityMismatch) {
  LoopFunction lf;
  lf.phi->operands.pop_back();
  EXPECT_FALSE(Verify(lf.function).ok());
}

TEST(Verifier, CatchesUseBeforeDef) {
  Function function("order");
  Block* entry = function.CreateBlock("entry", 0);
  Instr* use = function.Create(Opcode::kAdd);
  Instr* def = function.Create(Opcode::kConst);
  def->imm = 1;
  use->operands = {Value::Of(def), Value::Const(1)};
  entry->Append(use);
  entry->Append(def);
  Instr* ret = function.Create(Opcode::kRet);
  entry->Append(ret);
  function.RecomputeCfg();
  const Status status = Verify(function);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("use before def"), std::string::npos);
}

TEST(Verifier, CatchesStalePreds) {
  Diamond d;
  d.merge->preds.pop_back();
  EXPECT_FALSE(Verify(d.function).ok());
}

TEST(Interp, ExecutesDiamond) {
  Diamond d;
  // The module's `main` may reference an externally-owned function when the
  // program makes no calls (FindByEntry is never consulted).
  Module module;
  module.main = &d.function;
  std::vector<std::uint8_t> no_data;
  Interpreter positive(module, no_data);
  EXPECT_EQ(positive.Run(std::vector<std::int32_t>{21}).return_value, 42);
  Interpreter negative(module, no_data);
  EXPECT_EQ(negative.Run(std::vector<std::int32_t>{-7}).return_value, 7);
}

TEST(Interp, LoopRunsToBound) {
  LoopFunction lf;
  Module module;
  module.main = &lf.function;
  std::vector<std::uint8_t> no_data;
  Interpreter interp(module, no_data);
  const auto result = interp.Run();
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.return_value, 10);
}

TEST(Interp, StepBudgetStopsRunaways) {
  LoopFunction lf;
  // Make the loop infinite: compare against an unreachable bound.
  for (Instr* instr : lf.loop->instrs) {
    if (instr->op == Opcode::kLtS) instr->operands[1] = Value::Const(1 << 30);
  }
  Module module;
  module.main = &lf.function;
  InterpOptions options;
  options.max_steps = 1000;
  std::vector<std::uint8_t> no_data;
  Interpreter interp(module, no_data, options);
  const auto result = interp.Run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("budget"), std::string::npos);
}

/// main() { return *(u32*)address; } (or a store there when `store`).
struct AccessFunction {
  Function function{"access"};

  AccessFunction(std::uint32_t address, bool store) {
    Block* entry = function.CreateBlock("entry", 0x100);
    const Value where = Value::Const(static_cast<std::int32_t>(address));
    Instr* ret = function.Create(Opcode::kRet);
    if (store) {
      Instr* write = function.Create(Opcode::kStore);
      write->operands = {where, Value::Const(7)};
      entry->Append(write);
      ret->operands = {Value::Const(0)};
    } else {
      ret->operands = {Value::Of(function.Emit(entry, Opcode::kLoad, {where}))};
    }
    entry->Append(ret);
    function.RecomputeCfg();
  }
};

TEST(Interp, AccessesPastTheTopOfTheAddressSpaceFaultCleanly) {
  // addr + 4 wraps to 0 for these addresses: a 32-bit end check passes
  // them and indexes gigabytes past the data segment.
  for (const std::uint32_t address : {0xFFFF'FFFCu, 0xFFFF'FFF0u}) {
    for (const bool store : {false, true}) {
      AccessFunction access(address, store);
      Module module;
      module.main = &access.function;
      Interpreter interp(module, std::vector<std::uint8_t>{});
      const InterpResult result = interp.Run();
      EXPECT_FALSE(result.ok) << std::hex << address;
      EXPECT_NE(result.error.find(store ? "bad store" : "bad load"),
                std::string::npos)
          << result.error;
      EXPECT_THROW((void)interp.PeekWord(address), InternalError);
    }
  }
}

TEST(Interp, SegmentEdgesAreEndExclusive) {
  using support::GuestMemory;
  const std::uint32_t data_end =
      GuestMemory::kDataBase + GuestMemory::kDataSize;
  struct Probe {
    std::uint32_t address;
    bool ok;
  };
  for (const Probe probe : {Probe{data_end - 4, true}, Probe{data_end, false},
                            Probe{GuestMemory::kDataBase - 4, false},
                            Probe{GuestMemory::kStackBase, true},
                            Probe{GuestMemory::kStackTop - 4, true},
                            Probe{GuestMemory::kStackTop, false}}) {
    AccessFunction access(probe.address, /*store=*/false);
    Module module;
    module.main = &access.function;
    Interpreter interp(module, std::vector<std::uint8_t>{});
    EXPECT_EQ(interp.Run().ok, probe.ok) << std::hex << probe.address;
  }
}

}  // namespace
}  // namespace b2h::ir
