// Functional MIPS simulator with an instruction-class cycle model and an
// always-on execution profiler.
//
// Two roles in the reproduction:
//   1. Software execution time: the paper compares synthesized kernels
//      against a MIPS running at 40/200/400 MHz; cycle counts from this
//      simulator divided by the clock give the software-only times.
//   2. Profiling: the three-step partitioner (paper §3) is driven by
//      profiling results; the profiler records per-instruction execution and
//      branch taken/not-taken counts that the decompiler maps onto CDFG
//      blocks and loops.
//
// A third role exists for *dynamic* partitioning (paper §6: the partitioner
// is fast enough to run on-chip while the application executes):
// RunInstrumented() adds a RunObserver hook that batches taken backward
// branches (the on-chip loop profiler's trigger event), through which a
// dynamic partitioner detects hot loop headers mid-run.  Everything else the
// dynamic flow needs — per-region cycle/entry accounting for swapped-in
// kernels — is derived from profile *snapshots* taken inside the callback,
// so the interpreter hot path carries no extra per-instruction work, and
// the plain Run() path compiles without even the hook check.
//
// Execution engines: the default interpreter is block-compiled — text is
// pre-decoded into multi-exit superblock traces (mips/block_cache.hpp,
// built once per process per (text, cycle model) by the SharedBlockCache)
// and executed trace-at-a-time with computed-goto threaded dispatch where
// the compiler supports it, with profile accounting kept as per-trace /
// per-side-exit counters that are expanded into the per-index ExecProfile
// vectors at observer flush points and at halt.  The original
// per-instruction interpreter is retained (ExecEngine::kReference) as a
// differential oracle; all engines produce bit-identical RunResults and
// observer event streams.  docs/ENGINE.md is the deep dive.
//
// Semantics notes (documented platform definition, see DESIGN.md §6):
//   - no branch delay slots;
//   - add/addi/sub do not trap on overflow (wrap like their -u forms);
//   - divide by zero yields quotient 0 and remainder = dividend;
//   - little-endian memory; unaligned word/half accesses are a fault.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mips/binary.hpp"
#include "mips/block_cache.hpp"
#include "mips/isa.hpp"
#include "mips/shared_cache.hpp"
#include "support/guest_memory.hpp"

namespace b2h::mips {

/// Execution counts indexed by text-word index ((pc - kTextBase) / 4).
struct ExecProfile {
  std::vector<std::uint64_t> instr_count;
  std::vector<std::uint64_t> cycle_count;
  std::vector<std::uint64_t> branch_taken;
  std::vector<std::uint64_t> branch_not_taken;
  std::uint64_t total_instructions = 0;
  std::uint64_t total_cycles = 0;

  [[nodiscard]] std::uint64_t CountAt(std::uint32_t pc) const {
    const std::size_t index = (pc - kTextBase) / 4u;
    return index < instr_count.size() ? instr_count[index] : 0u;
  }
};

/// Why a run ended.
enum class HaltReason { kReturned, kMaxInstructions, kFault };

struct RunResult {
  std::int32_t return_value = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  HaltReason reason = HaltReason::kFault;
  std::string fault_message;
  ExecProfile profile;
};

/// One taken backward control transfer (a loop latch): a conditional branch
/// or direct `j` whose target precedes it.  Function calls and returns are
/// never recorded.
struct BranchEvent {
  std::uint32_t target_pc = 0;  ///< loop header
  std::uint32_t from_pc = 0;    ///< latch instruction
};

/// Observation hook for RunInstrumented.  Latch events are collected into a
/// small on-simulator buffer and delivered in batches (one virtual call per
/// kBranchBatch events — the software analogue of draining an on-chip
/// branch FIFO, and what keeps the hook overhead on the interpreter hot
/// path small).  A partial batch is flushed before the run returns.
/// `so_far` is the run's cumulative state including every batched event;
/// the profile vectors are live, so an observer may snapshot them mid-run —
/// to decompile the code executed so far, and to re-price a region later as
/// the delta between its swap-time snapshot and the final profile.
class RunObserver {
 public:
  virtual ~RunObserver() = default;
  virtual void OnBackwardBranches(std::span<const BranchEvent> events,
                                  const RunResult& so_far) = 0;
};

/// Which interpreter Run()/RunInstrumented() use.  All produce bit-identical
/// RunResults (profiles included) and identical observer event streams; the
/// reference path is retained as the differential-testing oracle and as the
/// pre-block-engine baseline the throughput bench measures speedup against.
enum class ExecEngine {
  /// Block-compiled engine: multi-exit superblock traces from the
  /// process-wide SharedBlockCache, executed with computed-goto threaded
  /// dispatch (per-opcode label table) on compilers with GNU `&&label`
  /// support; identical to kBlockSwitch elsewhere.
  kBlock,
  /// The same trace engine with the portable switch dispatch loop forced —
  /// the threaded-dispatch baseline bench_simulator measures against, and
  /// the behavior kBlock compiles to without `&&label`.
  kBlockSwitch,
  /// Tiered engine (default): the block engine plus tier 3 — hot traces
  /// are promoted into fused host-op streams (mips/translate.hpp) that
  /// chain trace-to-trace through static successors and inline-cache-hit
  /// indirect jumps without returning to the dispatch loop.  Cold code
  /// runs exactly as kBlock.
  kTranslated,
  /// The original one-instruction-at-a-time interpreter.
  kReference,
};

/// The engine Simulator uses when the caller doesn't pick one: kTranslated,
/// overridable per process via
/// B2H_SIM_ENGINE=translated|block|block-switch|reference (read once; see
/// the "simulator throughput regression" runbook in docs/OPERATIONS.md —
/// pinning `reference` bisects engine bugs without rebuilding callers, and
/// `block` isolates tier-3 chaining regressions from the trace engine).
[[nodiscard]] ExecEngine DefaultExecEngine() noexcept;

class Simulator {
 public:
  explicit Simulator(const SoftBinary& binary, CycleModel model = {},
                     ExecEngine engine = DefaultExecEngine());

  /// Switch interpreters between runs (testing/benchmarking).
  void SetEngine(ExecEngine engine) noexcept { engine_ = engine; }
  [[nodiscard]] ExecEngine engine() const noexcept { return engine_; }

  /// The pre-decoded superblock cache backing the block engine (shared
  /// process-wide; see mips/shared_cache.hpp).
  [[nodiscard]] const BlockCache& blocks() const noexcept {
    return pre_->blocks;
  }

  /// Run from the entry point; `args` fill $a0..$a3.
  [[nodiscard]] RunResult Run(std::span<const std::int32_t> args = {},
                              std::uint64_t max_instructions = 100'000'000);

  /// Run() variant for tight run-after-run loops (benchmarks, explorers):
  /// move a no-longer-needed RunResult in and its heap storage — the four
  /// profile vectors and the fault string — is reused for the new run
  /// instead of freed and reallocated.  Results are identical to Run();
  /// only the allocator traffic differs, which is a measurable slice of
  /// short-run workloads (switch01 retires ~280 instructions per run).
  [[nodiscard]] RunResult Run(std::span<const std::int32_t> args,
                              std::uint64_t max_instructions,
                              RunResult&& recycle);

  /// Run with the dynamic-partitioning hook enabled: the observer (may be
  /// null) sees every taken backward branch, batched.  Semantically
  /// identical to Run() — same result, same profile — only the callbacks
  /// differ.
  [[nodiscard]] RunResult RunInstrumented(
      std::span<const std::int32_t> args, std::uint64_t max_instructions,
      RunObserver* observer);

  /// Direct memory access for tests and for host-side result inspection.
  [[nodiscard]] std::uint32_t PeekWord(std::uint32_t addr) const {
    return memory_.Peek(addr);
  }
  void PokeWord(std::uint32_t addr, std::uint32_t value) {
    memory_.Poke(addr, value);
  }

  /// Latch events buffered per observer callback (see RunObserver).
  static constexpr std::size_t kBranchBatch = 128;
  /// A partial batch is flushed once this many instructions have elapsed
  /// since the last flush (bounds detection latency on sparse-latch code;
  /// checked only when an event is recorded, so it costs nothing on the
  /// straight-line hot path).
  static constexpr std::uint64_t kFlushIntervalInstrs = 2048;

 private:
  /// Trace-compiled interpreter loops (kBlock / kBlockSwitch): execute one
  /// multi-exit superblock trace per iteration with trace-level accounting;
  /// a fault or an exhausted instruction budget mid-trace drops to
  /// per-instruction accounting for the partial trace so results stay
  /// bit-identical with the reference path.  Both share one loop body
  /// (mips/exec_block_body.inc, which in turn instantiates the op handlers
  /// in mips/exec_ops.inc), differing only in the dispatch macro set:
  /// Threaded is the computed-goto token-threaded dispatcher (GNU
  /// `&&label`; falls back to the switch body on other compilers), Switch
  /// is the portable switch loop.  Keeping the dispatcher inside the run
  /// loop — rather than a per-trace callee — matters: GCC cannot inline
  /// functions containing computed goto, and branchy code dispatches a
  /// trace every few instructions.  kInstrumented=false compiles the exact
  /// pre-hook hot path (no observer checks at all) for static flows.
  template <bool kInstrumented>
  [[nodiscard]] RunResult ExecBlockThreaded(std::span<const std::int32_t> args,
                                            std::uint64_t max_instructions,
                                            RunObserver* observer);
  template <bool kInstrumented>
  [[nodiscard]] RunResult ExecBlockSwitch(std::span<const std::int32_t> args,
                                          std::uint64_t max_instructions,
                                          RunObserver* observer);

  /// Tiered loop (ExecEngine::kTranslated): the threaded block engine with
  /// the tier-3 hooks compiled in (B2H_TIER3) — promotion counting, the
  /// translated-trace runner (mips/exec_translate_body.inc) and the
  /// indirect-successor observation feed.  Bit-identical to the others.
  template <bool kInstrumented>
  [[nodiscard]] RunResult ExecTranslated(std::span<const std::int32_t> args,
                                         std::uint64_t max_instructions,
                                         RunObserver* observer);

  /// Reference per-instruction interpreter loop (ExecEngine::kReference).
  template <bool kInstrumented>
  [[nodiscard]] RunResult ExecReference(std::span<const std::int32_t> args,
                                        std::uint64_t max_instructions,
                                        RunObserver* observer);

  /// The `lw` load shared by every engine: word loads from .text are
  /// allowed (jump tables / constant pools), anything else reads guest
  /// memory.  False when `addr` is in neither.  Alignment is the caller's.
  /// Forced inline like GuestMemory::Load, for the same reason.
  [[nodiscard, gnu::always_inline]] bool LoadTextOrData(
      std::uint32_t addr, std::uint32_t* raw) const noexcept {
    if (binary_.ContainsText(addr)) {
      *raw = binary_.text[(addr - kTextBase) / 4u];
      return true;
    }
    return memory_.Load(addr, 4, raw);
  }

  /// The engine bodies build their RunResult from this: whatever storage
  /// the recycling Run() overload parked in `recycle_` (empty otherwise),
  /// with every scalar field reset.  The vectors are re-assigned by the
  /// body itself, so a recycled and a fresh result are indistinguishable.
  [[nodiscard]] RunResult TakeRecycle() noexcept;

  /// Per-run tally storage reused across Run() calls by the block engines
  /// (exec_block_body.inc).  Steady-state runs do no heap work — and no
  /// zero-fill either: profile expansion drains every touched entry back
  /// to zero before each return, so `clean` lets the next run skip the
  /// assign() entirely.  For short-run workloads (switch01 is ~280
  /// instructions per run) both the per-run vector allocations and the
  /// per-run memsets were a measurable slice of the whole run.
  struct BlockScratch {
    std::vector<std::uint64_t> block_count;
    std::vector<std::uint64_t> side_count;
    std::vector<std::uint8_t> dirty;
    std::vector<std::uint32_t> touched;
    bool clean = false;
  };
  BlockScratch scratch_;
  /// Storage parked by the recycling Run() overload (see TakeRecycle).
  RunResult recycle_;

  const SoftBinary& binary_;
  CycleModel model_;
  ExecEngine engine_;
  /// Shared pre-decode: decoded text + decode-ok bitmap (reference engine)
  /// and the superblock trace tables (block engines).  One per process per
  /// (text, cycle model) — see SharedBlockCache.
  std::shared_ptr<const PredecodedProgram> pre_;
  support::GuestMemory memory_;
};

}  // namespace b2h::mips
