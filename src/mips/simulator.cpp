#include "mips/simulator.hpp"

#include <array>
#include <bit>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "obs/obs.hpp"
#include "support/bits.hpp"
#include "support/error.hpp"

namespace b2h::mips {

namespace {

/// Tracing for a whole simulated run: engine + throughput args attach when
/// the tracer is on; when off this is one relaxed atomic load per Run.
void FinishRunSpan(obs::ScopedSpan& span, ExecEngine engine,
                   const RunResult& result) {
  if (!span.armed()) return;
  const double ms = span.Millis();
  const char* name = engine == ExecEngine::kReference      ? "reference"
                     : engine == ExecEngine::kBlockSwitch  ? "block-switch"
                     : engine == ExecEngine::kTranslated   ? "translated"
                                                           : "block";
  span.Arg("engine", name)
      .Arg("instructions", result.instructions)
      .Arg("instr_per_sec",
           ms > 0.0 ? static_cast<double>(result.instructions) * 1e3 / ms
                    : 0.0);
}

}  // namespace

ExecEngine DefaultExecEngine() noexcept {
  static const ExecEngine engine = [] {
    const char* env = std::getenv("B2H_SIM_ENGINE");
    if (env == nullptr) return ExecEngine::kTranslated;
    const std::string_view choice(env);
    if (choice == "reference") return ExecEngine::kReference;
    if (choice == "block-switch") return ExecEngine::kBlockSwitch;
    if (choice == "block") return ExecEngine::kBlock;
    return ExecEngine::kTranslated;
  }();
  return engine;
}

Simulator::Simulator(const SoftBinary& binary, CycleModel model,
                     ExecEngine engine)
    : binary_(binary),
      model_(model),
      engine_(engine),
      pre_(SharedBlockCache::Global().Obtain(binary, model)),
      memory_(binary.data) {}

// ---------------------------------------------------------------------------
// Trace-compiled run loops.  The loop body lives in exec_block_body.inc and
// the op semantics in exec_ops.inc; each dispatcher below instantiates them
// with its own macro set.  The switch build is the portable baseline
// (ExecEngine::kBlockSwitch, and what kBlock degrades to without GNU
// `&&label`); the threaded build dispatches through a per-opcode label
// table, so the hot path is one indirect branch per instruction and the
// branch predictor sees one distinct jump site per opcode instead of a
// single shared dispatch branch.
// ---------------------------------------------------------------------------

template <bool kInstrumented>
RunResult Simulator::ExecBlockSwitch(std::span<const std::int32_t> args,
                                     std::uint64_t max_instructions,
                                     RunObserver* observer) {
#define B2H_DISPATCH_TABLE
#define B2H_DISPATCH_BEGIN                                            \
  for (;; ++m) {                                                      \
    if (m == block_end) goto trace_done;                              \
    switch (m->op) {
#define B2H_DISPATCH_END                                              \
    }                                                                 \
  }
#define B2H_OP(name) case Op::name: { B2H_DECLS
#define B2H_OP2(a, b) case Op::a: case Op::b: { B2H_DECLS
#define B2H_OP5(a, b, c, d, e)                                        \
  case Op::a: case Op::b: case Op::c: case Op::d: case Op::e: { B2H_DECLS
#define B2H_NEXT                                                      \
    if (m->dest != 0) regs[m->dest] = write_value;                    \
    break;                                                            \
  }
#include "mips/exec_block_body.inc"
#undef B2H_DISPATCH_TABLE
#undef B2H_DISPATCH_BEGIN
#undef B2H_DISPATCH_END
#undef B2H_OP
#undef B2H_OP2
#undef B2H_OP5
#undef B2H_NEXT
}

#if defined(__GNUC__) || defined(__clang__)

template <bool kInstrumented>
RunResult Simulator::ExecBlockThreaded(std::span<const std::int32_t> args,
                                       std::uint64_t max_instructions,
                                       RunObserver* observer) {
#define B2H_LABEL_ADDR(name) &&L_##name,
#define B2H_DISPATCH_TABLE                                            \
  static const void* const kDispatch[] = {                            \
      B2H_MIPS_OP_LIST(B2H_LABEL_ADDR) &&L_kInvalid,                  \
  };                                                                  \
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) == kOpCount, \
                "dispatch table must cover every Op");
#define B2H_DISPATCH_BEGIN                                            \
  if (m == block_end) goto trace_done;                                \
  goto* kDispatch[static_cast<std::size_t>(m->op)];
#define B2H_DISPATCH_END
#define B2H_OP(name) L_##name: { B2H_DECLS
#define B2H_OP2(a, b) L_##a: L_##b: { B2H_DECLS
#define B2H_OP5(a, b, c, d, e) L_##a: L_##b: L_##c: L_##d: L_##e: { B2H_DECLS
#define B2H_NEXT                                                      \
    if (m->dest != 0) regs[m->dest] = write_value;                    \
    if (++m == block_end) goto trace_done;                            \
    goto* kDispatch[static_cast<std::size_t>(m->op)];                 \
  }
#include "mips/exec_block_body.inc"
#undef B2H_LABEL_ADDR
#undef B2H_DISPATCH_TABLE
#undef B2H_DISPATCH_BEGIN
#undef B2H_DISPATCH_END
#undef B2H_OP
#undef B2H_OP2
#undef B2H_OP5
#undef B2H_NEXT
}

#else  // no computed goto: kBlock degrades to the switch dispatcher

template <bool kInstrumented>
RunResult Simulator::ExecBlockThreaded(std::span<const std::int32_t> args,
                                       std::uint64_t max_instructions,
                                       RunObserver* observer) {
  return ExecBlockSwitch<kInstrumented>(args, max_instructions, observer);
}

#endif  // computed goto

// ---------------------------------------------------------------------------
// Tiered loop (ExecEngine::kTranslated): the same run-loop body with
// B2H_TIER3 defined, which compiles in the tier-3 hooks — hot-dispatch
// counting / promotion, the translated-trace runner
// (mips/exec_translate_body.inc with the fused-op handlers in
// mips/exec_translate_ops.inc), and the indirect-successor observation
// feed on tier-2 jr/jalr exits.  The tier-2 portion uses the threaded
// dispatcher where available (the switch set elsewhere), and the tier-3
// runner mirrors that choice with its own label table over TOp.
// ---------------------------------------------------------------------------

#if defined(__GNUC__) || defined(__clang__)

template <bool kInstrumented>
RunResult Simulator::ExecTranslated(std::span<const std::int32_t> args,
                                    std::uint64_t max_instructions,
                                    RunObserver* observer) {
#define B2H_TIER3
// Tier 2 inside the tiered engine runs only *untranslated* traces — once
// the working set is promoted it is the cold warm-up path — so it uses the
// compact switch dispatcher here.  Keeping a second ~110-label computed-
// goto loop in the same function measurably degrades the register
// allocation of the tier-3 loop (the one that is actually hot).
#define B2H_DISPATCH_TABLE
#define B2H_DISPATCH_BEGIN                                            \
  for (;; ++m) {                                                      \
    if (m == block_end) goto trace_done;                              \
    switch (m->op) {
#define B2H_DISPATCH_END                                              \
    }                                                                 \
  }
#define B2H_OP(name) case Op::name: { B2H_DECLS
#define B2H_OP2(a, b) case Op::a: case Op::b: { B2H_DECLS
#define B2H_OP5(a, b, c, d, e)                                        \
  case Op::a: case Op::b: case Op::c: case Op::d: case Op::e: { B2H_DECLS
#define B2H_NEXT                                                      \
    if (m->dest != 0) regs[m->dest] = write_value;                    \
    break;                                                            \
  }
#define B2H_TLABEL_ADDR(name) &&T_##name,
#define B2H_TDISPATCH_TABLE                                           \
  static const void* const kTDispatch[] = {                           \
      B2H_TRANSLATE_OP_LIST(B2H_TLABEL_ADDR)                          \
  };                                                                  \
  static_assert(sizeof(kTDispatch) / sizeof(kTDispatch[0]) ==         \
                    translate::kTOpCount,                             \
                "translated dispatch table must cover every TOp");
#define B2H_TDISPATCH_BEGIN                                           \
  goto* kTDispatch[static_cast<std::size_t>(top->op)];
#define B2H_TDISPATCH_END
#define B2H_TOP(name) T_##name: { B2H_TDECLS
#define B2H_TNEXT                                                     \
    ++top;                                                            \
    goto* kTDispatch[static_cast<std::size_t>(top->op)];              \
  }
#define B2H_TSTOP }
#include "mips/exec_block_body.inc"
#undef B2H_DISPATCH_TABLE
#undef B2H_DISPATCH_BEGIN
#undef B2H_DISPATCH_END
#undef B2H_OP
#undef B2H_OP2
#undef B2H_OP5
#undef B2H_NEXT
#undef B2H_TLABEL_ADDR
#undef B2H_TDISPATCH_TABLE
#undef B2H_TDISPATCH_BEGIN
#undef B2H_TDISPATCH_END
#undef B2H_TOP
#undef B2H_TNEXT
#undef B2H_TSTOP
#undef B2H_TIER3
}

#else  // no computed goto: both tiers dispatch through switches

template <bool kInstrumented>
RunResult Simulator::ExecTranslated(std::span<const std::int32_t> args,
                                    std::uint64_t max_instructions,
                                    RunObserver* observer) {
#define B2H_TIER3
#define B2H_DISPATCH_TABLE
#define B2H_DISPATCH_BEGIN                                            \
  for (;; ++m) {                                                      \
    if (m == block_end) goto trace_done;                              \
    switch (m->op) {
#define B2H_DISPATCH_END                                              \
    }                                                                 \
  }
#define B2H_OP(name) case Op::name: { B2H_DECLS
#define B2H_OP2(a, b) case Op::a: case Op::b: { B2H_DECLS
#define B2H_OP5(a, b, c, d, e)                                        \
  case Op::a: case Op::b: case Op::c: case Op::d: case Op::e: { B2H_DECLS
#define B2H_NEXT                                                      \
    if (m->dest != 0) regs[m->dest] = write_value;                    \
    break;                                                            \
  }
#define B2H_TDISPATCH_TABLE
#define B2H_TDISPATCH_BEGIN                                           \
  t_dispatch:                                                         \
  switch (top->op) {
#define B2H_TDISPATCH_END }
#define B2H_TOP(name) case translate::TOp::name: { B2H_TDECLS
#define B2H_TNEXT                                                     \
    ++top;                                                            \
    goto t_dispatch;                                                  \
  }
#define B2H_TSTOP }
#include "mips/exec_block_body.inc"
#undef B2H_DISPATCH_TABLE
#undef B2H_DISPATCH_BEGIN
#undef B2H_DISPATCH_END
#undef B2H_OP
#undef B2H_OP2
#undef B2H_OP5
#undef B2H_NEXT
#undef B2H_TDISPATCH_TABLE
#undef B2H_TDISPATCH_BEGIN
#undef B2H_TDISPATCH_END
#undef B2H_TOP
#undef B2H_TNEXT
#undef B2H_TSTOP
#undef B2H_TIER3
}

#endif  // computed goto (tiered)

template <bool kInstrumented>
RunResult Simulator::ExecReference(std::span<const std::int32_t> args,
                                   std::uint64_t max_instructions,
                                   RunObserver* observer) {
  RunResult result = TakeRecycle();
  result.profile.instr_count.assign(binary_.text.size(), 0);
  result.profile.cycle_count.assign(binary_.text.size(), 0);
  result.profile.branch_taken.assign(binary_.text.size(), 0);
  result.profile.branch_not_taken.assign(binary_.text.size(), 0);

  const std::vector<Instr>& decoded = pre_->decoded;
  const std::vector<bool>& decode_ok = pre_->decode_ok;

  std::array<std::int32_t, 32> regs{};
  std::int32_t hi = 0;
  std::int32_t lo = 0;
  regs[kSp] = static_cast<std::int32_t>(support::GuestMemory::kInitialSp);
  regs[kRa] = static_cast<std::int32_t>(kHaltAddress);
  for (std::size_t i = 0; i < args.size() && i < 4; ++i) {
    regs[kA0 + i] = args[i];
  }

  std::uint32_t pc = binary_.entry;
  // Latch-event batch buffer (one observer call per kBranchBatch events or
  // per kFlushIntervalInstrs instructions, whichever comes first).
  [[maybe_unused]] std::array<BranchEvent, kBranchBatch> events;
  [[maybe_unused]] std::size_t event_count = 0;
  [[maybe_unused]] std::uint64_t next_flush_at = kFlushIntervalInstrs;
  const auto flush_events = [&] {
    if constexpr (kInstrumented) {
      if (event_count > 0) {
        result.profile.total_instructions = result.instructions;
        result.profile.total_cycles = result.cycles;
        observer->OnBackwardBranches({events.data(), event_count}, result);
        event_count = 0;
      }
      next_flush_at = result.instructions + kFlushIntervalInstrs;
    }
  };
  const auto fault = [&](const std::string& message) {
    flush_events();
    result.reason = HaltReason::kFault;
    std::ostringstream out;
    out << "fault at pc=0x" << std::hex << pc << ": " << message;
    result.fault_message = out.str();
    result.profile.total_instructions = result.instructions;
    result.profile.total_cycles = result.cycles;
    return result;
  };

  while (result.instructions < max_instructions) {
    if (pc == kHaltAddress) {
      flush_events();
      result.reason = HaltReason::kReturned;
      result.return_value = regs[kV0];
      result.profile.total_instructions = result.instructions;
      result.profile.total_cycles = result.cycles;
      return result;
    }
    if (!binary_.ContainsText(pc)) return fault("pc outside text segment");
    const std::size_t index = (pc - kTextBase) / 4u;
    if (!decode_ok[index]) return fault("undecodable instruction");
    const Instr& in = decoded[index];

    std::uint32_t next_pc = pc + 4;
    bool taken = false;
    const auto rs = static_cast<std::uint32_t>(regs[in.rs]);
    const auto rt = static_cast<std::uint32_t>(regs[in.rt]);
    const auto srs = regs[in.rs];
    const auto srt = regs[in.rt];
    std::int32_t write_value = 0;
    std::uint8_t write_reg = 0;  // 0 = no write ($zero is never written)

    switch (in.op) {
      case Op::kSll:  write_reg = in.rd; write_value = static_cast<std::int32_t>(rt << in.shamt); break;
      case Op::kSrl:  write_reg = in.rd; write_value = static_cast<std::int32_t>(rt >> in.shamt); break;
      case Op::kSra:  write_reg = in.rd; write_value = srt >> in.shamt; break;
      case Op::kSllv: write_reg = in.rd; write_value = static_cast<std::int32_t>(rt << (rs & 31u)); break;
      case Op::kSrlv: write_reg = in.rd; write_value = static_cast<std::int32_t>(rt >> (rs & 31u)); break;
      case Op::kSrav: write_reg = in.rd; write_value = srt >> (rs & 31u); break;
      case Op::kAdd: case Op::kAddu:
        write_reg = in.rd; write_value = static_cast<std::int32_t>(rs + rt); break;
      case Op::kSub: case Op::kSubu:
        write_reg = in.rd; write_value = static_cast<std::int32_t>(rs - rt); break;
      case Op::kAnd:  write_reg = in.rd; write_value = static_cast<std::int32_t>(rs & rt); break;
      case Op::kOr:   write_reg = in.rd; write_value = static_cast<std::int32_t>(rs | rt); break;
      case Op::kXor:  write_reg = in.rd; write_value = static_cast<std::int32_t>(rs ^ rt); break;
      case Op::kNor:  write_reg = in.rd; write_value = static_cast<std::int32_t>(~(rs | rt)); break;
      case Op::kSlt:  write_reg = in.rd; write_value = srs < srt ? 1 : 0; break;
      case Op::kSltu: write_reg = in.rd; write_value = rs < rt ? 1 : 0; break;
      case Op::kMfhi: write_reg = in.rd; write_value = hi; break;
      case Op::kMflo: write_reg = in.rd; write_value = lo; break;
      case Op::kMthi: hi = srs; break;
      case Op::kMtlo: lo = srs; break;
      case Op::kMult: {
        const std::int64_t product =
            static_cast<std::int64_t>(srs) * static_cast<std::int64_t>(srt);
        lo = static_cast<std::int32_t>(product & 0xFFFF'FFFF);
        hi = static_cast<std::int32_t>(product >> 32);
        break;
      }
      case Op::kMultu: {
        const std::uint64_t product =
            static_cast<std::uint64_t>(rs) * static_cast<std::uint64_t>(rt);
        lo = static_cast<std::int32_t>(product & 0xFFFF'FFFF);
        hi = static_cast<std::int32_t>(product >> 32);
        break;
      }
      case Op::kDiv:
        if (srt == 0) {
          lo = 0; hi = srs;
        } else if (srs == INT32_MIN && srt == -1) {
          lo = INT32_MIN; hi = 0;
        } else {
          lo = srs / srt; hi = srs % srt;
        }
        break;
      case Op::kDivu:
        if (rt == 0) {
          lo = 0; hi = srs;
        } else {
          lo = static_cast<std::int32_t>(rs / rt);
          hi = static_cast<std::int32_t>(rs % rt);
        }
        break;
      case Op::kAddi: case Op::kAddiu:
        write_reg = in.rt;
        write_value = static_cast<std::int32_t>(rs + static_cast<std::uint32_t>(in.imm));
        break;
      case Op::kSlti:  write_reg = in.rt; write_value = srs < in.imm ? 1 : 0; break;
      case Op::kSltiu:
        write_reg = in.rt;
        write_value = rs < static_cast<std::uint32_t>(in.imm) ? 1 : 0;
        break;
      case Op::kAndi: write_reg = in.rt; write_value = static_cast<std::int32_t>(rs & static_cast<std::uint32_t>(in.imm)); break;
      case Op::kOri:  write_reg = in.rt; write_value = static_cast<std::int32_t>(rs | static_cast<std::uint32_t>(in.imm)); break;
      case Op::kXori: write_reg = in.rt; write_value = static_cast<std::int32_t>(rs ^ static_cast<std::uint32_t>(in.imm)); break;
      case Op::kLui:  write_reg = in.rt; write_value = static_cast<std::int32_t>(static_cast<std::uint32_t>(in.imm) << 16); break;
      case Op::kLb: case Op::kLbu: case Op::kLh: case Op::kLhu: case Op::kLw: {
        const std::uint32_t addr = rs + static_cast<std::uint32_t>(in.imm);
        const unsigned size = in.op == Op::kLw ? 4 : (in.op == Op::kLh || in.op == Op::kLhu) ? 2 : 1;
        if ((addr & (size - 1)) != 0) return fault("unaligned load");
        std::uint32_t raw = 0;
        if (!(in.op == Op::kLw ? LoadTextOrData(addr, &raw)
                               : memory_.Load(addr, size, &raw))) {
          return fault("load outside memory");
        }
        write_reg = in.rt;
        switch (in.op) {
          case Op::kLb:  write_value = SignExtend(raw, 8); break;
          case Op::kLbu: write_value = static_cast<std::int32_t>(raw & 0xFFu); break;
          case Op::kLh:  write_value = SignExtend(raw, 16); break;
          case Op::kLhu: write_value = static_cast<std::int32_t>(raw & 0xFFFFu); break;
          default:       write_value = static_cast<std::int32_t>(raw); break;
        }
        break;
      }
      case Op::kSb: case Op::kSh: case Op::kSw: {
        const std::uint32_t addr = rs + static_cast<std::uint32_t>(in.imm);
        const unsigned size = in.op == Op::kSw ? 4 : in.op == Op::kSh ? 2 : 1;
        if ((addr & (size - 1)) != 0) return fault("unaligned store");
        if (!memory_.Store(addr, size, rt)) return fault("store outside memory");
        break;
      }
      case Op::kBeq:  taken = srs == srt; break;
      case Op::kBne:  taken = srs != srt; break;
      case Op::kBlez: taken = srs <= 0; break;
      case Op::kBgtz: taken = srs > 0; break;
      case Op::kBltz: taken = srs < 0; break;
      case Op::kBgez: taken = srs >= 0; break;
      case Op::kJ:    next_pc = JumpTarget(pc, in); break;
      case Op::kJal:
        write_reg = kRa;
        write_value = static_cast<std::int32_t>(pc + 4);
        next_pc = JumpTarget(pc, in);
        break;
      case Op::kJr:   next_pc = rs; break;
      case Op::kJalr:
        write_reg = in.rd;
        write_value = static_cast<std::int32_t>(pc + 4);
        next_pc = rs;
        break;
      case Op::kInvalid:
        return fault("invalid instruction");
    }

    if (IsBranch(in.op)) {
      if (taken) {
        next_pc = BranchTarget(pc, in);
        ++result.profile.branch_taken[index];
      } else {
        ++result.profile.branch_not_taken[index];
      }
    }
    if (write_reg != 0) regs[write_reg] = write_value;

    const std::uint64_t cycles = model_.CyclesFor(in.op, taken);
    ++result.profile.instr_count[index];
    result.profile.cycle_count[index] += cycles;
    ++result.instructions;
    result.cycles += cycles;
    if constexpr (kInstrumented) {
      // Loop-latch observation: a taken conditional branch or direct j to a
      // lower address.  jal/jr/jalr (calls and returns) never trigger.
      // `taken` is only ever set by conditional-branch opcodes, so it
      // subsumes the IsBranch() test — no out-of-line call on this path.
      if (next_pc < pc && (taken || in.op == Op::kJ)) [[unlikely]] {
        events[event_count++] = {next_pc, pc};
        if (event_count == kBranchBatch ||
            result.instructions >= next_flush_at) {
          flush_events();
        }
      }
    }
    pc = next_pc;
  }
  flush_events();
  result.reason = HaltReason::kMaxInstructions;
  result.fault_message = "instruction budget exhausted";
  result.profile.total_instructions = result.instructions;
  result.profile.total_cycles = result.cycles;
  return result;
}

RunResult Simulator::TakeRecycle() noexcept {
  RunResult result = std::move(recycle_);
  result.return_value = 0;
  result.instructions = 0;
  result.cycles = 0;
  result.reason = HaltReason::kFault;
  result.fault_message.clear();
  result.profile.total_instructions = 0;
  result.profile.total_cycles = 0;
  return result;
}

RunResult Simulator::Run(std::span<const std::int32_t> args,
                         std::uint64_t max_instructions, RunResult&& recycle) {
  recycle_ = std::move(recycle);
  return Run(args, max_instructions);
}

RunResult Simulator::Run(std::span<const std::int32_t> args,
                         std::uint64_t max_instructions) {
  obs::ScopedSpan span("sim.run", "sim");
  RunResult result;
  switch (engine_) {
    case ExecEngine::kReference:
      result = ExecReference<false>(args, max_instructions, nullptr);
      break;
    case ExecEngine::kBlockSwitch:
      result = ExecBlockSwitch<false>(args, max_instructions, nullptr);
      break;
    case ExecEngine::kBlock:
      result = ExecBlockThreaded<false>(args, max_instructions, nullptr);
      break;
    case ExecEngine::kTranslated:
      result = ExecTranslated<false>(args, max_instructions, nullptr);
      break;
  }
  FinishRunSpan(span, engine_, result);
  return result;
}

RunResult Simulator::RunInstrumented(std::span<const std::int32_t> args,
                                     std::uint64_t max_instructions,
                                     RunObserver* observer) {
  obs::ScopedSpan span("sim.run_instrumented", "sim");
  RunResult result;
  switch (engine_) {
    case ExecEngine::kReference:
      result = observer == nullptr
                   ? ExecReference<false>(args, max_instructions, nullptr)
                   : ExecReference<true>(args, max_instructions, observer);
      break;
    case ExecEngine::kBlockSwitch:
      result = observer == nullptr
                   ? ExecBlockSwitch<false>(args, max_instructions, nullptr)
                   : ExecBlockSwitch<true>(args, max_instructions, observer);
      break;
    case ExecEngine::kBlock:
      result =
          observer == nullptr
              ? ExecBlockThreaded<false>(args, max_instructions, nullptr)
              : ExecBlockThreaded<true>(args, max_instructions, observer);
      break;
    case ExecEngine::kTranslated:
      result = observer == nullptr
                   ? ExecTranslated<false>(args, max_instructions, nullptr)
                   : ExecTranslated<true>(args, max_instructions, observer);
      break;
  }
  FinishRunSpan(span, engine_, result);
  return result;
}

}  // namespace b2h::mips
