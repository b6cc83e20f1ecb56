#include "ledger.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "decomp/lifter.hpp"
#include "decomp/pass_manager.hpp"
#include "explore/artifact_cache.hpp"
#include "explore/disk_store.hpp"
#include "ir/verifier.hpp"
#include "mips/shared_cache.hpp"
#include "mips/simulator.hpp"
#include "partition/candidates.hpp"
#include "partition/platform_registry.hpp"
#include "partition/strategy.hpp"
#include "serve/protocol.hpp"
#include "suite/runner.hpp"
#include "support/json_parse.hpp"
#include "support/socket.hpp"
#include "toolchain/toolchain.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using b2h::support::JsonValue;

/// The daemon's simulation budget (Toolchain / ExplorerConfig default).
constexpr std::uint64_t kMaxSimInstructions = 200'000'000;
/// Repetitions of the microsecond-scale calls, per key.
constexpr int kMicroReps = 10;

std::string Format9(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.9g", value);
  return text;
}

struct Totals {
  double text_words = 0, instructions = 0, ir_instrs = 0, candidates = 0;
  double lifts = 0, cdfg_failures = 0, synth_attempts = 0, synth_failures = 0;
};

class Ledger {
 public:
  Ledger(const std::map<std::string, std::string>& reference,
         Recorder& recorder, LedgerResult& out)
      : reference_(reference), recorder_(recorder), out_(out) {
    auto manager = b2h::decomp::PassManager::FromSpec("default");
    if (!manager.ok()) throw std::runtime_error(manager.status().message());
    manager_ = std::move(manager).take();
    const auto platform = b2h::partition::PlatformRegistry::Global().Find(
        kPlatforms.front());
    if (!platform.has_value()) throw std::runtime_error("no default platform");
    // The registered platforms share one cycle model, so — like the
    // daemon — the ledger profiles and decompiles once per binary.
    model_ = platform->cpu.cycle_model;
    for (const std::string& name : kPlatforms) {
      const auto found = b2h::partition::PlatformRegistry::Global().Find(name);
      if (!found.has_value()) throw std::runtime_error("no platform " + name);
      platforms_.push_back(*found);
    }
    greedy_ = b2h::partition::MakePaperGreedyStrategy();
    knapsack_ = b2h::partition::MakeKnapsackStrategy();
  }

  /// One first-sight request for `key`, layer by layer.  Returns the built
  /// binary (for the warm path) or null when the build failed.
  std::shared_ptr<const b2h::mips::SoftBinary> ColdRequest(
      const Key& key, int pass, b2h::explore::DiskStore& store,
      bool count) {
    const std::string req = "p" + std::to_string(pass) + "/" + key.Name();
    ScopedSpan root(&recorder_, "bench.request", "bench", req);
    const std::uint64_t parent = root.id();
    const auto span = [&](const char* name, const char* layer) {
      return std::make_unique<ScopedSpan>(&recorder_, name, layer, req, parent);
    };

    auto s = span("minicc.compile", "minicc");
    auto built = b2h::suite::BuildBinary(*key.bench, key.opt);
    s->Close();
    if (!built.ok()) {
      Error(key, "build failed: " + built.status().message());
      return nullptr;
    }
    auto binary =
        std::make_shared<const b2h::mips::SoftBinary>(std::move(built).take());

    s = span("mips.construct", "mips");
    auto simulator = std::make_unique<b2h::mips::Simulator>(*binary, model_);
    s->Close();
    s = span("mips.profile", "mips");
    auto run = std::make_shared<b2h::mips::RunResult>(
        simulator->Run({}, kMaxSimInstructions));
    s->Close();

    s = span("decomp.lift", "decomp");
    b2h::decomp::LiftOptions lift_options;
    lift_options.profile = &run->profile;
    auto lifted = b2h::decomp::Lift(*binary, lift_options);
    s->Close();
    if (count) {
      totals_.text_words += static_cast<double>(binary->text.size());
      totals_.instructions += static_cast<double>(run->instructions);
      totals_.lifts += 1;
      totals_.cdfg_failures += lifted.ok() ? 0 : 1;
    }
    ++out_.checks;
    if (lifted.ok() == key.bench->expect_cdfg_failure) {
      Error(key, lifted.ok() ? "expected CDFG recovery failure did not occur"
                             : "unexpected CDFG failure: " +
                                   lifted.status().message());
    }

    const std::string base = HashKey(key, pass);
    b2h::explore::DecompileArtifact decompiled;
    decompiled.software_run = run;
    if (!lifted.ok()) {
      // A failed recovery is cached like any result: one decompile entry.
      decompiled.status = lifted.status();
      s = span("explore.encode", "explore");
      const std::string payload =
          b2h::explore::EncodeDecompileArtifact(decompiled);
      s->Close();
      s = span("explore.disk_store", "explore");
      store.Store(b2h::explore::kDecompileKind, base, payload);
      s->Close();
      s = span("explore.disk_load", "explore");
      const bool loaded =
          store.Load(b2h::explore::kDecompileKind, base).has_value();
      s->Close();
      if (!loaded) Error(key, "disk entry did not load back");
      return binary;
    }

    b2h::decomp::DecompiledProgram program;
    program.module = std::move(lifted).take();
    program.binary = binary;
    for (const auto& function : program.module.functions) {
      program.stats.lifted_instrs += function->NumInstrs();
    }
    s = span("decomp.passes", "decomp");
    manager_.RunOnModule(program.module, program.stats, program.pass_runs);
    s->Close();
    // PassManager::Run's own tail: final DCE, CFG recompute, verification.
    s = span("decomp.finish", "decomp");
    for (const auto& function : program.module.functions) {
      function->RemoveDeadInstrs();
      function->RecomputeCfg();
      program.stats.final_instrs += function->NumInstrs();
    }
    const b2h::Status verified = b2h::ir::Verify(program.module);
    s->Close();
    if (!verified.ok()) Error(key, "IR verification: " + verified.message());
    if (count) totals_.ir_instrs += static_cast<double>(program.stats.final_instrs);
    auto shared_program =
        std::make_shared<const b2h::decomp::DecompiledProgram>(
            std::move(program));
    decompiled.program = shared_program;

    s = span("partition.scan", "partition");
    auto set = std::make_shared<const b2h::partition::CandidateSet>(
        b2h::partition::CandidateSet::Scan(*shared_program, run->profile));
    s->Close();
    s = span("synth.synthesize", "synth");
    std::size_t synth_failures = 0;
    for (std::size_t id = 0; id < set->size(); ++id) {
      if (!set->Synthesize(id, options_.synth).ok()) ++synth_failures;
    }
    s->Close();
    if (count) {
      totals_.candidates += static_cast<double>(set->size());
      totals_.synth_attempts += static_cast<double>(set->size());
      totals_.synth_failures += static_cast<double>(synth_failures);
    }

    const std::optional<JsonValue> reference = ReferenceReport(key);
    std::vector<std::pair<std::string, std::string>> partitions;  // key, bytes
    b2h::partition::StrategyOptions strategy_options;
    strategy_options.candidates = set;
    for (std::size_t p = 0; p < platforms_.size(); ++p) {
      for (const std::string& strategy : kStrategies) {
        const bool greedy = strategy == "paper-greedy";
        s = span(greedy ? "partition.greedy" : "partition.knapsack",
                 "partition");
        auto result = (greedy ? greedy_ : knapsack_)
                          ->Partition(*shared_program, run->profile,
                                      platforms_[p], options_,
                                      strategy_options);
        s->Close();
        if (!result.ok()) {
          Error(key, strategy + " failed: " + result.status().message());
          continue;
        }
        b2h::explore::PartitionArtifact artifact;
        artifact.program = shared_program;
        artifact.software_run = run;
        artifact.partition = std::move(result).take();
        artifact.estimate = b2h::partition::EstimatePartition(
            artifact.partition, platforms_[p]);
        CompareWithDaemon(key, reference, kPlatforms[p], strategy,
                          artifact.estimate);
        s = span("explore.encode", "explore");
        partitions.emplace_back(base + "-" + std::to_string(p) + strategy,
                                b2h::explore::EncodePartitionArtifact(artifact));
        s->Close();
      }
    }

    s = span("explore.encode", "explore");
    const std::string payload =
        b2h::explore::EncodeDecompileArtifact(decompiled);
    s->Close();
    // A cold request writes its decompile entry and every partition entry.
    s = span("explore.disk_store", "explore");
    store.Store(b2h::explore::kDecompileKind, base, payload);
    for (const auto& [entry, bytes] : partitions) {
      store.Store(b2h::explore::kPartitionKind, entry, bytes);
    }
    s->Close();
    // A restart request reads the decompile entry and the greedy entries,
    // and probes the knapsack entries a greedy-seeded cache lacks.
    s = span("explore.disk_load", "explore");
    std::size_t loaded = store.Load(b2h::explore::kDecompileKind, base)
                             .has_value() ? 1 : 0;
    for (const auto& [entry, bytes] : partitions) {
      const bool greedy = entry.find("paper-greedy") != std::string::npos;
      const std::string probe = greedy ? entry : entry + "-absent";
      loaded += store.Load(b2h::explore::kPartitionKind, probe).has_value();
    }
    s->Close();
    if (loaded != 1 + kPlatforms.size()) {
      Error(key, "disk entries did not load back");
    }
    return binary;
  }

  [[nodiscard]] const Totals& totals() const { return totals_; }

  void Error(const Key& key, const std::string& what) {
    out_.errors.push_back("ledger " + key.Name() + ": " + what);
  }

 private:
  static std::string HashKey(const Key& key, int pass) {
    b2h::explore::ContentHasher hasher;
    hasher.Str("perfbench").Str(key.Name()).U64(static_cast<unsigned>(pass));
    return hasher.Hex();
  }

  std::optional<JsonValue> ReferenceReport(const Key& key) const {
    const auto it = reference_.find(key.Name());
    if (it == reference_.end()) return std::nullopt;
    return JsonValue::Parse(it->second);
  }

  void CompareWithDaemon(const Key& key,
                         const std::optional<JsonValue>& reference,
                         const std::string& platform,
                         const std::string& strategy,
                         const b2h::partition::AppEstimate& estimate) {
    ++out_.checks;
    const JsonValue* point =
        reference.has_value() ? FindPoint(*reference, platform, strategy)
                              : nullptr;
    if (point == nullptr) {
      Error(key, "no daemon report to check " + platform + "/" + strategy);
      return;
    }
    const double speedup = std::strtod(Format9(estimate.speedup).c_str(), nullptr);
    const double savings =
        std::strtod(Format9(estimate.energy_savings).c_str(), nullptr);
    if (speedup != point->GetNumber("speedup") ||
        savings != point->GetNumber("energy_savings")) {
      Error(key, "in-process " + platform + "/" + strategy +
                     " estimate differs from the daemon's report");
    }
  }

  const std::map<std::string, std::string>& reference_;
  Recorder& recorder_;
  LedgerResult& out_;
  b2h::decomp::PassManager manager_;
  b2h::mips::CycleModel model_;
  std::vector<b2h::partition::Platform> platforms_;
  b2h::partition::PartitionOptions options_;
  std::unique_ptr<b2h::partition::Strategy> greedy_;
  std::unique_ptr<b2h::partition::Strategy> knapsack_;
  Totals totals_;
};

b2h::explore::ExploreSpec WarmSpec(
    const Key& key, std::shared_ptr<const b2h::mips::SoftBinary> binary) {
  b2h::explore::ExploreSpec spec;
  spec.binaries = {{key.bench->name, std::move(binary)}};
  spec.platforms = kPlatforms;
  spec.strategies = kStrategies;
  spec.objectives = {b2h::partition::Objective::kSpeedup};
  spec.strategy_options.seed = 1;
  return spec;
}

}  // namespace

SelfTimes CollectSelfTimes(const Recorder& recorder) {
  const std::map<std::uint64_t, double> self = recorder.SelfMillis();
  SelfTimes out;
  for (const Span& span : recorder.Snapshot()) {
    out[span.name][span.req] += self.at(span.id);
  }
  return out;
}

double MedianPerRequest(const SelfTimes& self, const std::string& name) {
  const auto it = self.find(name);
  if (it == self.end()) return 0.0;
  std::vector<double> values;
  for (const auto& [req, ms] : it->second) values.push_back(ms);
  return Median(values);
}

void PrintSelfTimes(const SelfTimes& self) {
  std::printf("%-24s %9s %14s %16s\n", "span (layer.op)", "requests",
              "self total ms", "self/request ms");
  for (const auto& [name, per_request] : self) {
    double total = 0.0;
    for (const auto& [req, ms] : per_request) total += ms;
    std::printf("%-24s %9zu %14.3f %16.4f\n", name.c_str(),
                per_request.size(), total, MedianPerRequest(self, name));
  }
}

LedgerResult RunLedger(const std::vector<Key>& keys, int passes,
                       const std::map<std::string, std::string>& reference,
                       const std::string& scratch_dir, Recorder& recorder) {
  LedgerResult out;
  Ledger ledger(reference, recorder, out);

  // ---- cold path, layer by layer ------------------------------------------
  const b2h::mips::SharedBlockCache::Stats cache_before =
      b2h::mips::SharedBlockCache::Global().stats();
  std::vector<std::shared_ptr<const b2h::mips::SoftBinary>> binaries(
      keys.size());
  double disk_bytes = 0.0;
  for (int pass = 0; pass < passes; ++pass) {
    b2h::mips::SharedBlockCache::Global().Clear();
    const std::string dir = scratch_dir + "/p" + std::to_string(pass);
    fs::remove_all(dir);
    b2h::explore::DiskStore store({dir, 0});
    for (std::size_t k = 0; k < keys.size(); ++k) {
      binaries[k] = ledger.ColdRequest(keys[k], pass, store, pass == 0);
    }
    if (pass == 0) {
      disk_bytes = static_cast<double>(store.ComputeStats().entry_bytes);
    }
    fs::remove_all(dir);
  }
  const b2h::mips::SharedBlockCache::Stats cache_after =
      b2h::mips::SharedBlockCache::Global().stats();
  const double lookups = static_cast<double>(
      (cache_after.hits - cache_before.hits) +
      (cache_after.misses - cache_before.misses));

  // ---- warm path: in-process Toolchain::Explore + Json --------------------
  b2h::Toolchain toolchain;
  toolchain.WithThreads(1);
  std::vector<std::string> replies;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (binaries[k] == nullptr) continue;
    const std::string report =
        toolchain.Explore(WarmSpec(keys[k], binaries[k])).Json();
    ++out.checks;
    const auto it = reference.find(keys[k].Name());
    if (it == reference.end() || it->second != report) {
      ledger.Error(keys[k], "in-process explore report is not byte-identical "
                            "to the daemon's");
    }
    replies.push_back(
        b2h::serve::OkResponse("", report, "{\"coalesced\":false}", "c-1"));
  }
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (binaries[k] == nullptr) continue;
      const std::string req = "w" + std::to_string(rep) + "/" + keys[k].Name();
      ScopedSpan span(&recorder, "explore.warm_explore", "explore", req);
      const b2h::explore::ExploreResult result =
          toolchain.Explore(WarmSpec(keys[k], binaries[k]));
      const std::string json = result.Json();
      span.Close();
      ++out.checks;
      if (result.cache_misses != 0 || result.cache_disk_hits != 0) {
        ledger.Error(keys[k], "warm in-process explore missed the memory tier");
      }
    }
  }

  // ---- serve and support framing helpers ----------------------------------
  int pair[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  const std::uint32_t cap = b2h::support::kDefaultMaxFrameBytes;
  for (int rep = 0; rep < kMicroReps; ++rep) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const std::string req = "m" + std::to_string(rep) + "/" + keys[k].Name();
      const std::string request = ExploreRequest(keys[k], kStrategies);
      {
        ScopedSpan span(&recorder, "serve.parse", "serve", req);
        b2h::serve::ParseError error;
        const auto parsed = b2h::serve::ParseRequest(request, &error);
        const std::string key =
            parsed.has_value() ? b2h::serve::RequestKey(*parsed) : "";
        span.Close();
        if (key.empty()) ledger.Error(keys[k], "request did not parse");
      }
      if (replies.size() != keys.size()) break;
      const std::string& reply = replies[k];
      {
        ScopedSpan span(&recorder, "support.json_parse", "support", req);
        const bool ok = JsonValue::Parse(reply).has_value();
        span.Close();
        if (!ok) ledger.Error(keys[k], "reply did not parse");
      }
      std::string there;
      std::string back;
      ScopedSpan span(&recorder, "support.frame_rtt", "support", req);
      const bool ok = b2h::support::WriteFrame(pair[0], reply, cap) &&
                      b2h::support::ReadFrame(pair[1], &there, cap) ==
                          b2h::support::FrameStatus::kOk &&
                      b2h::support::WriteFrame(pair[1], there, cap) &&
                      b2h::support::ReadFrame(pair[0], &back, cap) ==
                          b2h::support::FrameStatus::kOk;
      span.Close();
      if (!ok || back != reply) ledger.Error(keys[k], "frame round trip lost data");
    }
  }
  ::close(pair[0]);
  ::close(pair[1]);

  // ---- fold spans and counts into metrics ---------------------------------
  const Totals& totals = ledger.totals();
  const SelfTimes self = CollectSelfTimes(recorder);
  const auto ms = [&](const char* name) { return MedianPerRequest(self, name); };
  auto& m = out.metrics;
  m["minicc.compile_ms"] = ms("minicc.compile");
  m["minicc.text_words"] = totals.text_words;
  m["mips.construct_ms"] = ms("mips.construct");
  m["mips.profile_ms"] = ms("mips.profile");
  m["mips.instructions"] = totals.instructions;
  m["mips.blockcache_hit_ratio"] =
      lookups > 0
          ? static_cast<double>(cache_after.hits - cache_before.hits) / lookups
          : 0.0;
  m["decomp.lift_ms"] = ms("decomp.lift");
  m["decomp.passes_ms"] = ms("decomp.passes");
  m["decomp.ir_instrs"] = totals.ir_instrs;
  m["decomp.cdfg_failures"] =
      totals.lifts > 0 ? totals.cdfg_failures / totals.lifts : 0.0;
  m["partition.scan_ms"] = ms("partition.scan");
  m["partition.candidates"] = totals.candidates;
  m["partition.greedy_ms"] = ms("partition.greedy");
  m["partition.knapsack_ms"] = ms("partition.knapsack");
  m["synth.synthesize_ms"] = ms("synth.synthesize");
  m["synth.failed_ratio"] = totals.synth_attempts > 0
                                ? totals.synth_failures / totals.synth_attempts
                                : 0.0;
  m["explore.disk_store_ms"] = ms("explore.disk_store");
  m["explore.disk_load_ms"] = ms("explore.disk_load");
  m["explore.disk_bytes"] = disk_bytes;
  m["explore.warm_explore_us"] = 1000.0 * ms("explore.warm_explore");
  m["serve.parse_us"] = 1000.0 * ms("serve.parse");
  m["support.json_parse_us"] = 1000.0 * ms("support.json_parse");
  m["support.frame_rtt_us"] = 1000.0 * ms("support.frame_rtt");
  return out;
}

}  // namespace perfbench
