// The per-layer ledger of the traced run: the benchmark calls each layer's
// public functions itself, in the order a first-sight explore request runs
// them inside the daemon, and wraps every call in a span.
//
//   minicc    suite::BuildBinary
//   mips      Simulator constructor, Simulator::Run (the profiling run)
//   decomp    decomp::Lift, PassManager::RunOnModule
//   partition CandidateSet::Scan, Strategy::Partition (greedy, knapsack)
//   synth     CandidateSet::Synthesize over every candidate
//   explore   DiskStore::Store / DiskStore::Load of the request's entries,
//             warm Toolchain::Explore + ExploreResult::Json
//   serve     ParseRequest + RequestKey
//   support   JsonValue::Parse of a reply, WriteFrame/ReadFrame round trip
//
// Every result is checked against the daemon's own reports for the same
// key, so the ledger provably times the computation the daemon serves.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "daemon.hpp"
#include "spans.hpp"

namespace perfbench {

struct LedgerResult {
  std::map<std::string, double> metrics;  ///< per-layer metric -> value
  std::vector<std::string> errors;        ///< correctness violations
  std::size_t checks = 0;                 ///< comparisons made
};

/// Run the ledger over `keys` `passes` times (the simulator's pre-decode
/// cache is cleared before each pass, so every construction is first-sight).
/// `reference` maps Key::Name() to the daemon's cold explore report over
/// kStrategies; `scratch_dir` receives throwaway disk-store trees.
[[nodiscard]] LedgerResult RunLedger(
    const std::vector<Key>& keys, int passes,
    const std::map<std::string, std::string>& reference,
    const std::string& scratch_dir, Recorder& recorder);

/// Span name -> request id -> summed self time (ms) of that request's
/// spans of that name.
using SelfTimes = std::map<std::string, std::map<std::string, double>>;
[[nodiscard]] SelfTimes CollectSelfTimes(const Recorder& recorder);

/// Median over requests of one span name's per-request self time (ms).
[[nodiscard]] double MedianPerRequest(const SelfTimes& self,
                                      const std::string& name);

/// Human-readable self-time table: every span name with the number of
/// requests it ran in, its total self time and its median per request.
void PrintSelfTimes(const SelfTimes& self);

}  // namespace perfbench
