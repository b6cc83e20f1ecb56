// Request vocabulary, daemon lifecycle and report checks shared by the
// benchmark's workloads and its traced run.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/client.hpp"
#include "suite/suite.hpp"
#include "support/json_parse.hpp"

namespace perfbench {

/// The registered platforms every request covers.
inline const std::vector<std::string> kPlatforms = {"mips40",
                                                    "mips200-xc2v1000",
                                                    "mips400"};
/// The strategies of a full request; annealing is left out on purpose
/// (it never wins a point and is slated for removal).
inline const std::vector<std::string> kStrategies = {"paper-greedy",
                                                     "knapsack-optimal"};
inline const std::vector<std::string> kGreedyOnly = {"paper-greedy"};

/// One suite binary: a benchmark at one MiniC optimization level.
struct Key {
  const b2h::suite::Benchmark* bench = nullptr;
  int opt = 1;
  [[nodiscard]] std::string Name() const;  ///< "crc@O1"
};

/// Every suite benchmark at opt_level 0-3 (80 binaries), in suite order.
[[nodiscard]] std::vector<Key> SuiteKeys();

[[nodiscard]] std::string ExploreRequest(
    const Key& key, const std::vector<std::string>& strategies);
[[nodiscard]] std::string PartitionRequest(const Key& key,
                                           const std::string& platform,
                                           const std::string& strategy);
[[nodiscard]] std::string SimpleRequest(const char* kind);

/// The deterministic "report" slice of a success envelope ("" when the
/// envelope is not a success reply).  serve::OkResponse always emits
/// "report" then "served", adjacently.
[[nodiscard]] std::string ExtractReport(const std::string& response);

/// Deterministic splitmix64 stream: request order and warm key draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  std::size_t Below(std::size_t bound) {
    return static_cast<std::size_t>(Next() % bound);
  }

 private:
  std::uint64_t state_;
};

/// 0..n-1 shuffled by `rng` (Fisher-Yates).
[[nodiscard]] std::vector<std::size_t> Permutation(std::size_t n, Rng& rng);

/// Serving counters from the daemon's public `stats` request.
struct DaemonStats {
  double simulations = 0, decompilations = 0, partitions = 0;
  double coalesced = 0;
  double memory_hits = 0, disk_hits = 0, misses = 0;

  DaemonStats& operator+=(const DaemonStats& other) {
    simulations += other.simulations;
    decompilations += other.decompilations;
    partitions += other.partitions;
    coalesced += other.coalesced;
    memory_hits += other.memory_hits;
    disk_hits += other.disk_hits;
    misses += other.misses;
    return *this;
  }
  /// The counters' growth from `before` to `after`.
  friend DaemonStats operator-(DaemonStats after, const DaemonStats& before) {
    after.simulations -= before.simulations;
    after.decompilations -= before.decompilations;
    after.partitions -= before.partitions;
    after.coalesced -= before.coalesced;
    after.memory_hits -= before.memory_hits;
    after.disk_hits -= before.disk_hits;
    after.misses -= before.misses;
    return after;
  }
};

/// One b2h-serve process.  The destructor kills and reaps a daemon that
/// was not shut down cleanly, so no early return leaks a process.
///
/// `stats` and `shutdown` go out on a fresh connection each.  A request
/// sent on a connection that sat idle can land in the last millisecond of
/// the server's 100 ms idle-poll deadline; ReadExact (support/socket.cpp)
/// rounds the time left down to whole milliseconds, gives up after the
/// frame prefix, and the stream desynchronizes.  The workloads' request
/// streams never idle, so only the benchmark's own control calls would hit
/// it.
class Daemon {
 public:
  /// Fork/exec `server` on `socket` (relative paths resolve against the
  /// current directory).  Empty `cache_dir` = memory-only cache.
  [[nodiscard]] static std::unique_ptr<Daemon> Spawn(
      const std::string& server, const std::string& socket,
      const std::string& cache_dir, std::string* error);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Wait for the "listening" line, connect, and answer one ping.
  /// Returns the seconds from spawn to that first reply (< 0 on failure).
  double WaitReady(int timeout_ms, std::string* error);

  [[nodiscard]] b2h::serve::Client& control() { return control_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }
  [[nodiscard]] std::chrono::steady_clock::time_point spawned_at() const {
    return spawned_;
  }
  /// VmHWM of the daemon process in MB (0 when unreadable).
  [[nodiscard]] double PeakRssMb() const;
  [[nodiscard]] bool Stats(DaemonStats* out) const;
  /// `shutdown` request, then reap; false when it did not exit 0 in time.
  bool Shutdown(std::string* error);

 private:
  Daemon() = default;
  void Kill();
  [[nodiscard]] bool CallFresh(const char* kind, std::string* response) const;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string socket_;
  std::chrono::steady_clock::time_point spawned_;
  b2h::serve::Client control_;
};

/// Best-speedup quality of one successful (binary, opt, platform) point.
struct PointQuality {
  double best_speedup = 1.0;
  double energy_savings = 0.0;  ///< of the point giving best_speedup
};

/// The (platform, strategy) point of a parsed explore report, or null.
[[nodiscard]] const b2h::support::JsonValue* FindPoint(
    const b2h::support::JsonValue& report, const std::string& platform,
    const std::string& strategy);

/// Validate an explore report for `key` over kPlatforms x `strategies`:
/// grid shape, names, point errors exactly on expect_cdfg_failure
/// benchmarks, and knapsack-optimal >= paper-greedy on every platform.
/// Returns "" when valid, else what is wrong.  Appends one PointQuality
/// per successful platform to `quality` (may be null).
[[nodiscard]] std::string CheckExploreReport(
    const Key& key, const std::vector<std::string>& strategies,
    std::string_view report, std::vector<PointQuality>* quality);

/// The partition report for (key, platform, strategy) must carry the same
/// speedup/energy/area as the matching point of the explore report.
[[nodiscard]] std::string CheckPartitionReport(std::string_view partition,
                                               std::string_view explore,
                                               const std::string& platform,
                                               const std::string& strategy);

/// Native-oracle gate: build and simulate every key in-process and compare
/// the simulated return value with the suite's reference().  Returns the
/// mismatches (empty = all agree).
[[nodiscard]] std::vector<std::string> CheckOracle(
    const std::vector<Key>& keys);

/// Nearest-rank percentile (q in (0,1]); 0 for an empty sample.
[[nodiscard]] double Percentile(std::vector<double> values, double q);
[[nodiscard]] double Median(std::vector<double> values);

}  // namespace perfbench
