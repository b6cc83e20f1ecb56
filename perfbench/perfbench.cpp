// perfbench — end-to-end request benchmark for b2h-serve.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --server PATH --work-dir DIR [--inject-wrong-report K]
//
// Spawns b2h-serve daemons and drives one workload over the framed
// unix-socket protocol (see README.md for the three workloads).  Every
// reply is checked; the last stdout line is one JSON object:
//
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 runs the traced
// per-layer ledger instead and reports the per-layer metrics (and writes
// DIR/trace-<workload>.json).  Exit 0 when every check passed, 1 on any
// correctness violation, 2 when the benchmark could not run at all.
// --inject-wrong-report K corrupts the K-th checked reply (self-test hook).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "daemon.hpp"
#include "ledger.hpp"
#include "mips/simulator.hpp"
#include "spans.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// p99 needs at least this many requests (10 beyond it).  Lifetime
/// workloads keep going until their clean windows hold twice as many: the
/// tail is one binary (adpcm_enc@O3) once per lifetime, and 10 samples
/// beyond left it noisy.
constexpr std::size_t kMinLatencySamples = 1000;
constexpr std::size_t kWantedLatencySamples = 2 * kMinLatencySamples;
/// Independent set-ups per warm_mix run (setup_s is their median).
constexpr int kWarmSetups = 3;
constexpr unsigned kWarmConnections = 3;
constexpr double kWarmWindowSeconds = 1.0;
/// warm_mix reports medians over at least this many windows.
constexpr std::size_t kMinWarmWindows = 5;
/// A window in which the hypervisor stole more than this share of the
/// machine's CPU time measured the host, not the program: past ~1% the
/// warm p99 visibly grows, past 10% it is several times the quiet value.
constexpr double kMaxStealShare = 0.01;
/// Whatever --seconds says, stop starting new work after this long.
constexpr double kHardCapSeconds = 120.0;
constexpr int kCallTimeoutMs = 60'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string work_dir;
  std::size_t inject = 0;  ///< 1-based reply index to corrupt; 0 = off
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Machine-wide CPU time counters (first line of /proc/stat).
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTimes times;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(stat >> value)) return {};
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double StealShare(const CpuTimes& begin, const CpuTimes& end) {
  const double total = end.total - begin.total;
  return total > 0.0 ? (end.steal - begin.steal) / total : 0.0;
}

/// One measurement window: a daemon lifetime (lifetime workloads) or one
/// slice of warm traffic.
struct Window {
  std::vector<double> latency_ms;
  double seconds = 0.0;  ///< timed wall time
  double steal = 0.0;    ///< share of machine CPU time stolen meanwhile
  [[nodiscard]] double Rps() const {
    return seconds > 0.0 ? static_cast<double>(latency_ms.size()) / seconds
                         : 0.0;
  }
};

/// The samples of one traffic phase.
struct Samples {
  std::vector<Window> windows;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  DaemonStats work;  ///< summed over the phase's daemons / windows
  std::size_t lifetimes = 0;

  void Merge(const Samples& other) {
    windows.insert(windows.end(), other.windows.begin(), other.windows.end());
    setup_s.insert(setup_s.end(), other.setup_s.begin(), other.setup_s.end());
    rss_mb.insert(rss_mb.end(), other.rss_mb.begin(), other.rss_mb.end());
    lifetimes += other.lifetimes;
    work += other.work;
  }

  [[nodiscard]] static bool Clean(const Window& window) {
    return window.steal <= kMaxStealShare;
  }

  /// Windows the hypervisor left alone, and the requests they hold.
  [[nodiscard]] std::size_t CleanWindows() const {
    return static_cast<std::size_t>(
        std::count_if(windows.begin(), windows.end(),
                      [](const Window& w) { return Clean(w); }));
  }
  [[nodiscard]] std::size_t CleanRequests() const {
    std::size_t requests = 0;
    for (const Window& window : windows) {
      if (Clean(window)) requests += window.latency_ms.size();
    }
    return requests;
  }

  /// The windows the figures come from: every clean window, topped up with
  /// the least-stolen others until there are `min_windows` windows holding
  /// `min_requests` requests (a run on a busy host still reports).
  [[nodiscard]] std::vector<const Window*> Steady(
      std::size_t min_windows, std::size_t min_requests) const {
    std::vector<const Window*> sorted;
    for (const Window& window : windows) sorted.push_back(&window);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Window* a, const Window* b) {
                       return a->steal < b->steal;
                     });
    std::size_t keep = 0;
    std::size_t requests = 0;
    while (keep < sorted.size() &&
           (Clean(*sorted[keep]) || keep < min_windows ||
            requests < min_requests)) {
      requests += sorted[keep++]->latency_ms.size();
    }
    sorted.resize(keep);
    return sorted;
  }

  [[nodiscard]] static std::vector<double> Pooled(
      const std::vector<const Window*>& selected) {
    std::vector<double> pooled;
    for (const Window* window : selected) {
      pooled.insert(pooled.end(), window->latency_ms.begin(),
                    window->latency_ms.end());
    }
    return pooled;
  }
};

/// Failure bookkeeping; thread-safe.
class Outcome {
 public:
  void Attempt(std::size_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++failed_;
    if (errors_.size() < 20) errors_.push_back(what);
  }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
  }
  [[nodiscard]] std::vector<std::string> errors() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return errors_;
  }

 private:
  std::atomic<std::size_t> attempted_{0};
  mutable std::mutex mutex_;
  std::size_t failed_ = 0;
  std::vector<std::string> errors_;
};

class Bench {
 public:
  explicit Bench(Options options)
      : options_(std::move(options)), keys_(SuiteKeys()), rng_(options_.seed) {
    // Single-point keys cover the binaries whose CDFG recovers; the
    // explore keys cover every binary.
    for (const Key& key : keys_) {
      if (key.bench->expect_cdfg_failure) continue;
      for (const std::string& platform : kPlatforms) {
        for (const std::string& strategy : kStrategies) {
          partitions_.push_back({&key, platform, strategy});
        }
      }
    }
  }

  int Run();

 private:
  struct PartitionKey {
    const Key* key;
    std::string platform;
    std::string strategy;
    [[nodiscard]] std::string Id() const {
      return "partition:" + key->Name() + "/" + platform + "/" + strategy;
    }
  };

  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;  ///< what the value was computed from
  };

  /// Keep a lifetime workload going until `budget_s` has passed and the
  /// clean windows hold `min_samples` latencies; give up on the sample
  /// count at twice the budget (and always at the hard cap).
  [[nodiscard]] bool KeepGoing(Clock::time_point phase_start, double budget_s,
                               std::size_t min_samples,
                               const Samples& samples) const {
    const double elapsed = Seconds(Clock::now() - phase_start);
    if (Seconds(Clock::now() - started_) > kHardCapSeconds ||
        elapsed > 2.0 * budget_s + 10.0) {
      return false;
    }
    return elapsed < budget_s || samples.CleanRequests() < min_samples;
  }

  /// Apply the self-test fault injection to the next checked reply.
  void MaybeCorrupt(std::string* report) {
    if (options_.inject != 0 && ++checked_ == options_.inject &&
        !report->empty()) {
      (*report)[0] = '#';
    }
  }

  /// First sight of `id` validates and records the report; every later
  /// reply for `id` must be byte-identical to it.
  void Expect(const std::string& id, const std::string& report,
              const std::function<std::string()>& validate) {
    const auto it = reference_.find(id);
    if (it == reference_.end()) {
      const std::string problem = validate();
      if (!problem.empty()) {
        outcome_.Fail(id + ": " + problem);
        return;
      }
      reference_.emplace(id, report);
    } else if (it->second != report) {
      outcome_.Fail(id + ": report is not byte-identical to the first-sight "
                         "report");
    }
  }

  std::unique_ptr<Daemon> StartDaemon(const std::string& cache_dir,
                                      Samples* samples) {
    std::string error;
    const std::string socket = "d" + std::to_string(++daemons_) + ".sock";
    auto daemon = Daemon::Spawn(options_.server, socket, cache_dir, &error);
    if (daemon == nullptr) throw std::runtime_error(error);
    const double ready = daemon->WaitReady(30'000, &error);
    if (ready < 0.0) throw std::runtime_error("daemon start: " + error);
    if (samples != nullptr) samples->setup_s.push_back(ready);
    return daemon;
  }

  void StopDaemon(std::unique_ptr<Daemon> daemon) {
    std::string error;
    if (!daemon->Shutdown(&error)) outcome_.Fail("daemon: " + error);
  }

  /// One explore request per key over `strategies`, in seeded order, on
  /// `client`; replies are checked against reference "<prefix><key>".
  Window ExploreEveryKey(b2h::serve::Client& client,
                         const std::vector<std::string>& strategies,
                         const std::string& prefix, Recorder* recorder,
                         std::uint64_t parent, const std::string& req_prefix) {
    Window window;
    const CpuTimes cpu_before = ReadCpuTimes();
    const auto start = Clock::now();
    for (const std::size_t index : Permutation(keys_.size(), rng_)) {
      const Key& key = keys_[index];
      const std::string request = ExploreRequest(key, strategies);
      std::string response;
      outcome_.Attempt();
      ScopedSpan span(recorder, "serve.request", "serve",
                      req_prefix + key.Name(), parent);
      const bool sent = client.Call(request, &response, kCallTimeoutMs).ok();
      const double ms = span.Close();
      if (!sent) {
        outcome_.Fail(key.Name() + ": transport error");
        continue;
      }
      window.latency_ms.push_back(ms);
      std::string report = ExtractReport(response);
      MaybeCorrupt(&report);
      if (report.empty()) {
        outcome_.Fail(key.Name() + ": error reply " + response.substr(0, 200));
        continue;
      }
      Expect(prefix + key.Name(), report, [&] {
        return CheckExploreReport(key, strategies, report, nullptr);
      });
    }
    window.seconds = Seconds(Clock::now() - start);
    window.steal = StealShare(cpu_before, ReadCpuTimes());
    return window;
  }

  /// One daemon lifetime: spawn on `cache_dir`, every key once, stats,
  /// peak RSS, shutdown (or hand the daemon to `keep`).
  Samples Lifetime(const std::string& cache_dir,
                   const std::vector<std::string>& strategies,
                   const std::string& prefix, Recorder* recorder,
                   std::unique_ptr<Daemon>* keep = nullptr) {
    Samples samples;
    const std::string life = "L" + std::to_string(++lifetimes_);
    ScopedSpan span(recorder, "bench.lifetime", "bench", life);
    std::unique_ptr<Daemon> daemon = StartDaemon(cache_dir, &samples);
    samples.windows.push_back(ExploreEveryKey(
        daemon->control(), strategies, prefix, recorder, span.id(),
        life + "/"));
    DaemonStats work;
    if (!daemon->Stats(&work)) outcome_.Fail(life + ": stats request failed");
    samples.work = work;  // a fresh daemon starts from zero
    samples.rss_mb.push_back(daemon->PeakRssMb());
    samples.lifetimes = 1;
    if (keep != nullptr) {
      *keep = std::move(daemon);
    } else {
      StopDaemon(std::move(daemon));
    }
    return samples;
  }

  // ---- workloads -----------------------------------------------------------
  // Each runs traffic for `budget_s` into `samples`; `recorder` non-null
  // records request spans (the traced run).  `keep` receives a daemon with
  // every key warm, for the traced run's serve-layer probes.

  /// cold_first_sight: fresh memory-only daemons.  Their artifact cache
  /// starts empty, so every request runs every compute layer once; the
  /// cost of persisting the artifacts is the ledger's explore.disk_store_ms
  /// (file creation speed depends on the filesystem the checkout sits on
  /// far more than on the program, and would swamp the compute layers).
  void ColdLifetimes(double budget_s, std::size_t min_samples,
                     Samples* samples, Recorder* recorder,
                     std::unique_ptr<Daemon>* keep) {
    const auto start = Clock::now();
    do {
      samples->Merge(Lifetime("", kStrategies, "explore:", recorder, keep));
    } while (KeepGoing(start, budget_s, min_samples, *samples));
  }

  /// restart_rehydrate set-up: the first-sight reference reports, then a
  /// cache dir seeded by a paper-greedy-only lifetime.
  void SeedRestartCache() {
    if (fs::exists("seed")) return;
    (void)Lifetime("", kStrategies, "explore:", nullptr);
    fs::create_directories("seed");
    (void)Lifetime("seed", kGreedyOnly, "greedy:", nullptr);
  }

  void RestartLifetimes(double budget_s, std::size_t min_samples,
                        Samples* samples, Recorder* recorder,
                        std::unique_ptr<Daemon>* keep) {
    SeedRestartCache();
    const auto start = Clock::now();
    do {
      const std::string dir = "restart" + std::to_string(lifetimes_ + 1);
      fs::remove_all(dir);
      fs::copy("seed", dir, fs::copy_options::recursive);  // untimed
      const Samples one =
          Lifetime(dir, kStrategies, "explore:", recorder, keep);
      if (one.work.simulations != 0) {
        outcome_.Fail("restart lifetime re-simulated " +
                      std::to_string(one.work.simulations) + " binaries");
      }
      if (one.work.decompilations == 0) {
        outcome_.Fail("restart lifetime rehydrated nothing");
      }
      samples->Merge(one);
      fs::remove_all(dir);
    } while (KeepGoing(start, budget_s, min_samples, *samples));
  }

  /// warm_mix set-up: a fresh daemon primed with every explore key and
  /// every single-point partition key.  setup_s covers spawn + priming.
  std::unique_ptr<Daemon> PrimeWarmDaemon(Samples* samples) {
    std::unique_ptr<Daemon> daemon = StartDaemon("", nullptr);
    (void)ExploreEveryKey(daemon->control(), kStrategies, "explore:", nullptr,
                          0, "prime/");
    for (const std::size_t index : Permutation(partitions_.size(), rng_)) {
      const PartitionKey& point = partitions_[index];
      std::string response;
      outcome_.Attempt();
      if (!daemon->control()
               .Call(PartitionRequest(*point.key, point.platform,
                                      point.strategy),
                     &response, kCallTimeoutMs)
               .ok()) {
        outcome_.Fail(point.Id() + ": transport error");
        continue;
      }
      const std::string report = ExtractReport(response);
      if (report.empty()) {
        outcome_.Fail(point.Id() + ": error reply " + response.substr(0, 200));
        continue;
      }
      Expect(point.Id(), report, [&]() -> std::string {
        const auto grid = reference_.find("explore:" + point.key->Name());
        if (grid == reference_.end()) return "no valid explore report";
        return CheckPartitionReport(report, grid->second, point.platform,
                                    point.strategy);
      });
    }
    samples->setup_s.push_back(Seconds(Clock::now() - daemon->spawned_at()));
    return daemon;
  }

  /// One window of closed-loop traffic on kWarmConnections connections:
  /// half explore keys, half single-point partition keys, all memory hits.
  void WarmTraffic(Daemon& daemon, double window_s, Samples* samples,
                   Recorder* recorder) {
    struct Draw {
      std::string request;
      const std::string* expected;
      std::string id;
    };
    std::vector<Draw> explores;
    std::vector<Draw> points;
    const auto add = [&](std::vector<Draw>& pool, std::string request,
                         const std::string& id) {
      const auto expected = reference_.find(id);
      if (expected == reference_.end()) {
        outcome_.Fail(id + ": no valid first-sight report to compare with");
        return;
      }
      pool.push_back({std::move(request), &expected->second, id});
    };
    for (const Key& key : keys_) {
      add(explores, ExploreRequest(key, kStrategies), "explore:" + key.Name());
    }
    for (const PartitionKey& point : partitions_) {
      add(points, PartitionRequest(*point.key, point.platform, point.strategy),
          point.Id());
    }
    if (explores.empty() || points.empty()) return;

    DaemonStats before;
    if (!daemon.Stats(&before)) outcome_.Fail("stats request failed");
    const std::uint64_t round = ++warm_rounds_;
    Window window;
    std::mutex merge;  // guards window.latency_ms
    std::vector<std::thread> threads;
    const CpuTimes cpu_before = ReadCpuTimes();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(window_s));
    for (unsigned t = 0; t < kWarmConnections; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(options_.seed * 0x100000001b3ull + round * 131 + t);
        std::vector<double> latencies;
        auto client = b2h::serve::Client::Connect(daemon.socket());
        if (!client.ok()) {
          outcome_.Fail("warm connect: " + client.status().message());
          return;
        }
        std::size_t sent = 0;
        while (Clock::now() < deadline) {
          const std::vector<Draw>& pool = rng.Below(2) == 0 ? explores : points;
          const Draw& draw = pool[rng.Below(pool.size())];
          std::string response;
          outcome_.Attempt();
          ScopedSpan span(recorder, "serve.request", "serve",
                          recorder == nullptr
                              ? std::string()
                              : "W" + std::to_string(round) + "." +
                                    std::to_string(t) + "." +
                                    std::to_string(sent++),
                          0, t + 1);
          const bool ok =
              client.value().Call(draw.request, &response, kCallTimeoutMs).ok();
          const double ms = span.Close();
          if (!ok) {
            outcome_.Fail(draw.id + ": transport error");
            continue;
          }
          latencies.push_back(ms);
          std::string report = ExtractReport(response);
          MaybeCorrupt(&report);
          if (report != *draw.expected) {
            outcome_.Fail(draw.id + ": warm report is not byte-identical to "
                                    "the first-sight report");
          }
        }
        const std::lock_guard<std::mutex> lock(merge);
        window.latency_ms.insert(window.latency_ms.end(), latencies.begin(),
                                 latencies.end());
      });
    }
    for (std::thread& thread : threads) thread.join();
    window.seconds = Seconds(Clock::now() - start);
    window.steal = StealShare(cpu_before, ReadCpuTimes());
    samples->windows.push_back(std::move(window));

    DaemonStats after;
    if (!daemon.Stats(&after)) outcome_.Fail("stats request failed");
    const DaemonStats delta = after - before;
    if (delta.simulations != 0 || delta.decompilations != 0 ||
        delta.partitions != 0 || delta.misses != 0 || delta.disk_hits != 0 ||
        delta.memory_hits == 0) {
      outcome_.Fail("warm traffic was not served purely from the memory tier");
    }
    samples->work += delta;
  }

  void WarmMix(double budget_s, Samples* samples) {
    // Several independent set-ups; the last primed daemon serves traffic.
    std::unique_ptr<Daemon> daemon;
    for (int setup = 0; setup < kWarmSetups; ++setup) {
      if (daemon != nullptr) StopDaemon(std::move(daemon));
      daemon = PrimeWarmDaemon(samples);
    }
    // Windows until the budget is spent and kMinWarmWindows of them ran
    // undisturbed (never past twice the budget).
    const auto start = Clock::now();
    const auto elapsed = [&] { return Seconds(Clock::now() - start); };
    do {
      WarmTraffic(*daemon, kWarmWindowSeconds, samples, nullptr);
    } while (elapsed() < 2.0 * budget_s &&
             Seconds(Clock::now() - started_) < kHardCapSeconds &&
             (elapsed() < budget_s ||
              samples->CleanWindows() < kMinWarmWindows));
    samples->rss_mb.push_back(daemon->PeakRssMb());
    StopDaemon(std::move(daemon));
  }

  // ---- reporting -----------------------------------------------------------

  /// Paper quality over successful (binary, opt, platform) points; returns
  /// the number of points.
  std::size_t Quality(double* speedup_geomean, double* energy_mean) {
    std::vector<PointQuality> quality;
    for (const Key& key : keys_) {
      const auto it = reference_.find("explore:" + key.Name());
      if (it == reference_.end()) continue;
      (void)CheckExploreReport(key, kStrategies, it->second, &quality);
    }
    double log_sum = 0.0;
    double energy = 0.0;
    for (const PointQuality& point : quality) {
      log_sum += std::log(point.best_speedup);
      energy += point.energy_savings;
    }
    const double n =
        static_cast<double>(std::max<std::size_t>(quality.size(), 1));
    *speedup_geomean = std::exp(log_sum / n);
    *energy_mean = energy / n;
    return quality.size();
  }

  std::vector<Metric> EndToEnd();
  std::vector<Metric> Traced();

  Options options_;
  std::vector<Key> keys_;
  std::vector<PartitionKey> partitions_;
  Rng rng_;
  Outcome outcome_;
  std::map<std::string, std::string> reference_;
  std::atomic<std::size_t> checked_{0};
  std::size_t daemons_ = 0;
  std::size_t lifetimes_ = 0;
  std::uint64_t warm_rounds_ = 0;
  const Clock::time_point started_ = Clock::now();
};

std::vector<Bench::Metric> Bench::EndToEnd() {
  Samples samples;
  if (options_.workload == "cold_first_sight") {
    ColdLifetimes(options_.seconds, kWantedLatencySamples, &samples, nullptr,
                  nullptr);
  } else if (options_.workload == "restart_rehydrate") {
    RestartLifetimes(options_.seconds, kWantedLatencySamples, &samples,
                     nullptr, nullptr);
  } else {
    WarmMix(options_.seconds, &samples);
  }
  // Figures are medians over the steady windows (a window is one lifetime
  // or one second of warm traffic).  p99 is the median of per-window p99s
  // when every window holds enough requests for one, else the p99 of the
  // pooled steady requests (>= kMinLatencySamples of them).
  const bool warm = options_.workload == "warm_mix";
  const std::vector<const Window*> steady =
      warm ? samples.Steady(kMinWarmWindows, 0)
           : samples.Steady(1, kMinLatencySamples);
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> rps;
  bool windowed_p99 = true;
  std::size_t requests = 0;
  for (const Window* window : steady) {
    p50.push_back(Percentile(window->latency_ms, 0.50));
    p99.push_back(Percentile(window->latency_ms, 0.99));
    rps.push_back(window->Rps());
    windowed_p99 =
        windowed_p99 && window->latency_ms.size() >= kMinLatencySamples;
    requests += window->latency_ms.size();
  }
  const double latency_p99 =
      windowed_p99 ? Median(p99) : Percentile(Samples::Pooled(steady), 0.99);
  std::printf("windows: %zu measured, %zu used (%zu had more than %.0f%% of "
              "the CPU time stolen by the hypervisor)\n",
              samples.windows.size(), steady.size(),
              samples.windows.size() - samples.CleanWindows(),
              100.0 * kMaxStealShare);

  double speedup_geomean = 0.0;
  double energy_mean = 0.0;
  const std::size_t points = Quality(&speedup_geomean, &energy_mean);
  return {
      {"setup_s", Median(samples.setup_s), "s", samples.setup_s.size()},
      {"latency_p50_ms", Median(p50), "ms", requests},
      {"latency_p99_ms", latency_p99, "ms", requests},
      {"throughput_rps", Median(rps), "1/s", requests},
      {"peak_rss_mb", Median(samples.rss_mb), "MB", samples.rss_mb.size()},
      {"speedup_geomean", speedup_geomean, "x", points},
      {"energy_savings_mean", energy_mean, "fraction", points},
  };
}

std::vector<Bench::Metric> Bench::Traced() {
  Recorder recorder;
  Samples untraced;
  Samples traced;
  std::unique_ptr<Daemon> warm;  // every key warm once the traffic is done
  const std::string& workload = options_.workload;
  if (workload == "warm_mix") {
    Samples setup;
    warm = PrimeWarmDaemon(&setup);
  }
  // Alternate untraced and traced units of the workload's own traffic so
  // drift hits both sides alike; the difference is the tracing overhead.
  constexpr int kRounds = 3;
  const double warm_unit_s = std::max(0.2, options_.seconds / 20.0);
  for (int round = 0; round < kRounds; ++round) {
    for (const bool tracing : {false, true}) {
      Samples& samples = tracing ? traced : untraced;
      Recorder* spans = tracing ? &recorder : nullptr;
      std::unique_ptr<Daemon>* keep =
          round == kRounds - 1 && tracing ? &warm : nullptr;
      if (workload == "cold_first_sight") {
        ColdLifetimes(0.0, 0, &samples, spans, keep);
      } else if (workload == "restart_rehydrate") {
        RestartLifetimes(0.0, 0, &samples, spans, keep);
      } else {
        WarmTraffic(*warm, warm_unit_s, &samples, spans);
      }
    }
  }
  Samples all = untraced;
  all.Merge(traced);

  // Transport floor and warm round trip on the warm daemon, on a fresh
  // connection (see Daemon: an idle connection's next request can trip the
  // server's idle-poll deadline).
  auto probe = b2h::serve::Client::Connect(warm->socket());
  if (!probe.ok()) throw std::runtime_error("probe connect failed");
  b2h::serve::Client& client = probe.value();
  for (int i = 0; i < 2000; ++i) {
    std::string response;
    outcome_.Attempt();
    ScopedSpan span(&recorder, "serve.ping", "serve",
                    "ping" + std::to_string(i));
    const bool ok =
        client.Call(SimpleRequest("ping"), &response, kCallTimeoutMs).ok();
    span.Close();
    if (!ok || response.find("\"pong\":true") == std::string::npos) {
      outcome_.Fail("ping failed");
    }
  }
  for (int rep = 0; rep < 3; ++rep) {
    for (const Key& key : keys_) {
      std::string response;
      outcome_.Attempt();
      ScopedSpan span(&recorder, "serve.warm_request", "serve",
                      "warm" + std::to_string(rep) + "/" + key.Name());
      const bool ok = client
                          .Call(ExploreRequest(key, kStrategies), &response,
                                kCallTimeoutMs)
                          .ok();
      span.Close();
      if (!ok) {
        outcome_.Fail(key.Name() + ": transport error");
        continue;
      }
      Expect("explore:" + key.Name(), ExtractReport(response),
             [] { return std::string("no first-sight report"); });
    }
  }
  StopDaemon(std::move(warm));

  // The in-process ledger, checked against the daemon's reports.
  std::map<std::string, std::string> reference;
  for (const Key& key : keys_) {
    const auto it = reference_.find("explore:" + key.Name());
    if (it != reference_.end()) reference.emplace(key.Name(), it->second);
  }
  LedgerResult ledger = RunLedger(keys_, 3, reference, "ledger", recorder);
  outcome_.Attempt(ledger.checks);
  for (const std::string& error : ledger.errors) outcome_.Fail(error);

  const SelfTimes self = CollectSelfTimes(recorder);
  std::map<std::string, double>& m = ledger.metrics;
  const double ping_us = 1000.0 * MedianPerRequest(self, "serve.ping");
  const double warm_rtt_us =
      1000.0 * MedianPerRequest(self, "serve.warm_request");
  m["serve.ping_rtt_us"] = ping_us;
  m["serve.handoff_us"] = warm_rtt_us - ping_us -
                          m["explore.warm_explore_us"] - m["serve.parse_us"];
  m["serve.coalesced"] = all.work.coalesced;
  m["explore.rehydrations"] =
      all.lifetimes > 0 ? (all.work.decompilations - all.work.simulations) /
                              static_cast<double>(all.lifetimes)
                        : 0.0;
  const double lookups =
      all.work.memory_hits + all.work.disk_hits + all.work.misses;
  m["explore.memory_hit_ratio"] =
      lookups > 0 ? all.work.memory_hits / lookups : 0.0;
  const double p50_untraced =
      Percentile(Samples::Pooled(untraced.Steady(1, 0)), 0.5);
  const double p50_traced =
      Percentile(Samples::Pooled(traced.Steady(1, 0)), 0.5);
  m["obs.trace_overhead_pct"] =
      p50_untraced > 0 ? 100.0 * (p50_traced - p50_untraced) / p50_untraced
                       : 0.0;
  // The layer calls one request of this workload blocks on.
  std::vector<std::string> path_ms;
  double path_us = ping_us + m["serve.parse_us"];
  if (workload == "cold_first_sight") {
    path_ms = {"minicc.compile_ms", "mips.construct_ms", "mips.profile_ms",
               "decomp.lift_ms", "decomp.passes_ms", "partition.scan_ms",
               "synth.synthesize_ms", "partition.greedy_ms",
               "partition.knapsack_ms"};
  } else if (workload == "restart_rehydrate") {
    path_ms = {"minicc.compile_ms", "explore.disk_load_ms", "decomp.lift_ms",
               "decomp.passes_ms", "partition.scan_ms", "synth.synthesize_ms",
               "partition.knapsack_ms"};
  } else {
    path_us += m["explore.warm_explore_us"];
  }
  double explained_ms = path_us / 1000.0;
  for (const std::string& name : path_ms) explained_ms += m[name];
  m["bench.unattributed_pct"] =
      p50_untraced > 0 ? 100.0 * (p50_untraced - explained_ms) / p50_untraced
                       : 0.0;

  const std::string trace_path =
      options_.work_dir + "/trace-" + workload + ".json";
  if (!recorder.WriteChromeTrace(trace_path)) {
    outcome_.Fail("could not write " + trace_path);
  }
  std::printf("\nlayer self times (traced run; trace: %s)\n",
              trace_path.c_str());
  PrintSelfTimes(self);
  std::printf("\nlatency p50 untraced %.4f ms, traced %.4f ms; explained by "
              "the layer path %.4f ms\n",
              p50_untraced, p50_traced, explained_ms);

  const auto unit = [](const std::string& name) -> std::string {
    const auto ends = [&](const std::string& suffix) {
      return name.size() > suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    if (ends("_ms")) return "ms";
    if (ends("_us")) return "us";
    if (ends("_pct")) return "%";
    if (ends("_ratio") || name == "decomp.cdfg_failures") return "fraction";
    if (ends("_bytes")) return "bytes";
    return "count";
  };
  std::vector<Metric> metrics;
  for (const auto& [name, value] : m) {
    metrics.push_back({name, value, unit(name), 0});
  }
  return metrics;
}

int Bench::Run() {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options_.workload.c_str(),
              static_cast<unsigned long long>(options_.seed),
              options_.seconds, options_.trace ? 1 : 0);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const char* engine = "translated";
  switch (b2h::mips::DefaultExecEngine()) {
    case b2h::mips::ExecEngine::kBlock: engine = "block"; break;
    case b2h::mips::ExecEngine::kBlockSwitch: engine = "block-switch"; break;
    case b2h::mips::ExecEngine::kReference: engine = "reference"; break;
    case b2h::mips::ExecEngine::kTranslated: break;
  }
  const bool comparable = build_type == "Release";
  std::printf("build=%s engine=%s comparable=%s\n", build_type.c_str(),
              engine, comparable ? "yes" : "NO (not a Release build)");
  if (!comparable) {
    std::fprintf(stderr, "perfbench: WARNING: %s build; these numbers are "
                         "not comparable with Release runs\n",
                 build_type.c_str());
  }

  // Native-oracle gate: every binary's simulated result must match.
  outcome_.Attempt(keys_.size());
  for (const std::string& mismatch : CheckOracle(keys_)) {
    outcome_.Fail("oracle: " + mismatch);
  }

  const std::vector<Metric> metrics = options_.trace ? Traced() : EndToEnd();

  const std::size_t attempted = std::max<std::size_t>(outcome_.attempted(), 1);
  const std::size_t failed = outcome_.failed();
  std::printf("\n%-28s %16s %-8s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& metric : metrics) {
    std::printf("%-28s %16.6f %-8s %zu\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
  }
  std::printf("%-28s %16.6f %-8s %zu\n", "error_rate",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "fraction", attempted);
  for (const std::string& error : outcome_.errors()) {
    std::printf("FAIL: %s\n", error.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "cold_first_sight|warm_mix|restart_rehydrate\n"
               "       --seed N --seconds S --trace 0|1 --server PATH "
               "--work-dir DIR [--inject-wrong-report K]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--server") {
      options.server = fs::absolute(value).string();
    } else if (flag == "--work-dir") {
      options.work_dir = fs::absolute(value).string();
    } else if (flag == "--inject-wrong-report") {
      options.inject = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return perfbench::Usage();
    }
  }
  if (argc % 2 != 1 || options.server.empty() || options.work_dir.empty() ||
      (options.workload != "cold_first_sight" &&
       options.workload != "warm_mix" &&
       options.workload != "restart_rehydrate")) {
    return perfbench::Usage();
  }
  // Hermetic environment: no inherited cache dir or engine override, for
  // this process (the in-process ledger) and every daemon it spawns.
  ::unsetenv("B2H_CACHE_DIR");
  ::unsetenv("B2H_SIM_ENGINE");

  // Sockets and cache dirs live in a scratch directory, under short
  // relative names (unix socket paths are length-limited).
  const fs::path scratch = fs::path(options.work_dir) / "tmp";
  int status = 2;
  try {
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    fs::current_path(scratch);
    perfbench::Bench bench(options);
    status = bench.Run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 2;
  }
  std::error_code ignored;
  fs::current_path(options.work_dir, ignored);
  fs::remove_all(scratch, ignored);
  return status;
}
