#include "daemon.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "mips/simulator.hpp"
#include "suite/runner.hpp"
#include "support/json_parse.hpp"
#include "support/schema.hpp"

namespace perfbench {

using b2h::support::JsonValue;

namespace {

void AppendList(std::ostringstream& out, const char* name,
                const std::vector<std::string>& values) {
  out << ",\"" << name << "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\"" << values[i] << "\"";
  }
  out << "]";
}

}  // namespace

std::string Key::Name() const {
  return bench->name + "@O" + std::to_string(opt);
}

std::vector<Key> SuiteKeys() {
  std::vector<Key> keys;
  for (const b2h::suite::Benchmark& bench : b2h::suite::AllBenchmarks()) {
    for (int opt = 0; opt <= 3; ++opt) keys.push_back({&bench, opt});
  }
  return keys;
}

std::string ExploreRequest(const Key& key,
                           const std::vector<std::string>& strategies) {
  std::ostringstream out;
  out << "{\"schema\":" << b2h::kWireSchemaVersion
      << ",\"kind\":\"explore\",\"benchmarks\":[\"" << key.bench->name
      << "\"],\"opt_level\":" << key.opt;
  AppendList(out, "platforms", kPlatforms);
  AppendList(out, "strategies", strategies);
  out << ",\"objectives\":[\"speedup\"],\"seed\":1}";
  return out.str();
}

std::string PartitionRequest(const Key& key, const std::string& platform,
                             const std::string& strategy) {
  std::ostringstream out;
  out << "{\"schema\":" << b2h::kWireSchemaVersion
      << ",\"kind\":\"partition\",\"benchmark\":\"" << key.bench->name
      << "\",\"opt_level\":" << key.opt << ",\"platform\":\"" << platform
      << "\",\"strategy\":\"" << strategy
      << "\",\"objective\":\"speedup\",\"seed\":1}";
  return out.str();
}

std::string SimpleRequest(const char* kind) {
  return "{\"schema\":" + std::to_string(b2h::kWireSchemaVersion) +
         ",\"kind\":\"" + kind + "\"}";
}

std::string ExtractReport(const std::string& response) {
  static const std::string kOk = "\"ok\":true";
  static const std::string kReport = "\"report\":";
  static const std::string kServed = ",\"served\":";
  const std::size_t begin = response.find(kReport);
  const std::size_t end = response.rfind(kServed);
  if (response.find(kOk) == std::string::npos ||
      begin == std::string::npos || end == std::string::npos ||
      end <= begin) {
    return "";
  }
  const std::size_t start = begin + kReport.size();
  return response.substr(start, end - start);
}

std::uint64_t Rng::Next() {
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::size_t> Permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
  return order;
}

// ------------------------------------------------------------------ daemon

std::unique_ptr<Daemon> Daemon::Spawn(const std::string& server,
                                      const std::string& socket,
                                      const std::string& cache_dir,
                                      std::string* error) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  std::vector<std::string> args = {server, "--socket", socket, "--workers",
                                   "2"};
  if (!cache_dir.empty()) {
    args.push_back("--cache-dir");
    args.push_back(cache_dir);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->socket_ = socket;
  daemon->spawned_ = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return nullptr;
  }
  if (pid == 0) {
    // The daemon dies with the benchmark, whatever ends the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(server.c_str(), argv.data());
    std::_Exit(127);
  }
  ::close(pipe_fds[1]);
  daemon->pid_ = pid;
  daemon->stdout_fd_ = pipe_fds[0];
  return daemon;
}

Daemon::~Daemon() {
  Kill();
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

void Daemon::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  (void)::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

double Daemon::WaitReady(int timeout_ms, std::string* error) {
  const auto deadline = spawned_ + std::chrono::milliseconds(timeout_ms);
  // The daemon prints its "listening" line once the socket accepts.
  std::string banner;
  while (banner.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      *error = "daemon did not report listening in time";
      return -1.0;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buffer[256];
    const ssize_t got = ::read(stdout_fd_, buffer, sizeof buffer);
    if (got <= 0) {
      *error = "daemon exited before listening";
      return -1.0;
    }
    banner.append(buffer, static_cast<std::size_t>(got));
  }
  if (banner.find("listening") == std::string::npos) {
    *error = "unexpected daemon banner: " + banner;
    return -1.0;
  }
  auto client = b2h::serve::Client::Connect(socket_);
  if (!client.ok()) {
    *error = "connect: " + client.status().message();
    return -1.0;
  }
  control_ = std::move(client).take();
  std::string response;
  if (!control_.Call(SimpleRequest("ping"), &response, timeout_ms).ok() ||
      response.find("\"pong\":true") == std::string::npos) {
    *error = "ping failed: " + response;
    return -1.0;
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       spawned_)
      .count();
}

double Daemon::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

bool Daemon::CallFresh(const char* kind, std::string* response) const {
  auto client = b2h::serve::Client::Connect(socket_);
  return client.ok() &&
         client.value().Call(SimpleRequest(kind), response, 10'000).ok();
}

bool Daemon::Stats(DaemonStats* out) const {
  std::string response;
  if (!CallFresh("stats", &response)) return false;
  const std::optional<JsonValue> parsed = JsonValue::Parse(response);
  if (!parsed.has_value()) return false;
  const JsonValue* served = parsed->Find("served");
  const JsonValue* work = served != nullptr ? served->Find("work") : nullptr;
  const JsonValue* scheduler =
      served != nullptr ? served->Find("scheduler") : nullptr;
  const JsonValue* cache = served != nullptr ? served->Find("cache") : nullptr;
  if (work == nullptr || scheduler == nullptr || cache == nullptr) {
    return false;
  }
  out->simulations = work->GetNumber("simulations_run");
  out->decompilations = work->GetNumber("decompilations_run");
  out->partitions = work->GetNumber("partitions_run");
  out->coalesced = scheduler->GetNumber("coalesced");
  out->memory_hits = cache->GetNumber("memory_hits");
  out->disk_hits = cache->GetNumber("disk_hits");
  out->misses = cache->GetNumber("misses");
  return true;
}

bool Daemon::Shutdown(std::string* error) {
  control_.Close();
  std::string response;
  if (!CallFresh("shutdown", &response)) {
    *error = "shutdown request failed";
    Kill();
    return false;
  }
  for (int waited_ms = 0; waited_ms < 10'000; ++waited_ms) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return true;
      *error = "daemon exited uncleanly";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  *error = "daemon did not exit after shutdown";
  Kill();
  return false;
}

// ------------------------------------------------------------------ checks

const JsonValue* FindPoint(const JsonValue& report, const std::string& platform,
                           const std::string& strategy) {
  const JsonValue* points = report.Find("points");
  if (points == nullptr || !points->is_array()) return nullptr;
  for (const JsonValue& point : points->array()) {
    if (point.GetString("platform") == platform &&
        point.GetString("strategy") == strategy) {
      return &point;
    }
  }
  return nullptr;
}

std::string CheckExploreReport(const Key& key,
                               const std::vector<std::string>& strategies,
                               std::string_view report,
                               std::vector<PointQuality>* quality) {
  const std::optional<JsonValue> parsed = JsonValue::Parse(report);
  if (!parsed.has_value() || !parsed->is_object()) return "unparseable report";
  const JsonValue* points = parsed->Find("points");
  if (points == nullptr || !points->is_array() ||
      points->array().size() != kPlatforms.size() * strategies.size()) {
    return "report grid has the wrong shape";
  }
  for (const JsonValue& point : points->array()) {
    if (point.GetString("binary") != key.bench->name) {
      return "point names binary " + point.GetString("binary");
    }
    const bool failed = point.Find("error") != nullptr;
    if (failed != key.bench->expect_cdfg_failure) {
      return failed ? "unexpected point error: " + point.GetString("error")
                    : "missing expected CDFG recovery failure";
    }
  }
  if (key.bench->expect_cdfg_failure) return "";
  for (const std::string& platform : kPlatforms) {
    PointQuality best;
    bool any = false;
    double greedy = -1.0;
    double knapsack = -1.0;
    for (const std::string& strategy : strategies) {
      const JsonValue* point = FindPoint(*parsed, platform, strategy);
      if (point == nullptr) return "missing point " + platform + "/" + strategy;
      const double speedup = point->GetNumber("speedup");
      if (strategy == "paper-greedy") greedy = speedup;
      if (strategy == "knapsack-optimal") knapsack = speedup;
      if (!any || speedup > best.best_speedup) {
        best.best_speedup = speedup;
        best.energy_savings = point->GetNumber("energy_savings");
        any = true;
      }
    }
    if (knapsack >= 0.0 && knapsack < greedy) {
      return "knapsack-optimal below paper-greedy on " + platform;
    }
    if (quality != nullptr) quality->push_back(best);
  }
  return "";
}

std::string CheckPartitionReport(std::string_view partition,
                                 std::string_view explore,
                                 const std::string& platform,
                                 const std::string& strategy) {
  const std::optional<JsonValue> single = JsonValue::Parse(partition);
  const std::optional<JsonValue> grid = JsonValue::Parse(explore);
  if (!single.has_value() || !grid.has_value()) return "unparseable report";
  const JsonValue* point = FindPoint(*grid, platform, strategy);
  if (point == nullptr) return "no explore point for " + platform;
  for (const char* field : {"speedup", "energy_savings", "area_gates"}) {
    if (single->GetNumber(field, -1.0) != point->GetNumber(field, -2.0)) {
      return std::string("partition report disagrees with explore on ") +
             field;
    }
  }
  return "";
}

std::vector<std::string> CheckOracle(const std::vector<Key>& keys) {
  std::vector<std::string> mismatches;
  for (const Key& key : keys) {
    auto binary = b2h::suite::BuildBinary(*key.bench, key.opt);
    if (!binary.ok()) {
      mismatches.push_back(key.Name() + ": build failed: " +
                           binary.status().message());
      continue;
    }
    b2h::mips::Simulator simulator(binary.value());
    const b2h::mips::RunResult run = simulator.Run({}, 200'000'000);
    const std::int32_t expected = key.bench->reference();
    if (run.reason != b2h::mips::HaltReason::kReturned ||
        run.return_value != expected) {
      mismatches.push_back(key.Name() + ": simulated " +
                           std::to_string(run.return_value) + ", oracle " +
                           std::to_string(expected));
    }
  }
  return mismatches;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
