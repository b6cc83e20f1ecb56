#include "toolchain/toolchain.hpp"

#include <iomanip>
#include <sstream>

#include "obs/obs.hpp"
#include "partition/strategy.hpp"

namespace b2h {

// ---------------------------------------------------------- ToolchainRun

std::string ToolchainRun::ReportBody() const {
  std::ostringstream out;
  out << std::fixed;
  out << "software: " << software_run->instructions << " instrs, "
      << software_run->cycles << " cycles, rv=" << software_run->return_value
      << "\n";
  const auto& stats = program->stats;
  out << "decompile: " << stats.lifted_instrs << " -> " << stats.final_instrs
      << " ops (stack ops removed " << stats.stack_ops_removed
      << ", loops rerolled " << stats.loops_rerolled << ", muls recovered "
      << stats.muls_recovered << ", narrowed " << stats.instrs_narrowed
      << ")\n";
  out << "partition: " << partition.hw.size() << " hw region(s), area "
      << std::setprecision(0) << partition.area_used_gates << " / "
      << partition.area_budget_gates << " gates, loop coverage "
      << std::setprecision(1) << partition.loop_coverage * 100.0 << "%\n";
  for (const auto& selected : partition.hw) {
    using partition::SelectedBy;
    const char* reason = selected.selected_by == SelectedBy::kFrequency
                             ? "freq"
                         : selected.selected_by == SelectedBy::kAlias ? "alias"
                         : selected.selected_by == SelectedBy::kGreedy
                             ? "greedy"
                         : selected.selected_by == SelectedBy::kOptimal
                             ? "optimal"
                             : "annealed";
    out << "  [" << reason << "] " << selected.synthesized.region.name
        << ": sw " << selected.sw_cycles << " cyc -> hw "
        << selected.synthesized.hw_cycles << " cyc @ "
        << std::setprecision(0) << selected.synthesized.clock_mhz << " MHz, "
        << selected.synthesized.area.total_gates << " gates";
    if (selected.synthesized.schedule.pipeline_ii > 0) {
      out << ", II=" << selected.synthesized.schedule.pipeline_ii;
    }
    if (selected.arrays_resident) out << ", arrays resident";
    out << "\n";
  }
  // Why regions were skipped.
  for (const std::string& reason :
       partition::UniqueRejections(partition.rejected)) {
    out << "  rejected " << reason << "\n";
  }
  out << std::setprecision(2);
  out << "estimate: speedup " << estimate.speedup << "x, kernel speedup "
      << estimate.avg_kernel_speedup << "x, energy savings "
      << std::setprecision(1) << estimate.energy_savings * 100.0 << "%\n";
  return out.str();
}

std::string ToolchainRun::Report() const {
  std::ostringstream out;
  out << "=== " << binary_name << " on " << platform_name << " ===\n";
  out << ReportBody();
  if (!program->pass_runs.empty()) {
    out << "passes:";
    for (const auto& run : program->pass_runs) {
      char millis[32];
      std::snprintf(millis, sizeof millis, "%.3f", run.millis);
      out << " " << run.pass << "=" << millis << "ms";
    }
    out << "\n";
  }
  return out.str();
}

std::string ToolchainRun::Json() const {
  std::vector<std::string> hw_names;
  hw_names.reserve(partition.hw.size());
  for (const auto& region : partition.hw) {
    hw_names.push_back(region.synthesized.region.name);
  }
  return explore::PointReportJson(binary_name, platform_name,
                                  estimate.speedup, estimate.energy_savings,
                                  estimate.area_gates, hw_names,
                                  partition.rejected);
}

// -------------------------------------------------------------- Toolchain

Toolchain::Toolchain() {
  // Env-only plumbing: a process pointed at a cache dir via B2H_CACHE_DIR
  // gets a disk-backed cache without any code changes (ResolveCacheDir
  // returns "" when the variable is unset, which keeps the cache
  // memory-only).
  const std::string dir = explore::ResolveCacheDir("");
  artifact_cache_ = dir.empty()
                        ? std::make_shared<explore::ArtifactCache>()
                        : std::make_shared<explore::ArtifactCache>(
                              explore::DiskStore::Options{dir, 0});
}

Toolchain::~Toolchain() {
  if (!trace_path_.empty()) (void)FlushTrace();
}

Toolchain& Toolchain::WithTrace(std::string trace_path, std::size_t capacity) {
  trace_path_ = std::move(trace_path);
  obs::Tracer::Global().Enable(capacity == 0 ? obs::Tracer::kDefaultCapacity
                                             : capacity);
  return *this;
}

bool Toolchain::FlushTrace() const {
  if (trace_path_.empty()) return true;
  return obs::Tracer::Global().WriteChromeTrace(trace_path_);
}

Toolchain& Toolchain::WithCacheDir(std::string directory,
                                   std::uint64_t max_bytes) {
  const std::string dir = explore::ResolveCacheDir(std::move(directory));
  artifact_cache_ = std::make_shared<explore::ArtifactCache>(
      explore::DiskStore::Options{dir, max_bytes});
  return *this;
}

Toolchain& Toolchain::WithPipeline(std::string spec) {
  pipeline_spec_ = std::move(spec);
  return *this;
}

Toolchain& Toolchain::WithPartitionOptions(
    partition::PartitionOptions options) {
  partition_options_ = std::move(options);
  return *this;
}

Toolchain& Toolchain::WithMaxSimInstructions(std::uint64_t max_instructions) {
  max_sim_instructions_ = max_instructions;
  return *this;
}

Toolchain& Toolchain::WithThreads(unsigned threads) {
  threads_ = threads;
  return *this;
}

Toolchain& Toolchain::WithVerifyIr(bool verify) {
  verify_ir_ = verify;
  return *this;
}

Toolchain& Toolchain::WithPlatform(std::string registered_name) {
  default_platform_name_ = std::move(registered_name);
  custom_platform_.reset();
  return *this;
}

Toolchain& Toolchain::WithPlatform(partition::Platform platform,
                                   std::string label) {
  custom_platform_ = std::move(platform);
  default_platform_name_ = std::move(label);
  return *this;
}

Toolchain& Toolchain::WithDynamicPolicy(partition::DynamicPolicy policy) {
  dynamic_policy_ = policy;
  return *this;
}

Toolchain& Toolchain::WithArtifactCache(
    std::shared_ptr<explore::ArtifactCache> cache) {
  Check(cache != nullptr, "Toolchain: null artifact cache");
  artifact_cache_ = std::move(cache);
  return *this;
}

explore::ExploreResult Toolchain::Explore(
    const explore::ExploreSpec& spec) const {
  explore::ExplorerConfig config;
  config.pipeline = pipeline_spec_;
  config.partition = partition_options_;
  config.max_sim_instructions = max_sim_instructions_;
  config.threads = threads_;
  config.verify_ir = verify_ir_;
  return explore::Explorer(std::move(config), artifact_cache_).Run(spec);
}

dynamic::DynamicOptions Toolchain::DynamicConfig() const {
  dynamic::DynamicOptions options;
  options.policy = dynamic_policy_;
  options.pipeline = pipeline_spec_;
  options.synth = partition_options_.synth;
  options.max_instructions = max_sim_instructions_;
  options.verify_ir = verify_ir_;
  return options;
}

Result<ToolchainRun> Toolchain::PartitionPrepared(
    std::string binary_name, std::string platform_name,
    std::shared_ptr<const mips::SoftBinary> binary,
    std::shared_ptr<const mips::RunResult> software_run,
    std::shared_ptr<const decomp::DecompiledProgram> program,
    const partition::Platform& platform) const {
  ToolchainRun run;
  run.binary_name = std::move(binary_name);
  run.platform_name = std::move(platform_name);
  run.binary = std::move(binary);
  run.software_run = std::move(software_run);
  run.program = std::move(program);
  obs::ScopedSpan span("toolchain.partition", "partition");
  span.Arg("binary", run.binary_name).Arg("platform", run.platform_name);
  auto partitioned = partition::MakePaperGreedyStrategy()->Partition(
      *run.program, run.software_run->profile, platform, partition_options_,
      partition::StrategyOptions{});
  if (!partitioned.ok()) return partitioned.status();
  run.partition = std::move(partitioned).take();
  run.estimate = partition::EstimatePartition(run.partition, platform);
  return run;
}

Result<ToolchainRun> Toolchain::RunOnPlatform(
    std::shared_ptr<const mips::SoftBinary> binary, std::string binary_name,
    const partition::Platform& platform, std::string platform_name) const {
  Check(binary != nullptr, "Toolchain: null binary");
  auto manager = decomp::PassManager::FromSpec(pipeline_spec_);
  if (!manager.ok()) return manager.status();
  explore::DecompileWork work;
  explore::DecompileArtifact prepared = explore::ProfileAndDecompile(
      binary, platform.cpu.cycle_model, max_sim_instructions_,
      std::move(manager).take().SetVerify(verify_ir_), work);
  if (!prepared.status.ok()) return prepared.status;
  return PartitionPrepared(std::move(binary_name), std::move(platform_name),
                           std::move(binary), std::move(prepared.software_run),
                           std::move(prepared.program), platform);
}

Result<ToolchainRun> Toolchain::Run(
    std::shared_ptr<const mips::SoftBinary> binary,
    std::string binary_name) const {
  if (custom_platform_.has_value()) {
    return RunOnPlatform(std::move(binary), std::move(binary_name),
                         *custom_platform_, default_platform_name_);
  }
  return RunOn(default_platform_name_, std::move(binary),
               std::move(binary_name));
}

Result<ToolchainRun> Toolchain::RunOn(
    std::string_view platform_name,
    std::shared_ptr<const mips::SoftBinary> binary,
    std::string binary_name) const {
  const auto platform = PlatformRegistry::Global().Find(platform_name);
  if (!platform.has_value()) {
    return Status::Error(ErrorKind::kUnsupported,
                         "unknown platform: " + std::string(platform_name));
  }
  return RunOnPlatform(std::move(binary), std::move(binary_name), *platform,
                       std::string(platform_name));
}

Result<DynamicToolchainRun> Toolchain::RunDynamicOnPlatform(
    std::shared_ptr<const mips::SoftBinary> binary, std::string binary_name,
    const partition::Platform& platform, std::string platform_name) const {
  auto static_run =
      RunOnPlatform(binary, binary_name, platform, platform_name);
  if (!static_run.ok()) return static_run.status();

  dynamic::DynamicPartitioner online(platform, DynamicConfig(),
                                     platform_name);
  auto online_run = online.Run(std::move(binary), std::move(binary_name));
  if (!online_run.ok()) return online_run.status();

  DynamicToolchainRun run;
  run.static_run = std::move(static_run).take();
  run.dynamic_run = std::move(online_run).take();
  run.convergence = run.static_run.estimate.speedup > 0.0
                        ? run.dynamic_run.estimate.speedup /
                              run.static_run.estimate.speedup
                        : 0.0;
  return run;
}

Result<DynamicToolchainRun> Toolchain::RunDynamic(
    std::shared_ptr<const mips::SoftBinary> binary,
    std::string binary_name) const {
  if (custom_platform_.has_value()) {
    return RunDynamicOnPlatform(std::move(binary), std::move(binary_name),
                                *custom_platform_, default_platform_name_);
  }
  return RunDynamicOn(default_platform_name_, std::move(binary),
                      std::move(binary_name));
}

Result<DynamicToolchainRun> Toolchain::RunDynamicOn(
    std::string_view platform_name,
    std::shared_ptr<const mips::SoftBinary> binary,
    std::string binary_name) const {
  const auto platform = PlatformRegistry::Global().Find(platform_name);
  if (!platform.has_value()) {
    return Status::Error(ErrorKind::kUnsupported,
                         "unknown platform: " + std::string(platform_name));
  }
  return RunDynamicOnPlatform(std::move(binary), std::move(binary_name),
                              *platform, std::string(platform_name));
}

std::string DynamicToolchainRun::Report() const {
  std::ostringstream out;
  out << dynamic_run.Report();
  char line[160];
  std::snprintf(line, sizeof line,
                "static oracle: speedup=%.2fx (dynamic captured %.0f%% of "
                "the static payoff)\n",
                static_run.estimate.speedup, convergence * 100.0);
  out << line;
  return out.str();
}

}  // namespace b2h
