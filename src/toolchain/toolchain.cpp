#include "toolchain/toolchain.hpp"

#include <iomanip>
#include <sstream>

#include "obs/obs.hpp"
#include "partition/strategy.hpp"
#include "support/parallel_for.hpp"

namespace b2h {

namespace {

using support::ParallelFor;

bool SameCycleModel(const mips::CycleModel& a, const mips::CycleModel& b) {
  return a.base == b.base && a.load_extra == b.load_extra &&
         a.mult_extra == b.mult_extra && a.div_extra == b.div_extra &&
         a.taken_extra == b.taken_extra;
}

}  // namespace

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

Toolchain& Toolchain::WithDynamic(bool enabled) {
  dynamic_enabled_ = enabled;
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
  auto dynamic_run = online.Run(std::move(binary), std::move(binary_name));
  if (!dynamic_run.ok()) return dynamic_run.status();

  DynamicToolchainRun run;
  run.static_run = std::move(static_run).take();
  run.dynamic_run = std::move(dynamic_run).take();
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

BatchResult Toolchain::RunMany(
    const std::vector<NamedBinary>& binaries,
    const std::vector<std::string>& platform_names) const {
  const std::size_t num_binaries = binaries.size();
  const std::size_t num_platforms = platform_names.size();
  const std::size_t num_runs = num_binaries * num_platforms;

  BatchResult batch;
  batch.num_platforms = num_platforms;
  if (num_runs == 0) return batch;

  // Resolve platform names up front (registry lookups off the hot path).
  std::vector<std::optional<partition::Platform>> platforms;
  platforms.reserve(num_platforms);
  for (const std::string& name : platform_names) {
    platforms.push_back(PlatformRegistry::Global().Find(name));
  }

  // Stage A — per (binary, cycle model), in parallel: one profiling
  // simulation and ONE decompilation, shared by every platform whose CPU
  // cycle model matches.  Clock frequency and FPGA capacity don't affect
  // cycle counts, so all registered platforms fall into a single group;
  // custom platforms with a different cycle model get their own profile
  // rather than silently inheriting another platform's cycle counts.
  std::vector<mips::CycleModel> model_groups;
  std::vector<std::size_t> platform_group(num_platforms, 0);
  for (std::size_t p = 0; p < num_platforms; ++p) {
    if (!platforms[p].has_value()) continue;
    const mips::CycleModel& model = platforms[p]->cpu.cycle_model;
    std::size_t group = model_groups.size();
    for (std::size_t g = 0; g < model_groups.size(); ++g) {
      if (SameCycleModel(model_groups[g], model)) {
        group = g;
        break;
      }
    }
    if (group == model_groups.size()) model_groups.push_back(model);
    platform_group[p] = group;
  }
  // No resolved platform means no group and so no Stage A job: every slot
  // reports its unknown platform without profiling anything.
  const std::size_t num_groups = model_groups.size();

  // prepared[b * num_groups + g]: binary b profiled under model group g.
  std::vector<explore::DecompileArtifact> prepared(num_binaries * num_groups);
  explore::DecompileWork work;

  auto manager = decomp::PassManager::FromSpec(pipeline_spec_);
  if (!manager.ok()) {
    for (std::size_t i = 0; i < num_runs; ++i) {
      batch.runs.push_back(manager.status());
    }
    return batch;
  }
  const decomp::PassManager pipeline =
      std::move(manager).take().SetVerify(verify_ir_);

  ParallelFor(num_binaries * num_groups, threads_, [&](std::size_t index) {
    const std::size_t b = index / num_groups;
    const std::size_t g = index % num_groups;
    explore::DecompileArtifact& slot = prepared[index];
    try {
      if (binaries[b].binary == nullptr) {
        slot.status = Status::Error(ErrorKind::kMalformedBinary,
                                    "null binary: " + binaries[b].name);
        return;
      }
      slot = explore::ProfileAndDecompile(binaries[b].binary, model_groups[g],
                                          max_sim_instructions_, pipeline,
                                          work);
    } catch (const std::exception& e) {
      slot.status = Status::Error(ErrorKind::kUnsupported,
                                  std::string("internal error: ") + e.what());
    }
  });

  // Stage B — per (binary, platform) pair, in parallel: partition,
  // synthesize, estimate against the shared decompilation.
  std::vector<std::optional<Result<ToolchainRun>>> slots(num_runs);
  ParallelFor(num_runs, threads_, [&](std::size_t index) {
    const std::size_t b = index / num_platforms;
    const std::size_t p = index % num_platforms;
    try {
      if (!platforms[p].has_value()) {
        slots[index] = Status::Error(ErrorKind::kUnsupported,
                                     "unknown platform: " + platform_names[p]);
        return;
      }
      const explore::DecompileArtifact& base =
          prepared[b * num_groups + platform_group[p]];
      if (!base.status.ok()) {
        slots[index] = base.status;
        return;
      }
      // base.program is shared across the sweep — the point of the batch.
      slots[index] = PartitionPrepared(binaries[b].name, platform_names[p],
                                       binaries[b].binary, base.software_run,
                                       base.program, *platforms[p]);
      // Dynamic mode: also run the online partitioner for this pair.  Each
      // pair gets its own simulator + detector, so the fan-out stays
      // deterministic (parallel == serial).
      if (dynamic_enabled_ && slots[index]->ok()) {
        dynamic::DynamicPartitioner online(*platforms[p], DynamicConfig(),
                                           platform_names[p]);
        auto dynamic_run = online.Run(binaries[b].binary, binaries[b].name);
        if (!dynamic_run.ok()) {
          slots[index] = dynamic_run.status();
        } else {
          slots[index]->value().dynamic_run =
              std::make_shared<const dynamic::DynamicRun>(
                  std::move(dynamic_run).take());
        }
      }
    } catch (const std::exception& e) {
      slots[index] = Status::Error(
          ErrorKind::kUnsupported,
          std::string("internal error: ") + e.what());
    }
  });

  batch.runs.reserve(num_runs);
  for (std::size_t index = 0; index < num_runs; ++index) {
    Check(slots[index].has_value(), "RunMany: missing result slot");
    batch.runs.push_back(std::move(*slots[index]));
  }
  batch.simulations_run = work.simulations.load();
  batch.decompilations_run = work.decompilations.load();
  return batch;
}

}  // namespace b2h
