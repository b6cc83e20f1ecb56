// b2h::Toolchain — the front door to the whole flow.
//
//   binary -> profile -> decompile (PassManager pipeline) -> partition ->
//   synthesize -> estimate
//
// Profiling and decompiling go through explore::ProfileAndDecompile, the
// same producer the exploration engine runs.  On top of it the facade adds:
//
//   * a named platform registry ("mips200-xc2v1000", "mips40", "mips400",
//     plus custom registrations) so sweeps are spelled as name lists;
//   * builder-style configuration (pipeline spec, partition options,
//     simulation budget, thread count) shared across every run;
//   * single-run front doors (Run/RunOn, RunDynamic/RunDynamicOn) that
//     return the full ToolchainRun: program, partition and estimate;
//   * Explore(spec), the one batch path, which hands a
//     {binaries} x {platforms} x {strategies} x {objectives} sweep to
//     explore::Explorer.
//
// Caching rationale: the decompiled, profile-annotated CDFG depends only on
// the binary and the CPU cycle model — not on clocks or FPGA capacity — so
// one decompilation serves every platform whose cycle model matches.
// Explore keys its decompile artifacts that way: the paper's three
// registered platforms share the default model, so a sweep over them is one
// decompilation per binary, and the toolchain's artifact cache carries the
// result across Explore calls.  Run/RunOn profile and decompile afresh on
// every call.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "decomp/pass_manager.hpp"
#include "dynamic/dynamic_partitioner.hpp"
#include "explore/explorer.hpp"
#include "mips/shared_cache.hpp"
#include "partition/platform.hpp"
#include "partition/platform_registry.hpp"

namespace b2h {

/// Process-wide platform registry (now partition::PlatformRegistry, shared
/// with the exploration engine); the alias preserves the original spelling.
using PlatformRegistry = partition::PlatformRegistry;

/// One (binary, platform) flow outcome.  The binary, profiling run and
/// decompiled program are held by shared_ptr, so the run outlives the
/// caller's handles (asserted by the tests).
struct ToolchainRun {
  std::string binary_name;
  std::string platform_name;
  std::shared_ptr<const mips::SoftBinary> binary;
  std::shared_ptr<const mips::RunResult> software_run;
  std::shared_ptr<const decomp::DecompiledProgram> program;
  partition::PartitionResult partition;
  partition::AppEstimate estimate;

  /// Title line, ReportBody(), then the per-pass timings.
  [[nodiscard]] std::string Report() const;
  /// The timing-free part of the report: profile, decompile stats, the
  /// selected regions with rejection reasons, and the estimate.
  [[nodiscard]] std::string ReportBody() const;
  /// One JSON object (no trailing newline) with the headline estimate AND
  /// the partitioner's rejection reasons, so machine consumers can explain
  /// why a region was skipped.
  [[nodiscard]] std::string Json() const;
};

/// Outcome of RunDynamic: the online run next to its static oracle.
struct DynamicToolchainRun {
  ToolchainRun static_run;          ///< ahead-of-time flow (the oracle)
  dynamic::DynamicRun dynamic_run;  ///< online flow on the same binary
  /// dynamic speedup / static speedup — how much of the static payoff the
  /// online partitioner captured (1.0 = full convergence).
  double convergence = 0.0;

  [[nodiscard]] std::string Report() const;
};

/// Builder-configured facade over the complete flow.
class Toolchain {
 public:
  /// When the B2H_CACHE_DIR environment variable is set (and non-empty),
  /// every Toolchain starts with a disk-backed artifact cache rooted there
  /// — the CI cache-warm gate points whole processes at a persisted cache
  /// this way.  Otherwise the cache starts memory-only.
  Toolchain();
  /// Flushes the trace to the WithTrace path, if one was configured.
  ~Toolchain();

  // ------------------------------------------------- builder configuration
  /// Decompilation pipeline spec (see PassManager::FromSpec).  Invalid
  /// specs surface as an error from Run/Explore, not here.
  Toolchain& WithPipeline(std::string spec);
  Toolchain& WithPartitionOptions(partition::PartitionOptions options);
  Toolchain& WithMaxSimInstructions(std::uint64_t max_instructions);
  /// Worker threads for Explore sweeps (0 = hardware concurrency, 1 =
  /// serial).  Run/RunOn and the dynamic front doors are single-threaded.
  Toolchain& WithThreads(unsigned threads);
  Toolchain& WithVerifyIr(bool verify);
  /// Default platform for the platform-less Run overload.
  Toolchain& WithPlatform(std::string registered_name);
  Toolchain& WithPlatform(partition::Platform platform,
                          std::string label = "custom");
  /// Online-partitioning configuration for RunDynamic/RunDynamicOn.
  /// Pipeline spec, verify flag, and simulation budget are inherited from
  /// the toolchain configuration.
  Toolchain& WithDynamicPolicy(partition::DynamicPolicy policy);
  /// Share an artifact cache between toolchains (by default every Toolchain
  /// owns a private cache that persists across its Explore calls).
  Toolchain& WithArtifactCache(std::shared_ptr<explore::ArtifactCache> cache);
  /// Persist the artifact cache under `directory` (two-tier: memory +
  /// disk), so warm sweeps survive process restarts.  The B2H_CACHE_DIR
  /// environment variable overrides the directory; `max_bytes` bounds the
  /// on-disk size with LRU-by-mtime eviction (0 = unbounded).  Replaces the
  /// current artifact cache.
  Toolchain& WithCacheDir(std::string directory, std::uint64_t max_bytes = 0);

  /// Enable the process-wide span tracer (obs::Tracer) and remember
  /// `trace_path`; FlushTrace() — called automatically by the Toolchain
  /// destructor when a path is set — writes the collected spans there as
  /// Chrome trace-event JSON (Perfetto-loadable).  Pass an empty path to
  /// record without auto-writing (embedders export via obs::Tracer::Global()
  /// themselves).  Tracing is process-global: spans from EVERY toolchain and
  /// subsystem land in the same ring.
  Toolchain& WithTrace(std::string trace_path,
                       std::size_t capacity = 0 /* 0 = default ring size */);
  /// Write the trace collected so far to the WithTrace path (no-op without
  /// one); returns false on I/O failure.
  bool FlushTrace() const;

  /// Hit/miss/store counters of the artifact cache, split by tier.
  [[nodiscard]] explore::ArtifactCache::Stats CacheStats() const {
    return artifact_cache_->stats();
  }
  /// Hit/miss counters of the process-wide simulator pre-decode cache
  /// (mips/shared_cache.hpp): every Simulator this toolchain constructs —
  /// Run, RunDynamic, explore sweeps — shares its superblock tables through
  /// it.
  [[nodiscard]] static mips::SharedBlockCache::Stats BlockCacheStats() {
    return mips::SharedBlockCache::Global().stats();
  }
  [[nodiscard]] const std::shared_ptr<explore::ArtifactCache>&
  artifact_cache() const {
    return artifact_cache_;
  }

  // --------------------------------------------------------------- running
  /// Single binary on the configured default platform.
  [[nodiscard]] Result<ToolchainRun> Run(
      std::shared_ptr<const mips::SoftBinary> binary,
      std::string binary_name = "binary") const;

  /// Single binary on a named registered platform.
  [[nodiscard]] Result<ToolchainRun> RunOn(
      std::string_view platform_name,
      std::shared_ptr<const mips::SoftBinary> binary,
      std::string binary_name = "binary") const;

  /// Dynamic front door: run the online partitioner on the configured
  /// default platform AND the static oracle on the same binary, reporting
  /// both plus their convergence.
  [[nodiscard]] Result<DynamicToolchainRun> RunDynamic(
      std::shared_ptr<const mips::SoftBinary> binary,
      std::string binary_name = "binary") const;

  /// Dynamic front door against a named registered platform.
  [[nodiscard]] Result<DynamicToolchainRun> RunDynamicOn(
      std::string_view platform_name,
      std::shared_ptr<const mips::SoftBinary> binary,
      std::string binary_name = "binary") const;

  /// Design-space exploration front door: sweep the spec's
  /// {binaries} x {platforms} x {strategies} x {objectives} grid through
  /// the exploration engine, using this toolchain's pipeline, partition
  /// options, simulation budget, thread count, and artifact cache.
  /// Repeated/overlapping sweeps on the same Toolchain reuse cached
  /// decompile and partition artifacts (a warm identical sweep performs
  /// zero decompilations).  Per-point failures are reported in the
  /// corresponding ExplorePoint without aborting the sweep.
  [[nodiscard]] explore::ExploreResult Explore(
      const explore::ExploreSpec& spec) const;

 private:
  [[nodiscard]] Result<DynamicToolchainRun> RunDynamicOnPlatform(
      std::shared_ptr<const mips::SoftBinary> binary, std::string binary_name,
      const partition::Platform& platform, std::string platform_name) const;

  [[nodiscard]] dynamic::DynamicOptions DynamicConfig() const;
  [[nodiscard]] Result<ToolchainRun> RunOnPlatform(
      std::shared_ptr<const mips::SoftBinary> binary, std::string binary_name,
      const partition::Platform& platform, std::string platform_name) const;

  /// Shared tail of every flow: partition + estimate a prepared
  /// (profiled, decompiled) binary against one platform.
  [[nodiscard]] Result<ToolchainRun> PartitionPrepared(
      std::string binary_name, std::string platform_name,
      std::shared_ptr<const mips::SoftBinary> binary,
      std::shared_ptr<const mips::RunResult> software_run,
      std::shared_ptr<const decomp::DecompiledProgram> program,
      const partition::Platform& platform) const;

  std::string pipeline_spec_ = "default";
  partition::PartitionOptions partition_options_;
  std::uint64_t max_sim_instructions_ = 200'000'000;
  unsigned threads_ = 0;
  bool verify_ir_ = true;
  std::string default_platform_name_ = "mips200-xc2v1000";
  std::optional<partition::Platform> custom_platform_;
  partition::DynamicPolicy dynamic_policy_;
  std::string trace_path_;  ///< WithTrace auto-flush target ("" = none)
  std::shared_ptr<explore::ArtifactCache> artifact_cache_;
};

}  // namespace b2h
