// Persistent artifact-cache robustness: serialization round-trips through
// the disk tier, schema-version self-invalidation, corruption/truncation
// tolerance (always a miss, never an error), concurrent writers sharing one
// directory, LRU eviction under a size budget, and stale-schema garbage
// collection.  The end-to-end "process-restarted sweep is free" contract
// lives in test_explore; this file stresses the storage layer underneath.
#include "explore/artifact_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "explore/disk_store.hpp"
#include "support/fs.hpp"
#include "testing_support.hpp"

namespace b2h::explore {
namespace {

namespace fs = std::filesystem;

using testing_support::TempDir;

std::shared_ptr<DecompileArtifact> MakeDecompileArtifact() {
  auto artifact = std::make_shared<DecompileArtifact>();
  auto run = std::make_shared<mips::RunResult>();
  run->return_value = -7;
  run->instructions = 123456;
  run->cycles = 654321;
  run->reason = mips::HaltReason::kReturned;
  run->profile.instr_count = {1, 2, 3, 0, 9};
  run->profile.cycle_count = {2, 4, 6, 0, 18};
  run->profile.branch_taken = {0, 1, 0, 0, 5};
  run->profile.branch_not_taken = {1, 0, 0, 0, 4};
  run->profile.total_instructions = 15;
  run->profile.total_cycles = 30;
  artifact->software_run = std::move(run);
  return artifact;
}

std::shared_ptr<PartitionArtifact> MakePartitionArtifact() {
  auto artifact = std::make_shared<PartitionArtifact>();
  artifact->estimate.sw_time = 0.25;
  artifact->estimate.partitioned_time = 0.05;
  artifact->estimate.speedup = 5.0;
  artifact->estimate.area_gates = 12345.5;
  partition::KernelEstimate kernel;
  kernel.name = "loop_0x400";
  kernel.sw_cycles = 999;
  kernel.kernel_speedup = 7.5;
  artifact->estimate.kernels.push_back(kernel);

  partition::SelectedRegion region;
  region.selected_by = partition::SelectedBy::kOptimal;
  region.sw_cycles = 999;
  region.invocations = 3;
  region.arrays_resident = true;
  region.alias_regions = {1, 4};
  region.synthesized.region.name = "loop_0x400";
  region.synthesized.hw_cycles = 111;
  region.synthesized.clock_mhz = 87.5;
  region.synthesized.area.registers = 12;
  region.synthesized.area.total_gates = 4200.25;
  region.synthesized.area.units.push_back(
      {synth::FuClass::kMul, 18, 2, 800.0});
  artifact->partition.hw.push_back(std::move(region));
  artifact->partition.rejected = {"rejected r1: area constraint violated"};
  artifact->partition.area_used_gates = 4200.25;
  artifact->partition.area_budget_gates = 180000.0;
  artifact->partition.total_sw_cycles = 5555;
  artifact->partition.loop_coverage = 0.91;
  return artifact;
}

/// Path of the single on-disk entry of `kind`.
fs::path OnlyEntry(const std::string& dir, std::string_view kind) {
  const fs::path shard = fs::path(dir) /
                         ("v" + std::to_string(kCacheSchemaVersion)) /
                         std::string(kind);
  const auto files = support::ListFilesRecursive(shard);
  EXPECT_EQ(files.size(), 1u);
  return files.empty() ? fs::path() : files.front().path;
}

TEST(ArtifactCacheDisk, DecompileRoundTripAcrossCaches) {
  TempDir dir;
  {
    ArtifactCache writer{DiskStore::Options{dir.path, 0}};
    writer.PutDecompile("k1", MakeDecompileArtifact());
    EXPECT_EQ(writer.stats().disk_stores, 1u);
  }
  // A fresh cache (fresh memory tier) must serve the artifact off disk.
  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  HitTier tier = HitTier::kMiss;
  const auto found = reader.FindDecompile("k1", &tier);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(tier, HitTier::kDisk);
  EXPECT_TRUE(found->status.ok());
  EXPECT_EQ(found->program, nullptr);  // summary-only by design
  ASSERT_NE(found->software_run, nullptr);
  const auto original = MakeDecompileArtifact();
  EXPECT_EQ(found->software_run->return_value,
            original->software_run->return_value);
  EXPECT_EQ(found->software_run->instructions,
            original->software_run->instructions);
  EXPECT_EQ(found->software_run->profile.instr_count,
            original->software_run->profile.instr_count);
  EXPECT_EQ(found->software_run->profile.total_cycles,
            original->software_run->profile.total_cycles);
  // Second lookup is a memory hit (disk hits are promoted).
  const auto again = reader.FindDecompile("k1", &tier);
  EXPECT_EQ(again, found);
  EXPECT_EQ(tier, HitTier::kMemory);
}

TEST(ArtifactCacheDisk, PartitionRoundTripPreservesReportFields) {
  TempDir dir;
  const auto original = MakePartitionArtifact();
  {
    ArtifactCache writer{DiskStore::Options{dir.path, 0}};
    writer.PutPartition("p1", original);
  }
  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  const auto found = reader.FindPartition("p1");
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(found->status.ok());
  EXPECT_EQ(found->program, nullptr);
  EXPECT_EQ(found->estimate.speedup, original->estimate.speedup);
  EXPECT_EQ(found->estimate.area_gates, original->estimate.area_gates);
  ASSERT_EQ(found->estimate.kernels.size(), 1u);
  EXPECT_EQ(found->estimate.kernels[0].name, "loop_0x400");
  EXPECT_EQ(found->estimate.kernels[0].kernel_speedup, 7.5);
  ASSERT_EQ(found->partition.hw.size(), 1u);
  const auto& region = found->partition.hw[0];
  EXPECT_EQ(region.selected_by, partition::SelectedBy::kOptimal);
  EXPECT_EQ(region.synthesized.region.name, "loop_0x400");
  EXPECT_EQ(region.synthesized.region.function, nullptr);  // no live IR
  EXPECT_EQ(region.synthesized.clock_mhz, 87.5);
  EXPECT_EQ(region.synthesized.area.total_gates, 4200.25);
  ASSERT_EQ(region.synthesized.area.units.size(), 1u);
  EXPECT_EQ(region.synthesized.area.units[0].cls, synth::FuClass::kMul);
  EXPECT_EQ(region.alias_regions, (std::vector<int>{1, 4}));
  EXPECT_EQ(found->partition.rejected, original->partition.rejected);
  EXPECT_EQ(found->partition.total_sw_cycles, 5555u);
}

TEST(ArtifactCacheDisk, FailureArtifactsPersist) {
  TempDir dir;
  {
    ArtifactCache writer{DiskStore::Options{dir.path, 0}};
    auto failed = std::make_shared<DecompileArtifact>();
    failed->status = Status::Error(ErrorKind::kIndirectJump,
                                   "CDFG recovery failed at 0x400100");
    writer.PutDecompile("bad", std::move(failed));
  }
  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  const auto found = reader.FindDecompile("bad");
  ASSERT_NE(found, nullptr);
  EXPECT_FALSE(found->status.ok());
  EXPECT_EQ(found->status.kind(), ErrorKind::kIndirectJump);
  EXPECT_EQ(found->status.message(), "CDFG recovery failed at 0x400100");
  EXPECT_EQ(found->software_run, nullptr);
}

TEST(ArtifactCacheDisk, VersionMismatchIsAMiss) {
  TempDir dir;
  {
    ArtifactCache writer{DiskStore::Options{dir.path, 0}};
    writer.PutDecompile("k1", MakeDecompileArtifact());
  }
  // Bump the version stamp inside the entry header (byte 4 = version LSB,
  // right after the 4-byte magic): the entry must self-invalidate.
  const fs::path entry = OnlyEntry(dir.path, kDecompileKind);
  auto bytes = support::ReadFile(entry);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[4] = static_cast<char>((*bytes)[4] + 1);
  ASSERT_TRUE(support::AtomicWriteFile(entry, *bytes));

  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  HitTier tier = HitTier::kMemory;
  EXPECT_EQ(reader.FindDecompile("k1", &tier), nullptr);
  EXPECT_EQ(tier, HitTier::kMiss);
  EXPECT_EQ(reader.stats().misses, 1u);
}

TEST(ArtifactCacheDisk, TruncatedEntryIsAMissNeverAnError) {
  TempDir dir;
  {
    ArtifactCache writer{DiskStore::Options{dir.path, 0}};
    writer.PutPartition("p1", MakePartitionArtifact());
  }
  const fs::path entry = OnlyEntry(dir.path, kPartitionKind);
  auto bytes = support::ReadFile(entry);
  ASSERT_TRUE(bytes.has_value());
  bytes->resize(bytes->size() / 2);
  ASSERT_TRUE(support::AtomicWriteFile(entry, *bytes));

  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  EXPECT_EQ(reader.FindPartition("p1"), nullptr);
  EXPECT_EQ(reader.stats().misses, 1u);
}

TEST(ArtifactCacheDisk, CorruptedPayloadFailsTheChecksum) {
  TempDir dir;
  {
    ArtifactCache writer{DiskStore::Options{dir.path, 0}};
    writer.PutPartition("p1", MakePartitionArtifact());
  }
  const fs::path entry = OnlyEntry(dir.path, kPartitionKind);
  auto bytes = support::ReadFile(entry);
  ASSERT_TRUE(bytes.has_value());
  bytes->back() = static_cast<char>(bytes->back() ^ 0x5a);  // flip payload bits
  ASSERT_TRUE(support::AtomicWriteFile(entry, *bytes));

  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  EXPECT_EQ(reader.FindPartition("p1"), nullptr);
}

TEST(ArtifactCacheDisk, UndecodablePayloadCountsAsBadEntry) {
  TempDir dir;
  // A structurally valid store entry whose payload is not a serialized
  // artifact: the envelope (magic/version/checksum) passes, decoding fails,
  // and the cache reports a miss plus a bad-entry diagnostic.
  DiskStore store({dir.path, 0});
  EXPECT_TRUE(store.Store(kDecompileKind, "junk", "not an artifact"));
  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  EXPECT_EQ(reader.FindDecompile("junk"), nullptr);
  EXPECT_EQ(reader.stats().disk_bad_entries, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  // Bad entries are reclaimed, not permanent: the key is storable again
  // (Store skips existing paths, so leaving the file would pin the miss).
  EXPECT_FALSE(store.Contains(kDecompileKind, "junk"));
  reader.PutDecompile("junk", MakeDecompileArtifact());
  ArtifactCache again{DiskStore::Options{dir.path, 0}};
  EXPECT_NE(again.FindDecompile("junk"), nullptr);
}

TEST(ArtifactCacheDisk, ConcurrentWritersShareOneDirectory) {
  TempDir dir;
  // Two independent caches (the ISSUE's "two Toolchains, one dir") racing
  // on overlapping keys: atomic temp-file + rename writes mean every
  // resulting entry is complete and decodable.
  ArtifactCache a{DiskStore::Options{dir.path, 0}};
  ArtifactCache b{DiskStore::Options{dir.path, 0}};
  constexpr int kKeys = 40;
  const auto writer = [&](ArtifactCache& cache) {
    for (int i = 0; i < kKeys; ++i) {
      cache.PutDecompile("d" + std::to_string(i), MakeDecompileArtifact());
      cache.PutPartition("p" + std::to_string(i), MakePartitionArtifact());
    }
  };
  std::thread ta(writer, std::ref(a));
  std::thread tb(writer, std::ref(b));
  ta.join();
  tb.join();

  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_NE(reader.FindDecompile("d" + std::to_string(i)), nullptr) << i;
    ASSERT_NE(reader.FindPartition("p" + std::to_string(i)), nullptr) << i;
  }
  EXPECT_EQ(reader.stats().disk_bad_entries, 0u);
  EXPECT_EQ(reader.stats().misses, 0u);
  // No temp-file litter once both writers finished.
  EXPECT_EQ(DiskStore({dir.path, 0}).ComputeStats().stale_files, 0u);
}

TEST(DiskStoreTest, EvictionKeepsTheStoreUnderItsBudget) {
  TempDir dir;
  const std::string payload(2048, 'x');
  // Budget fits ~3 entries; writes beyond that must evict the oldest.
  DiskStore store({dir.path, 3 * 4096});
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(store.Store(kDecompileKind, "k" + std::to_string(i), payload));
    // Distinct mtimes make the LRU order deterministic on coarse-timestamp
    // filesystems.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto stats = store.ComputeStats();
  EXPECT_LE(stats.total_bytes, 3u * 4096u);
  EXPECT_LT(stats.decompile_entries, 12u);
  EXPECT_GT(stats.decompile_entries, 0u);
  // LRU-by-mtime: the newest entry survives, the oldest is gone.
  EXPECT_TRUE(store.Load(kDecompileKind, "k11").has_value());
  EXPECT_FALSE(store.Load(kDecompileKind, "k0").has_value());
}

TEST(DiskStoreTest, GcReclaimsStaleSchemaTrees) {
  TempDir dir;
  DiskStore store({dir.path, 0});
  ASSERT_TRUE(store.Store(kPartitionKind, "keep", "payload"));
  // Simulate a leftover tree from an older on-disk format.
  const fs::path stale = fs::path(dir.path) / "v0" / "pa";
  ASSERT_TRUE(support::AtomicWriteFile(stale / "old.bin", "stale bytes"));
  EXPECT_EQ(store.ComputeStats().stale_files, 1u);

  EXPECT_GE(store.Gc(0), 1u);
  const auto stats = store.ComputeStats();
  EXPECT_EQ(stats.stale_files, 0u);
  EXPECT_EQ(stats.partition_entries, 1u);  // current entries survive
  EXPECT_TRUE(store.Load(kPartitionKind, "keep").has_value());
}

TEST(DiskStoreTest, GcAndClearNeverTouchForeignFiles) {
  TempDir dir;
  // A cache dir pointed at a shared/existing directory (WithCacheDir("."),
  // a mistyped --dir): maintenance must only ever touch the store's own
  // v<N> trees.
  DiskStore store({dir.path, 0});
  ASSERT_TRUE(store.Store(kDecompileKind, "k", "payload"));
  ASSERT_TRUE(support::AtomicWriteFile(fs::path(dir.path) / "notes.txt",
                                       "user data"));
  ASSERT_TRUE(support::AtomicWriteFile(
      fs::path(dir.path) / "project" / "main.cpp", "int main() {}\n"));
  (void)store.Gc(1);  // tiny budget: evicts every entry, not the user files
  store.Clear();
  EXPECT_TRUE(fs::exists(fs::path(dir.path) / "notes.txt"));
  EXPECT_TRUE(fs::exists(fs::path(dir.path) / "project" / "main.cpp"));
  EXPECT_FALSE(store.Load(kDecompileKind, "k").has_value());
}

TEST(DiskStoreTest, ClearRemovesEverything) {
  TempDir dir;
  DiskStore store({dir.path, 0});
  ASSERT_TRUE(store.Store(kDecompileKind, "k", "payload"));
  store.Clear();
  EXPECT_FALSE(store.Load(kDecompileKind, "k").has_value());
  const auto stats = store.ComputeStats();
  EXPECT_EQ(stats.decompile_entries + stats.partition_entries, 0u);
  EXPECT_EQ(stats.total_bytes, 0u);
}

TEST(DiskStoreTest, StoreSkipsExistingKeys) {
  TempDir dir;
  DiskStore store({dir.path, 0});
  EXPECT_TRUE(store.Store(kDecompileKind, "k", "first"));
  EXPECT_FALSE(store.Store(kDecompileKind, "k", "second"));  // already there
  EXPECT_EQ(*store.Load(kDecompileKind, "k"), "first");
}

// ---------------------------------------------------------------------------
// BinaryHash: the per-binary content-hash memo
// ---------------------------------------------------------------------------

mips::SoftBinary SampleBinary(std::uint32_t seed) {
  mips::SoftBinary binary;
  for (std::uint32_t i = 0; i < 64; ++i) binary.text.push_back(seed * 31 + i);
  binary.data = {static_cast<std::uint8_t>(seed), 1, 2, 3};
  binary.symbols = {{"main", mips::kTextBase}};
  return binary;
}

TEST(BinaryHashMemo, EqualsHashBinary) {
  ArtifactCache cache;
  std::vector<std::shared_ptr<const mips::SoftBinary>> binaries;
  for (std::uint32_t seed = 0; seed < 4; ++seed) {
    binaries.push_back(
        std::make_shared<const mips::SoftBinary>(SampleBinary(seed)));
    const std::string expected = HashBinary(*binaries.back());
    EXPECT_EQ(cache.BinaryHash(binaries.back()), expected);
    EXPECT_EQ(cache.BinaryHash(binaries.back()), expected);  // memoized
  }
  EXPECT_EQ(cache.stats().binary_digests, binaries.size());
}

TEST(BinaryHashMemo, ReusedAddressGetsItsOwnDigest) {
  // Both binaries live in the same storage, so the second one is
  // guaranteed the dead first one's address.
  alignas(mips::SoftBinary) unsigned char storage[sizeof(mips::SoftBinary)];
  const auto make_in_storage = [&](std::uint32_t seed) {
    const auto* binary = new (storage) mips::SoftBinary(SampleBinary(seed));
    return std::shared_ptr<const mips::SoftBinary>(
        binary, [](const mips::SoftBinary* dead) { dead->~SoftBinary(); });
  };
  ArtifactCache cache;
  auto first = make_in_storage(1);
  const std::string first_hash = cache.BinaryHash(first);
  first.reset();
  const auto second = make_in_storage(2);
  const std::string second_hash = cache.BinaryHash(second);
  EXPECT_NE(second_hash, first_hash);
  EXPECT_EQ(second_hash, HashBinary(*second));
}

TEST(BinaryHashMemo, DropsEntriesOfDeadBinaries) {
  ArtifactCache cache;
  const auto keep =
      std::make_shared<const mips::SoftBinary>(SampleBinary(1));
  (void)cache.BinaryHash(keep);
  for (std::uint32_t seed = 2; seed < 10; ++seed) {
    const auto transient =
        std::make_shared<const mips::SoftBinary>(SampleBinary(seed));
    (void)cache.BinaryHash(transient);
  }
  // Each insert dropped the entry of the binary that died before it, so
  // only `keep` and the last transient binary's entry remain.
  EXPECT_EQ(cache.stats().binary_digests, 2u);
  EXPECT_EQ(cache.BinaryHash(keep), HashBinary(*keep));
}

TEST(BinaryHashMemo, ConcurrentCallersAgree) {
  std::vector<std::shared_ptr<const mips::SoftBinary>> binaries;
  std::vector<std::string> expected;
  for (std::uint32_t seed = 0; seed < 8; ++seed) {
    binaries.push_back(
        std::make_shared<const mips::SoftBinary>(SampleBinary(seed)));
    expected.push_back(HashBinary(*binaries.back()));
  }
  ArtifactCache cache;
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        // Each thread walks the binaries from a different start, so first
        // sights race on every binary.
        for (std::size_t i = 0; i < binaries.size(); ++i) {
          const std::size_t b =
              (i + static_cast<std::size_t>(t)) % binaries.size();
          if (cache.BinaryHash(binaries[b]) != expected[b]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  EXPECT_EQ(cache.stats().binary_digests, binaries.size());
}

}  // namespace
}  // namespace b2h::explore
