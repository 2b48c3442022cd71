// Tests for MiniKv: SSTable format, bloom filters, CRUD, flush,
// compaction, WAL recovery, scans, and a randomized property test against
// a std::map reference model.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strutil.h"
#include "fsx/flatfs.h"
#include "kv/bloom.h"
#include "kv/minikv.h"
#include "kv/pushdown.h"
#include "kv/sstable.h"
#include "sim/simulator.h"

namespace nvmetro::kv {
namespace {

// --- BloomFilter ------------------------------------------------------------

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bloom(1000, 10);
  for (int i = 0; i < 1000; i++) bloom.Add(StrFormat("key%d", i));
  for (int i = 0; i < 1000; i++) {
    EXPECT_TRUE(bloom.MayContain(StrFormat("key%d", i)));
  }
}

TEST(BloomTest, FalsePositiveRateReasonable) {
  BloomFilter bloom(1000, 10);
  for (int i = 0; i < 1000; i++) bloom.Add(StrFormat("key%d", i));
  int fp = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; i++) {
    if (bloom.MayContain(StrFormat("absent%d", i))) fp++;
  }
  // 10 bits/key gives ~1%; allow generous margin.
  EXPECT_LT(fp, probes / 20);
}

TEST(BloomTest, SerializationRoundTrip) {
  BloomFilter bloom(100, 10);
  bloom.Add("hello");
  BloomFilter restored;
  restored.Restore(bloom.bits(), bloom.hashes());
  EXPECT_TRUE(restored.MayContain("hello"));
  EXPECT_FALSE(restored.MayContain("definitely-not-here-1234"));
}

// --- SSTable format ----------------------------------------------------------

TEST(SsTableTest, BuildAndParseTailRoundTrip) {
  std::map<std::string, Record> records;
  for (int i = 0; i < 500; i++) {
    std::string k = StrFormat("k%d", 1000 + i);
    records[k] = Record{k, std::string(100, static_cast<char>('a' + i % 26)),
                        false};
  }
  SsTableMeta meta;
  std::vector<u8> file = BuildSsTable(records, 4096, 10, &meta);
  EXPECT_EQ(meta.num_keys, 500u);
  EXPECT_GT(meta.num_blocks(), 5u);

  SsTableMeta parsed;
  ASSERT_TRUE(ParseSsTableTail(file, file.size(), &parsed).ok());
  EXPECT_EQ(parsed.num_keys, meta.num_keys);
  EXPECT_EQ(parsed.data_len, meta.data_len);
  EXPECT_EQ(parsed.first_keys, meta.first_keys);
  EXPECT_EQ(parsed.block_offsets, meta.block_offsets);
  EXPECT_TRUE(parsed.bloom.MayContain("k1000"));
}

TEST(SsTableTest, FindBlockLocatesKeys) {
  std::map<std::string, Record> records;
  for (int i = 100; i < 700; i++) {
    std::string k = StrFormat("key%d", i);
    records[k] = Record{k, "v", false};
  }
  SsTableMeta meta;
  std::vector<u8> file = BuildSsTable(records, 512, 10, &meta);
  for (int i = 100; i < 700; i += 37) {
    std::string k = StrFormat("key%d", i);
    i64 blk = meta.FindBlock(k);
    ASSERT_GE(blk, 0) << k;
    std::string value;
    EXPECT_EQ(FindInBlock(file.data() + meta.block_offsets[blk],
                          meta.BlockLen(static_cast<u32>(blk)), k, &value),
              BlockFind::kFound)
        << k;
  }
  // A key before all blocks.
  EXPECT_EQ(meta.FindBlock("aaa"), -1);
}

TEST(SsTableTest, TombstonesPreserved) {
  std::map<std::string, Record> records;
  records["dead"] = Record{"dead", "", true};
  records["live"] = Record{"live", "v", false};
  SsTableMeta meta;
  std::vector<u8> file = BuildSsTable(records, 4096, 10, &meta);
  std::string value;
  EXPECT_EQ(FindInBlock(file.data(), meta.data_len, "dead", &value),
            BlockFind::kTombstone);
  EXPECT_EQ(FindInBlock(file.data(), meta.data_len, "live", &value),
            BlockFind::kFound);
  EXPECT_EQ(value, "v");
}

TEST(SsTableTest, CorruptFooterRejected) {
  std::vector<u8> junk(100, 0xAB);
  SsTableMeta meta;
  EXPECT_FALSE(ParseSsTableTail(junk, junk.size(), &meta).ok());
}

// --- MiniKv -------------------------------------------------------------------

// RAM FsBackend (duplicated minimally from fsx tests to stay standalone).
class RamFsBackend : public fsx::FsBackend {
 public:
  RamFsBackend(sim::Simulator* sim, u64 capacity)
      : sim_(sim), data_(capacity, 0) {}
  void Read(u64 off, void* buf, u64 len, Callback done) override {
    sim_->ScheduleAfter(800, [this, off, buf, len, done] {
      if (off + len > data_.size()) {
        done(OutOfRange("OOB"));
        return;
      }
      memcpy(buf, data_.data() + off, len);
      done(OkStatus());
    });
  }
  void Write(u64 off, const void* buf, u64 len, Callback done) override {
    sim_->ScheduleAfter(800, [this, off, buf, len, done] {
      if (off + len > data_.size()) {
        done(OutOfRange("OOB"));
        return;
      }
      memcpy(data_.data() + off, buf, len);
      done(OkStatus());
    });
  }
  void Flush(Callback done) override {
    sim_->ScheduleAfter(800, [done] { done(OkStatus()); });
  }
  u64 capacity() const override { return data_.size(); }

 private:
  sim::Simulator* sim_;
  std::vector<u8> data_;
};

struct KvFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<RamFsBackend> backend =
      std::make_unique<RamFsBackend>(&sim, 256 * MiB);
  std::unique_ptr<fsx::FlatFs> fs;
  std::unique_ptr<MiniKv> db;

  void SetUp() override {
    bool ok = false;
    fsx::FlatFs::Format(backend.get(), [&](Status st) {
      ASSERT_TRUE(st.ok());
      ok = true;
    });
    sim.Run();
    ASSERT_TRUE(ok);
    MountFs();
    OpenDb(DefaultOptions());
  }

  static MiniKvOptions DefaultOptions() {
    MiniKvOptions opt;
    opt.memtable_bytes = 64 * KiB;  // small, to exercise flushes
    opt.compact_threshold = 4;
    return opt;
  }

  void MountFs() {
    fs.reset();
    bool ok = false;
    fsx::FlatFs::Mount(backend.get(),
                       [&](Result<std::unique_ptr<fsx::FlatFs>> r) {
                         ASSERT_TRUE(r.ok()) << r.status().ToString();
                         fs = std::move(*r);
                         ok = true;
                       });
    sim.Run();
    ASSERT_TRUE(ok);
  }

  void OpenDb(MiniKvOptions opt) {
    db.reset();
    bool ok = false;
    MiniKv::Open(&sim, fs.get(), opt,
                 [&](Result<std::unique_ptr<MiniKv>> r) {
                   ASSERT_TRUE(r.ok()) << r.status().ToString();
                   db = std::move(*r);
                   ok = true;
                 });
    sim.Run();
    ASSERT_TRUE(ok);
  }

  Status PutSync(const std::string& k, const std::string& v) {
    Status result = Internal("pending");
    db->Put(k, v, [&](Status st) { result = st; });
    sim.Run();
    return result;
  }
  Status DeleteSync(const std::string& k) {
    Status result = Internal("pending");
    db->Delete(k, [&](Status st) { result = st; });
    sim.Run();
    return result;
  }
  Result<std::string> GetSync(const std::string& k) {
    Result<std::string> result = Internal("pending");
    db->Get(k, [&](Result<std::string> r) { result = std::move(r); });
    sim.Run();
    return result;
  }
  Result<MiniKv::ScanResult> ScanSync(const std::string& start, u32 n) {
    Result<MiniKv::ScanResult> result = Internal("pending");
    db->Scan(start, n,
             [&](Result<MiniKv::ScanResult> r) { result = std::move(r); });
    sim.Run();
    return result;
  }
  Status FlushSync() {
    Status result = Internal("pending");
    db->FlushMemtable([&](Status st) { result = st; });
    sim.Run();
    return result;
  }
};

TEST_F(KvFixture, PutGetFromMemtable) {
  ASSERT_TRUE(PutSync("alpha", "one").ok());
  auto r = GetSync("alpha");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "one");
  EXPECT_GT(db->stats().memtable_hits, 0u);
}

TEST_F(KvFixture, GetMissingKey) {
  auto r = GetSync("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(KvFixture, OverwriteReturnsLatest) {
  ASSERT_TRUE(PutSync("k", "v1").ok());
  ASSERT_TRUE(PutSync("k", "v2").ok());
  EXPECT_EQ(*GetSync("k"), "v2");
}

TEST_F(KvFixture, DeleteHidesKey) {
  ASSERT_TRUE(PutSync("k", "v").ok());
  ASSERT_TRUE(DeleteSync("k").ok());
  EXPECT_FALSE(GetSync("k").ok());
}

TEST_F(KvFixture, GetFromSstAfterFlush) {
  ASSERT_TRUE(PutSync("durable", "value-on-disk").ok());
  ASSERT_TRUE(FlushSync().ok());
  EXPECT_EQ(db->sstable_count(), 1u);
  EXPECT_EQ(db->memtable_bytes(), 0u);
  auto r = GetSync("durable");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "value-on-disk");
  EXPECT_GT(db->stats().block_reads + db->stats().block_cache_hits, 0u);
}

TEST_F(KvFixture, DeleteShadowsSstValue) {
  ASSERT_TRUE(PutSync("k", "old").ok());
  ASSERT_TRUE(FlushSync().ok());
  ASSERT_TRUE(DeleteSync("k").ok());
  EXPECT_FALSE(GetSync("k").ok());
  // Even after the tombstone itself is flushed.
  ASSERT_TRUE(FlushSync().ok());
  EXPECT_FALSE(GetSync("k").ok());
}

TEST_F(KvFixture, AutomaticFlushOnMemtableFull) {
  std::string big(4000, 'x');
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(PutSync(StrFormat("key%d", i), big).ok());
  }
  sim.Run();
  EXPECT_GT(db->stats().flushes, 0u);
  EXPECT_GE(db->sstable_count(), 1u);
  // All keys still readable.
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(GetSync(StrFormat("key%d", i)).ok()) << i;
  }
}

TEST_F(KvFixture, CompactionMergesRuns) {
  std::string pad(2000, 'p');
  for (int round = 0; round < 6; round++) {
    for (int i = 0; i < 20; i++) {
      ASSERT_TRUE(PutSync(StrFormat("k%d", i), pad + std::to_string(round))
                      .ok());
    }
    ASSERT_TRUE(FlushSync().ok());
  }
  sim.Run();  // let compaction finish
  EXPECT_GT(db->stats().compactions, 0u);
  EXPECT_LT(db->sstable_count(), 6u);
  // Latest values survive the merge.
  for (int i = 0; i < 20; i++) {
    auto r = GetSync(StrFormat("k%d", i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, pad + "5");
  }
}

TEST_F(KvFixture, CompactionDropsTombstones) {
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(PutSync(StrFormat("k%d", i), "v").ok());
  }
  ASSERT_TRUE(FlushSync().ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(DeleteSync(StrFormat("k%d", i)).ok());
  }
  for (int round = 0; round < 5; round++) {
    ASSERT_TRUE(PutSync(StrFormat("pad%d", round), "v").ok());
    ASSERT_TRUE(FlushSync().ok());
  }
  sim.Run();
  ASSERT_GT(db->stats().compactions, 0u);
  for (int i = 0; i < 10; i++) {
    EXPECT_FALSE(GetSync(StrFormat("k%d", i)).ok()) << i;
  }
}

TEST_F(KvFixture, WalRecoveryAfterCrash) {
  ASSERT_TRUE(PutSync("persisted", "by-wal").ok());
  ASSERT_TRUE(PutSync("another", "value").ok());
  // Force the WAL buffer out by writing enough bytes.
  std::string big(40'000, 'w');
  ASSERT_TRUE(PutSync("big", big).ok());
  sim.Run();
  // "Crash": drop the DB (not flushed), remount from disk. The FlatFs
  // metadata was synced when the WAL was created at Open.
  db.reset();
  MountFs();
  OpenDb(DefaultOptions());
  auto r = GetSync("persisted");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "by-wal");
  EXPECT_EQ(*GetSync("big"), big);
}

TEST_F(KvFixture, ReopenLoadsSstables) {
  ASSERT_TRUE(PutSync("a", "1").ok());
  ASSERT_TRUE(PutSync("b", "2").ok());
  ASSERT_TRUE(FlushSync().ok());
  db.reset();
  MountFs();
  OpenDb(DefaultOptions());
  EXPECT_EQ(db->sstable_count(), 1u);
  EXPECT_EQ(*GetSync("a"), "1");
  EXPECT_EQ(*GetSync("b"), "2");
}

TEST_F(KvFixture, ScanReturnsSortedRange) {
  for (int i = 0; i < 50; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(PutSync(key, StrFormat("v%d", i)).ok());
    if (i % 17 == 0) {
      ASSERT_TRUE(FlushSync().ok());
    }
  }
  auto r = ScanSync("k010", 10);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 10u);
  EXPECT_EQ((*r)[0].first, "k010");
  EXPECT_EQ((*r)[9].first, "k019");
  for (usize i = 1; i < r->size(); i++) {
    EXPECT_LT((*r)[i - 1].first, (*r)[i].first);
  }
}

TEST_F(KvFixture, ScanSkipsTombstonesAndUsesNewest) {
  ASSERT_TRUE(PutSync("s1", "old").ok());
  ASSERT_TRUE(PutSync("s2", "dead").ok());
  ASSERT_TRUE(FlushSync().ok());
  ASSERT_TRUE(PutSync("s1", "new").ok());
  ASSERT_TRUE(DeleteSync("s2").ok());
  auto r = ScanSync("s", 10);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].first, "s1");
  EXPECT_EQ((*r)[0].second, "new");
}

TEST_F(KvFixture, BloomFiltersSkipAbsentTables) {
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(PutSync(StrFormat("table%d", i), "v").ok());
    ASSERT_TRUE(FlushSync().ok());
  }
  u64 skips_before = db->stats().bloom_skips;
  // Key in the OLDEST table: newer tables must be bloom-skipped.
  EXPECT_TRUE(GetSync("table0").ok());
  EXPECT_GT(db->stats().bloom_skips, skips_before);
}

TEST_F(KvFixture, BlockCacheServesRepeatedReads) {
  ASSERT_TRUE(PutSync("hot", "data").ok());
  ASSERT_TRUE(FlushSync().ok());
  ASSERT_TRUE(GetSync("hot").ok());
  u64 reads_before = db->stats().block_reads;
  for (int i = 0; i < 10; i++) ASSERT_TRUE(GetSync("hot").ok());
  EXPECT_EQ(db->stats().block_reads, reads_before);  // all cache hits
  EXPECT_GE(db->stats().block_cache_hits, 10u);
}

TEST_F(KvFixture, RandomOpsMatchReferenceModel) {
  Rng rng(12345);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 800; op++) {
    u64 key_id = rng.NextBounded(120);
    std::string key = "key" + std::to_string(key_id);
    switch (rng.NextBounded(10)) {
      case 0:
      case 1: {  // delete
        model.erase(key);
        ASSERT_TRUE(DeleteSync(key).ok());
        break;
      }
      case 2: {  // flush occasionally
        ASSERT_TRUE(FlushSync().ok());
        break;
      }
      default: {  // put
        std::string value(50 + rng.NextBounded(400), 0);
        rng.Fill(value.data(), value.size());
        model[key] = value;
        ASSERT_TRUE(PutSync(key, value).ok());
      }
    }
    if (op % 50 == 49) {
      // Verify a random sample against the model.
      for (int probe = 0; probe < 10; probe++) {
        std::string k = "key" + std::to_string(rng.NextBounded(120));
        auto r = GetSync(k);
        auto it = model.find(k);
        if (it == model.end()) {
          EXPECT_FALSE(r.ok()) << k << " at op " << op;
        } else {
          ASSERT_TRUE(r.ok()) << k << " at op " << op;
          EXPECT_EQ(*r, it->second) << k;
        }
      }
    }
  }
  sim.Run();
  // Full verification at the end, after background work settles.
  for (const auto& [k, v] : model) {
    auto r = GetSync(k);
    ASSERT_TRUE(r.ok()) << k;
    EXPECT_EQ(*r, v) << k;
  }
}

// Synchronous-WAL options: every acknowledged write is on "disk" once
// the event queue drains, so a crash (even with a filesystem remount)
// must lose nothing. The default group-commit buffer trades exactly this
// away for throughput, like RocksDB with WriteOptions.sync=false.
static MiniKvOptions SyncWalOptions() {
  MiniKvOptions opt = KvFixture::DefaultOptions();
  opt.wal_buffer_bytes = 0;
  return opt;
}

TEST_F(KvFixture, ScanSeesWalRecoveredRecords) {
  OpenDb(SyncWalOptions());
  ASSERT_TRUE(PutSync("key139", "recovered-value").ok());
  // Machine crash: drop the DB and remount the filesystem from disk.
  db.reset();
  MountFs();
  OpenDb(SyncWalOptions());
  auto g = GetSync("key139");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(*g, "recovered-value");
  auto r = ScanSync("key053", 20);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u) << "scan missed a WAL-recovered record";
  EXPECT_EQ((*r)[0].first, "key139");
}

TEST_F(KvFixture, BufferedWalMayLoseOnlyUnflushedTail) {
  // The durability contract of the *default* options: a crash can lose
  // recent acknowledged writes still in the WAL buffer, but never
  // corrupts — recovery yields a clean prefix of the history.
  ASSERT_TRUE(PutSync("a", "1").ok());
  std::string big(40'000, 'w');  // pushes the buffer past 32 KiB
  ASSERT_TRUE(PutSync("b", big).ok());
  ASSERT_TRUE(PutSync("c", "tail-maybe-lost").ok());
  db.reset();
  MountFs();
  OpenDb(DefaultOptions());
  EXPECT_EQ(*GetSync("a"), "1");
  EXPECT_EQ(*GetSync("b"), big);
  auto r = GetSync("c");  // either recovered intact or cleanly absent
  if (r.ok()) {
    EXPECT_EQ(*r, "tail-maybe-lost");
  }
}

TEST_F(KvFixture, RandomOpsWithReopensAndScansMatchModel) {
  // Differential test with the two hardest behaviours interleaved:
  // crash+recovery (drop the instance, remount the filesystem — with a
  // synchronous WAL every acknowledged write must come back) and range
  // scans (which merge memtable + all SSTable runs and must agree with
  // the model exactly).
  OpenDb(SyncWalOptions());
  Rng rng(777);
  std::map<std::string, std::string> model;
  const u64 kKeySpace = 150;
  auto key_of = [](u64 id) {
    char b[16];
    snprintf(b, sizeof(b), "key%03llu", static_cast<unsigned long long>(id));
    return std::string(b);
  };
  for (int op = 0; op < 600; op++) {
    std::string key = key_of(rng.NextBounded(kKeySpace));
    u64 roll = rng.NextBounded(20);
    if (roll < 3) {
      model.erase(key);
      ASSERT_TRUE(DeleteSync(key).ok());
    } else if (roll == 3) {
      // Crash: drop the instance on the floor, remount, recover.
      db.reset();
      MountFs();
      OpenDb(SyncWalOptions());
    } else if (roll < 6) {
      std::string start = key_of(rng.NextBounded(kKeySpace));
      u32 n = 1 + static_cast<u32>(rng.NextBounded(20));
      auto r = ScanSync(start, n);
      ASSERT_TRUE(r.ok()) << "scan at op " << op;
      auto it = model.lower_bound(start);
      for (usize i = 0; i < r->size(); ++i, ++it) {
        ASSERT_NE(it, model.end()) << "scan over-produced at op " << op;
        EXPECT_EQ((*r)[i].first, it->first) << "op " << op;
        EXPECT_EQ((*r)[i].second, it->second) << "op " << op;
      }
      if (r->size() < n) {
        EXPECT_EQ(it, model.end()) << "scan under-produced at op " << op;
      }
    } else {
      std::string value(20 + rng.NextBounded(200), 0);
      rng.Fill(value.data(), value.size());
      model[key] = value;
      ASSERT_TRUE(PutSync(key, value).ok());
    }
  }
  // One last crash, then verify the whole key space (absences too).
  db.reset();
  MountFs();
  OpenDb(SyncWalOptions());
  for (u64 id = 0; id < kKeySpace; id++) {
    std::string k = key_of(id);
    auto r = GetSync(k);
    auto it = model.find(k);
    if (it == model.end()) {
      EXPECT_FALSE(r.ok()) << k;
    } else {
      ASSERT_TRUE(r.ok()) << k;
      EXPECT_EQ(*r, it->second) << k;
    }
  }
}

// --- Pushdown index (DESIGN.md §15) ------------------------------------------

TEST(PushdownTest, SingleLeafFormat) {
  std::vector<std::pair<u64, u64>> kvs = {{10, 100}, {20, 200}, {30, 300}};
  PushdownIndex idx = BuildPushdownIndex(kvs, /*base_lba=*/64);
  EXPECT_EQ(idx.levels, 1u);
  EXPECT_EQ(idx.num_blocks(), 1u);
  EXPECT_EQ(idx.root_lba(), 64u);
  const u8* root = idx.image.data();
  EXPECT_EQ(PushdownMagicOf(root), kPushdownMagic);
  EXPECT_EQ(PushdownLevel(root), 0u);
  EXPECT_EQ(PushdownNumKeys(root), 3u);
  EXPECT_EQ(PushdownEntryKey(root, 1), 20u);
  EXPECT_EQ(PushdownEntryVal(root, 1), 200u);
  // Missing slots carry the pad key so the floor search self-excludes.
  EXPECT_EQ(PushdownEntryKey(root, 3), kPushdownPadKey);
  EXPECT_EQ(PushdownEntryKey(root, kPushdownFanout - 1), kPushdownPadKey);
}

TEST(PushdownTest, SearchBlockIsFloorSearch) {
  std::vector<std::pair<u64, u64>> kvs;
  for (u64 i = 0; i < kPushdownFanout; i++) kvs.push_back({i * 10, i});
  PushdownIndex idx = BuildPushdownIndex(kvs, 0);
  const u8* blk = idx.image.data();
  EXPECT_EQ(PushdownSearchBlock(blk, 0), 0u);
  EXPECT_EQ(PushdownSearchBlock(blk, 9), 0u);    // below entry 1
  EXPECT_EQ(PushdownSearchBlock(blk, 10), 1u);   // exact
  EXPECT_EQ(PushdownSearchBlock(blk, 1275), 127u);
  EXPECT_EQ(PushdownSearchBlock(blk, ~1ull), 127u);
}

TEST(PushdownTest, MultiLevelWalkFindsEveryKey) {
  std::vector<std::pair<u64, u64>> kvs;
  for (u64 i = 0; i < 40'000; i++) kvs.push_back({i * 13 + 5, i ^ 0xABCD});
  PushdownIndex idx = BuildPushdownIndex(kvs, /*base_lba=*/128);
  // 40000 keys -> 313 leaves -> 3 level-1 blocks -> 1 root.
  EXPECT_EQ(idx.levels, 3u);
  for (u64 i = 0; i < kvs.size(); i += 197) {
    u64 value = 0;
    u32 hops = 0;
    ASSERT_TRUE(PushdownLookupImage(idx, kvs[i].first, &value, &hops))
        << kvs[i].first;
    EXPECT_EQ(value, kvs[i].second);
    EXPECT_EQ(hops, idx.levels - 1);
  }
  // Absent keys resolve to a leaf but fail the exact match.
  u64 value = 0;
  u32 hops = 0;
  EXPECT_FALSE(PushdownLookupImage(idx, 6, &value, &hops));
}

TEST(PushdownTest, LeafLookupRejectsNonLeafAndBadMagic) {
  std::vector<std::pair<u64, u64>> kvs = {{1, 2}};
  PushdownIndex idx = BuildPushdownIndex(kvs, 0);
  std::vector<u8> blk(idx.image.begin(),
                      idx.image.begin() + kPushdownBlockBytes);
  u64 value = 0;
  EXPECT_TRUE(PushdownLeafLookup(blk.data(), 1, &value));
  EXPECT_EQ(value, 2u);
  // Internal level: not a leaf.
  u64 word0 = (static_cast<u64>(kPushdownMagic) << 32) | 1;
  memcpy(blk.data(), &word0, 8);
  EXPECT_FALSE(PushdownLeafLookup(blk.data(), 1, &value));
  // Bad magic: not an index block at all.
  word0 = 0;
  memcpy(blk.data(), &word0, 8);
  EXPECT_FALSE(PushdownLeafLookup(blk.data(), 1, &value));
}

TEST(PushdownTest, EmptyInputYieldsOneEmptyLeaf) {
  PushdownIndex idx = BuildPushdownIndex({}, 0);
  EXPECT_EQ(idx.levels, 1u);
  EXPECT_EQ(idx.num_blocks(), 1u);
  u64 value = 0;
  EXPECT_FALSE(PushdownLeafLookup(idx.image.data(), 0, &value));
}

TEST(PushdownTest, KeyPrefixOrdersLikeStrings) {
  EXPECT_LT(PushdownKeyPrefix("apple"), PushdownKeyPrefix("banana"));
  EXPECT_LT(PushdownKeyPrefix("app"), PushdownKeyPrefix("apple"));
  EXPECT_EQ(PushdownKeyPrefix("12345678"), PushdownKeyPrefix("12345678x"));
}

TEST(PushdownTest, SsTableIndexMatchesFindBlock) {
  std::map<std::string, Record> records;
  for (int i = 1000; i < 1600; i++) {
    std::string k = StrFormat("row%d", i);
    records[k] = Record{k, std::string(40, 'v'), false};
  }
  SsTableMeta meta;
  (void)BuildSsTable(records, 256, 10, &meta);
  ASSERT_GT(meta.num_blocks(), 2u);
  PushdownIndex idx = BuildSsTablePushdownIndex(meta, 0);
  // Every block's first key resolves (exact match on its prefix) to
  // that block number, agreeing with the SSTable's own directory.
  for (u32 b = 0; b < meta.num_blocks(); b++) {
    const std::string& k = meta.first_keys[b];
    u64 value = 0;
    u32 hops = 0;
    ASSERT_TRUE(PushdownLookupImage(idx, PushdownKeyPrefix(k), &value, &hops))
        << k;
    EXPECT_EQ(value, b) << k;
    EXPECT_EQ(static_cast<i64>(b), meta.FindBlock(k)) << k;
  }
}

}  // namespace
}  // namespace nvmetro::kv
