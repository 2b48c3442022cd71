// Tests for FlatFs: format/mount, append/read, extents, persistence,
// crash-recovery of metadata, and space management.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/strutil.h"
#include "fsx/flatfs.h"
#include "sim/simulator.h"

namespace nvmetro::fsx {
namespace {

/// Test backend: RAM with a small fixed latency via the simulator.
class RamFsBackend : public FsBackend {
 public:
  RamFsBackend(sim::Simulator* sim, u64 capacity, SimTime latency = 1000)
      : sim_(sim), data_(capacity, 0), latency_(latency) {}

  void Read(u64 offset, void* buf, u64 len, Callback done) override {
    reads_++;
    sim_->ScheduleAfter(latency_, [this, offset, buf, len, done] {
      if (offset + len > data_.size()) {
        done(OutOfRange("backend read OOB"));
        return;
      }
      memcpy(buf, data_.data() + offset, len);
      done(OkStatus());
    });
  }
  void Write(u64 offset, const void* buf, u64 len, Callback done) override {
    writes_++;
    sim_->ScheduleAfter(latency_, [this, offset, buf, len, done] {
      if (offset + len > data_.size()) {
        done(OutOfRange("backend write OOB"));
        return;
      }
      memcpy(data_.data() + offset, buf, len);
      done(OkStatus());
    });
  }
  void Flush(Callback done) override {
    sim_->ScheduleAfter(latency_, [done] { done(OkStatus()); });
  }
  u64 capacity() const override { return data_.size(); }

  u64 reads_ = 0, writes_ = 0;

 private:
  sim::Simulator* sim_;
  std::vector<u8> data_;
  SimTime latency_;
};

struct FsFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<RamFsBackend> backend =
      std::make_unique<RamFsBackend>(&sim, 64 * MiB);
  std::unique_ptr<FlatFs> fs;

  void FormatAndMount() {
    bool formatted = false;
    FlatFs::Format(backend.get(), [&](Status st) {
      ASSERT_TRUE(st.ok()) << st.ToString();
      formatted = true;
    });
    sim.Run();
    ASSERT_TRUE(formatted);
    Remount();
  }

  void Remount() {
    fs.reset();
    bool mounted = false;
    FlatFs::Mount(backend.get(), [&](Result<std::unique_ptr<FlatFs>> r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      fs = std::move(*r);
      mounted = true;
    });
    sim.Run();
    ASSERT_TRUE(mounted);
  }

  Status AppendSync(const std::string& name, const std::vector<u8>& data) {
    Status result = Internal("pending");
    fs->Append(name, data.data(), data.size(),
               [&](Status st) { result = st; });
    sim.Run();
    return result;
  }

  Status ReadSync(const std::string& name, u64 off, std::vector<u8>* out) {
    Status result = Internal("pending");
    fs->ReadAt(name, off, out->data(), out->size(),
               [&](Status st) { result = st; });
    sim.Run();
    return result;
  }

  Status SyncFs() {
    Status result = Internal("pending");
    fs->Sync([&](Status st) { result = st; });
    sim.Run();
    return result;
  }
};

TEST_F(FsFixture, MountUnformattedFails) {
  bool called = false;
  FlatFs::Mount(backend.get(), [&](Result<std::unique_ptr<FlatFs>> r) {
    EXPECT_FALSE(r.ok());
    called = true;
  });
  sim.Run();
  EXPECT_TRUE(called);
}

TEST_F(FsFixture, CreateAppendRead) {
  FormatAndMount();
  ASSERT_TRUE(fs->Create("wal").ok());
  Rng rng(3);
  std::vector<u8> data(10'000);
  rng.Fill(data.data(), data.size());
  ASSERT_TRUE(AppendSync("wal", data).ok());
  EXPECT_EQ(fs->FileSize("wal"), data.size());
  std::vector<u8> out(data.size());
  ASSERT_TRUE(ReadSync("wal", 0, &out).ok());
  EXPECT_EQ(out, data);
  // Partial read at an offset.
  std::vector<u8> mid(100);
  ASSERT_TRUE(ReadSync("wal", 5000, &mid).ok());
  EXPECT_EQ(0, memcmp(mid.data(), data.data() + 5000, 100));
}

TEST_F(FsFixture, DuplicateCreateFails) {
  FormatAndMount();
  ASSERT_TRUE(fs->Create("f").ok());
  EXPECT_EQ(fs->Create("f").code(), StatusCode::kAlreadyExists);
}

TEST_F(FsFixture, ReadPastEofFails) {
  FormatAndMount();
  ASSERT_TRUE(fs->Create("f").ok());
  std::vector<u8> data(100, 1);
  ASSERT_TRUE(AppendSync("f", data).ok());
  std::vector<u8> out(200);
  EXPECT_FALSE(ReadSync("f", 0, &out).ok());
}

TEST_F(FsFixture, MultipleAppendsGrowAcrossExtents) {
  FormatAndMount();
  ASSERT_TRUE(fs->Create("big").ok());
  Rng rng(5);
  std::vector<u8> all;
  // Append enough to need several 256 KiB extents.
  for (int i = 0; i < 10; i++) {
    std::vector<u8> chunk(100'000);
    rng.Fill(chunk.data(), chunk.size());
    ASSERT_TRUE(AppendSync("big", chunk).ok());
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(fs->FileSize("big"), all.size());
  std::vector<u8> out(all.size());
  ASSERT_TRUE(ReadSync("big", 0, &out).ok());
  EXPECT_EQ(out, all);
}

TEST_F(FsFixture, PersistenceAcrossRemount) {
  FormatAndMount();
  ASSERT_TRUE(fs->Create("a").ok());
  ASSERT_TRUE(fs->Create("b").ok());
  std::vector<u8> data(4096, 0x5C);
  ASSERT_TRUE(AppendSync("a", data).ok());
  ASSERT_TRUE(SyncFs().ok());
  Remount();
  EXPECT_TRUE(fs->Exists("a"));
  EXPECT_TRUE(fs->Exists("b"));
  EXPECT_EQ(fs->FileSize("a"), 4096u);
  std::vector<u8> out(4096);
  ASSERT_TRUE(ReadSync("a", 0, &out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FsFixture, UnsyncedChangesLostOnRemount) {
  FormatAndMount();
  ASSERT_TRUE(fs->Create("synced").ok());
  ASSERT_TRUE(SyncFs().ok());
  ASSERT_TRUE(fs->Create("unsynced").ok());
  Remount();  // "crash": drop in-memory state
  EXPECT_TRUE(fs->Exists("synced"));
  EXPECT_FALSE(fs->Exists("unsynced"));
}

TEST_F(FsFixture, RemoveFreesSpaceAfterSyncCommit) {
  FormatAndMount();
  ASSERT_TRUE(fs->Create("x").ok());
  std::vector<u8> data(1 * MiB, 7);
  ASSERT_TRUE(AppendSync("x", data).ok());
  u64 free_before = fs->bytes_free();
  ASSERT_TRUE(fs->Remove("x").ok());
  EXPECT_FALSE(fs->Exists("x"));
  // The extents are NOT immediately reusable: until a Sync commits
  // metadata without "x", the durable metadata still maps them, and
  // reusing them would corrupt a crash-recovered image.
  EXPECT_EQ(fs->bytes_free(), free_before);
  ASSERT_TRUE(SyncFs().ok());
  EXPECT_GT(fs->bytes_free(), free_before);
  // Now the freed extent is reused by a new file.
  ASSERT_TRUE(fs->Create("y").ok());
  ASSERT_TRUE(AppendSync("y", data).ok());
  std::vector<u8> out(data.size());
  ASSERT_TRUE(ReadSync("y", 0, &out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FsFixture, OutOfSpaceReported) {
  backend = std::make_unique<RamFsBackend>(&sim, 2 * MiB);
  FormatAndMount();
  ASSERT_TRUE(fs->Create("f").ok());
  std::vector<u8> chunk(1 * MiB, 1);
  ASSERT_TRUE(AppendSync("f", chunk).ok());
  // Second MiB cannot fit (superblock + meta + rounding overhead).
  Status st = AppendSync("f", chunk);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST_F(FsFixture, RepeatedSyncsRecycleMetaExtents) {
  FormatAndMount();
  ASSERT_TRUE(fs->Create("f").ok());
  u64 free_start = fs->bytes_free();
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(SyncFs().ok());
  }
  // Metadata double-buffering keeps at most ~2 extents outstanding.
  EXPECT_GE(fs->bytes_free() + 2 * 256 * KiB + 4096, free_start);
  Remount();
  EXPECT_TRUE(fs->Exists("f"));
}

TEST_F(FsFixture, ManyFilesSurviveRemount) {
  FormatAndMount();
  Rng rng(9);
  std::map<std::string, std::vector<u8>> contents;
  for (int i = 0; i < 20; i++) {
    std::string name = "file-" + std::to_string(i);
    ASSERT_TRUE(fs->Create(name).ok());
    std::vector<u8> data(1000 + rng.NextBounded(5000));
    rng.Fill(data.data(), data.size());
    ASSERT_TRUE(AppendSync(name, data).ok());
    contents[name] = std::move(data);
  }
  ASSERT_TRUE(SyncFs().ok());
  Remount();
  EXPECT_EQ(fs->List().size(), 20u);
  for (const auto& [name, data] : contents) {
    std::vector<u8> out(data.size());
    ASSERT_TRUE(ReadSync(name, 0, &out).ok()) << name;
    EXPECT_EQ(out, data) << name;
  }
}

TEST_F(FsFixture, RandomCrashRecoveryMatchesSyncModel) {
  // Differential crash-consistency test. FlatFs's contract: file *data*
  // is written through to the backend immediately, file *metadata*
  // (names, sizes, extents) becomes durable at Sync. So after a crash
  // (remount), the filesystem must look exactly like the model captured
  // at the last Sync — files created/appended/removed since then roll
  // back, and nothing ever corrupts.
  FormatAndMount();
  Rng rng(31337);
  std::map<std::string, std::vector<u8>> live;    // what the app wrote
  std::map<std::string, std::vector<u8>> synced;  // state at last Sync
  int crashes = 0, syncs = 0;

  for (int op = 0; op < 300; op++) {
    std::string name = StrFormat("f%llu", static_cast<unsigned long long>(
                                              rng.NextBounded(12)));
    switch (rng.NextBounded(10)) {
      case 0: {  // create
        Status st = fs->Create(name);
        EXPECT_EQ(st.ok(), !live.count(name)) << name << " op " << op;
        if (st.ok()) live[name] = {};
        break;
      }
      case 1: {  // remove
        Status st = fs->Remove(name);
        EXPECT_EQ(st.ok(), live.count(name) > 0) << name << " op " << op;
        live.erase(name);
        break;
      }
      case 2: {  // sync: live state becomes the durable state
        ASSERT_TRUE(SyncFs().ok());
        synced = live;
        syncs++;
        break;
      }
      case 3: {  // crash + remount: durable state comes back, exactly
        Remount();
        live = synced;
        crashes++;
        for (const auto& [fname, bytes] : synced) {
          ASSERT_EQ(fs->FileSize(fname), bytes.size())
              << fname << " after crash " << crashes;
          if (!bytes.empty()) {
            std::vector<u8> out(bytes.size());
            ASSERT_TRUE(ReadSync(fname, 0, &out).ok()) << fname;
            EXPECT_EQ(out, bytes) << fname << " corrupted by crash";
          }
        }
        // Files that only existed post-sync must be gone.
        EXPECT_EQ(fs->List().size(), synced.size());
        break;
      }
      default: {  // append
        if (!live.count(name)) {
          ASSERT_TRUE(fs->Create(name).ok());
          live[name] = {};
        }
        std::vector<u8> chunk(1 + rng.NextBounded(6000));
        rng.Fill(chunk.data(), chunk.size());
        ASSERT_TRUE(AppendSync(name, chunk).ok()) << name;
        auto& bytes = live[name];
        bytes.insert(bytes.end(), chunk.begin(), chunk.end());
      }
    }
  }
  EXPECT_GT(crashes, 5);  // the schedule actually exercised recovery
  EXPECT_GT(syncs, 5);

  // Final live verification (no crash): everything written must read
  // back regardless of sync state.
  for (const auto& [fname, bytes] : live) {
    ASSERT_EQ(fs->FileSize(fname), bytes.size()) << fname;
    if (bytes.empty()) continue;
    std::vector<u8> out(bytes.size());
    ASSERT_TRUE(ReadSync(fname, 0, &out).ok()) << fname;
    EXPECT_EQ(out, bytes) << fname;
  }
}

}  // namespace
}  // namespace nvmetro::fsx
