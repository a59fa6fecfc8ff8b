// Tests for the durability layer (docs/durability.md): the WAL codec
// (CRC32, append/scan/truncate, the group-commit fsync window), the
// seeded fault schedule and its `%!` spec line, compacted snapshots with
// the tmp+fsync+rename protocol, crash recovery (snapshot load, WAL tail
// replay, torn-tail truncation, epoch skips, idempotence), oracle pair
// #11 (crash-recover-vs-replay) with its planted skip-truncate bug, and
// a server restart that recovers and keeps committing.

#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "eval/incremental.h"
#include "eval/test_hooks.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"
#include "store/fault.h"
#include "store/io.h"
#include "store/recover.h"
#include "store/snapshotter.h"
#include "store/store.h"
#include "store/wal.h"
#include "testing/oracle.h"

namespace datalog {
namespace {

using store::DurabilityFaultSchedule;
using store::DurabilitySpec;
using store::DurableStore;
using store::LoadSnapshot;
using store::Recover;
using store::ScanWal;
using store::SnapshotData;
using store::Snapshotter;
using store::StoreOptions;
using store::Wal;
using store::WalOptions;
using store::WalScan;

/// A throwaway store directory, removed (with the three well-known store
/// files) on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    const char* base = ::getenv("TMPDIR");
    std::string templ = std::string(base != nullptr ? base : "/tmp") +
                        "/unchained-durtest.XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    if (made != nullptr) dir_ = made;
  }
  ~ScratchDir() {
    if (dir_.empty()) return;
    ::unlink(store::WalPath(dir_).c_str());
    ::unlink(store::SnapshotPath(dir_).c_str());
    ::unlink(store::SnapshotTmpPath(dir_).c_str());
    ::rmdir(dir_.c_str());
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

void FlipByteAt(const std::string& path, int64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(offset);
  char c = 0;
  f.read(&c, 1);
  ASSERT_TRUE(f.good());
  c = static_cast<char>(c ^ 0x40);
  f.seekp(offset);
  f.write(&c, 1);
}

// -- WAL: CRC, append/scan/truncate, group-commit window ----------------

TEST(WalTest, Crc32MatchesKnownVectors) {
  // The IEEE 802.3 check value for "123456789" (what zlib's crc32 gives).
  EXPECT_EQ(store::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(store::Crc32("", 0), 0u);
  EXPECT_NE(store::Crc32("a", 1), store::Crc32("b", 1));
}

TEST(WalTest, AppendScanRoundTrip) {
  ScratchDir dir;
  const std::string path = store::WalPath(dir.path());
  auto wal = Wal::Open(path, WalOptions{});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE((*wal)->Append(1, "+e1(2,3)").ok());
  ASSERT_TRUE((*wal)->Append(2, "-e1(0,1) +e1(3,4)").ok());
  ASSERT_TRUE((*wal)->Append(3, "").ok());  // empty batch is legal
  EXPECT_EQ((*wal)->appends(), 3);
  EXPECT_EQ((*wal)->last_appended_epoch(), 3);
  EXPECT_EQ((*wal)->last_synced_epoch(), 3);  // sync_every = 1
  EXPECT_EQ((*wal)->synced_size(), (*wal)->size());

  Result<WalScan> scan = ScanWal(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->clean);
  EXPECT_EQ(scan->valid_end, scan->file_size);
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[0].epoch, 1);
  EXPECT_EQ(scan->records[0].update_tokens, "+e1(2,3)");
  EXPECT_EQ(scan->records[1].epoch, 2);
  EXPECT_EQ(scan->records[1].update_tokens, "-e1(0,1) +e1(3,4)");
  EXPECT_EQ(scan->records[2].epoch, 3);
  EXPECT_EQ(scan->records[2].update_tokens, "");
  EXPECT_EQ(scan->records[2].end_offset, scan->file_size);
}

TEST(WalTest, GroupCommitWindowTracksSyncedEpoch) {
  ScratchDir dir;
  WalOptions options;
  options.sync_every = 2;
  options.simulate_sync = true;
  auto wal = Wal::Open(store::WalPath(dir.path()), options);
  ASSERT_TRUE(wal.ok());

  ASSERT_TRUE((*wal)->Append(1, "+e1(2,3)").ok());
  EXPECT_EQ((*wal)->last_synced_epoch(), -1);  // window still open
  EXPECT_LT((*wal)->synced_size(), (*wal)->size());

  ASSERT_TRUE((*wal)->Append(2, "+e1(3,4)").ok());
  EXPECT_EQ((*wal)->last_synced_epoch(), 2);  // window closed at 2 appends
  EXPECT_EQ((*wal)->synced_size(), (*wal)->size());

  ASSERT_TRUE((*wal)->Append(3, "+e1(4,5)").ok());
  EXPECT_EQ((*wal)->last_synced_epoch(), 2);
  ASSERT_TRUE((*wal)->Sync().ok());  // explicit flush closes the window
  EXPECT_EQ((*wal)->last_synced_epoch(), 3);
  EXPECT_EQ((*wal)->syncs(), 2);
}

TEST(WalTest, TruncateDropsRecordsBehindTheOffset) {
  ScratchDir dir;
  const std::string path = store::WalPath(dir.path());
  auto wal = Wal::Open(path, WalOptions{});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(1, "+e1(2,3)").ok());
  ASSERT_TRUE((*wal)->Append(2, "+e1(3,4)").ok());
  ASSERT_TRUE((*wal)->Append(3, "+e1(4,5)").ok());

  Result<WalScan> scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 3u);
  ASSERT_TRUE((*wal)->Truncate(scan->records[1].end_offset).ok());

  Result<WalScan> again = ScanWal(path);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->clean);
  ASSERT_EQ(again->records.size(), 2u);
  EXPECT_EQ(again->records[1].epoch, 2);
}

TEST(WalTest, MissingLogScansEmptyAndClean) {
  ScratchDir dir;
  Result<WalScan> scan = ScanWal(store::WalPath(dir.path()));
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->clean);
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->file_size, 0);
}

TEST(WalTest, ScanStopsAtATornTail) {
  ScratchDir dir;
  const std::string path = store::WalPath(dir.path());
  auto wal = Wal::Open(path, WalOptions{});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(1, "+e1(2,3)").ok());
  ASSERT_TRUE((*wal)->Append(2, "+e1(3,4)").ok());
  const int64_t size = (*wal)->size();
  wal->reset();
  ASSERT_EQ(::truncate(path.c_str(), size - 3), 0);  // tear the tail

  Result<WalScan> scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->clean);
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].epoch, 1);
  EXPECT_EQ(scan->valid_end, scan->records[0].end_offset);
  EXPECT_NE(scan->detail.find("torn"), std::string::npos) << scan->detail;
}

TEST(WalTest, ScanStopsAtACrcMismatch) {
  ScratchDir dir;
  const std::string path = store::WalPath(dir.path());
  auto wal = Wal::Open(path, WalOptions{});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(1, "+e1(2,3)").ok());
  ASSERT_TRUE((*wal)->Append(2, "+e1(3,4)").ok());
  wal->reset();
  // Flip a payload byte of the second record; its CRC stops the scan.
  Result<WalScan> before = ScanWal(path);
  ASSERT_TRUE(before.ok());
  FlipByteAt(path, before->records[1].end_offset - 2);

  Result<WalScan> scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->clean);
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_NE(scan->detail.find("crc"), std::string::npos) << scan->detail;
}

TEST(WalTest, ScheduledCrashTearsTheTailAndKillsTheLog) {
  ScratchDir dir;
  DurabilityFaultSchedule faults;
  faults.crash_at = 1;  // first crash point = the first append
  faults.torn_keep = 5;
  WalOptions options;
  options.simulate_sync = true;
  options.faults = &faults;
  auto wal = Wal::Open(store::WalPath(dir.path()), options);
  ASSERT_TRUE(wal.ok());

  Status append = (*wal)->Append(1, "+e1(2,3)");
  EXPECT_EQ(append.code(), StatusCode::kInternal);
  EXPECT_TRUE((*wal)->crashed());
  EXPECT_TRUE(faults.crashed);
  EXPECT_EQ(faults.crash_point, store::CrashPoint::kWalAppend);
  // Dead store: every later operation fails without touching the file.
  EXPECT_EQ((*wal)->Append(2, "+e1(3,4)").code(), StatusCode::kInternal);
  EXPECT_EQ((*wal)->Sync().code(), StatusCode::kInternal);

  // Exactly torn_keep bytes of the record made it to disk — a prefix too
  // short to even hold the header, so the scan reports a torn record.
  Result<WalScan> scan = ScanWal(store::WalPath(dir.path()));
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->file_size, 5);
  EXPECT_TRUE(scan->records.empty());
  EXPECT_FALSE(scan->clean);
}

TEST(WalTest, RealIoErrorPoisonsTheLog) {
  ScratchDir dir;
  auto wal = Wal::Open(store::WalPath(dir.path()), WalOptions{});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(1, "+e1(2,3)").ok());

  // A *real* disk error (not the fault schedule) must latch the same
  // dead state a scheduled crash does — otherwise a view dirtied by the
  // refused batch slips past the server's crashed() gate and gets
  // published with effects the WAL never logged.
  internal::g_store_fail_pwrites = 1;
  const Status append = (*wal)->Append(2, "+e1(3,4)");
  internal::g_store_fail_pwrites = 0;
  EXPECT_EQ(append.code(), StatusCode::kInternal);
  EXPECT_TRUE((*wal)->crashed());
  EXPECT_EQ((*wal)->last_appended_epoch(), 1);
  // The fault is gone, but the log stays dead.
  EXPECT_EQ((*wal)->Append(3, "+e1(4,5)").code(), StatusCode::kInternal);
  EXPECT_EQ((*wal)->Sync().code(), StatusCode::kInternal);
  EXPECT_EQ((*wal)->Truncate(0).code(), StatusCode::kInternal);
}

TEST(WalTest, OverCapRecordIsRefusedAndPoisonsTheLog) {
  ScratchDir dir;
  auto wal = Wal::Open(store::WalPath(dir.path()), WalOptions{});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(1, "+e1(2,3)").ok());

  // 8 epoch bytes + 8 token bytes fit a 16-byte cap; 9 token bytes do
  // not, and the refused append latches the log like any other failure.
  internal::g_wal_record_cap = 16;
  EXPECT_TRUE(store::WalRecordFits("+e1(3,4)"));
  EXPECT_FALSE(store::WalRecordFits("+e1(3,45)"));
  const Status append = (*wal)->Append(2, "+e1(3,45)");
  internal::g_wal_record_cap = 0;
  EXPECT_EQ(append.code(), StatusCode::kInternal);
  EXPECT_TRUE((*wal)->crashed());
  EXPECT_EQ((*wal)->last_appended_epoch(), 1);
  EXPECT_EQ((*wal)->Append(3, "+e1(4,5)").code(), StatusCode::kInternal);
}

TEST(StoreTest, RealIoErrorCrashesTheStoreAndRefusesCommits) {
  ScratchDir dir;
  StoreOptions options;
  options.dir = dir.path();
  auto store = DurableStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->AppendCommit(1, "+e1(2,3)").ok());

  internal::g_store_fail_pwrites = 1;
  EXPECT_EQ((*store)->AppendCommit(2, "+e1(3,4)").code(),
            StatusCode::kInternal);
  internal::g_store_fail_pwrites = 0;
  // crashed() is what the server's commit gate consults: with the store
  // latched, later commits are refused even though the fault is gone,
  // and the durable epoch never advances past the last logged commit.
  EXPECT_TRUE((*store)->crashed());
  EXPECT_EQ((*store)->AppendCommit(3, "+e1(4,5)").code(),
            StatusCode::kInternal);
  EXPECT_EQ((*store)->durable_epoch(), 1);
}

// -- Fault schedule and the `%!` spec line ------------------------------

TEST(FaultTest, HitCountsOneGlobalSequence) {
  DurabilityFaultSchedule s;
  s.crash_at = 3;
  EXPECT_FALSE(s.Hit(store::CrashPoint::kWalAppend));
  EXPECT_FALSE(s.Hit(store::CrashPoint::kWalBeforeFsync));
  EXPECT_TRUE(s.Hit(store::CrashPoint::kSnapBeforeRename));
  EXPECT_TRUE(s.crashed);
  EXPECT_EQ(s.crash_point, store::CrashPoint::kSnapBeforeRename);
  EXPECT_EQ(s.hits, 3);
  // Once dead, later hits neither fire nor count.
  EXPECT_FALSE(s.Hit(store::CrashPoint::kWalAppend));
  EXPECT_EQ(s.hits, 3);
}

TEST(FaultTest, DisabledScheduleNeverFires) {
  DurabilityFaultSchedule s;  // crash_at = -1
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(s.Hit(store::CrashPoint::kWalAppend));
  }
  EXPECT_FALSE(s.crashed);
  EXPECT_EQ(s.hits, 100);
}

TEST(FaultTest, SpecFormatThenParseIsTheIdentity) {
  DurabilitySpec spec;
  spec.crash_at = 7;
  spec.torn_keep = 12;
  spec.flip_bit = 40;
  spec.sync_every = 3;
  spec.snapshot_every = 2;
  const std::string line = store::FormatDurabilitySpec(spec);
  EXPECT_EQ(line, "%! crash=7 torn=12 flip=40 sync=3 snap=2");

  DurabilitySpec parsed;
  bool found = false;
  ASSERT_TRUE(store::ParseDurabilitySpec(line + "\n", &parsed, &found));
  ASSERT_TRUE(found);
  EXPECT_EQ(parsed.crash_at, spec.crash_at);
  EXPECT_EQ(parsed.torn_keep, spec.torn_keep);
  EXPECT_EQ(parsed.flip_bit, spec.flip_bit);
  EXPECT_EQ(parsed.sync_every, spec.sync_every);
  EXPECT_EQ(parsed.snapshot_every, spec.snapshot_every);
}

TEST(FaultTest, SpecRidesInsideFactsTextInvisibly) {
  DurabilitySpec spec;
  bool found = true;
  // No %! line at all: fine, found = false.
  ASSERT_TRUE(store::ParseDurabilitySpec(
      "e1(0, 1).\n%~ +e1(2,2)\n%@ 0 q e1\n", &spec, &found));
  EXPECT_FALSE(found);
  // Buried between fact and session lines it still parses.
  ASSERT_TRUE(store::ParseDurabilitySpec(
      "e1(0, 1).\n%! crash=2 sync=0\n%@ 0 s\n", &spec, &found));
  ASSERT_TRUE(found);
  EXPECT_EQ(spec.crash_at, 2);
  EXPECT_EQ(spec.sync_every, 0);
  EXPECT_EQ(spec.torn_keep, -1);  // unmentioned fields keep their defaults
}

TEST(FaultTest, MalformedSpecLinesFailTheParse) {
  DurabilitySpec spec;
  bool found = false;
  EXPECT_FALSE(store::ParseDurabilitySpec("%! crash=\n", &spec, &found));
  EXPECT_FALSE(store::ParseDurabilitySpec("%! crash=2x\n", &spec, &found));
  EXPECT_FALSE(
      store::ParseDurabilitySpec("%! crash=1 crash=2\n", &spec, &found));
  EXPECT_FALSE(store::ParseDurabilitySpec("%! bogus=3\n", &spec, &found));
  EXPECT_FALSE(store::ParseDurabilitySpec("%! sync=-1\n", &spec, &found));
  EXPECT_FALSE(store::ParseDurabilitySpec("%! snap=-2\n", &spec, &found));
}

// -- Snapshots: write/load round trip and the rename protocol -----------

SnapshotData MakeSnapshotData() {
  SnapshotData snap;
  snap.epoch = 2;
  snap.wal_offset = 48;
  snap.base_bytes = std::string("\x01\x00" "base-bytes", 12);
  snap.symbols = {"0", "1", "alpha"};
  return snap;
}

TEST(SnapshotterTest, WriteLoadRoundTrip) {
  ScratchDir dir;
  Snapshotter snapshotter(dir.path(), store::SnapshotterOptions{});
  ASSERT_TRUE(snapshotter.Write(MakeSnapshotData()).ok());
  EXPECT_EQ(snapshotter.writes(), 1);

  bool found = false;
  Result<SnapshotData> loaded = LoadSnapshot(dir.path(), &found);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(found);
  EXPECT_EQ(loaded->epoch, 2);
  EXPECT_EQ(loaded->wal_offset, 48);
  EXPECT_EQ(loaded->base_bytes, MakeSnapshotData().base_bytes);
  EXPECT_EQ(loaded->symbols, MakeSnapshotData().symbols);
}

TEST(SnapshotterTest, MissingSnapshotIsAFreshStore) {
  ScratchDir dir;
  bool found = true;
  Result<SnapshotData> loaded = LoadSnapshot(dir.path(), &found);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(found);
}

TEST(SnapshotterTest, CorruptSnapshotFailsLoudly) {
  ScratchDir dir;
  Snapshotter snapshotter(dir.path(), store::SnapshotterOptions{});
  ASSERT_TRUE(snapshotter.Write(MakeSnapshotData()).ok());
  FlipByteAt(store::SnapshotPath(dir.path()), 21);

  bool found = false;
  Result<SnapshotData> loaded = LoadSnapshot(dir.path(), &found);
  EXPECT_FALSE(loaded.ok());
}

TEST(SnapshotterTest, RealIoErrorPoisonsTheSnapshotter) {
  ScratchDir dir;
  Snapshotter snapshotter(dir.path(), store::SnapshotterOptions{});
  internal::g_store_fail_pwrites = 1;
  EXPECT_EQ(snapshotter.Write(MakeSnapshotData()).code(),
            StatusCode::kInternal);
  internal::g_store_fail_pwrites = 0;
  EXPECT_TRUE(snapshotter.crashed());
  // Dead for good, exactly like a scheduled crash.
  EXPECT_EQ(snapshotter.Write(MakeSnapshotData()).code(),
            StatusCode::kInternal);
  EXPECT_EQ(snapshotter.writes(), 0);
}

void WriteFileRaw(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.good()) << path;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A snapshot file whose 20-byte body header claims `base_len` and
/// `sym_count`, with a correct CRC — structurally minimal, semantically
/// hostile.
std::string CraftSnapshotFile(uint32_t base_len, bool with_sym_count,
                              uint32_t sym_count) {
  std::string body;
  store::PutI64(&body, 7);   // epoch
  store::PutI64(&body, 0);   // wal_offset
  store::PutU32(&body, base_len);
  if (with_sym_count) store::PutU32(&body, sym_count);
  std::string file;
  store::PutU32(&file, 0x4E534455u);  // magic 'UDSN'
  store::PutU32(&file, 1);            // version
  file += body;
  store::PutU32(&file, store::Crc32(body.data(), body.size()));
  return file;
}

TEST(SnapshotterTest, TinyBodyWithHugeBaseLenIsRejected) {
  ScratchDir dir;
  // body_size = 20 (header only): the old subtractive bounds check
  // `base_len > body_size - 24` underflowed size_t here, accepted the
  // absurd base_len, and read ~4 GiB past the buffer. CRC is valid, so
  // only the length check can stop it.
  WriteFileRaw(store::SnapshotPath(dir.path()),
               CraftSnapshotFile(0xFFFFFFFFu, /*with_sym_count=*/false, 0));
  bool found = false;
  Result<SnapshotData> loaded = LoadSnapshot(dir.path(), &found);
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(found);
  EXPECT_NE(loaded.status().message().find("length mismatch"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(SnapshotterTest, HugeSymbolCountIsRejectedBeforeAllocation) {
  ScratchDir dir;
  // Valid empty base, then a symbol count the remaining bytes cannot
  // hold — must fail the structural check, not attempt a multi-GiB
  // reserve.
  WriteFileRaw(store::SnapshotPath(dir.path()),
               CraftSnapshotFile(0, /*with_sym_count=*/true, 0xFFFFFFFFu));
  bool found = false;
  Result<SnapshotData> loaded = LoadSnapshot(dir.path(), &found);
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(found);
}

TEST(SnapshotterTest, CrashBeforeRenameKeepsTheOldSnapshot) {
  ScratchDir dir;
  Snapshotter clean(dir.path(), store::SnapshotterOptions{});
  ASSERT_TRUE(clean.Write(MakeSnapshotData()).ok());

  DurabilityFaultSchedule faults;
  faults.crash_at = 1;  // fires on kSnapBeforeRename inside Write
  store::SnapshotterOptions options;
  options.simulate_sync = true;
  options.faults = &faults;
  Snapshotter crashing(dir.path(), options);
  SnapshotData newer = MakeSnapshotData();
  newer.epoch = 9;
  EXPECT_EQ(crashing.Write(newer).code(), StatusCode::kInternal);
  EXPECT_TRUE(crashing.crashed());
  EXPECT_EQ(faults.crash_point, store::CrashPoint::kSnapBeforeRename);

  // The finished tmp file was never renamed: the old snapshot survives.
  bool found = false;
  Result<SnapshotData> loaded = LoadSnapshot(dir.path(), &found);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(found);
  EXPECT_EQ(loaded->epoch, 2);
}

// -- Recovery -----------------------------------------------------------

constexpr const char* kTcProgram =
    "t(X, Y) :- e1(X, Y).\n"
    "t(X, Z) :- t(X, Y), e1(Y, Z).\n";

class RecoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Program> program = engine_.Parse(kTcProgram);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
  }

  Instance MustBase(const std::string& facts_text) {
    Instance base(&engine_.catalog());
    EXPECT_TRUE(engine_.AddFacts(facts_text, &base).ok());
    return base;
  }

  /// The model bytes of a fresh view over `facts_text` after applying
  /// each token batch in order — what recovery must reproduce.
  std::string ReplayModel(const std::string& facts_text,
                          const std::vector<std::string>& token_batches) {
    Instance base = MustBase(facts_text);
    auto view = IncrementalView::Create(program_, engine_.catalog(), base);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    for (const std::string& tokens : token_batches) {
      std::vector<FactUpdate> batch;
      EXPECT_TRUE(server::ParseUpdateTokens(tokens, engine_.catalog(),
                                            &engine_.symbols(), &batch));
      EXPECT_TRUE((*view)->ApplyBatch(batch).ok());
    }
    return (*view)->model().SerializeSnapshot();
  }

  std::vector<std::string> Spellings() {
    std::vector<std::string> spellings;
    spellings.reserve(static_cast<size_t>(engine_.symbols().size()));
    for (int v = 0; v < engine_.symbols().size(); ++v) {
      spellings.push_back(engine_.symbols().NameOf(static_cast<Value>(v)));
    }
    return spellings;
  }

  Engine engine_;
  Program program_;
};

TEST_F(RecoverTest, FreshDirectoryRecoversToEpochZero) {
  ScratchDir dir;
  Instance base = MustBase("e1(0, 1).");
  Result<store::Recovered> recovered = Recover(
      dir.path(), program_, engine_.catalog(), &engine_.symbols(), base);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->epoch, 0);
  EXPECT_EQ(recovered->replayed, 0);
  EXPECT_FALSE(recovered->from_snapshot);
  EXPECT_TRUE(recovered->wal_was_clean);
  EXPECT_EQ(recovered->view->model().SerializeSnapshot(),
            ReplayModel("e1(0, 1).", {}));
}

TEST_F(RecoverTest, ReplaysTheWalTailInOrder) {
  ScratchDir dir;
  StoreOptions options;
  options.dir = dir.path();
  auto dstore = DurableStore::Open(options);
  ASSERT_TRUE(dstore.ok()) << dstore.status().ToString();
  ASSERT_TRUE((*dstore)->AppendCommit(1, "+e1(1,2)").ok());
  ASSERT_TRUE((*dstore)->AppendCommit(2, "-e1(0,1) +e1(2,3)").ok());
  EXPECT_EQ((*dstore)->durable_epoch(), 2);
  dstore->reset();

  Instance base = MustBase("e1(0, 1).");
  Result<store::Recovered> recovered = Recover(
      dir.path(), program_, engine_.catalog(), &engine_.symbols(), base);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->epoch, 2);
  EXPECT_EQ(recovered->replayed, 2);
  EXPECT_EQ(recovered->skipped, 0);
  EXPECT_FALSE(recovered->from_snapshot);
  EXPECT_TRUE(recovered->wal_was_clean);
  EXPECT_EQ(recovered->view->model().SerializeSnapshot(),
            ReplayModel("e1(0, 1).", {"+e1(1,2)", "-e1(0,1) +e1(2,3)"}));
}

TEST_F(RecoverTest, TruncatesTheTornTailExactlyOnce) {
  ScratchDir dir;
  StoreOptions options;
  options.dir = dir.path();
  auto dstore = DurableStore::Open(options);
  ASSERT_TRUE(dstore.ok());
  ASSERT_TRUE((*dstore)->AppendCommit(1, "+e1(1,2)").ok());
  ASSERT_TRUE((*dstore)->AppendCommit(2, "+e1(2,3)").ok());
  dstore->reset();
  {
    // A torn third record: header promising more bytes than exist.
    std::ofstream wal(store::WalPath(dir.path()),
                      std::ios::binary | std::ios::app);
    wal.write("\x40\x00\x00\x00\x99", 5);
  }

  Instance base = MustBase("e1(0, 1).");
  Result<store::Recovered> first = Recover(
      dir.path(), program_, engine_.catalog(), &engine_.symbols(), base);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->epoch, 2);
  EXPECT_EQ(first->replayed, 2);
  EXPECT_FALSE(first->wal_was_clean);
  EXPECT_TRUE(first->truncated_tail);
  EXPECT_FALSE(first->detail.empty());

  // The repair leaves a clean log: a rescan and a second recovery both
  // see no damage, and the model bytes are identical (idempotence).
  Result<WalScan> rescan = ScanWal(store::WalPath(dir.path()));
  ASSERT_TRUE(rescan.ok());
  EXPECT_TRUE(rescan->clean);
  ASSERT_EQ(rescan->records.size(), 2u);

  Result<store::Recovered> second = Recover(
      dir.path(), program_, engine_.catalog(), &engine_.symbols(), base);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->epoch, 2);
  EXPECT_TRUE(second->wal_was_clean);
  EXPECT_FALSE(second->truncated_tail);
  EXPECT_EQ(second->view->model().SerializeSnapshot(),
            first->view->model().SerializeSnapshot());
}

TEST_F(RecoverTest, SkipsWalEpochsAlreadyInTheSnapshot) {
  ScratchDir dir;
  // Crash between the snapshot rename and the WAL truncation: hit 1 is
  // the append, hit 2 its per-commit fsync, hits 3/4 the snapshot's
  // rename windows — crash_at=4 leaves snapshot.bin AND the epoch-1
  // record behind, the overlap recovery must dedup.
  StoreOptions options;
  options.dir = dir.path();
  options.snapshot_every = 1;
  options.simulate_sync = true;
  options.faults.crash_at = 4;
  auto dstore = DurableStore::Open(options);
  ASSERT_TRUE(dstore.ok());
  ASSERT_TRUE((*dstore)->AppendCommit(1, "+e1(1,2)").ok());
  // Intern the base's constants before capturing the spelling table.
  const std::string base_bytes =
      MustBase("e1(0, 1). e1(1, 2).").SerializeSnapshot();
  EXPECT_FALSE((*dstore)->MaybeCompact(1, base_bytes, Spellings()).ok());
  EXPECT_TRUE((*dstore)->crashed());
  EXPECT_EQ((*dstore)->faults().crash_point,
            store::CrashPoint::kSnapAfterRename);
  dstore->reset();

  // On disk: a renamed epoch-1 snapshot plus an untruncated epoch-1 WAL
  // record.
  bool found = false;
  Result<SnapshotData> snap = LoadSnapshot(dir.path(), &found);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(snap->epoch, 1);
  Result<WalScan> scan = ScanWal(store::WalPath(dir.path()));
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);

  Instance base = MustBase("e1(0, 1).");
  Result<store::Recovered> recovered = Recover(
      dir.path(), program_, engine_.catalog(), &engine_.symbols(), base);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->epoch, 1);
  EXPECT_TRUE(recovered->from_snapshot);
  EXPECT_EQ(recovered->skipped, 1);
  EXPECT_EQ(recovered->replayed, 0);
  EXPECT_EQ(recovered->view->model().SerializeSnapshot(),
            ReplayModel("e1(0, 1).", {"+e1(1,2)"}));
}

// -- Oracle pair #11 and the planted skip-truncate bug ------------------

constexpr const char* kDurFacts =
    "e1(0, 1). e1(1, 2).\n"
    "%@ 0 q t\n"
    "%@ 0 u +e1(2,3)\n"
    "%@ 1 u -e1(0,1)\n"
    "%@ 1 s\n"
    "%@ 2 u +e1(3,4)\n"
    "%@ 2 s\n";

TEST(DurabilityOracleTest, CrashRecoverVsReplaySweepAgrees) {
  fuzz::OracleRunner runner;
  const std::string facts =
      std::string(kDurFacts) + "%! crash=3 torn=4 flip=7 sync=1 snap=2\n";
  for (uint64_t salt = 0; salt < 20; ++salt) {
    fuzz::OracleVerdict verdict = runner.Run(
        fuzz::OraclePair::kCrashRecoverVsReplay, kTcProgram, facts, salt);
    ASSERT_TRUE(verdict.applicable);
    EXPECT_TRUE(verdict.agreed) << "salt " << salt << ": " << verdict.detail;
  }
}

TEST(DurabilityOracleTest, CleanShutdownRecoversEveryCommit) {
  fuzz::OracleRunner runner;
  const std::string facts =
      std::string(kDurFacts) + "%! crash=-1 torn=-1 flip=-1 sync=2 snap=1\n";
  for (uint64_t salt = 0; salt < 10; ++salt) {
    fuzz::OracleVerdict verdict = runner.Run(
        fuzz::OraclePair::kCrashRecoverVsReplay, kTcProgram, facts, salt);
    ASSERT_TRUE(verdict.applicable);
    EXPECT_TRUE(verdict.agreed) << "salt " << salt << ": " << verdict.detail;
  }
}

TEST(DurabilityOracleTest, CaseWithoutDurabilityLineIsInapplicable) {
  fuzz::OracleRunner runner;
  fuzz::OracleVerdict verdict = runner.Run(
      fuzz::OraclePair::kCrashRecoverVsReplay, kTcProgram, kDurFacts, 3);
  EXPECT_FALSE(verdict.applicable);
  EXPECT_TRUE(verdict.ok());
}

class DurabilityPlantedBugTest : public ::testing::Test {
 protected:
  void TearDown() override { internal::g_store_skip_truncate = false; }
};

TEST_F(DurabilityPlantedBugTest, SkipTruncateBugIsCaughtByTheRescan) {
  // crash=1 tears the first WAL append at 5 bytes. Recovery must
  // truncate that garbage; with the planted bug it only pretends to, and
  // the oracle's post-recovery rescan disagrees.
  fuzz::OracleRunner runner;
  const std::string facts =
      std::string(kDurFacts) + "%! crash=1 torn=5 flip=-1 sync=1 snap=0\n";

  internal::g_store_skip_truncate = true;
  int caught = 0;
  for (uint64_t salt = 0; salt < 10; ++salt) {
    fuzz::OracleVerdict verdict = runner.Run(
        fuzz::OraclePair::kCrashRecoverVsReplay, kTcProgram, facts, salt);
    ASSERT_TRUE(verdict.applicable);
    if (!verdict.agreed) ++caught;
  }
  EXPECT_GT(caught, 0);

  // Control: the clean store passes the identical case at every salt.
  internal::g_store_skip_truncate = false;
  for (uint64_t salt = 0; salt < 10; ++salt) {
    fuzz::OracleVerdict verdict = runner.Run(
        fuzz::OraclePair::kCrashRecoverVsReplay, kTcProgram, facts, salt);
    ASSERT_TRUE(verdict.applicable);
    EXPECT_TRUE(verdict.agreed) << "salt " << salt << ": " << verdict.detail;
  }
}

// -- Server restart: recover, then keep committing ----------------------

TEST(ServerDurabilityTest, RestartRecoversAndContinuesTheEpochSequence) {
  ScratchDir dir;
  server::ServerOptions options;
  options.durability.dir = dir.path();
  options.durability.sync_every = 1;
  options.durability.snapshot_every = 2;

  // First life: two commits, the second cuts a snapshot; clean shutdown.
  {
    Engine engine;
    Result<Program> program = engine.Parse(kTcProgram);
    ASSERT_TRUE(program.ok());
    Instance base(&engine.catalog());
    ASSERT_TRUE(engine.AddFacts("e1(0, 1).", &base).ok());
    auto server = server::Server::Create(*program, &engine.catalog(),
                                         &engine.symbols(), base, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    EXPECT_TRUE((*server)->recovery().ran);
    EXPECT_EQ((*server)->recovery().epoch, 0);

    for (const char* tokens : {"+e1(1,2)", "+e1(2,3)"}) {
      Result<int64_t> ticket = (*server)->SubmitUpdate(tokens);
      ASSERT_TRUE(ticket.ok());
      ASSERT_TRUE((*server)->ApplyOneQueued());
    }
    EXPECT_EQ((*server)->epoch(), 2);
    ASSERT_NE((*server)->store(), nullptr);
    EXPECT_EQ((*server)->store()->durable_epoch(), 2);
    EXPECT_EQ((*server)->store()->snapshots(), 1);
    ASSERT_TRUE((*server)->FlushStore().ok());
  }

  // Second life, fresh engine (fresh interning order — the snapshot's
  // spelling table carries the decode key): recovery republishes epoch 2
  // and the writer continues at 3.
  Engine engine;
  Result<Program> program = engine.Parse(kTcProgram);
  ASSERT_TRUE(program.ok());
  Instance base(&engine.catalog());
  ASSERT_TRUE(engine.AddFacts("e1(0, 1).", &base).ok());
  auto server = server::Server::Create(*program, &engine.catalog(),
                                       &engine.symbols(), base, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_TRUE((*server)->recovery().ran);
  EXPECT_EQ((*server)->recovery().epoch, 2);
  EXPECT_TRUE((*server)->recovery().from_snapshot);
  EXPECT_EQ((*server)->epoch(), 2);

  Result<int64_t> ticket = (*server)->SubmitUpdate("+e1(3,4)");
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE((*server)->ApplyOneQueued());
  EXPECT_EQ((*server)->epoch(), 3);

  // The served model equals a from-scratch replay of all three batches.
  server::Response snapshot = (*server)->ServeQuery(server::Request{
      server::Request::Kind::kSnapshotQuery, "", 0, nullptr});
  ASSERT_EQ(snapshot.status, StatusCode::kOk);
  Instance replay_base(&engine.catalog());
  ASSERT_TRUE(engine.AddFacts("e1(0, 1).", &replay_base).ok());
  auto view = IncrementalView::Create(*program, engine.catalog(), replay_base);
  ASSERT_TRUE(view.ok());
  for (const char* tokens : {"+e1(1,2)", "+e1(2,3)", "+e1(3,4)"}) {
    std::vector<FactUpdate> batch;
    ASSERT_TRUE(server::ParseUpdateTokens(tokens, engine.catalog(),
                                          &engine.symbols(), &batch));
    ASSERT_TRUE((*view)->ApplyBatch(batch).ok());
  }
  EXPECT_EQ(snapshot.body, (*view)->model().SerializeSnapshot());
}

TEST(ServerDurabilityTest, OversizedBatchIsRefusedBeforeItReachesTheView) {
  ScratchDir dir;
  server::ServerOptions options;
  options.durability.dir = dir.path();
  Engine engine;
  Result<Program> program = engine.Parse(kTcProgram);
  ASSERT_TRUE(program.ok());
  Instance base(&engine.catalog());
  ASSERT_TRUE(engine.AddFacts("e1(0, 1).", &base).ok());
  auto server = server::Server::Create(*program, &engine.catalog(),
                                       &engine.symbols(), base, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // A batch whose WAL record is over the cap is refused before the view
  // applies it: no epoch, and the store stays alive for the next batch.
  internal::g_wal_record_cap = 24;
  Result<int64_t> big = (*server)->SubmitUpdate("+e1(1,2) +e1(2,3)");
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE((*server)->ApplyOneQueued());
  internal::g_wal_record_cap = 0;
  server::Response refused;
  ASSERT_TRUE((*server)->UpdateOutcome(*big, &refused));
  EXPECT_EQ(refused.status, StatusCode::kBudgetExhausted);
  EXPECT_EQ((*server)->epoch(), 0);
  EXPECT_FALSE((*server)->store()->crashed());

  // Retracting the refused facts is a no-op on the view, so the next
  // commit publishes exactly the model without them: the published
  // chunks never hold a batch the view does not (or the other way round).
  Result<int64_t> next = (*server)->SubmitUpdate("-e1(1,2) -e1(2,3) +e1(5,6)");
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE((*server)->ApplyOneQueued());
  EXPECT_EQ((*server)->epoch(), 1);
  server::Response snapshot = (*server)->ServeQuery(server::Request{
      server::Request::Kind::kSnapshotQuery, "", 0, nullptr});
  ASSERT_EQ(snapshot.status, StatusCode::kOk);
  Instance expected_base(&engine.catalog());
  ASSERT_TRUE(engine.AddFacts("e1(0, 1). e1(5, 6).", &expected_base).ok());
  auto expected =
      IncrementalView::Create(*program, engine.catalog(), expected_base);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(snapshot.body, (*expected)->model().SerializeSnapshot());
}

// Three client threads commit batches of fresh integer values through
// Call while the writer formats WAL records and compacts every 4 commits:
// the clients intern into the shared SymbolTable as the writer reads it,
// so every server-side use of the table must hold the server's lock (the
// ThreadSanitizer lane runs this test). Recovery of the directory must
// equal a replay of the acked commits in epoch order.
TEST(ServerDurabilityTest, FreshValuesFromConcurrentWriters) {
  constexpr int kThreads = 3;
  constexpr int kBatches = 300;
  ScratchDir dir;
  server::ServerOptions options;
  options.durability.dir = dir.path();
  // Real fsyncs: they hold the writer in Commit long enough for the
  // clients' submissions to overlap its reads of the table.
  options.durability.snapshot_every = 4;

  std::vector<std::pair<int64_t, std::string>> acked;  // (epoch, tokens)
  {
    Engine engine;
    Result<Program> program = engine.Parse(kTcProgram);
    ASSERT_TRUE(program.ok());
    Instance base(&engine.catalog());
    ASSERT_TRUE(engine.AddFacts("e1(0, 1).", &base).ok());
    auto server = server::Server::Create(*program, &engine.catalog(),
                                         &engine.symbols(), base, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    (*server)->Start();
    std::vector<std::vector<std::pair<int64_t, std::string>>> per_thread(
        kThreads);
    std::vector<std::thread> clients;
    for (int c = 0; c < kThreads; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kBatches; ++i) {
          const int v = 1000000 * (c + 1) + 2 * i;  // never seen before
          const std::string tokens = "+e1(" + std::to_string(v) + "," +
                                     std::to_string(v + 1) + ")";
          const server::Response r = (*server)->Call(server::Request{
              server::Request::Kind::kUpdate, tokens, 0, nullptr});
          if (r.status == StatusCode::kOk) {
            per_thread[static_cast<size_t>(c)].emplace_back(r.epoch, tokens);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    (*server)->Stop();
    ASSERT_TRUE((*server)->FlushStore().ok());
    for (const auto& commits : per_thread) {
      EXPECT_EQ(commits.size(), static_cast<size_t>(kBatches));
      acked.insert(acked.end(), commits.begin(), commits.end());
    }
  }
  std::sort(acked.begin(), acked.end());

  // A fresh engine recovers the directory (its interning order comes
  // from the snapshot's spelling table and the WAL tail).
  Engine engine;
  Result<Program> program = engine.Parse(kTcProgram);
  ASSERT_TRUE(program.ok());
  Instance base(&engine.catalog());
  ASSERT_TRUE(engine.AddFacts("e1(0, 1).", &base).ok());
  auto server = server::Server::Create(*program, &engine.catalog(),
                                       &engine.symbols(), base, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ((*server)->recovery().epoch, kThreads * kBatches);
  const server::Response snapshot = (*server)->ServeQuery(server::Request{
      server::Request::Kind::kSnapshotQuery, "", 0, nullptr});
  ASSERT_EQ(snapshot.status, StatusCode::kOk);

  auto view = IncrementalView::Create(*program, engine.catalog(), base);
  ASSERT_TRUE(view.ok());
  int64_t epoch = 0;
  for (const auto& [acked_epoch, tokens] : acked) {
    EXPECT_EQ(acked_epoch, ++epoch);
    std::vector<FactUpdate> batch;
    ASSERT_TRUE(server::ParseUpdateTokens(tokens, engine.catalog(),
                                          &engine.symbols(), &batch));
    ASSERT_TRUE((*view)->ApplyBatch(batch).ok());
  }
  EXPECT_EQ(snapshot.body, (*view)->model().SerializeSnapshot());
}

}  // namespace
}  // namespace datalog
