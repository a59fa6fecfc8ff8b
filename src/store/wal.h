#ifndef UNCHAINED_STORE_WAL_H_
#define UNCHAINED_STORE_WAL_H_

// The write-ahead log (docs/durability.md#wal-format): an append-only
// file of length-prefixed, checksummed commit records,
//
//   u32 payload_len | u32 crc32(payload) | payload
//   payload = i64 epoch | canonical `%~` update tokens (UTF-8 bytes)
//
// all integers little-endian. One record per committed IncrementalView
// batch, appended *after* the batch applied cleanly and *before* the
// epoch is published — so every acknowledged commit is in the log, and
// the log never contains a rejected batch. fsync policy is a
// group-commit window: `sync_every = S` issues one fdatasync per S
// appends (1 = per commit, 0 = never); an unsynced tail is the bounded
// data loss a crash may eat.
//
// Every append passes through the crash points of an installed
// `DurabilityFaultSchedule` (fault.h). When the schedule fires, the WAL
// mutilates its own tail exactly as configured (torn final record,
// flipped bit — always within the *unsynced* region, mirroring what a
// real power cut can and cannot do to fsynced data) and goes dead:
// every later operation returns kInternal("store crashed ..."). A real
// I/O failure (pwrite/fdatasync/ftruncate returning an error, e.g.
// ENOSPC) latches the same dead state — the file no longer matches the
// in-memory offsets, so continuing would publish unlogged state — and so
// does an append refused for size: every failed append leaves the log
// dead.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "store/fault.h"

namespace datalog {
namespace store {

/// CRC-32 (IEEE 802.3, poly 0xEDB88320, the zlib `crc32`), table-based.
uint32_t Crc32(const void* data, size_t n);

/// True when the record for `update_tokens` fits the 64 MiB payload cap
/// Append enforces. A caller that applies a batch before logging it
/// checks this first, so a batch the log could never hold is refused
/// before it changes anything.
bool WalRecordFits(const std::string& update_tokens);

struct WalOptions {
  /// fdatasync every N appends; 1 = per commit, 0 = never.
  int sync_every = 1;
  /// Fuzz mode: track synced offsets without issuing real fdatasync
  /// calls — the virtual crash is the schedule's, not the kernel's, so
  /// 1000-case sweeps don't serialize on the disk.
  bool simulate_sync = false;
  /// Optional crash schedule; not owned, may be null. Shared with the
  /// snapshotter so `crash_at` counts one global hit sequence.
  DurabilityFaultSchedule* faults = nullptr;
};

class Wal {
 public:
  /// Opens (creating if absent) the log at `path` for appending. The
  /// write offset starts at the current file size — Open never scans or
  /// repairs; that is recovery's job (recover.h).
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           const WalOptions& options);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;
  ~Wal();

  /// Appends the record for `epoch` and runs the group-commit window.
  /// On a schedule crash the configured tail damage is applied and
  /// kInternal is returned — the commit must NOT be acknowledged. Any
  /// failure, a record over the size cap included, latches crashed().
  Status Append(int64_t epoch, const std::string& update_tokens);

  /// Forces the group-commit window closed (fsync now).
  Status Sync();

  /// Truncates the log to `offset` bytes — compaction (after a snapshot
  /// rename) and recovery's torn-tail repair both land here.
  Status Truncate(int64_t offset);

  bool crashed() const { return crashed_; }
  int64_t size() const { return size_; }
  int64_t synced_size() const { return synced_size_; }
  /// Epoch of the last record fully appended / covered by an fsync
  /// (-1 when none). last_synced_epoch() is the durable lower bound a
  /// crash cannot take away.
  int64_t last_appended_epoch() const { return last_appended_epoch_; }
  int64_t last_synced_epoch() const { return last_synced_epoch_; }
  int64_t appends() const { return appends_; }
  int64_t syncs() const { return syncs_; }
  const std::string& path() const { return path_; }

 private:
  Wal(std::string path, int fd, int64_t size, const WalOptions& options);

  /// Marks the WAL dead and applies the schedule's bit flip to the
  /// unsynced tail [synced_size_, size_).
  Status Crash(CrashPoint point);
  /// Latches crashed_ when `st` is an error, then returns it: after a
  /// failed pwrite/fdatasync/ftruncate the on-disk log no longer matches
  /// the in-memory offsets, and after any failed append the caller holds
  /// a batch the log lacks, so the log must refuse all further writes
  /// exactly like a scheduled crash.
  Status Poison(Status st);
  Status DoSync();

  std::string path_;
  int fd_ = -1;
  WalOptions options_;
  bool crashed_ = false;
  int64_t size_ = 0;
  int64_t synced_size_ = 0;
  int64_t last_appended_epoch_ = -1;
  int64_t last_synced_epoch_ = -1;
  int64_t appends_ = 0;
  int64_t syncs_ = 0;
  int since_sync_ = 0;
};

/// One decoded WAL record.
struct WalRecord {
  int64_t epoch = 0;
  std::string update_tokens;
  /// Byte offset one past this record — where a truncate would cut.
  int64_t end_offset = 0;
};

/// Result of scanning a log file front to back.
struct WalScan {
  std::vector<WalRecord> records;
  /// Offset of the first byte not covered by a valid record.
  int64_t valid_end = 0;
  int64_t file_size = 0;
  /// True when every byte of the file belongs to a valid record.
  bool clean = true;
  /// Why the scan stopped early ("torn record: ...", "crc mismatch ...").
  std::string detail;
};

/// Decodes records until the first torn / corrupt one (a missing file
/// scans as empty and clean — a fresh store). Never repairs; recovery
/// decides whether to truncate the invalid tail.
Result<WalScan> ScanWal(const std::string& path);

}  // namespace store
}  // namespace datalog

#endif  // UNCHAINED_STORE_WAL_H_
