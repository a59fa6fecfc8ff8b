#ifndef UNCHAINED_STORE_STORE_H_
#define UNCHAINED_STORE_STORE_H_

// DurableStore: the facade the server's commit path talks to
// (docs/durability.md). One store owns one directory holding
//
//   wal.log       — the write-ahead log (wal.h)
//   snapshot.bin  — the newest compacted snapshot (snapshotter.h)
//   snapshot.tmp  — transient; garbage unless mid-rename
//
// and sequences the durability protocol: `AppendCommit` logs a committed
// batch (group-commit fsync per WalOptions), `MaybeCompact` cuts a
// snapshot every `snapshot_every` commits and truncates the log behind
// it, `Flush` closes the fsync window at shutdown. A crash — real or
// scheduled — makes the store permanently dead: every call returns
// kInternal and the server refuses writes, exactly like a process whose
// disk went away. Recovery from the directory is recover.h's job, on a
// fresh store.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "store/fault.h"
#include "store/snapshotter.h"
#include "store/wal.h"

namespace datalog {
namespace store {

struct StoreOptions {
  /// Store directory; created (one level) if absent.
  std::string dir;
  /// Group-commit window: fsync every N commits (1 = per commit,
  /// 0 = never).
  int sync_every = 1;
  /// Cut a snapshot + truncate the WAL every N commits (0 = never).
  int snapshot_every = 0;
  /// Fuzz mode: track fsync bookkeeping without real fsync calls.
  bool simulate_sync = false;
  /// Crash schedule, copied in; crash_at <= 0 never fires.
  DurabilityFaultSchedule faults;
};

/// The newest attempted commit append, recorded before the WAL gets a
/// chance to crash. Every earlier attempt succeeded and was published, so
/// the published commits plus this record are what the store *tried* to
/// make durable: an attempt one epoch past the last published commit is
/// the batch whose append failed.
struct CommitAttempt {
  /// 0 before the first append.
  int64_t epoch = 0;
  std::string update_tokens;
};

class DurableStore {
 public:
  static Result<std::unique_ptr<DurableStore>> Open(
      const StoreOptions& options);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Logs the committed batch for `epoch`. Must be called after the view
  /// applied the batch and *before* the epoch is published or the client
  /// acked — an error (crash) means the commit must be refused.
  Status AppendCommit(int64_t epoch, const std::string& update_tokens);

  /// Cuts a snapshot of `base_bytes` (current through `epoch`) when the
  /// compaction cadence is due, then truncates the WAL behind it. No-op
  /// (OK) when not due. `symbols` is the writer's SymbolTable in value
  /// order — the decoder key for base_bytes (snapshotter.h). `force`
  /// ignores the cadence.
  Status MaybeCompact(int64_t epoch, const std::string& base_bytes,
                      std::vector<std::string> symbols, bool force = false);

  /// Closes the group-commit window (fsync now).
  Status Flush();

  /// True when the compaction cadence says the next MaybeCompact will
  /// cut a snapshot — lets the caller skip serializing the base
  /// otherwise.
  bool CompactionDue() const {
    return options_.snapshot_every > 0 &&
           commits_since_snapshot_ >= options_.snapshot_every;
  }

  bool crashed() const {
    return wal_->crashed() || snapshotter_->crashed() ||
           options_.faults.crashed;
  }
  /// Highest epoch guaranteed to survive any crash from here on: covered
  /// by an fsynced WAL record or a renamed snapshot.
  int64_t durable_epoch() const {
    return std::max(wal_->last_synced_epoch(), last_snapshot_epoch_);
  }
  const CommitAttempt& last_attempt() const { return last_attempt_; }
  const DurabilityFaultSchedule& faults() const { return options_.faults; }
  const Wal& wal() const { return *wal_; }
  int64_t snapshots() const { return snapshotter_->writes(); }
  const std::string& dir() const { return options_.dir; }

 private:
  /// Two-phase: Open wires wal_/snapshotter_ after construction so both
  /// point at the schedule copy living in options_.faults.
  explicit DurableStore(StoreOptions options);

  StoreOptions options_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<Snapshotter> snapshotter_;
  CommitAttempt last_attempt_;
  int64_t last_snapshot_epoch_ = -1;
  int commits_since_snapshot_ = 0;
};

}  // namespace store
}  // namespace datalog

#endif  // UNCHAINED_STORE_STORE_H_
