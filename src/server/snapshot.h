#ifndef UNCHAINED_SERVER_SNAPSHOT_H_
#define UNCHAINED_SERVER_SNAPSHOT_H_

// Epoch-versioned immutable snapshots with epoch-based reclamation — the
// MVCC read side of the concurrent Datalog server (docs/server.md).
//
// The single writer publishes a fresh `Snapshot` after every applied
// mutation batch; readers pin the current snapshot, serve their query
// from its frozen chunks, and unpin. Publishing retires the predecessor;
// a retired snapshot is reclaimed (freed) the moment its last pin drops,
// so a reader pinned across any number of writer batches keeps observing
// the exact bytes of the epoch it pinned — never a torn intermediate
// state — while memory stays bounded by (live pins + 1) snapshots.
//
// All registry bookkeeping is guarded by one mutex; payload reads after a
// successful Pin touch only immutable data and take no lock. The
// deterministic counters feed both the `server.snapshot.*` metrics and
// the reclamation assertions of oracle pair #10 and tests/server_test.cc.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ra/catalog.h"
#include "ra/instance.h"

namespace datalog {
namespace server {

/// One published version of the served model: an immutable manifest of
/// per-relation chunks (ra/instance.h). Consecutive epochs share the
/// chunk of every relation the commit between them did not touch, and
/// read bodies are assembled from the pinned chunks on request.
class Snapshot {
 public:
  Snapshot(int64_t epoch, SnapshotChunks chunks)
      : epoch_(epoch), chunks_(std::move(chunks)) {}

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  int64_t epoch() const { return epoch_; }
  /// Canonical Instance::SerializeSnapshot bytes of the whole model at
  /// this epoch — the payload of a full-snapshot query and the unit the
  /// server-vs-library oracle diffs per epoch.
  std::string ModelBytes() const { return AssembleSnapshot(chunks_); }

  /// Bytes of the model restricted to `pred` (same canonical format).
  std::string PredBytes(PredId pred) const;

 private:
  const int64_t epoch_;
  const SnapshotChunks chunks_;
};

class SnapshotRegistry;

/// RAII pin over one published snapshot. While the pin is alive the
/// snapshot cannot be reclaimed; destruction (or Release) unpins and, if
/// the snapshot was retired in the meantime and this was the last pin,
/// frees it. Movable, not copyable — one pin, one unpin, so the
/// reclamation counters balance even on cancelled/abandoned requests.
class SnapshotPin {
 public:
  SnapshotPin() = default;
  SnapshotPin(SnapshotPin&& other) noexcept { *this = std::move(other); }
  SnapshotPin& operator=(SnapshotPin&& other) noexcept;
  SnapshotPin(const SnapshotPin&) = delete;
  SnapshotPin& operator=(const SnapshotPin&) = delete;
  ~SnapshotPin() { Release(); }

  bool valid() const { return snapshot_ != nullptr; }
  const Snapshot* get() const { return snapshot_; }
  const Snapshot* operator->() const { return snapshot_; }
  const Snapshot& operator*() const { return *snapshot_; }

  /// Unpins early (idempotent).
  void Release();

 private:
  friend class SnapshotRegistry;
  SnapshotPin(SnapshotRegistry* registry, const Snapshot* snapshot)
      : registry_(registry), snapshot_(snapshot) {}

  SnapshotRegistry* registry_ = nullptr;
  const Snapshot* snapshot_ = nullptr;
};

/// Publication point and reclamation bookkeeping. One writer calls
/// Publish; any number of reader threads call Pin concurrently.
class SnapshotRegistry {
 public:
  /// Deterministic lifecycle counters (monotone). At quiescence
  /// `pins == unpins`, `retired == published - 1` and
  /// `reclaimed == retired`: every superseded snapshot was freed.
  struct Counters {
    int64_t published = 0;
    int64_t retired = 0;
    int64_t reclaimed = 0;
    int64_t pins = 0;
    int64_t unpins = 0;
  };

  SnapshotRegistry() = default;
  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;
  ~SnapshotRegistry();

  /// Makes `snapshot` the current epoch and retires the predecessor
  /// (reclaiming it immediately when unpinned). Epochs must be published
  /// in increasing order by a single writer.
  void Publish(std::unique_ptr<Snapshot> snapshot);

  /// Pins the current snapshot. Invalid (and a no-op to release) only
  /// before the first Publish.
  SnapshotPin Pin();

  /// Epoch of the current snapshot, -1 before the first Publish.
  int64_t current_epoch() const;
  /// Snapshots not yet reclaimed (current + retired-but-pinned).
  int64_t live() const;
  /// Pins currently held.
  int64_t pinned() const;
  Counters counters() const;

 private:
  friend class SnapshotPin;
  struct Entry {
    std::unique_ptr<Snapshot> snapshot;
    int64_t pins = 0;
    bool retired = false;
  };

  void Unpin(const Snapshot* snapshot);
  /// Erases `entries_[i]` and counts the reclamation. Caller holds `mu_`.
  void ReclaimLocked(size_t i);

  mutable std::mutex mu_;
  /// Live snapshots, publication order; the last entry is current.
  std::vector<std::unique_ptr<Entry>> entries_;
  Counters counters_;
};

}  // namespace server
}  // namespace datalog

#endif  // UNCHAINED_SERVER_SNAPSHOT_H_
