#ifndef UNCHAINED_STORE_SNAPSHOTTER_H_
#define UNCHAINED_STORE_SNAPSHOTTER_H_

// Compacted snapshots (docs/durability.md#snapshots): a single
// `snapshot.bin` per store directory holding the canonical
// `Instance::SerializeSnapshot` bytes of the *base* instance as of a
// committed epoch, plus the WAL offset that commit ended at:
//
//   u32 magic 'UDSN' | u32 version | i64 epoch | i64 wal_offset |
//   u32 base_len | base bytes |
//   u32 sym_count | (u32 len | spelling bytes)* | u32 crc32(body)
//
// The spelling section is the writer's SymbolTable in value order:
// SerializeSnapshot stores raw interned Value ids, which depend on the
// interning order of the process that wrote them, so a *different*
// process recovering the file must remap every value through its own
// table (old id i → Intern(spelling[i])). Base instances hold only
// parsed constants — never Invent()ed values, which exist only in
// derived models — so spelling round-trips are total.
//
// The write protocol is the classic atomic-replace dance: write
// `snapshot.tmp` in full, fsync it, rename onto `snapshot.bin`, fsync
// the directory, and only then truncate the WAL. A crash at any step
// leaves either the old snapshot (tmp is garbage recovery ignores) or
// the new one (recovery skips WAL records at or below its epoch, so a
// missed truncation is benign). Both windows are schedule crash points
// (kSnapBeforeRename / kSnapAfterRename).
//
// The base — not the derived model — is snapshotted: recovery rebuilds
// the view with IncrementalView::Create(program, base), which re-derives
// the model and re-seeds the provenance/count machinery the view needs
// for future maintenance. The model bytes are checked against replay by
// the oracle, not trusted from disk.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "store/fault.h"

namespace datalog {
namespace store {

/// File layout inside a store directory.
std::string WalPath(const std::string& dir);
std::string SnapshotPath(const std::string& dir);
std::string SnapshotTmpPath(const std::string& dir);

struct SnapshotData {
  /// Epoch the base bytes are current through.
  int64_t epoch = 0;
  /// WAL size when this snapshot was cut (diagnostics; recovery skips by
  /// epoch, not offset).
  int64_t wal_offset = 0;
  /// Instance::SerializeSnapshot of the base instance.
  std::string base_bytes;
  /// The writer's symbol spellings in value order (index = Value id):
  /// the decoder key for base_bytes' raw value words.
  std::vector<std::string> symbols;
};

struct SnapshotterOptions {
  /// Optional crash schedule shared with the WAL; not owned, may be null.
  DurabilityFaultSchedule* faults = nullptr;
};

/// Writes snapshots for one store directory. Like the WAL, a schedule
/// crash — or a real I/O failure anywhere in the write protocol — makes
/// the snapshotter permanently refuse further writes.
class Snapshotter {
 public:
  Snapshotter(std::string dir, const SnapshotterOptions& options);

  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  /// Runs the tmp → fsync → rename protocol. On kSnapBeforeRename the
  /// finished tmp file is left behind (never renamed); on
  /// kSnapAfterRename the new snapshot.bin is in place but the caller's
  /// WAL truncation must not happen.
  Status Write(const SnapshotData& snap);

  bool crashed() const { return crashed_; }
  int64_t writes() const { return writes_; }

 private:
  std::string dir_;
  SnapshotterOptions options_;
  bool crashed_ = false;
  int64_t writes_ = 0;
};

/// Loads and validates `snapshot.bin`. `found=false` (with OK status)
/// when the file does not exist — a fresh store. A present-but-invalid
/// snapshot is an error: under the modeled fault schedule the rename
/// protocol never publishes a partial snapshot, so corruption here means
/// a store bug or external damage, and recovery must fail loudly rather
/// than silently restart empty.
Result<SnapshotData> LoadSnapshot(const std::string& dir, bool* found);

}  // namespace store
}  // namespace datalog

#endif  // UNCHAINED_STORE_SNAPSHOTTER_H_
