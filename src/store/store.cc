#include "store/store.h"

#include <errno.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>

namespace datalog {
namespace store {

namespace {

/// mkdir -p, restricted to the simple absolute/relative paths tests and
/// tools pass (no symlink games).
Status MakeDirs(const std::string& dir) {
  if (dir.empty()) return Status::Internal("store dir is empty");
  std::string prefix;
  size_t pos = 0;
  while (pos <= dir.size()) {
    size_t slash = dir.find('/', pos);
    if (slash == std::string::npos) slash = dir.size();
    prefix = dir.substr(0, slash);
    pos = slash + 1;
    if (prefix.empty()) continue;  // Leading '/'.
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal("mkdir " + prefix + ": " + ::strerror(errno));
    }
  }
  return Status::OK();
}

}  // namespace

DurableStore::DurableStore(StoreOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    const StoreOptions& options) {
  DATALOG_RETURN_IF_ERROR(MakeDirs(options.dir));
  std::unique_ptr<DurableStore> s(new DurableStore(options));
  WalOptions wal_options;
  wal_options.sync_every = s->options_.sync_every;
  wal_options.faults = &s->options_.faults;
  Result<std::unique_ptr<Wal>> wal =
      Wal::Open(WalPath(s->options_.dir), wal_options);
  if (!wal.ok()) return wal.status();
  s->wal_ = std::move(*wal);
  SnapshotterOptions snap_options;
  snap_options.faults = &s->options_.faults;
  s->snapshotter_.reset(new Snapshotter(s->options_.dir, snap_options));
  return s;
}

Status DurableStore::AppendCommit(int64_t epoch,
                                  const std::string& update_tokens) {
  if (crashed()) {
    return Status::Internal("store crashed (commit refused)");
  }
  // Recorded before the WAL can crash: the oracle's replay needs every
  // batch the store tried to persist, acknowledged or not, and only this
  // one may be missing from the published commits.
  last_attempt_.epoch = epoch;
  last_attempt_.update_tokens = update_tokens;
  DATALOG_RETURN_IF_ERROR(wal_->Append(epoch, update_tokens));
  ++commits_since_snapshot_;
  return Status::OK();
}

Status DurableStore::MaybeCompact(int64_t epoch,
                                  const std::string& base_bytes,
                                  std::vector<std::string> symbols,
                                  bool force) {
  if (crashed()) {
    return Status::Internal("store crashed (compaction refused)");
  }
  if (!force) {
    if (options_.snapshot_every <= 0) return Status::OK();
    if (commits_since_snapshot_ < options_.snapshot_every) {
      return Status::OK();
    }
  }
  SnapshotData snap;
  snap.epoch = epoch;
  snap.wal_offset = wal_->size();
  snap.base_bytes = base_bytes;
  snap.symbols = std::move(symbols);
  const int64_t writes_before = snapshotter_->writes();
  const Status status = snapshotter_->Write(snap);
  if (snapshotter_->writes() > writes_before) {
    // The rename landed even if a crash fired right after it — the
    // snapshot is durable and counts toward durable_epoch().
    last_snapshot_epoch_ = epoch;
    commits_since_snapshot_ = 0;
  }
  DATALOG_RETURN_IF_ERROR(status);
  // Everything at or below the snapshot epoch is now redundant. A crash
  // between rename and this truncate leaves stale records behind;
  // recovery skips them by epoch, so the window is benign.
  return wal_->Truncate(0);
}

Status DurableStore::Flush() {
  if (crashed()) return Status::Internal("store crashed (flush refused)");
  return wal_->Sync();
}

}  // namespace store
}  // namespace datalog
