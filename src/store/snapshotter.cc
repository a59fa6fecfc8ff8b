#include "store/snapshotter.h"

#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <string.h>
#include <unistd.h>

#include <string_view>

#include "base/coding.h"
#include "store/io.h"
#include "store/wal.h"

namespace datalog {
namespace store {

namespace {

constexpr uint32_t kMagic = 0x4E534455u;  // 'UDSN' little-endian
constexpr uint32_t kVersion = 1;
/// Bytes before the checksummed region: magic + version.
constexpr size_t kPreambleBytes = 8;
/// Checksummed header: epoch + wal_offset + base_len.
constexpr size_t kBodyHeaderBytes = 20;

}  // namespace

std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }
std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.bin";
}
std::string SnapshotTmpPath(const std::string& dir) {
  return dir + "/snapshot.tmp";
}

Snapshotter::Snapshotter(std::string dir, const SnapshotterOptions& options)
    : dir_(std::move(dir)), options_(options) {}

Status Snapshotter::Write(const SnapshotData& snap) {
  if (crashed_) {
    return Status::Internal("store crashed (snapshot refused)");
  }
  std::string file;
  file.reserve(kPreambleBytes + kBodyHeaderBytes + snap.base_bytes.size());
  PutU32(&file, kMagic);
  PutU32(&file, kVersion);
  PutI64(&file, snap.epoch);
  PutI64(&file, snap.wal_offset);
  PutU32(&file, static_cast<uint32_t>(snap.base_bytes.size()));
  file += snap.base_bytes;
  PutU32(&file, static_cast<uint32_t>(snap.symbols.size()));
  for (const std::string& spelling : snap.symbols) {
    PutU32(&file, static_cast<uint32_t>(spelling.size()));
    file += spelling;
  }
  PutU32(&file, Crc32(file.data() + kPreambleBytes,
                      file.size() - kPreambleBytes));

  const std::string tmp = SnapshotTmpPath(dir_);
  const std::string final_path = SnapshotPath(dir_);
  // Any real I/O failure below latches crashed_: the protocol was
  // interrupted mid-flight, and like the WAL the only safe continuation
  // after a disk error is to refuse all further writes.
  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    crashed_ = true;
    return Status::Internal("snapshot open " + tmp + ": " +
                            ::strerror(errno));
  }
  const Status write_status = PWriteAll(fd, file.data(), file.size(), 0);
  if (!write_status.ok()) {
    ::close(fd);
    crashed_ = true;
    return write_status;
  }
  if (::fsync(fd) != 0) {
    const std::string err = ::strerror(errno);
    ::close(fd);
    crashed_ = true;
    return Status::Internal("snapshot fsync " + tmp + ": " + err);
  }
  ::close(fd);

  DurabilityFaultSchedule* faults = options_.faults;
  if (faults != nullptr && faults->Hit(CrashPoint::kSnapBeforeRename)) {
    // The finished tmp file is stranded; recovery ignores it and uses
    // the previous snapshot (or none) plus the intact WAL.
    crashed_ = true;
    return Status::Internal(std::string("store crashed at ") +
                            CrashPointName(CrashPoint::kSnapBeforeRename));
  }
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    crashed_ = true;
    return Status::Internal("snapshot rename: " +
                            std::string(::strerror(errno)));
  }
  const Status dir_sync = SyncDirOf(final_path);
  if (!dir_sync.ok()) {
    crashed_ = true;
    return dir_sync;
  }
  ++writes_;
  if (faults != nullptr && faults->Hit(CrashPoint::kSnapAfterRename)) {
    // Snapshot published, WAL truncation lost — recovery must dedup the
    // still-present records against the snapshot epoch.
    crashed_ = true;
    return Status::Internal(std::string("store crashed at ") +
                            CrashPointName(CrashPoint::kSnapAfterRename));
  }
  return Status::OK();
}

Result<SnapshotData> LoadSnapshot(const std::string& dir, bool* found) {
  *found = false;
  SnapshotData snap;
  const std::string path = SnapshotPath(dir);
  bool exists = false;
  Result<std::string> file = ReadFileBytes(path, &exists);
  if (!file.ok()) return file.status();
  if (!exists) return snap;
  const auto corrupt = [&path](const std::string& why) {
    return Status::Internal("snapshot " + path + ": " + why);
  };
  ByteReader r(*file);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!r.U32(&magic) || !r.U32(&version) ||
      r.remaining() < kBodyHeaderBytes + 4) {
    return corrupt("truncated header");
  }
  if (magic != kMagic) return corrupt("bad magic");
  if (version != kVersion) {
    return corrupt("unsupported version " + std::to_string(version));
  }
  std::string_view body;
  uint32_t stored_crc = 0;
  if (!r.Bytes(r.remaining() - 4, &body) || !r.U32(&stored_crc) ||
      Crc32(body.data(), body.size()) != stored_crc) {
    return corrupt("crc mismatch");
  }

  ByteReader b(body);
  uint32_t base_len = 0;
  std::string_view base;
  if (!b.I64(&snap.epoch) || !b.I64(&snap.wal_offset) || !b.U32(&base_len) ||
      !b.Bytes(base_len, &base)) {
    return corrupt("length mismatch");
  }
  snap.base_bytes = base;
  uint32_t sym_count = 0;
  if (!b.U32(&sym_count)) return corrupt("missing symbol table");
  // Each entry takes at least its 4-byte length prefix, so a count the
  // remaining bytes cannot hold is corrupt — reject before reserve()
  // turns it into a multi-GiB allocation.
  if (sym_count > b.remaining() / 4) return corrupt("torn symbol table");
  snap.symbols.reserve(sym_count);
  for (uint32_t i = 0; i < sym_count; ++i) {
    uint32_t len = 0;
    std::string_view spelling;
    if (!b.U32(&len)) return corrupt("torn symbol table");
    if (!b.Bytes(len, &spelling)) return corrupt("torn symbol entry");
    snap.symbols.emplace_back(spelling);
  }
  if (!b.done()) return corrupt("trailing bytes");
  *found = true;
  return snap;
}

}  // namespace store
}  // namespace datalog
