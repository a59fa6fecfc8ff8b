#include "store/wal.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <array>
#include <string_view>

#include "base/coding.h"
#include "eval/test_hooks.h"
#include "store/io.h"

namespace datalog {

namespace internal {
size_t g_wal_record_cap = 0;
}  // namespace internal

namespace store {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr size_t kHeaderBytes = 8;   // u32 len + u32 crc
constexpr size_t kEpochBytes = 8;    // i64 epoch inside the payload
/// Refuse absurd record lengths during scans so a corrupt length prefix
/// cannot drive a multi-GiB allocation. Far above any generated batch.
constexpr uint32_t kMaxRecordPayload = 64u << 20;

}  // namespace

bool WalRecordFits(const std::string& update_tokens) {
  const size_t cap = internal::g_wal_record_cap > 0
                         ? internal::g_wal_record_cap
                         : kMaxRecordPayload;
  return kEpochBytes + update_tokens.size() <= cap;
}

uint32_t Crc32(const void* data, size_t n) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       const WalOptions& options) {
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("wal open " + path + ": " + ::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = ::strerror(errno);
    ::close(fd);
    return Status::Internal("wal fstat " + path + ": " + err);
  }
  return std::unique_ptr<Wal>(
      new Wal(path, fd, static_cast<int64_t>(st.st_size), options));
}

Wal::Wal(std::string path, int fd, int64_t size, const WalOptions& options)
    : path_(std::move(path)),
      fd_(fd),
      options_(options),
      size_(size),
      synced_size_(size) {}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

Status Wal::Crash(CrashPoint point) {
  crashed_ = true;
  const DurabilityFaultSchedule* faults = options_.faults;
  // Bit flips only ever land in the unsynced tail: fsynced bytes are
  // the durability contract, and a schedule that could corrupt them
  // would make the bounded-loss oracle vacuous.
  if (faults != nullptr && faults->flip_bit >= 0 && synced_size_ < size_) {
    const int64_t tail = size_ - synced_size_;
    const int64_t byte_index =
        synced_size_ + (static_cast<int64_t>(faults->flip_bit) / 8) % tail;
    unsigned char b = 0;
    if (::pread(fd_, &b, 1, static_cast<off_t>(byte_index)) == 1) {
      b = static_cast<unsigned char>(
          b ^ static_cast<unsigned char>(1u << (faults->flip_bit % 8)));
      const char c = static_cast<char>(b);
      (void)PWriteAll(fd_, &c, 1, byte_index);
    }
  }
  return Status::Internal(std::string("store crashed at ") +
                          CrashPointName(point));
}

Status Wal::Poison(Status st) {
  if (!st.ok()) crashed_ = true;
  return st;
}

Status Wal::Append(int64_t epoch, const std::string& update_tokens) {
  if (crashed_) {
    return Status::Internal("store crashed (wal append refused)");
  }
  if (!WalRecordFits(update_tokens)) {
    return Poison(Status::Internal("wal record over size cap"));
  }
  std::string record(kHeaderBytes, '\0');  // length and crc, set below
  record.reserve(kHeaderBytes + kEpochBytes + update_tokens.size());
  PutI64(&record, epoch);
  record += update_tokens;
  const size_t payload = record.size() - kHeaderBytes;
  StoreU32(record.data(), static_cast<uint32_t>(payload));
  StoreU32(record.data() + 4, Crc32(record.data() + kHeaderBytes, payload));

  DurabilityFaultSchedule* faults = options_.faults;
  if (faults != nullptr && faults->Hit(CrashPoint::kWalAppend)) {
    // Torn write: a prefix of the record reaches the disk, the rest
    // evaporates with the process.
    size_t keep = record.size();
    if (faults->torn_keep >= 0 &&
        static_cast<size_t>(faults->torn_keep) < keep) {
      keep = static_cast<size_t>(faults->torn_keep);
    }
    if (keep > 0) {
      DATALOG_RETURN_IF_ERROR(
          Poison(PWriteAll(fd_, record.data(), keep, size_)));
      size_ += static_cast<int64_t>(keep);
    }
    return Crash(CrashPoint::kWalAppend);
  }

  DATALOG_RETURN_IF_ERROR(
      Poison(PWriteAll(fd_, record.data(), record.size(), size_)));
  size_ += static_cast<int64_t>(record.size());
  last_appended_epoch_ = epoch;
  ++appends_;
  ++since_sync_;

  if (options_.sync_every > 0 && since_sync_ >= options_.sync_every) {
    if (faults != nullptr && faults->Hit(CrashPoint::kWalBeforeFsync)) {
      return Crash(CrashPoint::kWalBeforeFsync);
    }
    DATALOG_RETURN_IF_ERROR(DoSync());
  }
  return Status::OK();
}

Status Wal::Sync() {
  if (crashed_) return Status::Internal("store crashed (wal sync refused)");
  if (since_sync_ == 0 && synced_size_ == size_) return Status::OK();
  DurabilityFaultSchedule* faults = options_.faults;
  if (faults != nullptr && faults->Hit(CrashPoint::kWalBeforeFsync)) {
    return Crash(CrashPoint::kWalBeforeFsync);
  }
  return DoSync();
}

Status Wal::DoSync() {
  if (::fdatasync(fd_) != 0) {
    return Poison(Status::Internal(std::string("wal fdatasync: ") +
                                   ::strerror(errno)));
  }
  synced_size_ = size_;
  last_synced_epoch_ = last_appended_epoch_;
  since_sync_ = 0;
  ++syncs_;
  return Status::OK();
}

Status Wal::Truncate(int64_t offset) {
  if (crashed_) {
    return Status::Internal("store crashed (wal truncate refused)");
  }
  if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
    return Poison(Status::Internal(std::string("wal ftruncate: ") +
                                   ::strerror(errno)));
  }
  size_ = offset;
  if (synced_size_ > size_) synced_size_ = size_;
  return Status::OK();
}

Result<WalScan> ScanWal(const std::string& path) {
  WalScan scan;
  bool exists = false;  // no log yet scans as empty and clean
  Result<std::string> data = ReadFileBytes(path, &exists);
  if (!data.ok()) return data.status();
  scan.file_size = static_cast<int64_t>(data->size());
  ByteReader r(*data);
  while (!r.done()) {
    const size_t at = r.pos();
    uint32_t len = 0;
    uint32_t crc = 0;
    std::string_view payload;
    std::string why;
    if (!r.U32(&len) || !r.U32(&crc)) {
      why = "torn record: short header";
    } else if (len < kEpochBytes || len > kMaxRecordPayload) {
      why = "corrupt length " + std::to_string(len);
    } else if (!r.Bytes(len, &payload)) {
      why = "torn record: short payload";
    } else if (Crc32(payload.data(), payload.size()) != crc) {
      why = "crc mismatch";
    } else {
      WalRecord record;
      record.epoch = LoadI64(payload.data());
      record.update_tokens = payload.substr(kEpochBytes);
      record.end_offset = static_cast<int64_t>(r.pos());
      scan.valid_end = record.end_offset;
      scan.records.push_back(std::move(record));
      continue;
    }
    scan.clean = false;
    scan.detail = why + " at offset " + std::to_string(at);
    break;
  }
  return scan;
}

}  // namespace store
}  // namespace datalog
