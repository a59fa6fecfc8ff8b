#ifndef UNCHAINED_STORE_IO_H_
#define UNCHAINED_STORE_IO_H_

// File plumbing shared by the WAL and the snapshotter: short-read,
// short-write and EINTR-safe POSIX wrappers. The integer coding of both
// file formats lives in base/coding.h. Nothing here knows about records
// or crash points.

#include <cstdint>
#include <string>

#include "base/result.h"
#include "base/status.h"

namespace datalog {
namespace store {

/// Writes all `n` bytes at `offset`, looping over short writes and EINTR.
Status PWriteAll(int fd, const char* data, size_t n, int64_t offset);

/// Reads the whole file into a string. A missing file is no error: it
/// reads as empty and sets `*exists` to false.
Result<std::string> ReadFileBytes(const std::string& path, bool* exists);

/// fsyncs the directory containing `path`, so a rename inside it is
/// durable.
Status SyncDirOf(const std::string& path);

}  // namespace store
}  // namespace datalog

#endif  // UNCHAINED_STORE_IO_H_
