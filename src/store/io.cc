#include "store/io.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include "eval/test_hooks.h"

namespace datalog {

namespace internal {
int g_store_fail_pwrites = 0;
}  // namespace internal

namespace store {

Status PWriteAll(int fd, const char* data, size_t n, int64_t offset) {
  if (internal::g_store_fail_pwrites > 0) {
    --internal::g_store_fail_pwrites;
    return Status::Internal(std::string("pwrite: ") + ::strerror(EIO) +
                            " (injected)");
  }
  size_t off = 0;
  while (off < n) {
    const ssize_t w =
        ::pwrite(fd, data + off, n - off,
                 static_cast<off_t>(offset) + static_cast<off_t>(off));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("pwrite: ") + ::strerror(errno));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path, bool* exists) {
  *exists = false;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return std::string();
    return Status::Internal("open " + path + ": " + ::strerror(errno));
  }
  *exists = true;
  std::string data;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      const std::string err = ::strerror(errno);
      ::close(fd);
      return Status::Internal("read " + path + ": " + err);
    }
    if (r == 0) break;
    data.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return data;
}

Status SyncDirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("open dir " + dir + ": " + ::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    const std::string err = ::strerror(errno);
    ::close(fd);
    return Status::Internal("fsync dir " + dir + ": " + err);
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace store
}  // namespace datalog
