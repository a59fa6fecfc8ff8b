// Byte-stream channel implementations (transport.h): the in-process
// duplex pair used by tests/benches and the localhost TCP transport used
// by unchained_serve.

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>

#include "dist/transport.h"

namespace datalog {

namespace {

/// One direction of the in-process pair: a bounded-by-nothing byte queue.
/// Writers append and signal; readers block until enough bytes or close.
struct Pipe {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<char> bytes;
  bool closed = false;

  /// Appends every part under one lock with one notify, so a reader
  /// wakes to the whole write.
  bool Write(std::span<const std::string_view> parts) {
    std::lock_guard<std::mutex> lock(mu);
    if (closed) return false;
    for (std::string_view part : parts) {
      bytes.insert(bytes.end(), part.begin(), part.end());
    }
    cv.notify_all();
    return true;
  }

  bool Read(void* data, size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return bytes.size() >= n || closed; });
    if (bytes.size() < n) return false;  // closed with a short tail
    char* p = static_cast<char*>(data);
    for (size_t i = 0; i < n; ++i) {
      p[i] = bytes.front();
      bytes.pop_front();
    }
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
    cv.notify_all();
  }
};

/// Shared state of a channel pair; endpoint A reads what B writes and
/// vice versa.
struct PipePair {
  Pipe a_to_b;
  Pipe b_to_a;
};

class InProcessChannel : public ByteChannel {
 public:
  InProcessChannel(std::shared_ptr<PipePair> pair, bool is_a)
      : pair_(std::move(pair)), is_a_(is_a) {}
  ~InProcessChannel() override { Close(); }

  bool Write(std::span<const std::string_view> parts) override {
    return (is_a_ ? pair_->a_to_b : pair_->b_to_a).Write(parts);
  }
  bool Read(void* data, size_t n) override {
    return (is_a_ ? pair_->b_to_a : pair_->a_to_b).Read(data, n);
  }
  void Close() override {
    pair_->a_to_b.Close();
    pair_->b_to_a.Close();
  }

 private:
  std::shared_ptr<PipePair> pair_;
  bool is_a_;
};

class SocketChannel : public ByteChannel {
  /// iovecs per sendmsg; a longer gather list goes out in several calls.
  static constexpr size_t kMaxIov = 16;

 public:
  explicit SocketChannel(int fd) : fd_(fd) {}
  /// The fd is released here, not in Close: Close may race a blocked
  /// Read/Write on another thread, so while the object lives it only
  /// shuts the socket down (which unblocks them); the number stays valid
  /// until the owner destroys the channel.
  ~SocketChannel() override {
    Close();
    ::close(fd_);
  }

  // A signal landing mid-syscall makes sendmsg/recv fail with EINTR, or
  // return a short count once some bytes moved; both are a retry from
  // where the call stopped, not a peer disconnect — only a real error or
  // EOF (recv returning 0) ends the stream.
  bool Write(std::span<const std::string_view> parts) override {
    size_t part = 0;  // the next unsent byte lies `off` bytes into parts[part]
    size_t off = 0;
    for (;;) {
      while (part < parts.size() && off >= parts[part].size()) {
        off -= parts[part].size();
        ++part;
      }
      if (part == parts.size()) return true;
      iovec iov[kMaxIov];
      size_t count = 0;
      for (size_t p = part; p < parts.size() && count < kMaxIov; ++p) {
        const size_t skip = p == part ? off : 0;
        iov[count].iov_base = const_cast<char*>(parts[p].data() + skip);
        iov[count].iov_len = parts[p].size() - skip;
        ++count;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = count;
      const ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      off += static_cast<size_t>(w);
    }
  }

  bool Read(void* data, size_t n) override {
    char* p = static_cast<char*>(data);
    size_t off = 0;
    while (off < n) {
      const ssize_t r = ::recv(fd_, p + off, n - off, 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      off += static_cast<size_t>(r);
    }
    return true;
  }

  void Close() override { ::shutdown(fd_, SHUT_RDWR); }

 private:
  const int fd_;
};

}  // namespace

std::pair<std::unique_ptr<ByteChannel>, std::unique_ptr<ByteChannel>>
InProcessChannelPair() {
  auto pair = std::make_shared<PipePair>();
  return {std::make_unique<InProcessChannel>(pair, true),
          std::make_unique<InProcessChannel>(pair, false)};
}

Result<std::unique_ptr<SocketListener>> SocketListener::Listen(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status(StatusCode::kInternal, "socket() failed");
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return Status(StatusCode::kInternal,
                  "bind/listen on 127.0.0.1:" + std::to_string(port) +
                      " failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Status(StatusCode::kInternal, "getsockname failed");
  }
  const int bound = ntohs(addr.sin_port);
  return std::unique_ptr<SocketListener>(new SocketListener(fd, bound));
}

SocketListener::~SocketListener() { Close(); }

std::unique_ptr<ByteChannel> SocketListener::Accept() {
  int client = -1;
  // A signal, or a client that reset its connection before it was
  // accepted, fails one accept call without ending the listener.
  do {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return nullptr;
    client = ::accept(fd, nullptr, nullptr);
  } while (client < 0 && (errno == EINTR || errno == ECONNABORTED));
  if (client < 0) return nullptr;
  int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<SocketChannel>(client);
}

void SocketListener::Close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown unblocks a pending accept; close releases the port.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

Result<std::unique_ptr<ByteChannel>> SocketConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status(StatusCode::kInternal, "socket() failed");
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status(StatusCode::kInternal,
                  "connect to 127.0.0.1:" + std::to_string(port) +
                      " failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<ByteChannel>(std::make_unique<SocketChannel>(fd));
}

}  // namespace datalog
