#ifndef UNCHAINED_BASE_CODING_H_
#define UNCHAINED_BASE_CODING_H_

// Fixed-width little-endian integer coding, the one place where the byte
// formats write and read their integers: wire frames (server/wire.h), WAL
// records (store/wal.h), `snapshot.bin` (store/snapshotter.h) and the
// `UDS1` instance snapshot (Instance::SerializeSnapshot) encode through
// the Put* appenders or the raw stores, and decode through ByteReader.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace datalog {

// Raw stores and loads: the caller owns the bounds.

inline void StoreU32(char* out, uint32_t v) {
  out[0] = static_cast<char>(v & 0xffu);
  out[1] = static_cast<char>((v >> 8) & 0xffu);
  out[2] = static_cast<char>((v >> 16) & 0xffu);
  out[3] = static_cast<char>((v >> 24) & 0xffu);
}

inline uint32_t LoadU32(const char* in) {
  const auto byte = [in](int i) {
    return static_cast<uint32_t>(static_cast<unsigned char>(in[i]));
  };
  return byte(0) | (byte(1) << 8) | (byte(2) << 16) | (byte(3) << 24);
}

inline int64_t LoadI64(const char* in) {
  const uint64_t lo = LoadU32(in);
  const uint64_t hi = LoadU32(in + 4);
  return static_cast<int64_t>(lo | (hi << 32));
}

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  char bytes[4];
  StoreU32(bytes, v);
  out->append(bytes, sizeof(bytes));
}

inline void PutI64(std::string* out, int64_t v) {
  const uint64_t u = static_cast<uint64_t>(v);
  char bytes[8];
  StoreU32(bytes, static_cast<uint32_t>(u & 0xffffffffu));
  StoreU32(bytes + 4, static_cast<uint32_t>(u >> 32));
  out->append(bytes, sizeof(bytes));
}

/// Reads fixed-width values front to back from a byte string it does not
/// own. Every read first checks how many bytes are left; a read that does
/// not fit returns false and leaves the position where it was, so a
/// decoder can report where a torn or hostile input stopped it.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  bool U8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_]);
    pos_ += 1;
    return true;
  }
  bool U32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = LoadU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }
  bool I64(int64_t* v) {
    if (remaining() < 8) return false;
    *v = LoadI64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }
  /// The next `n` bytes, as a view into the reader's data.
  bool Bytes(size_t n, std::string_view* v) {
    if (remaining() < n) return false;
    *v = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace datalog

#endif  // UNCHAINED_BASE_CODING_H_
