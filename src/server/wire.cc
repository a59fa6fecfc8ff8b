#include "server/wire.h"

#include <algorithm>
#include <cstddef>
#include <string_view>

#include "dist/transport.h"

namespace datalog {
namespace server {

namespace {

/// ReadFrame grows a payload by at most this many bytes per channel read,
/// so the memory a frame holds follows the bytes that arrived, not the
/// length its header announces.
constexpr size_t kFrameReadStep = size_t{1} << 20;

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI64(std::string* out, int64_t v) {
  const uint64_t u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((u >> (8 * i)) & 0xff));
  }
}

/// Bounded little-endian reader over a payload string.
struct Reader {
  const std::string& data;
  size_t pos = 0;

  bool U8(uint8_t* v) {
    if (pos + 1 > data.size()) return false;
    *v = static_cast<uint8_t>(data[pos++]);
    return true;
  }
  bool U32(uint32_t* v) {
    if (pos + 4 > data.size()) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(static_cast<uint8_t>(data[pos + static_cast<size_t>(i)]))
           << (8 * i);
    }
    pos += 4;
    *v = r;
    return true;
  }
  bool I64(int64_t* v) {
    if (pos + 8 > data.size()) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(static_cast<uint8_t>(data[pos + static_cast<size_t>(i)]))
           << (8 * i);
    }
    pos += 8;
    *v = static_cast<int64_t>(r);
    return true;
  }
  bool Bytes(uint32_t n, std::string* v) {
    if (pos + n > data.size()) return false;
    v->assign(data, pos, n);
    pos += n;
    return true;
  }
  bool Done() const { return pos == data.size(); }
};

/// A response payload's bytes before its body. 13 bytes, so the string
/// stays in its inline buffer.
std::string ResponseHead(const Response& response) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(response.status));
  PutI64(&out, response.epoch);
  PutU32(&out, static_cast<uint32_t>(response.body.size()));
  return out;
}

/// Writes one frame whose payload is `head` followed by `body`, length
/// prefix included, in one channel write.
bool WriteFrameParts(ByteChannel* channel, std::string_view head,
                     std::string_view body) {
  std::string length;
  PutU32(&length, static_cast<uint32_t>(head.size() + body.size()));
  const std::string_view parts[] = {length, head, body};
  return channel->Write(parts);
}

}  // namespace

std::string EncodeRequest(const Request& request) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(request.kind));
  PutI64(&out, request.deadline_ms);
  PutU32(&out, static_cast<uint32_t>(request.text.size()));
  out += request.text;
  return out;
}

bool DecodeRequest(const std::string& payload, Request* request) {
  Reader r{payload};
  uint8_t kind = 0;
  uint32_t text_len = 0;
  Request out;
  if (!r.U8(&kind) || kind > static_cast<uint8_t>(Request::Kind::kClose)) {
    return false;
  }
  out.kind = static_cast<Request::Kind>(kind);
  if (!r.I64(&out.deadline_ms)) return false;
  if (!r.U32(&text_len) || !r.Bytes(text_len, &out.text)) return false;
  if (!r.Done()) return false;
  *request = std::move(out);
  return true;
}

std::string EncodeResponse(const Response& response) {
  return ResponseHead(response) + response.body;
}

bool DecodeResponse(const std::string& payload, Response* response) {
  Reader r{payload};
  uint8_t status = 0;
  uint32_t body_len = 0;
  Response out;
  if (!r.U8(&status)) return false;
  out.status = static_cast<StatusCode>(status);
  if (!r.I64(&out.epoch)) return false;
  if (!r.U32(&body_len) || !r.Bytes(body_len, &out.body)) return false;
  if (!r.Done()) return false;
  *response = std::move(out);
  return true;
}

bool WriteFrame(ByteChannel* channel, const std::string& payload) {
  return WriteFrameParts(channel, {}, payload);
}

bool WriteResponse(ByteChannel* channel, const Response& response) {
  return WriteFrameParts(channel, ResponseHead(response), response.body);
}

bool ReadFrame(ByteChannel* channel, std::string* payload) {
  char header[4];
  if (!channel->Read(header, sizeof(header))) return false;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(header[i]))
           << (8 * i);
  }
  if (len > kMaxFrameBytes) return false;
  payload->clear();
  while (payload->size() < len) {
    const size_t have = payload->size();
    const size_t step = std::min<size_t>(len - have, kFrameReadStep);
    payload->resize(have + step);
    if (!channel->Read(&(*payload)[have], step)) return false;
  }
  return true;
}

}  // namespace server
}  // namespace datalog
