#include "server/wire.h"

#include <algorithm>
#include <cstddef>
#include <string_view>

#include "base/coding.h"
#include "dist/transport.h"

namespace datalog {
namespace server {

namespace {

/// ReadFrame grows a payload by at most this many bytes per channel read,
/// so the memory a frame holds follows the bytes that arrived, not the
/// length its header announces.
constexpr size_t kFrameReadStep = size_t{1} << 20;

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
  ByteReader r(payload);
  uint8_t kind = 0;
  uint32_t text_len = 0;
  std::string_view text;
  Request out;
  if (!r.U8(&kind) || kind > static_cast<uint8_t>(Request::Kind::kClose) ||
      !r.I64(&out.deadline_ms) || !r.U32(&text_len) ||
      !r.Bytes(text_len, &text) || !r.done()) {
    return false;
  }
  out.kind = static_cast<Request::Kind>(kind);
  out.text = text;
  *request = std::move(out);
  return true;
}

std::string EncodeResponse(const Response& response) {
  return ResponseHead(response) + response.body;
}

bool DecodeResponse(const std::string& payload, Response* response) {
  ByteReader r(payload);
  uint8_t status = 0;
  uint32_t body_len = 0;
  std::string_view body;
  Response out;
  if (!r.U8(&status) || !r.I64(&out.epoch) || !r.U32(&body_len) ||
      !r.Bytes(body_len, &body) || !r.done()) {
    return false;
  }
  out.status = static_cast<StatusCode>(status);
  out.body = body;
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
  uint32_t len = 0;
  if (!channel->Read(header, sizeof(header)) ||
      !ByteReader({header, sizeof(header)}).U32(&len) ||
      len > kMaxFrameBytes) {
    return false;
  }
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
