#ifndef UNCHAINED_SERVER_WIRE_H_
#define UNCHAINED_SERVER_WIRE_H_

// Binary wire protocol of the concurrent Datalog server
// (docs/server.md#wire-format). Everything on the wire is a *frame*:
//
//   u32  payload length (little endian)
//   u8[] payload
//
// Request payload:
//   u8   kind            (Request::Kind)
//   i64  deadline_ms     (0 = no budget; measured from server admission)
//   u32  text length
//   u8[] text            (kQuery: predicate name; kUpdate: signed update
//                         tokens, e.g. "+e1(0,1) -e2(3)" — the `%~`
//                         batch syntax of docs/testing.md without the
//                         marker; other kinds: empty)
//
// Response payload:
//   u8   status          (StatusCode)
//   i64  epoch           (snapshot epoch served or committed; -1 if none)
//   u32  body length
//   u8[] body            (query results in the canonical
//                         Instance::SerializeSnapshot byte format — the
//                         same bytes docs/distribution.md checkpoints
//                         and oracle pair #10 diff; empty otherwise)
//
// The cancellation token of a local request never crosses the wire: a
// remote client cancels by closing its connection.

#include <cstdint>
#include <string>

#include "base/status.h"
#include "eval/common.h"

namespace datalog {

class ByteChannel;

namespace server {

struct Request {
  enum class Kind : uint8_t {
    kPing = 0,           // liveness probe; response carries the epoch
    kQuery = 1,          // one predicate's tuples at a pinned snapshot
    kSnapshotQuery = 2,  // the full model at a pinned snapshot
    kUpdate = 3,         // a mutation batch for the writer queue
    kClose = 4,          // ends the session; no response
  };

  Kind kind = Kind::kPing;
  /// kQuery: predicate name. kUpdate: signed update tokens.
  std::string text;
  /// Per-request budget (EvalOptions::deadline_ms semantics), measured
  /// from the moment the server admits the request. 0 disables.
  int64_t deadline_ms = 0;
  /// Local callers only (not serialized): checked before pinning and
  /// again between pin and payload serialization.
  const CancelToken* cancel = nullptr;
};

struct Response {
  StatusCode status = StatusCode::kOk;
  /// Epoch served (queries) or created (updates); -1 when no snapshot
  /// was involved (errors before pinning).
  int64_t epoch = -1;
  /// Canonical snapshot bytes (queries) — empty otherwise.
  std::string body;
  /// Local-only diagnostic; not serialized.
  std::string error;
};

/// True if `kind` denotes a read served from a pinned snapshot.
inline bool IsReadRequest(Request::Kind kind) {
  return kind == Request::Kind::kPing || kind == Request::Kind::kQuery ||
         kind == Request::Kind::kSnapshotQuery;
}

// -- Payload codecs (deterministic little-endian byte strings) ----------

std::string EncodeRequest(const Request& request);
/// False on truncated/malformed payloads or an unknown kind.
bool DecodeRequest(const std::string& payload, Request* request);

/// The response payload: its head (status, epoch, body length) followed
/// by the body.
std::string EncodeResponse(const Response& response);
bool DecodeResponse(const std::string& payload, Response* response);

// -- Framing over a ByteChannel -----------------------------------------

/// Frames cap at 256 MiB — far above any real payload; a length beyond
/// the cap means a corrupt or hostile stream and fails the read.
inline constexpr uint32_t kMaxFrameBytes = 256u << 20;

/// Sends the length prefix and the payload in one channel write.
bool WriteFrame(ByteChannel* channel, const std::string& payload);
/// Frames EncodeResponse(response) and sends it in one channel write: the
/// length prefix and the response head, then the body where it lies, so
/// a read's body is never copied on its way to the wire.
bool WriteResponse(ByteChannel* channel, const Response& response);
/// False on clean close, error, or an over-cap length prefix. The payload
/// grows in steps of at most 1 MiB as its bytes arrive, so a length
/// prefix alone never makes the reader hold more than one step; a frame
/// of at most 1 MiB takes one channel read.
bool ReadFrame(ByteChannel* channel, std::string* payload);

}  // namespace server
}  // namespace datalog

#endif  // UNCHAINED_SERVER_WIRE_H_
