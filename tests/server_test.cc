// Tests for the concurrent Datalog server (docs/server.md): the wire
// codec, session-script parsing, MVCC snapshot publication/pinning with
// epoch-based reclamation, the deterministic virtual-clock scheduler,
// oracle pair #10 (server-vs-library) with its planted torn-read bug and
// session shrinking, and the threaded mode — including snapshot-isolation
// invariants under real reader/writer concurrency at 1, 2 and 8 client
// reader threads, reads and commits served on the calling thread, the
// writer role that wakes each waiting writer once and bounds the queue by
// its callers, one channel write per frame, and malformed wire input
// (truncated frames, unknown request kinds, over-cap frame lengths)
// answered cleanly without leaking snapshot pins.

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "core/engine.h"
#include "dist/transport.h"
#include "eval/incremental.h"
#include "eval/test_hooks.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/scheduler.h"
#include "server/server.h"
#include "server/session.h"
#include "server/snapshot.h"
#include "server/wire.h"
#include "testing/oracle.h"
#include "testing/shrinker.h"

namespace datalog {
namespace server {
namespace {

// -- Wire codec ---------------------------------------------------------

TEST(ServerWireTest, RequestRoundTrip) {
  Request request;
  request.kind = Request::Kind::kUpdate;
  request.text = "+e1(0,1) -e2(3)";
  request.deadline_ms = 250;

  Request decoded;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(request), &decoded));
  EXPECT_EQ(decoded.kind, Request::Kind::kUpdate);
  EXPECT_EQ(decoded.text, request.text);
  EXPECT_EQ(decoded.deadline_ms, 250);
  EXPECT_EQ(decoded.cancel, nullptr);  // never crosses the wire
}

TEST(ServerWireTest, ResponseRoundTrip) {
  Response response;
  response.status = StatusCode::kOk;
  response.epoch = 7;
  response.body = std::string("\x00\x01snapshot", 10);
  response.error = "local only";

  Response decoded;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(response), &decoded));
  EXPECT_EQ(decoded.status, StatusCode::kOk);
  EXPECT_EQ(decoded.epoch, 7);
  EXPECT_EQ(decoded.body, response.body);
  EXPECT_TRUE(decoded.error.empty());  // not serialized
}

TEST(ServerWireTest, DecodeRejectsMalformedPayloads) {
  Request request;
  EXPECT_FALSE(DecodeRequest("", &request));
  EXPECT_FALSE(DecodeRequest("\xff", &request));  // unknown kind
  std::string truncated = EncodeRequest(Request{});
  truncated.pop_back();
  // kPing has no text, so the only droppable byte is the length field's.
  EXPECT_FALSE(DecodeRequest(truncated, &request));
  std::string trailing = EncodeRequest(Request{});
  trailing += '\0';
  EXPECT_FALSE(DecodeRequest(trailing, &request));
}

TEST(ServerWireTest, FramesRoundTripOverInProcessChannel) {
  auto [a, b] = InProcessChannelPair();
  const std::string payload = EncodeRequest(
      Request{Request::Kind::kQuery, "e1", 0, nullptr});
  ASSERT_TRUE(WriteFrame(a.get(), payload));
  std::string read_back;
  ASSERT_TRUE(ReadFrame(b.get(), &read_back));
  EXPECT_EQ(read_back, payload);
  a->Close();
  EXPECT_FALSE(ReadFrame(b.get(), &read_back));  // clean close
}

TEST(ServerWireTest, ReadFrameRejectsOverCapLength) {
  auto [a, b] = InProcessChannelPair();
  const uint32_t huge = kMaxFrameBytes + 1;
  char header[4];
  header[0] = static_cast<char>(huge & 0xff);
  header[1] = static_cast<char>((huge >> 8) & 0xff);
  header[2] = static_cast<char>((huge >> 16) & 0xff);
  header[3] = static_cast<char>((huge >> 24) & 0xff);
  const std::string_view bytes[] = {std::string_view(header, 4)};
  ASSERT_TRUE(a->Write(bytes));
  std::string payload;
  EXPECT_FALSE(ReadFrame(b.get(), &payload));
}

/// A channel that counts its writes and keeps their bytes; Read serves
/// `input` and then reports a close.
class CountingChannel : public ByteChannel {
 public:
  bool Write(std::span<const std::string_view> parts) override {
    ++writes;
    for (std::string_view part : parts) written.append(part);
    return true;
  }
  bool Read(void* data, size_t n) override {
    if (input.size() - read_pos < n) return false;
    input.copy(static_cast<char*>(data), n, read_pos);
    read_pos += n;
    return true;
  }
  void Close() override {}

  int writes = 0;
  std::string written;
  std::string input;

 private:
  size_t read_pos = 0;
};

/// The frames in `bytes`, read back through an in-process pair.
std::vector<std::string> SplitFrames(const std::string& bytes) {
  auto [a, b] = InProcessChannelPair();
  const std::string_view all[] = {bytes};
  EXPECT_TRUE(a->Write(all));
  a->Close();
  std::vector<std::string> frames;
  std::string payload;
  while (ReadFrame(b.get(), &payload)) frames.push_back(payload);
  return frames;
}

TEST(ServerWireTest, EachFrameIsOneChannelWrite) {
  CountingChannel channel;
  ASSERT_TRUE(WriteFrame(&channel, ""));
  EXPECT_EQ(channel.writes, 1);
  EXPECT_EQ(channel.written, std::string(4, '\0'));

  const std::string request =
      EncodeRequest(Request{Request::Kind::kQuery, "t", 0, nullptr});
  ASSERT_TRUE(WriteFrame(&channel, request));
  EXPECT_EQ(channel.writes, 2);

  Response response;
  response.epoch = 9;
  response.body = std::string(70000, 'x');
  ASSERT_TRUE(WriteResponse(&channel, response));
  EXPECT_EQ(channel.writes, 3);

  EXPECT_EQ(SplitFrames(channel.written),
            (std::vector<std::string>{"", request, EncodeResponse(response)}));
}

// A header alone cannot make the reader allocate: the payload grows in
// 1 MiB steps as its bytes arrive, so 64 MiB announced and 3 bytes sent
// leave well under 2 MiB behind.
TEST(ServerWireTest, ReadFrameHoldsOnlyTheBytesThatArrived) {
  const uint32_t announced = 64u << 20;
  CountingChannel channel;
  for (int i = 0; i < 4; ++i) {
    channel.input.push_back(static_cast<char>((announced >> (8 * i)) & 0xff));
  }
  channel.input += "abc";
  std::string payload;
  EXPECT_FALSE(ReadFrame(&channel, &payload));
  EXPECT_LT(payload.capacity(), size_t{2} << 20);
}

/// A connected localhost socket pair: {client end, server end}.
std::pair<std::unique_ptr<ByteChannel>, std::unique_ptr<ByteChannel>>
ConnectLocalhost() {
  Result<std::unique_ptr<SocketListener>> listener = SocketListener::Listen(0);
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
  if (!listener.ok()) return {};
  std::unique_ptr<ByteChannel> server_end;
  std::thread accept([&] { server_end = (*listener)->Accept(); });
  Result<std::unique_ptr<ByteChannel>> client =
      SocketConnect((*listener)->port());
  if (!client.ok()) (*listener)->Close();
  accept.join();
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  if (!client.ok() || server_end == nullptr) return {};
  return {std::move(*client), std::move(server_end)};
}

// A frame round-trips byte-exact over a localhost socket while signals
// interrupt its writer. A 1 MiB frame fits in the loopback socket buffers
// (which held 3.9 MB before sendmsg blocked, on a Linux 6.x host), so its
// one sendmsg returns at once; an 8 MiB frame blocks the writer inside
// sendmsg until the reader drains it. Signals sent to the writer there,
// through a handler installed without SA_RESTART, end that sendmsg early
// with a short count (or EINTR before any byte moved), and the write loop
// must resume from the byte where it stopped. Closing the client once the
// writer returns ends the reader's wait if a write stopped short.
void IgnoreSignal(int) {}

TEST(ServerWireTest, LargeFramesRoundTripOverALocalhostSocket) {
  struct sigaction ignore {};
  struct sigaction previous {};
  ignore.sa_handler = IgnoreSignal;
  sigemptyset(&ignore.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &ignore, &previous), 0);
  for (const size_t size : {size_t{1} << 20, size_t{8} << 20}) {
    SCOPED_TRACE("frame bytes " + std::to_string(size));
    auto [client, server_end] = ConnectLocalhost();
    ASSERT_NE(client, nullptr);
    std::string payload(size, '\0');
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<char>(i * 131 % 251);
    }
    std::string read_back;
    bool read = false;
    std::thread reader([&, channel = server_end.get()] {
      // Let the writer fill the socket buffers and block first.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      read = ReadFrame(channel, &read_back);
    });
    std::atomic<bool> written{false};
    bool ok = false;
    std::thread writer([&, channel = client.get()] {
      ok = WriteFrame(channel, payload);
      written = true;
    });
    for (int i = 0; i < 10 && !written; ++i) {
      pthread_kill(writer.native_handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writer.join();
    client->Close();
    reader.join();
    EXPECT_TRUE(ok);
    EXPECT_TRUE(read);
    EXPECT_EQ(read_back.size(), payload.size());
    EXPECT_TRUE(read_back == payload);
  }
  sigaction(SIGUSR1, &previous, nullptr);
}

// A socket sends at most 16 parts per sendmsg, so a longer gather list
// goes out in several calls and must still arrive whole and in order.
TEST(ServerWireTest, SocketGatherWriteOfManyPartsArrivesInOrder) {
  auto [client, server_end] = ConnectLocalhost();
  ASSERT_NE(client, nullptr);

  std::vector<std::string> strings;
  std::string expected;
  for (int i = 0; i < 40; ++i) {
    strings.emplace_back(static_cast<size_t>(i % 5 == 0 ? 0 : i * 37),
                         static_cast<char>('A' + i % 26));
    expected += strings.back();
  }
  const std::vector<std::string_view> parts(strings.begin(), strings.end());
  ASSERT_TRUE(client->Write(parts));
  client->Close();  // a short write then ends the read instead of hanging
  std::string read_back(expected.size(), '\0');
  ASSERT_TRUE(server_end->Read(read_back.data(), read_back.size()));
  EXPECT_EQ(read_back, expected);
}

// The in-process pair delivers a gather write's parts, empty ones
// included, as one contiguous frame.
TEST(ServerWireTest, InProcessPairDeliversAGatherWriteWhole) {
  auto [a, b] = InProcessChannelPair();
  const std::string_view parts[] = {std::string_view("\x07\0\0\0", 4), "abc",
                                    "", "defg"};
  ASSERT_TRUE(a->Write(parts));
  std::string payload;
  ASSERT_TRUE(ReadFrame(b.get(), &payload));
  EXPECT_EQ(payload, "abcdefg");
  a->Close();
  EXPECT_FALSE(ReadFrame(b.get(), &payload));  // nothing trails the frame
}

// -- Session scripts ----------------------------------------------------

TEST(SessionScriptTest, ParsesQueriesSnapshotsAndUpdates) {
  std::vector<SessionOp> ops;
  ASSERT_TRUE(ParseSessionScript(
      "e1(0, 1).\n"
      "%~ +e1(2,2)\n"         // update-batch line: not a session op
      "% plain comment\n"
      "%@ 0 q e1\n"
      "  %@ 1 s\n"
      "%@ 0 u +e1(0,1) -e2(3)\n",
      &ops));
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].session, 0);
  EXPECT_EQ(ops[0].kind, SessionOp::Kind::kQuery);
  EXPECT_EQ(ops[0].pred, "e1");
  EXPECT_EQ(ops[1].session, 1);
  EXPECT_EQ(ops[1].kind, SessionOp::Kind::kSnapshot);
  EXPECT_EQ(ops[2].kind, SessionOp::Kind::kUpdate);
  EXPECT_EQ(ops[2].update_tokens, "+e1(0,1) -e2(3)");
}

TEST(SessionScriptTest, FormatParsesBackToTheSameOp) {
  std::vector<SessionOp> ops;
  ASSERT_TRUE(ParseSessionScript(
      "%@ 2 q p3\n%@ 0 s\n%@ 1 u +e2(4)\n", &ops));
  for (const SessionOp& op : ops) {
    std::vector<SessionOp> again;
    ASSERT_TRUE(ParseSessionScript(FormatSessionOp(op) + "\n", &again));
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].session, op.session);
    EXPECT_EQ(again[0].kind, op.kind);
    EXPECT_EQ(again[0].pred, op.pred);
    EXPECT_EQ(again[0].update_tokens, op.update_tokens);
  }
}

TEST(SessionScriptTest, MalformedLinesFailTheParse) {
  std::vector<SessionOp> ops;
  EXPECT_FALSE(ParseSessionScript("%@\n", &ops));
  EXPECT_FALSE(ParseSessionScript("%@ x q e1\n", &ops));  // non-numeric sid
  EXPECT_FALSE(ParseSessionScript("%@ 0 z e1\n", &ops));  // unknown op
  EXPECT_FALSE(ParseSessionScript("%@ 0 q\n", &ops));     // missing pred
  EXPECT_FALSE(ParseSessionScript("%@ 0 u\n", &ops));     // empty batch
}

TEST(SessionScriptTest, UpdateTokensValidateAgainstTheCatalog) {
  Engine engine;
  Instance db(&engine.catalog());
  ASSERT_TRUE(engine.AddFacts("e1(0, 1). e2(3).", &db).ok());

  std::vector<FactUpdate> batch;
  ASSERT_TRUE(ParseUpdateTokens("+e1(2,3) -e2(3)", engine.catalog(),
                                &engine.symbols(), &batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].insert);
  EXPECT_FALSE(batch[1].insert);
  EXPECT_EQ(batch[0].pred, engine.catalog().Find("e1"));

  batch.clear();
  EXPECT_FALSE(ParseUpdateTokens("+nosuch(1)", engine.catalog(),
                                 &engine.symbols(), &batch));
  EXPECT_FALSE(ParseUpdateTokens("+e1(1)", engine.catalog(),
                                 &engine.symbols(), &batch));  // arity
  EXPECT_FALSE(ParseUpdateTokens("e1(1,2)", engine.catalog(),
                                 &engine.symbols(), &batch));  // no sign
}

TEST(SessionScriptTest, OverflowingValuesAreRejectedNotWrapped) {
  Engine engine;
  Instance db(&engine.catalog());
  ASSERT_TRUE(engine.AddFacts("e1(0, 1). e2(3).", &db).ok());

  // A digit run past int64 range must fail the parse cleanly — wrapping
  // would be UB and would intern a nondeterministic value, breaking the
  // Format∘Parse identity WAL replay relies on.
  std::vector<FactUpdate> batch;
  EXPECT_FALSE(ParseUpdateTokens("+e2(99999999999999999999)",
                                 engine.catalog(), &engine.symbols(),
                                 &batch));
  // INT64_MAX itself still parses.
  EXPECT_TRUE(ParseUpdateTokens("+e2(9223372036854775807)",
                                engine.catalog(), &engine.symbols(),
                                &batch));
  // An overflowing session id fails the script parse too.
  std::vector<SessionOp> ops;
  EXPECT_FALSE(ParseSessionScript("%@ 99999999999 q e1\n", &ops));
}

// -- Snapshot registry: pinning and epoch-based reclamation -------------

std::unique_ptr<Snapshot> MakeSnapshot(const Catalog* catalog, int64_t epoch,
                                       Engine* engine,
                                       const std::string& facts) {
  Instance model(catalog);
  EXPECT_TRUE(engine->AddFacts(facts, &model).ok());
  return std::make_unique<Snapshot>(epoch, model.EncodeSnapshotChunks());
}

TEST(ReclaimTest, PinBeforeFirstPublishIsInvalid) {
  SnapshotRegistry registry;
  EXPECT_EQ(registry.current_epoch(), -1);
  SnapshotPin pin = registry.Pin();
  EXPECT_FALSE(pin.valid());
  pin.Release();  // no-op, must not crash or count
  EXPECT_EQ(registry.counters().pins, 0);
}

TEST(ReclaimTest, PinnedReaderSeesUnchangedBytesAcrossPublishes) {
  Engine engine;
  Instance seed(&engine.catalog());
  ASSERT_TRUE(engine.AddFacts("e1(0, 0).", &seed).ok());

  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(&engine.catalog(), 0, &engine, "e1(0, 0)."));
  SnapshotPin pin = registry.Pin();
  ASSERT_TRUE(pin.valid());
  const std::string bytes_at_0 = pin->ModelBytes();

  registry.Publish(MakeSnapshot(&engine.catalog(), 1, &engine,
                                "e1(0, 0). e1(1, 1)."));
  registry.Publish(MakeSnapshot(&engine.catalog(), 2, &engine, "e2(5)."));

  // The pinned epoch-0 snapshot survives both publishes, byte-identical.
  EXPECT_EQ(pin->epoch(), 0);
  EXPECT_EQ(pin->ModelBytes(), bytes_at_0);
  EXPECT_EQ(registry.live(), 2);  // epoch 0 (pinned) + epoch 2 (current)
  EXPECT_EQ(registry.counters().reclaimed, 1);  // epoch 1: retired unpinned

  pin.Release();
  EXPECT_EQ(registry.live(), 1);  // epoch 0 reclaimed at last unpin
  const SnapshotRegistry::Counters c = registry.counters();
  EXPECT_EQ(c.published, 3);
  EXPECT_EQ(c.retired, 2);
  EXPECT_EQ(c.reclaimed, 2);
  EXPECT_EQ(c.pins, c.unpins);
}

TEST(ReclaimTest, MovedPinUnpinsExactlyOnce) {
  Engine engine;
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(&engine.catalog(), 0, &engine, "e1(0, 0)."));
  {
    SnapshotPin pin = registry.Pin();
    SnapshotPin moved = std::move(pin);
    EXPECT_FALSE(pin.valid());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(moved.valid());
    EXPECT_EQ(registry.pinned(), 1);
  }
  EXPECT_EQ(registry.pinned(), 0);
  EXPECT_EQ(registry.counters().pins, 1);
  EXPECT_EQ(registry.counters().unpins, 1);
}

// -- Server fixtures ----------------------------------------------------

constexpr const char* kTcProgram =
    "t(X, Y) :- e1(X, Y).\n"
    "t(X, Z) :- t(X, Y), e1(Y, Z).\n";

class ServerTest : public ::testing::Test {
 protected:
  std::unique_ptr<Server> MustCreate(const std::string& program_text,
                                     const std::string& facts_text,
                                     const ServerOptions& options = {}) {
    Result<Program> program = engine_.Parse(program_text);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
    Instance base(&engine_.catalog());
    EXPECT_TRUE(engine_.AddFacts(facts_text, &base).ok());
    auto server = Server::Create(program_, &engine_.catalog(),
                                 &engine_.symbols(), base, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(*server);
  }

  /// Makes `server` append every commit to `log` through its publish
  /// hook. Install before any writer step; read `log` at quiescence.
  static void LogCommits(Server* server, std::vector<CommitRecord>* log) {
    server->set_on_publish(
        [log](const CommitRecord& commit, const Snapshot&) {
          log->push_back(commit);
        });
  }

  /// Replays `log` against a fresh IncrementalView of the same base and
  /// returns the serialized model after all batches.
  std::string ReplayAll(const std::string& facts_text,
                        const std::vector<CommitRecord>& log) {
    Instance base(&engine_.catalog());
    EXPECT_TRUE(engine_.AddFacts(facts_text, &base).ok());
    auto view = IncrementalView::Create(program_, engine_.catalog(), base);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    for (const CommitRecord& commit : log) {
      EXPECT_TRUE((*view)->ApplyBatch(commit.batch).ok());
    }
    return (*view)->model().SerializeSnapshot();
  }

  Engine engine_;
  Program program_;
};

// -- Scheduler-driven mode ----------------------------------------------

TEST_F(ServerTest, EpochZeroIsPublishedByCreate) {
  auto server = MustCreate(kTcProgram, "e1(0, 1). e1(1, 2).");
  EXPECT_EQ(server->epoch(), 0);

  Response r = server->ServeQuery(Request{Request::Kind::kQuery, "t", 0,
                                          nullptr});
  EXPECT_EQ(r.status, StatusCode::kOk);
  EXPECT_EQ(r.epoch, 0);
  EXPECT_FALSE(r.body.empty());
}

TEST_F(ServerTest, UpdateCommitAdvancesTheEpoch) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  std::vector<CommitRecord> log;
  LogCommits(server.get(), &log);
  Result<int64_t> ticket = server->SubmitUpdate("+e1(1,2)");
  ASSERT_TRUE(ticket.ok());
  Response pending;
  EXPECT_FALSE(server->UpdateOutcome(*ticket, &pending));
  EXPECT_EQ(server->pending_updates(), 1);

  ASSERT_TRUE(server->ApplyOneQueued());
  Response done;
  ASSERT_TRUE(server->UpdateOutcome(*ticket, &done));
  EXPECT_EQ(done.status, StatusCode::kOk);
  EXPECT_EQ(done.epoch, 1);
  EXPECT_EQ(server->epoch(), 1);

  // The new model serves the transitively derived fact.
  const PredId t = engine_.catalog().Find("t");
  Response r = server->ServeQuery(Request{Request::Kind::kQuery, "t", 0,
                                          nullptr});
  ASSERT_EQ(r.status, StatusCode::kOk);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].epoch, 1);
  // Served bytes match the sequential replay, restricted to t.
  Instance base(&engine_.catalog());
  ASSERT_TRUE(engine_.AddFacts("e1(0, 1).", &base).ok());
  auto view = IncrementalView::Create(program_, engine_.catalog(), base);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE((*view)->ApplyBatch(log[0].batch).ok());
  EXPECT_EQ(r.body, (*view)->model().Restrict({t}).SerializeSnapshot());
}

TEST_F(ServerTest, MalformedUpdateIsRefusedWithoutEnqueueing) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  const int symbols = engine_.symbols().size();
  // A refused batch interns none of its values, also those that come
  // before the token that fails it: a wrong arity, an unknown predicate
  // after a good token, a value cut by a stray byte, an unclosed atom.
  for (const char* tokens :
       {"+nosuch(1)", "garbage", "", "+e1(700001,700002,700003)",
        "+e1(800001,800002) +nosuch(1)", "+e1(900001x)",
        "+e1(910001,910002"}) {
    SCOPED_TRACE(tokens);
    EXPECT_EQ(server->SubmitUpdate(tokens).status().code(),
              StatusCode::kSchemaError);
  }
  EXPECT_EQ(engine_.symbols().size(), symbols);
  EXPECT_EQ(server->pending_updates(), 0);
  EXPECT_FALSE(server->ApplyOneQueued());
  EXPECT_EQ(server->epoch(), 0);
}

// O(delta) publish: a commit re-encodes the chunks of exactly the
// relations its net model delta touched; every other chunk is shared with
// the previous epoch.
TEST_F(ServerTest, PublishReencodesOnlyTouchedChunks) {
  constexpr const char* kFacts = "e(0, 1). e(1, 2). f(1).";
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Get();
  metrics.Reset();
  metrics.SetEnabled(true);
  auto server = MustCreate(
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).\n", kFacts);
  std::vector<CommitRecord> log;
  LogCommits(server.get(), &log);
  auto chunks_encoded = [&](const std::string& tokens) {
    const int64_t before = metrics.Value("server.publish_chunks_encoded");
    Result<int64_t> ticket = server->SubmitUpdate(tokens);
    EXPECT_TRUE(ticket.ok());
    EXPECT_TRUE(server->ApplyOneQueued());
    Response done;
    EXPECT_TRUE(server->UpdateOutcome(*ticket, &done));
    EXPECT_EQ(done.status, StatusCode::kOk);
    return metrics.Value("server.publish_chunks_encoded") - before;
  };
  EXPECT_EQ(chunks_encoded("+f(7)"), 1);         // f; e and t shared
  EXPECT_EQ(chunks_encoded("+e(2,3)"), 2);       // e and t; f shared
  EXPECT_EQ(chunks_encoded("+f(7)"), 0);         // no-op: all shared
  EXPECT_EQ(chunks_encoded("-f(1) -f(7)"), 1);   // f emptied, dropped
  EXPECT_EQ(chunks_encoded("-e(0,1) +f(1)"), 3);
  metrics.SetEnabled(false);
  EXPECT_EQ(server->epoch(), 5);

  Request snapshot;
  snapshot.kind = Request::Kind::kSnapshotQuery;
  EXPECT_EQ(server->ServeQuery(snapshot).body, ReplayAll(kFacts, log));
}

TEST_F(ServerTest, CancelledAndExpiredRequestsLeaveNoPins) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");

  CancelToken cancel;
  cancel.Cancel();
  Request cancelled{Request::Kind::kSnapshotQuery, "", 0, &cancel};
  EXPECT_EQ(server->ServeQuery(cancelled).status, StatusCode::kCancelled);

  // deadline_ms < 0 is deterministically already expired.
  Request expired{Request::Kind::kSnapshotQuery, "", -1, nullptr};
  EXPECT_EQ(server->ServeQuery(expired).status,
            StatusCode::kBudgetExhausted);

  const SnapshotRegistry& registry = server->snapshots();
  EXPECT_EQ(registry.pinned(), 0);
  EXPECT_EQ(registry.counters().pins, registry.counters().unpins);
}

// Any wire deadline is compared without overflow: the two far-future
// budgets serve, the two past ones are refused as -1 is, and no refusal
// keeps a pin.
TEST_F(ServerTest, ExtremeWireDeadlinesServeOrRefuseWithoutPins) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  for (Request::Kind kind : {Request::Kind::kPing, Request::Kind::kQuery,
                             Request::Kind::kSnapshotQuery}) {
    for (int64_t deadline_ms :
         {std::numeric_limits<int64_t>::max(), int64_t{1} << 50,
          int64_t{-1}, std::numeric_limits<int64_t>::min()}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(kind)) + " " +
                   std::to_string(deadline_ms));
      const Response r =
          server->ServeQuery(Request{kind, "t", deadline_ms, nullptr});
      EXPECT_EQ(r.status, deadline_ms > 0 ? StatusCode::kOk
                                          : StatusCode::kBudgetExhausted);
    }
  }
  const SnapshotRegistry& registry = server->snapshots();
  EXPECT_EQ(registry.pinned(), 0);
  EXPECT_EQ(registry.counters().pins, registry.counters().unpins);
}

// -- Virtual-clock scheduler --------------------------------------------

std::vector<SessionOp> MustParseScript(const std::string& text) {
  std::vector<SessionOp> ops;
  EXPECT_TRUE(ParseSessionScript(text, &ops));
  return ops;
}

TEST_F(ServerTest, ScheduleReplaysDeterministically) {
  const std::string script =
      "%@ 0 q t\n"
      "%@ 0 u +e1(2,3) +e1(3,4)\n"
      "%@ 0 s\n"
      "%@ 1 u -e1(0,1)\n"
      "%@ 1 q e1\n"
      "%@ 2 s\n";
  const std::vector<SessionOp> ops = MustParseScript(script);

  SchedulerOptions sched;
  sched.seed = 42;
  sched.cancel_prob = 0.25;

  auto s1 = MustCreate(kTcProgram, "e1(0, 1). e1(1, 2).");
  ScheduleRun r1 = RunSessions(s1.get(), ops, sched);
  ASSERT_TRUE(r1.ok) << r1.error;

  Engine other;  // fresh engine: determinism across processes, not state
  Result<Program> p = other.Parse(kTcProgram);
  ASSERT_TRUE(p.ok());
  Instance base(&other.catalog());
  ASSERT_TRUE(other.AddFacts("e1(0, 1). e1(1, 2).", &base).ok());
  auto s2 = Server::Create(*p, &other.catalog(), &other.symbols(), base, {});
  ASSERT_TRUE(s2.ok());
  ScheduleRun r2 = RunSessions(s2->get(), ops, sched);
  ASSERT_TRUE(r2.ok) << r2.error;

  ASSERT_EQ(r1.events.size(), r2.events.size());
  for (size_t i = 0; i < r1.events.size(); ++i) {
    EXPECT_EQ(r1.events[i].vtime, r2.events[i].vtime);
    EXPECT_EQ(r1.events[i].op_index, r2.events[i].op_index);
    EXPECT_EQ(r1.events[i].session, r2.events[i].session);
    EXPECT_EQ(r1.events[i].cancelled_injected,
              r2.events[i].cancelled_injected);
    EXPECT_EQ(r1.events[i].response.status, r2.events[i].response.status);
    EXPECT_EQ(r1.events[i].response.epoch, r2.events[i].response.epoch);
    EXPECT_EQ(r1.events[i].response.body, r2.events[i].response.body);
  }
  EXPECT_EQ(r1.epoch_bytes, r2.epoch_bytes);
  EXPECT_EQ(r1.final_epoch, r2.final_epoch);
}

TEST_F(ServerTest, ScheduleGivesReadYourWritesAndMonotoneEpochs) {
  const std::vector<SessionOp> ops = MustParseScript(
      "%@ 0 u +e1(5,6)\n"
      "%@ 0 q e1\n"
      "%@ 1 s\n"
      "%@ 1 u -e1(0,1)\n"
      "%@ 1 s\n");
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto server = MustCreate(kTcProgram, "e1(0, 1).");
    SchedulerOptions sched;
    sched.seed = seed;
    ScheduleRun run = RunSessions(server.get(), ops, sched);
    ASSERT_TRUE(run.ok) << run.error;

    int64_t commit_epoch_of_op0 = -1;
    int64_t session0_read_epoch = -1;
    std::vector<int64_t> last_epoch(3, -1);
    for (const ScheduledEvent& ev : run.events) {
      ASSERT_EQ(ev.response.status, StatusCode::kOk);
      // Monotone epochs per session.
      EXPECT_GE(ev.response.epoch, last_epoch[static_cast<size_t>(
                                       ev.session)]);
      last_epoch[static_cast<size_t>(ev.session)] = ev.response.epoch;
      if (ev.op_index == 0) commit_epoch_of_op0 = ev.response.epoch;
      if (ev.op_index == 1) session0_read_epoch = ev.response.epoch;
    }
    // Read-your-writes: session 0's read happens after its commit.
    ASSERT_GE(commit_epoch_of_op0, 1);
    EXPECT_GE(session0_read_epoch, commit_epoch_of_op0);
  }
}

TEST_F(ServerTest, ScheduleQuiescesWithBalancedReclamation) {
  const std::vector<SessionOp> ops = MustParseScript(
      "%@ 0 u +e1(2,3)\n%@ 0 s\n%@ 1 u +e1(3,4)\n%@ 1 q t\n%@ 2 s\n");
  auto server = MustCreate(kTcProgram, "e1(0, 1). e1(1, 2).");
  SchedulerOptions sched;
  sched.seed = 9;
  sched.cancel_prob = 0.5;  // heavy cancellation still leaks no pins
  ScheduleRun run = RunSessions(server.get(), ops, sched);
  ASSERT_TRUE(run.ok) << run.error;

  EXPECT_EQ(run.pinned, 0);
  EXPECT_EQ(run.live_snapshots, 1);
  EXPECT_EQ(run.counters.pins, run.counters.unpins);
  EXPECT_EQ(run.counters.reclaimed, run.counters.retired);
  EXPECT_EQ(run.counters.retired, run.counters.published - 1);

  // Every epoch's published bytes equal the sequential replay.
  ASSERT_EQ(run.epoch_bytes.size(), run.commits.size() + 1);
  EXPECT_EQ(run.epoch_bytes.back(),
            ReplayAll("e1(0, 1). e1(1, 2).", run.commits));
}

// -- Oracle pair #10 and the planted torn-read bug ----------------------

TEST(ServerOracleTest, ServerVsLibrarySweepAgrees) {
  fuzz::OracleRunner runner;
  const std::string program = kTcProgram;
  const std::string facts =
      "e1(0, 1). e1(1, 2). e1(2, 3).\n"
      "%@ 0 q t\n"
      "%@ 0 u +e1(3,4)\n"
      "%@ 1 s\n"
      "%@ 1 u -e1(0,1)\n"
      "%@ 2 q e1\n";
  for (uint64_t salt = 0; salt < 50; ++salt) {
    fuzz::OracleVerdict verdict = runner.Run(
        fuzz::OraclePair::kServerVsLibrary, program, facts, salt);
    ASSERT_TRUE(verdict.applicable);
    EXPECT_TRUE(verdict.agreed) << "salt " << salt << ": " << verdict.detail;
  }
}

TEST(ServerOracleTest, CaseWithoutSessionLinesIsInapplicable) {
  fuzz::OracleRunner runner;
  fuzz::OracleVerdict verdict =
      runner.Run(fuzz::OraclePair::kServerVsLibrary, kTcProgram,
                 "e1(0, 1).\n%~ +e1(1,2)\n", 3);
  EXPECT_FALSE(verdict.applicable);
  EXPECT_TRUE(verdict.ok());
}

class ServerPlantedBugTest : public ::testing::Test {
 protected:
  void TearDown() override { internal::g_server_publish_stale = false; }
};

TEST_F(ServerPlantedBugTest, TornPublishIsCaughtAndShrinksToOneOp) {
  internal::g_server_publish_stale = true;

  fuzz::OracleRunner runner;
  const std::string program = kTcProgram;
  const std::string facts =
      "e1(0, 1). e1(1, 2).\n"
      "%@ 0 q t\n"
      "%@ 0 u +e1(2,3)\n"
      "%@ 1 s\n"
      "%@ 1 u -e1(0,1) +e1(4,5)\n";
  const uint64_t salt = 5;
  fuzz::OracleVerdict verdict = runner.Run(
      fuzz::OraclePair::kServerVsLibrary, program, facts, salt);
  ASSERT_TRUE(verdict.applicable);
  ASSERT_FALSE(verdict.agreed);
  EXPECT_NE(verdict.detail.find("torn read"), std::string::npos)
      << verdict.detail;

  // The shrinker's session-minimization pass must reduce the repro to a
  // single session op (<= 3 is the acceptance bar; one update op is the
  // true minimum — the bug needs exactly one model-changing commit).
  fuzz::Shrinker shrinker;
  fuzz::ShrinkResult shrunk = shrinker.Shrink(
      program, facts, [&](const std::string& p, const std::string& f) {
        fuzz::OracleVerdict v =
            runner.Run(fuzz::OraclePair::kServerVsLibrary, p, f, salt);
        return v.applicable && !v.agreed;
      });
  EXPECT_TRUE(shrunk.one_minimal);

  std::vector<SessionOp> remaining;
  ASSERT_TRUE(ParseSessionScript(shrunk.facts, &remaining));
  EXPECT_LE(remaining.size(), 3u);
  EXPECT_GE(remaining.size(), 1u);
  // Whatever survived must still be a failing torn-read repro.
  fuzz::OracleVerdict still = runner.Run(
      fuzz::OraclePair::kServerVsLibrary, shrunk.program, shrunk.facts,
      salt);
  EXPECT_TRUE(still.applicable);
  EXPECT_FALSE(still.agreed);
}

TEST_F(ServerPlantedBugTest, CleanServerPassesTheSameCase) {
  // Control: with the hook off, the exact case above agrees.
  fuzz::OracleRunner runner;
  fuzz::OracleVerdict verdict = runner.Run(
      fuzz::OraclePair::kServerVsLibrary, kTcProgram,
      "e1(0, 1). e1(1, 2).\n%@ 0 u +e1(2,3)\n%@ 1 s\n", 5);
  ASSERT_TRUE(verdict.applicable);
  EXPECT_TRUE(verdict.agreed) << verdict.detail;
}

// -- Threaded mode ------------------------------------------------------

class ServerThreadedTest : public ServerTest {
 protected:
  /// Runs `writers` mutator clients and `readers` query clients against a
  /// Start()ed server, then checks the snapshot-isolation invariants and
  /// the replay of the commit log the publish hook collected. Each read
  /// is served on its client's thread while the writer publishes.
  void RunMixedLoad(int writers, int readers) {
    auto server = MustCreate(kTcProgram, "e1(0, 1). e1(1, 2).");
    std::vector<CommitRecord> log;
    LogCommits(server.get(), &log);
    server->Start();

    std::atomic<int> bad{0};
    std::vector<std::thread> clients;
    for (int w = 0; w < writers; ++w) {
      clients.emplace_back([&, w] {
        for (int i = 0; i < 8; ++i) {
          const std::string tokens =
              "+e1(" + std::to_string(10 + w) + "," +
              std::to_string(20 + i) + ")";
          Response r = server->Call(
              Request{Request::Kind::kUpdate, tokens, 0, nullptr});
          if (r.status != StatusCode::kOk || r.epoch < 1) bad.fetch_add(1);
        }
      });
    }
    for (int r = 0; r < readers; ++r) {
      clients.emplace_back([&] {
        int64_t last_epoch = -1;
        for (int i = 0; i < 16; ++i) {
          Request request{i % 2 == 0 ? Request::Kind::kSnapshotQuery
                                     : Request::Kind::kQuery,
                          i % 2 == 0 ? "" : "t", 0, nullptr};
          Response response = server->Call(request);
          if (response.status != StatusCode::kOk) bad.fetch_add(1);
          if (response.epoch < last_epoch) bad.fetch_add(1);
          last_epoch = response.epoch;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    server->Stop();

    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(server->epoch(), static_cast<int64_t>(writers) * 8);

    // Byte-identity vs the sequential replay of the commit log.
    Response final_snapshot = server->ServeQuery(
        Request{Request::Kind::kSnapshotQuery, "", 0, nullptr});
    ASSERT_EQ(final_snapshot.status, StatusCode::kOk);
    EXPECT_EQ(final_snapshot.body, ReplayAll("e1(0, 1). e1(1, 2).", log));

    // Quiescent reclamation: one live snapshot, no pins, balanced
    // counters.
    const SnapshotRegistry& registry = server->snapshots();
    EXPECT_EQ(registry.pinned(), 0);
    EXPECT_EQ(registry.live(), 1);
    const SnapshotRegistry::Counters c = registry.counters();
    EXPECT_EQ(c.pins, c.unpins);
    EXPECT_EQ(c.reclaimed, c.retired);
    EXPECT_EQ(c.retired, c.published - 1);
  }
};

TEST_F(ServerThreadedTest, MixedLoadOneReaderThread) {
  RunMixedLoad(/*writers=*/2, /*readers=*/1);
}

TEST_F(ServerThreadedTest, MixedLoadTwoReaderThreads) {
  RunMixedLoad(/*writers=*/2, /*readers=*/2);
}

TEST_F(ServerThreadedTest, MixedLoadEightReaderThreads) {
  RunMixedLoad(/*writers=*/3, /*readers=*/8);
}

// A read Call is served on the thread that makes it: its server.query
// span nests inside the caller's own span, on the caller's trace thread.
TEST_F(ServerThreadedTest, ReadIsServedOnTheCallingThread) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  server->Start();
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable();
  std::thread client([&server] {
    OBS_SPAN("test.client");
    EXPECT_EQ(server->Call(Request{Request::Kind::kQuery, "t", 0, nullptr})
                  .status,
              StatusCode::kOk);
  });
  client.join();
  tracer.Disable();
  server->Stop();

  const obs::TraceEvent* caller = nullptr;
  const obs::TraceEvent* query = nullptr;
  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "test.client") caller = &e;
    if (std::string(e.name) == "server.query") query = &e;
  }
  ASSERT_NE(caller, nullptr);
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(query->tid, caller->tid);
  EXPECT_EQ(query->depth, 1u);
}

// Stop lets the writer apply every batch queued before it, so every
// accepted update settles.
TEST_F(ServerThreadedTest, StopDrainsQueuedUpdates) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  constexpr int kBatches = 5;
  for (int i = 1; i <= kBatches; ++i) {
    ASSERT_TRUE(server
                    ->SubmitUpdate("+e1(" + std::to_string(i) + "," +
                                   std::to_string(i + 1) + ")")
                    .ok());
  }
  server->Start();
  server->Stop();
  EXPECT_EQ(server->pending_updates(), 0);
  EXPECT_EQ(server->epoch(), kBatches);
}

// A commit wakes only the session it concerns. The first writer takes the
// writer role, and its commit stalls in the publish hook until five more
// writers wait; the role then passes down the queue, handed to each of
// them in turn, so each is woken exactly once. Waking every waiter on
// each commit costs up to N(N+1)/2 wakes.
TEST_F(ServerThreadedTest, EachCommitWakesOnlyItsOwnWriter) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Get();
  metrics.Reset();
  metrics.SetEnabled(true);
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  constexpr int kWaiters = 5;
  std::atomic<bool> holding{false};
  server->set_on_publish([&](const CommitRecord& commit, const Snapshot&) {
    if (commit.epoch != 1) return;
    holding = true;
    // A Call counts its wait under the lock it waits with, so once all
    // five are counted, each is blocked on its ticket.
    while (metrics.Value("server.update_waits") < kWaiters) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  server->Start();
  std::atomic<int> bad{0};
  auto write = [&](int w) {
    const std::string tokens = "+e1(" + std::to_string(w + 1) + "," +
                               std::to_string(w + 2) + ")";
    const Response r =
        server->Call(Request{Request::Kind::kUpdate, tokens, 0, nullptr});
    if (r.status != StatusCode::kOk) bad.fetch_add(1);
  };
  std::vector<std::thread> writers;
  writers.emplace_back(write, 0);
  while (!holding) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int w = 1; w <= kWaiters; ++w) writers.emplace_back(write, w);
  for (std::thread& t : writers) t.join();
  server->Stop();
  metrics.SetEnabled(false);

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(server->epoch(), kWaiters + 1);
  EXPECT_EQ(metrics.Value("server.update_waits"), kWaiters);
  EXPECT_EQ(metrics.Value("server.update_wakes"), kWaiters);
}

// One session's updates each find the writer role free: its thread
// applies every batch itself and never blocks.
TEST_F(ServerThreadedTest, ALoneWriterNeverWaits) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Get();
  metrics.Reset();
  metrics.SetEnabled(true);
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  server->Start();
  for (int i = 1; i <= 100; ++i) {
    const Response r = server->Call(Request{
        Request::Kind::kUpdate, i % 2 == 1 ? "+e1(7,8)" : "-e1(7,8)", 0,
        nullptr});
    EXPECT_EQ(r.status, StatusCode::kOk);
    EXPECT_EQ(r.epoch, i);
  }
  server->Stop();
  metrics.SetEnabled(false);
  EXPECT_EQ(metrics.Value("server.update_waits"), 0);
  EXPECT_EQ(metrics.Value("server.update_wakes"), 0);
}

// An update Call is applied on the thread that makes it: its
// server.apply_batch span nests inside the caller's own span, on the
// caller's trace thread.
TEST_F(ServerThreadedTest, CommitIsAppliedOnTheCallingThread) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  server->Start();
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable();
  std::thread client([&server] {
    OBS_SPAN("test.client");
    const Response r =
        server->Call(Request{Request::Kind::kUpdate, "+e1(1,2)", 0, nullptr});
    EXPECT_EQ(r.status, StatusCode::kOk);
    EXPECT_EQ(r.epoch, 1);
  });
  client.join();
  tracer.Disable();
  server->Stop();

  const obs::TraceEvent* caller = nullptr;
  const obs::TraceEvent* apply = nullptr;
  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "test.client") caller = &e;
    if (std::string(e.name) == "server.apply_batch") apply = &e;
  }
  ASSERT_NE(caller, nullptr);
  ASSERT_NE(apply, nullptr);
  EXPECT_EQ(apply->tid, caller->tid);
  EXPECT_EQ(apply->depth, 1u);
}

// Every queued batch belongs to an update Call blocked on it, so the op
// queue never holds more batches than there are concurrent update
// callers. Eight writers commit 50 batches each; every epoch is
// acknowledged exactly once, and the final bytes are the replay of the
// publish hook's log.
TEST_F(ServerThreadedTest, QueueDepthIsBoundedByTheUpdateCallers) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  constexpr int kWriters = 8;
  constexpr int kCommits = 50;
  std::vector<CommitRecord> log;
  int64_t max_pending = 0;
  Server* raw = server.get();
  // The hook runs one commit at a time, so it needs no lock of its own.
  server->set_on_publish([&, raw](const CommitRecord& commit,
                                  const Snapshot&) {
    log.push_back(commit);
    max_pending = std::max(max_pending, raw->pending_updates());
  });
  server->Start();
  std::vector<std::vector<int64_t>> acked(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::string edge =
          "e1(" + std::to_string(10 + w) + "," + std::to_string(30 + w) + ")";
      for (int i = 0; i < kCommits; ++i) {
        const Response r = server->Call(Request{
            Request::Kind::kUpdate, (i % 2 == 0 ? "+" : "-") + edge, 0,
            nullptr});
        acked[w].push_back(r.status == StatusCode::kOk ? r.epoch : -1);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  server->Stop();

  std::vector<int64_t> epochs;
  for (const std::vector<int64_t>& a : acked) {
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    epochs.insert(epochs.end(), a.begin(), a.end());
  }
  std::sort(epochs.begin(), epochs.end());
  std::vector<int64_t> expected(kWriters * kCommits);
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<int64_t>(i) + 1;
  }
  EXPECT_EQ(epochs, expected);
  EXPECT_LE(max_pending, kWriters);
  ASSERT_EQ(log.size(), expected.size());
  const Response final_snapshot = server->ServeQuery(
      Request{Request::Kind::kSnapshotQuery, "", 0, nullptr});
  ASSERT_EQ(final_snapshot.status, StatusCode::kOk);
  EXPECT_EQ(final_snapshot.body, ReplayAll("e1(0, 1).", log));
}

TEST_F(ServerThreadedTest, StartStopIsIdempotentAndRestartable) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  server->Start();
  server->Start();
  EXPECT_EQ(server->Call(Request{Request::Kind::kPing, "", 0, nullptr})
                .status,
            StatusCode::kOk);
  server->Stop();
  server->Stop();
  server->Start();
  Response r = server->Call(
      Request{Request::Kind::kUpdate, "+e1(1,2)", 0, nullptr});
  EXPECT_EQ(r.status, StatusCode::kOk);
  EXPECT_EQ(r.epoch, 1);
  server->Stop();
}

TEST_F(ServerThreadedTest, CallAfterStopIsRefusedNotHung) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  server->Start();
  server->Stop();
  EXPECT_EQ(server->Call(Request{Request::Kind::kPing, "", 0, nullptr})
                .status,
            StatusCode::kCancelled);
  EXPECT_EQ(server
                ->Call(Request{Request::Kind::kUpdate, "+e1(1,2)", 0,
                               nullptr})
                .status,
            StatusCode::kCancelled);
}

TEST_F(ServerThreadedTest, DeadlineStormLeavesNoPinnedSnapshots) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  server->Start();

  CancelToken cancel;
  cancel.Cancel();
  std::vector<std::thread> clients;
  std::atomic<int> refused{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 16; ++i) {
        // Alternate pre-cancelled and already-expired requests.
        Request request{Request::Kind::kSnapshotQuery, "",
                        i % 2 == 0 ? int64_t{-1} : int64_t{0},
                        i % 2 == 0 ? nullptr : &cancel};
        Response response = server->Call(request);
        if (response.status == StatusCode::kCancelled ||
            response.status == StatusCode::kBudgetExhausted) {
          refused.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server->Stop();

  EXPECT_EQ(refused.load(), 64);
  EXPECT_EQ(server->snapshots().pinned(), 0);
  EXPECT_EQ(server->snapshots().counters().pins,
            server->snapshots().counters().unpins);
}

// -- Wire serving over channels -----------------------------------------

TEST_F(ServerThreadedTest, ServesFramesOverAnInProcessChannel) {
  auto server = MustCreate(kTcProgram, "e1(0, 1). e1(1, 2).");
  server->Start();

  auto [client_end, server_end] = InProcessChannelPair();
  std::thread pump([&server, channel = server_end.get()] {
    server->Serve(channel);
  });

  auto call = [&](const Request& request) {
    Response response;
    EXPECT_TRUE(WriteFrame(client_end.get(), EncodeRequest(request)));
    std::string payload;
    EXPECT_TRUE(ReadFrame(client_end.get(), &payload));
    EXPECT_TRUE(DecodeResponse(payload, &response));
    return response;
  };

  Response ping = call(Request{Request::Kind::kPing, "", 0, nullptr});
  EXPECT_EQ(ping.status, StatusCode::kOk);
  EXPECT_EQ(ping.epoch, 0);

  Response update = call(
      Request{Request::Kind::kUpdate, "+e1(2,3)", 0, nullptr});
  EXPECT_EQ(update.status, StatusCode::kOk);
  EXPECT_EQ(update.epoch, 1);

  Response query = call(Request{Request::Kind::kQuery, "t", 0, nullptr});
  EXPECT_EQ(query.status, StatusCode::kOk);
  EXPECT_EQ(query.epoch, 1);
  EXPECT_FALSE(query.body.empty());

  // kClose ends the pump cleanly; no response crosses the wire.
  EXPECT_TRUE(WriteFrame(client_end.get(),
                         EncodeRequest(Request{Request::Kind::kClose, "", 0,
                                               nullptr})));
  pump.join();
  server->Stop();
}

// Serve answers each request with one channel write: the response head
// and its body leave together.
TEST_F(ServerThreadedTest, ServeWritesEachResponseInOneWrite) {
  auto server = MustCreate(kTcProgram, "e1(0, 1). e1(1, 2).");
  server->Start();
  CountingChannel requests;
  for (const Request& request :
       {Request{Request::Kind::kPing, "", 0, nullptr},
        Request{Request::Kind::kUpdate, "+e1(2,3)", 0, nullptr},
        Request{Request::Kind::kQuery, "t", 0, nullptr}}) {
    ASSERT_TRUE(WriteFrame(&requests, EncodeRequest(request)));
  }
  CountingChannel channel;
  channel.input = requests.written;
  server->Serve(&channel);
  server->Stop();

  EXPECT_EQ(channel.writes, 3);
  const std::vector<std::string> frames = SplitFrames(channel.written);
  ASSERT_EQ(frames.size(), 3u);
  Response response;
  ASSERT_TRUE(DecodeResponse(frames[1], &response));
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.epoch, 1);
  ASSERT_TRUE(DecodeResponse(frames[2], &response));
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.epoch, 1);
  EXPECT_EQ(response.body,
            server->ServeQuery(Request{Request::Kind::kQuery, "t", 0, nullptr})
                .body);
}

TEST_F(ServerThreadedTest, TruncatedRequestFrameGetsParseErrorThenClose) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  server->Start();

  auto [client_end, server_end] = InProcessChannelPair();
  std::thread pump([&server, channel = server_end.get()] {
    server->Serve(channel);
  });

  // A well-framed but truncated payload: the frame arrives intact, the
  // request inside it is cut short.
  std::string payload = EncodeRequest(
      Request{Request::Kind::kQuery, "e1", 0, nullptr});
  payload.pop_back();
  ASSERT_TRUE(WriteFrame(client_end.get(), payload));

  std::string back;
  ASSERT_TRUE(ReadFrame(client_end.get(), &back));
  Response response;
  ASSERT_TRUE(DecodeResponse(back, &response));
  EXPECT_EQ(response.status, StatusCode::kParseError);

  // The pump closes the connection after answering: EOF, not a hang.
  EXPECT_FALSE(ReadFrame(client_end.get(), &back));
  pump.join();
  server->Stop();

  EXPECT_EQ(server->snapshots().pinned(), 0);
  EXPECT_EQ(server->snapshots().counters().pins,
            server->snapshots().counters().unpins);
}

TEST_F(ServerThreadedTest, UnknownRequestKindGetsParseErrorThenClose) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  server->Start();

  auto [client_end, server_end] = InProcessChannelPair();
  std::thread pump([&server, channel = server_end.get()] {
    server->Serve(channel);
  });

  // A pinned read first, so the pin counters are live before the
  // malformed frame arrives.
  const std::string good = EncodeRequest(
      Request{Request::Kind::kSnapshotQuery, "", 0, nullptr});
  ASSERT_TRUE(WriteFrame(client_end.get(), good));
  std::string back;
  ASSERT_TRUE(ReadFrame(client_end.get(), &back));
  Response response;
  ASSERT_TRUE(DecodeResponse(back, &response));
  EXPECT_EQ(response.status, StatusCode::kOk);

  // Structurally valid encoding with an out-of-range kind byte.
  std::string payload = EncodeRequest(Request{Request::Kind::kPing, "", 0,
                                              nullptr});
  payload[0] = '\x09';
  ASSERT_TRUE(WriteFrame(client_end.get(), payload));
  ASSERT_TRUE(ReadFrame(client_end.get(), &back));
  ASSERT_TRUE(DecodeResponse(back, &response));
  EXPECT_EQ(response.status, StatusCode::kParseError);

  EXPECT_FALSE(ReadFrame(client_end.get(), &back));
  pump.join();
  server->Stop();

  EXPECT_EQ(server->snapshots().pinned(), 0);
  EXPECT_EQ(server->snapshots().counters().pins,
            server->snapshots().counters().unpins);
}

TEST_F(ServerThreadedTest, OverCapFrameLengthClosesWithoutAResponse) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  server->Start();

  auto [client_end, server_end] = InProcessChannelPair();
  std::thread pump([&server, channel = server_end.get()] {
    server->Serve(channel);
  });

  // A length header past kMaxFrameBytes (256 MiB): the server refuses to
  // allocate and drops the connection before reading a payload.
  const uint32_t huge = kMaxFrameBytes + 1;
  char header[4];
  header[0] = static_cast<char>(huge & 0xff);
  header[1] = static_cast<char>((huge >> 8) & 0xff);
  header[2] = static_cast<char>((huge >> 16) & 0xff);
  header[3] = static_cast<char>((huge >> 24) & 0xff);
  const std::string_view bytes[] = {std::string_view(header, 4)};
  ASSERT_TRUE(client_end->Write(bytes));

  // No error frame comes back — just EOF once the pump closes its end.
  std::string back;
  EXPECT_FALSE(ReadFrame(client_end.get(), &back));
  pump.join();
  server->Stop();

  EXPECT_EQ(server->snapshots().pinned(), 0);
  EXPECT_EQ(server->snapshots().counters().pins,
            server->snapshots().counters().unpins);
}

/// Hostile wire bytes (docs/server.md): one seeded stream of valid
/// request frames with 1-4 mutations — a flipped, inserted or deleted
/// byte, a truncation, or a rewritten length prefix or deadline field.
std::string MutatedRequestStream(Rng* rng) {
  CountingChannel frames;
  std::vector<size_t> starts;
  const int count = 2 + rng->UniformInt(5);
  for (int f = 0; f < count; ++f) {
    Request request;
    switch (rng->UniformInt(5)) {
      case 0:
        request.kind = Request::Kind::kPing;
        break;
      case 1:
        request.kind = Request::Kind::kQuery;
        request.text = "t";
        break;
      case 2:
        request.kind = Request::Kind::kSnapshotQuery;
        break;
      case 3:
        request.kind = Request::Kind::kUpdate;
        request.text = std::string(rng->Chance(0.6) ? "+" : "-") + "e1(" +
                       std::to_string(rng->UniformInt(8)) + "," +
                       std::to_string(rng->UniformInt(8)) + ")";
        break;
      default:
        request.kind = Request::Kind::kQuery;
        request.text = "nosuch";
        break;
    }
    if (rng->Chance(0.3)) request.deadline_ms = 1 + rng->UniformInt(1000);
    starts.push_back(frames.written.size());
    EXPECT_TRUE(WriteFrame(&frames, EncodeRequest(request)));
  }
  std::string stream = std::move(frames.written);

  enum Mutation { kLength, kDeadline, kFlip, kInsert, kDelete, kTruncate };
  std::vector<int> mutations(static_cast<size_t>(1 + rng->UniformInt(4)));
  for (int& m : mutations) m = rng->UniformInt(6);
  // The rewrites keep every frame where `starts` says it is, so they go
  // first.
  std::sort(mutations.begin(), mutations.end());
  auto put = [&](size_t at, uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      stream[at + static_cast<size_t>(i)] =
          static_cast<char>((v >> (8 * i)) & 0xff);
    }
  };
  for (int m : mutations) {
    const size_t frame = starts[rng->Uniform(starts.size())];
    switch (m) {
      case kLength: {
        const uint64_t lengths[] = {0,
                                    1,
                                    12,
                                    uint64_t{64} << 20,
                                    kMaxFrameBytes,
                                    uint64_t{kMaxFrameBytes} + 1,
                                    0xffffffff,
                                    rng->Next() & 0xffffffff};
        put(frame, lengths[rng->Uniform(std::size(lengths))], 4);
        break;
      }
      case kDeadline: {
        const int64_t deadlines[] = {std::numeric_limits<int64_t>::min(),
                                     std::numeric_limits<int64_t>::max(),
                                     -1,
                                     0,
                                     int64_t{1} << 50,
                                     -(int64_t{1} << 50),
                                     static_cast<int64_t>(rng->Next())};
        put(frame + 5,
            static_cast<uint64_t>(deadlines[rng->Uniform(std::size(deadlines))]),
            8);
        break;
      }
      case kFlip:
        if (!stream.empty()) {
          stream[rng->Uniform(stream.size())] ^=
              static_cast<char>(1 + rng->UniformInt(255));
        }
        break;
      case kInsert:
        stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(
                                           rng->Uniform(stream.size() + 1)),
                      static_cast<char>(rng->UniformInt(256)));
        break;
      case kDelete:
        if (!stream.empty()) {
          stream.erase(rng->Uniform(stream.size()), 1);
        }
        break;
      default:
        if (!stream.empty()) stream.resize(rng->Uniform(stream.size()));
        break;
    }
  }
  return stream;
}

// Serve gets each mutated stream on this thread, then EOF. It must
// return, and every frame it wrote must decode: one response per request
// it read, a parse error for the frame it could not decode. At the end no
// snapshot is pinned, and each answered update, no more, made an epoch.
TEST(ServerWireTest, MutatedRequestStreamsLeaveNoPins) {
  Engine engine;
  Result<Program> program = engine.Parse(kTcProgram);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Instance base(&engine.catalog());
  ASSERT_TRUE(engine.AddFacts("e1(0, 1). e1(1, 2). e1(2, 3).", &base).ok());
  auto server = Server::Create(*program, &engine.catalog(), &engine.symbols(),
                               base, ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  (*server)->Start();

  Rng rng(20261020);
  int64_t ok_updates = 0;
  for (int n = 0; n < 2000; ++n) {
    CountingChannel channel;
    channel.input = MutatedRequestStream(&rng);

    // What Serve reads: the decodable requests up to the first frame it
    // cannot read or decode, or a kClose. -1 stands for the undecodable
    // frame Serve answers before it stops.
    std::vector<int> answered;
    CountingChannel replay;
    replay.input = channel.input;
    std::string payload;
    while (ReadFrame(&replay, &payload)) {
      Request request;
      if (!DecodeRequest(payload, &request)) {
        answered.push_back(-1);
        break;
      }
      if (request.kind == Request::Kind::kClose) break;
      answered.push_back(static_cast<int>(request.kind));
    }

    (*server)->Serve(&channel);

    SCOPED_TRACE("stream " + std::to_string(n));
    CountingChannel written;
    written.input = channel.written;
    size_t responses = 0;
    while (ReadFrame(&written, &payload)) {
      Response response;
      ASSERT_TRUE(DecodeResponse(payload, &response));
      ASSERT_LT(responses, answered.size());
      const int kind = answered[responses++];
      if (kind == -1) {
        EXPECT_EQ(response.status, StatusCode::kParseError);
      } else if (kind == static_cast<int>(Request::Kind::kUpdate) &&
                 response.status == StatusCode::kOk) {
        ++ok_updates;
      }
    }
    EXPECT_EQ(responses, answered.size());
    EXPECT_EQ(channel.writes, static_cast<int>(answered.size()));
  }
  (*server)->Stop();

  const SnapshotRegistry& registry = (*server)->snapshots();
  EXPECT_EQ(registry.pinned(), 0);
  EXPECT_EQ(registry.counters().pins, registry.counters().unpins);
  EXPECT_EQ((*server)->epoch(), ok_updates);
  EXPECT_GT(ok_updates, 0);
}

TEST_F(ServerThreadedTest, ServesOverLocalhostSockets) {
  auto server = MustCreate(kTcProgram, "e1(0, 1).");
  std::vector<CommitRecord> log;
  LogCommits(server.get(), &log);
  server->Start();

  Result<std::unique_ptr<SocketListener>> listener = SocketListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const int port = (*listener)->port();
  std::thread accept_loop([&server, l = listener->get()] {
    server->ServeListener(l);
  });

  Result<std::unique_ptr<ByteChannel>> connected = SocketConnect(port);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<ByteChannel> client = std::move(*connected);

  ASSERT_TRUE(WriteFrame(
      client.get(),
      EncodeRequest(Request{Request::Kind::kUpdate, "+e1(1,2)", 0,
                            nullptr})));
  std::string payload;
  ASSERT_TRUE(ReadFrame(client.get(), &payload));
  Response response;
  ASSERT_TRUE(DecodeResponse(payload, &response));
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.epoch, 1);

  ASSERT_TRUE(WriteFrame(
      client.get(),
      EncodeRequest(Request{Request::Kind::kSnapshotQuery, "", 0,
                            nullptr})));
  ASSERT_TRUE(ReadFrame(client.get(), &payload));
  ASSERT_TRUE(DecodeResponse(payload, &response));
  EXPECT_EQ(response.status, StatusCode::kOk);

  client->Close();
  (*listener)->Close();
  accept_loop.join();
  server->Stop();
  EXPECT_EQ(response.body, ReplayAll("e1(0, 1).", log));
}

}  // namespace
}  // namespace server
}  // namespace datalog
