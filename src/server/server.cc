#include "server/server.h"

#include <chrono>
#include <utility>

#include "dist/transport.h"
#include "eval/test_hooks.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/session.h"
#include "store/recover.h"
#include "store/wal.h"

namespace datalog {

namespace internal {
bool g_server_publish_stale = false;
}  // namespace internal

namespace server {

namespace {

using Clock = std::chrono::steady_clock;

struct ServerMetrics {
  obs::CounterHandle requests{"server.requests"};
  obs::CounterHandle queries{"server.queries"};
  obs::CounterHandle updates{"server.updates"};
  obs::CounterHandle batches_applied{"server.batches_applied"};
  obs::CounterHandle cancelled{"server.cancelled"};
  obs::CounterHandle deadline_exhausted{"server.deadline_exhausted"};
  obs::GaugeHandle epoch{"server.epoch"};
  obs::HistogramHandle request_us{"server.request_us"};
  obs::HistogramHandle apply_us{"server.apply_us"};
  obs::CounterHandle wal_appends{"server.wal_appends"};
  obs::CounterHandle wal_syncs{"server.wal_syncs"};
  obs::CounterHandle wal_refused{"server.wal_refused"};
  obs::CounterHandle wal_snapshots{"server.wal_snapshots"};
  obs::GaugeHandle wal_bytes{"server.wal_bytes"};
  obs::CounterHandle publish_chunks_encoded{"server.publish_chunks_encoded"};
  obs::CounterHandle update_waits{"server.update_waits"};
  obs::CounterHandle update_wakes{"server.update_wakes"};
};

ServerMetrics& Metrics() {
  static ServerMetrics metrics;
  return metrics;
}

Response Refuse(StatusCode code, std::string error) {
  Response r;
  r.status = code;
  r.error = std::move(error);
  return r;
}

}  // namespace

Result<std::unique_ptr<Server>> Server::Create(const Program& program,
                                               const Catalog* catalog,
                                               SymbolTable* symbols,
                                               const Instance& base,
                                               const ServerOptions& options) {
  if (options.durability.dir.empty()) {
    Result<std::unique_ptr<IncrementalView>> view =
        IncrementalView::Create(program, *catalog, base, options.eval);
    if (!view.ok()) return view.status();
    std::unique_ptr<Server> server(
        new Server(std::move(view).value(), catalog, symbols));
    server->chunks_ = server->view_->model().EncodeSnapshotChunks();
    server->Publish(0, server->chunks_);
    return server;
  }

  // Durable mode: rebuild the view from the store directory (snapshot +
  // WAL tail), then open the store for appending — in this order, so a
  // torn WAL tail is repaired before the new writer appends after it.
  OBS_SPAN("server.recover", {});
  Result<store::Recovered> recovered = store::Recover(
      options.durability.dir, program, *catalog, symbols, base, options.eval);
  if (!recovered.ok()) return recovered.status();
  Result<std::unique_ptr<store::DurableStore>> store =
      store::DurableStore::Open(options.durability);
  if (!store.ok()) return store.status();
  std::unique_ptr<Server> server(
      new Server(std::move(recovered->view), catalog, symbols));
  server->store_ = std::move(*store);
  server->recovery_.ran = true;
  server->recovery_.epoch = recovered->epoch;
  server->recovery_.replayed = recovered->replayed;
  server->recovery_.from_snapshot = recovered->from_snapshot;
  server->recovery_.truncated_tail = recovered->truncated_tail;
  Metrics().wal_bytes.Set(server->store_->wal().size());
  // The first publish carries the recovered epoch: clients resume at the
  // exact version the directory proves durable.
  server->chunks_ = server->view_->model().EncodeSnapshotChunks();
  server->Publish(recovered->epoch, server->chunks_);
  return server;
}

Server::Server(std::unique_ptr<IncrementalView> view, const Catalog* catalog,
               SymbolTable* symbols)
    : catalog_(catalog), symbols_(symbols), view_(std::move(view)) {}

Status Server::FlushStore() {
  if (store_ == nullptr || store_->crashed()) return Status::OK();
  return store_->Flush();
}

Server::~Server() {
  Stop();
  // Clean shutdown closes the group-commit window, so only a real (or
  // scheduled) crash can lose the unsynced tail. A crashed store refuses
  // the flush; ignore it — the directory is already in its final state.
  if (store_ != nullptr && !store_->crashed()) {
    (void)store_->Flush();
  }
}

const Snapshot& Server::Publish(int64_t epoch, SnapshotChunks chunks) {
  auto snapshot = std::make_unique<Snapshot>(epoch, std::move(chunks));
  const Snapshot& published = *snapshot;
  registry_.Publish(std::move(snapshot));
  Metrics().epoch.Set(epoch);
  return published;
}

Result<int64_t> Server::SubmitUpdate(const std::string& tokens) {
  Metrics().requests.Add(1);
  Metrics().updates.Add(1);
  // The whole submission — including the parse — runs under mu_:
  // ParseUpdateTokens interns values into the shared SymbolTable, which
  // is not thread-safe, and concurrent clients reach here from their own
  // threads. Every server-side use of the table holds mu_: this parse,
  // the WAL record formatted below, and the compaction's spelling copy
  // (readers serve frozen chunks; ApplyBatch consumes already-interned
  // values).
  std::lock_guard<std::mutex> lock(mu_);
  PendingUpdate pending;
  if (!ParseUpdateTokens(tokens, *catalog_, symbols_, &pending.batch) ||
      pending.batch.empty()) {
    return Status(StatusCode::kSchemaError,
                  "malformed update batch: " + tokens);
  }
  if (store_ != nullptr) {
    pending.wal_tokens =
        FormatUpdateTokens(pending.batch, *catalog_, *symbols_);
  }
  // Enqueue-or-refuse under the lock Stop sets `stopping_` under: a
  // batch queued here is drained before Stop returns — by its own Call
  // or by Stop — so every accepted ticket settles.
  if (stopping_) {
    return Status(StatusCode::kCancelled, "server stopping");
  }
  const int64_t ticket = next_ticket_++;
  pending.ticket = ticket;
  queue_.push_back(std::move(pending));
  tickets_.try_emplace(ticket);
  return ticket;
}

bool Server::ApplyOneQueued() {
  std::unique_lock<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  ApplyFront(lock);
  return true;
}

void Server::ApplyFront(std::unique_lock<std::mutex>& lock) {
  PendingUpdate pending = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  Response response;
  {
    OBS_SPAN("server.apply_batch",
             {{"updates", static_cast<int>(pending.batch.size())}});
    obs::ScopedLatency latency(&Metrics().apply_us);
    response = Commit(std::move(pending.batch), pending.wal_tokens);
  }
  lock.lock();
  TicketState& ticket = tickets_[pending.ticket];
  ticket.done = true;
  ticket.response = std::move(response);
  // Under mu_: the ticket's Call erases it as soon as it sees `done`, so
  // a notify after unlocking could touch a destroyed variable.
  ticket.settled.notify_one();
}

Response Server::Commit(std::vector<FactUpdate> batch,
                        const std::string& wal_tokens) {
  // A crashed store refuses all further writes without touching the
  // view: the view may already hold a batch whose WAL append failed, and
  // that dirty state must never be published or extended.
  if (store_ != nullptr && store_->crashed()) {
    Metrics().wal_refused.Add(1);
    return Refuse(StatusCode::kInternal, "store crashed (commit refused)");
  }
  // The WAL record was formatted at submission, so a batch too big to
  // log is refused here with the view untouched.
  if (store_ != nullptr && !store::WalRecordFits(wal_tokens)) {
    Metrics().wal_refused.Add(1);
    return Refuse(StatusCode::kBudgetExhausted,
                  "update batch over the wal record size cap");
  }

  const int64_t syncs_before =
      store_ != nullptr ? store_->wal().syncs() : 0;
  const Status st = view_->ApplyBatch(batch);
  if (!st.ok()) return Refuse(st.code(), st.message());
  const int64_t epoch = registry_.current_epoch() + 1;
  // chunks_ is merged before the WAL append can fail, so it never lags
  // the view. The planted torn-read bug (test_hooks.h) keeps the
  // pre-batch manifest to publish under the new epoch.
  SnapshotChunks pre_batch =
      internal::g_server_publish_stale ? chunks_ : SnapshotChunks();
  {
    OBS_SPAN("server.publish", {{"epoch", static_cast<int>(epoch)}});
    Metrics().publish_chunks_encoded.Add(MergeSnapshotDelta(
        view_->last_added(), view_->last_removed(), &chunks_));
  }

  // WAL append sits between apply and publish: an acknowledged commit
  // is always in the log (modulo the group-commit window), and a
  // rejected batch never is. On append failure the epoch is neither
  // published nor acked — the view is dirty now, but every append
  // failure (the crash schedule AND a real I/O error, e.g. ENOSPC)
  // latches the store's crashed flag, so the crashed() gate above keeps
  // the dirty state private forever.
  if (store_ != nullptr) {
    OBS_SPAN("server.wal_append", {{"epoch", static_cast<int>(epoch)}});
    const Status append = store_->AppendCommit(epoch, wal_tokens);
    if (!append.ok()) {
      Metrics().wal_refused.Add(1);
      return Refuse(append.code(), append.message());
    }
    Metrics().wal_appends.Add(1);
    Metrics().wal_bytes.Set(store_->wal().size());
  }
  Metrics().batches_applied.Add(1);
  const Snapshot& published =
      Publish(epoch, internal::g_server_publish_stale ? std::move(pre_batch)
                                                      : chunks_);
  if (on_publish_) {
    on_publish_(CommitRecord{epoch, std::move(batch)}, published);
  }
  // Compaction after publish: the ack does not wait on the snapshot
  // write, and a compaction crash cannot retract an acked commit — it
  // only kills the store for *future* writes.
  if (store_ != nullptr && store_->CompactionDue()) {
    OBS_SPAN("server.compact", {{"epoch", static_cast<int>(epoch)}});
    // The snapshot's raw value words are only decodable with this
    // writer's interning order, so the full spelling table rides along
    // (snapshotter.h). Copied under mu_: submissions intern into the
    // table concurrently.
    std::vector<std::string> spellings;
    {
      std::lock_guard<std::mutex> lock(mu_);
      spellings.reserve(static_cast<size_t>(symbols_->size()));
      for (int v = 0; v < symbols_->size(); ++v) {
        spellings.push_back(symbols_->NameOf(static_cast<Value>(v)));
      }
    }
    const int64_t before = store_->snapshots();
    (void)store_->MaybeCompact(epoch, view_->base().SerializeSnapshot(),
                               std::move(spellings));
    if (store_->snapshots() > before) Metrics().wal_snapshots.Add(1);
    Metrics().wal_bytes.Set(store_->wal().size());
  }
  if (store_ != nullptr) {
    Metrics().wal_syncs.Add(store_->wal().syncs() - syncs_before);
  }
  Response response;
  response.epoch = epoch;
  return response;
}

bool Server::UpdateOutcome(int64_t ticket, Response* response) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tickets_.find(ticket);
  if (it == tickets_.end() || !it->second.done) return false;
  *response = it->second.response;
  return true;
}

int64_t Server::pending_updates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

Response Server::ServeQuery(const Request& request) {
  const Clock::time_point admit = Clock::now();
  Metrics().requests.Add(1);
  Metrics().queries.Add(1);
  OBS_SPAN("server.query",
           {{"kind", static_cast<int>(request.kind)}});
  obs::ScopedLatency latency(&Metrics().request_us);

  // Compared in whole milliseconds: converting a wire deadline to the
  // clock's nanoseconds would overflow for |deadline_ms| beyond ~9.2e12.
  auto expired = [&] {
    return request.deadline_ms != 0 &&
           std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now() - admit)
                   .count() >= request.deadline_ms;
  };
  // Budget checks bracket the pin: a cancelled or deadline-exhausted
  // request must not pin a snapshot (checked before) nor hold its pin
  // through the payload serialization (checked after the pin; the RAII
  // pin releases on every return path, so refused requests leave the
  // reclamation counters balanced).
  if (request.cancel != nullptr && request.cancel->cancelled()) {
    Metrics().cancelled.Add(1);
    return Refuse(StatusCode::kCancelled, "cancelled before pin");
  }
  if (expired()) {
    Metrics().deadline_exhausted.Add(1);
    return Refuse(StatusCode::kBudgetExhausted, "deadline before pin");
  }

  SnapshotPin pin = registry_.Pin();
  if (!pin.valid()) {
    return Refuse(StatusCode::kInternal, "no snapshot published");
  }
  if (request.cancel != nullptr && request.cancel->cancelled()) {
    Metrics().cancelled.Add(1);
    return Refuse(StatusCode::kCancelled, "cancelled at pinned snapshot");
  }
  if (expired()) {
    Metrics().deadline_exhausted.Add(1);
    return Refuse(StatusCode::kBudgetExhausted,
                  "deadline at pinned snapshot");
  }

  Response response;
  response.epoch = pin->epoch();
  switch (request.kind) {
    case Request::Kind::kPing:
      break;
    case Request::Kind::kSnapshotQuery:
      response.body = pin->ModelBytes();
      break;
    case Request::Kind::kQuery: {
      const PredId pred = catalog_->Find(request.text);
      if (pred < 0) {
        return Refuse(StatusCode::kSchemaError,
                      "unknown predicate: " + request.text);
      }
      response.body = pin->PredBytes(pred);
      break;
    }
    case Request::Kind::kUpdate:
    case Request::Kind::kClose:
      return Refuse(StatusCode::kInvalidProgram,
                    "not a read request");
  }
  return response;
}

// -- Threaded mode ------------------------------------------------------

void Server::Start() {
  std::lock_guard<std::mutex> lock(threads_mu_);
  if (started_) return;
  started_ = true;
  std::lock_guard<std::mutex> l(mu_);
  stopping_ = false;
}

void Server::Stop() {
  std::lock_guard<std::mutex> lock(threads_mu_);
  if (!started_) return;
  {
    std::lock_guard<std::mutex> l(mu_);
    stopping_ = true;
  }
  // Unblock connection pumps stuck in ReadFrame, then join them, without
  // holding the writer role: a pump inside Call finishes its update (the
  // role passes from caller to caller), a read in flight finishes on its
  // pump, and post-stop Calls are refused.
  for (const std::unique_ptr<ByteChannel>& channel : conn_channels_) {
    channel->Close();
  }
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
  conn_threads_.clear();
  conn_channels_.clear();
  // Batches queued through SubmitUpdate have no Call to apply them. Take
  // the role once no caller holds it and drain the queue, so every
  // accepted ticket settles.
  std::unique_lock<std::mutex> l(mu_);
  role_free_.wait(l, [this] { return !committing_; });
  committing_ = true;
  while (!queue_.empty()) ApplyFront(l);
  committing_ = false;
  started_ = false;
}

Response Server::AwaitCommit(int64_t ticket) noexcept {
  std::unique_lock<std::mutex> lock(mu_);
  // The map's nodes stay put while other tickets come and go.
  TicketState& state = tickets_.at(ticket);
  if (committing_ && !state.done && !state.lead) {
    Metrics().update_waits.Add(1);
    do {
      state.settled.wait(lock);
      Metrics().update_wakes.Add(1);
    } while (!state.done && !state.lead);
  }
  if (!state.done) {
    // The writer role: free, or handed to this ticket. Every earlier
    // ticket is applied first, so commit order stays ticket order.
    committing_ = true;
    while (!state.done) ApplyFront(lock);
    if (queue_.empty()) {
      committing_ = false;
      role_free_.notify_all();
    } else {
      TicketState& next = tickets_.at(queue_.front().ticket);
      next.lead = true;
      next.settled.notify_one();
    }
  }
  Response response = std::move(state.response);
  tickets_.erase(ticket);  // settled tickets are single-reader
  return response;
}

Response Server::Call(const Request& request) {
  if (request.kind == Request::Kind::kUpdate) {
    Result<int64_t> ticket = SubmitUpdate(request.text);
    if (!ticket.ok()) {
      return Refuse(ticket.status().code(), ticket.status().message());
    }
    return AwaitCommit(*ticket);
  }
  if (request.kind == Request::Kind::kClose) {
    return Refuse(StatusCode::kInvalidProgram, "close is not callable");
  }
  if (stopping_) return Refuse(StatusCode::kCancelled, "server stopping");
  return ServeQuery(request);
}

void Server::Serve(ByteChannel* channel) {
  std::string payload;
  while (ReadFrame(channel, &payload)) {
    Request request;
    if (!DecodeRequest(payload, &request)) {
      WriteResponse(channel,
                    Refuse(StatusCode::kParseError, "malformed request"));
      break;
    }
    if (request.kind == Request::Kind::kClose) break;
    if (!WriteResponse(channel, Call(request))) break;
  }
  channel->Close();
}

void Server::ServeListener(SocketListener* listener) {
  for (;;) {
    std::unique_ptr<ByteChannel> channel = listener->Accept();
    if (channel == nullptr) return;
    std::lock_guard<std::mutex> lock(threads_mu_);
    // The server keeps ownership so Stop can Close (unblock) the pump;
    // the channel is freed with the containers at Stop.
    ByteChannel* raw = channel.get();
    conn_channels_.push_back(std::move(channel));
    conn_threads_.emplace_back([this, raw] { Serve(raw); });
  }
}

IncrementalView::Stats Server::view_stats() const {
  return view_->stats();
}

}  // namespace server
}  // namespace datalog
