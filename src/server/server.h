#ifndef UNCHAINED_SERVER_SERVER_H_
#define UNCHAINED_SERVER_SERVER_H_

// A long-lived concurrent Datalog service (docs/server.md): one writer
// drains a mutation op-queue through IncrementalView::ApplyBatch and
// publishes an immutable epoch-versioned snapshot after every batch,
// re-encoding only the relations the batch changed; N readers answer
// queries by pinning the current snapshot and serving its frozen chunks
// — MVCC snapshot reads with epoch-based reclamation (snapshot.h).
// Per-request budgets reuse EvalOptions::deadline_ms / CancelToken
// semantics; `server.*` metrics and spans plug into the observability
// layer (docs/observability.md).
//
// The class has two driving modes sharing one engine room:
//
//   * Scheduler-driven (single-threaded): SubmitUpdate / ApplyOneQueued /
//     ServeQuery expose each writer and reader step as an explicit call,
//     which is what the deterministic virtual-clock scheduler
//     (scheduler.h) and oracle pair #10 interleave and replay.
//   * Threaded: Start() spawns the writer thread and a reader pool;
//     Call() is the thread-safe blocking client surface, and
//     Serve/ServeListener pump wire frames (wire.h) from in-process or
//     socket channels (dist/transport.h) into Call.
//
// Consistency contract (what pair #10 checks): the bytes published for
// epoch e are byte-identical to a sequential IncrementalView replay of
// the first e committed batches; epochs observed by any one session are
// monotone; a reader pinned at epoch e sees the same bytes no matter how
// many batches commit meanwhile; and at quiescence no pins are held and
// every retired snapshot has been reclaimed.

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>
#include <condition_variable>

#include "ast/ast.h"
#include "base/result.h"
#include "eval/incremental.h"
#include "server/snapshot.h"
#include "server/wire.h"
#include "store/store.h"

namespace datalog {

class ByteChannel;
class SocketListener;

namespace server {

struct ServerOptions {
  /// Reader threads in threaded mode (>= 1). The scheduler-driven mode
  /// has no threads at all.
  int num_readers = 2;
  /// Evaluation options of the underlying IncrementalView (storage
  /// backend, thread pool for the initial evaluation, ...). The
  /// per-request deadline/cancel fields are ignored here — budgets ride
  /// the requests.
  EvalOptions eval;
  /// Durability (docs/durability.md). When `durability.dir` is non-empty
  /// Create recovers from that directory (snapshot + WAL replay) before
  /// publishing, and the writer logs every committed batch through a
  /// DurableStore — WAL append between apply and publish, so an acked
  /// commit is in the log, plus periodic snapshot compaction. An empty
  /// dir keeps the PR-9 in-memory behavior. The embedded fault schedule
  /// drives the crash fuzzing (store/fault.h).
  store::StoreOptions durability;
};

/// One applied mutation batch: `epoch` is the snapshot it produced.
/// Commit order is publication order; replaying the log against a fresh
/// IncrementalView reproduces every epoch's bytes.
struct CommitRecord {
  int64_t epoch = 0;
  std::vector<FactUpdate> batch;
};

class Server {
 public:
  /// Evaluates the initial model (epoch 0 is published before Create
  /// returns) and wires the writer machinery. `catalog` and `symbols`
  /// must outlive the server; `program` and `base` are copied as needed
  /// by the underlying view. Fails like IncrementalView::Create
  /// (kUnsupported / kNotStratifiable on out-of-fragment programs).
  static Result<std::unique_ptr<Server>> Create(const Program& program,
                                                const Catalog* catalog,
                                                SymbolTable* symbols,
                                                const Instance& base,
                                                const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // -- Scheduler-driven surface (no internal threads) -------------------

  /// Parses the signed update tokens and enqueues the batch; returns the
  /// ticket to poll with UpdateOutcome. kSchemaError on malformed tokens
  /// or unknown/wrong-arity predicates (nothing is enqueued).
  Result<int64_t> SubmitUpdate(const std::string& tokens);

  /// One writer step: applies the oldest queued batch through the view,
  /// publishes the next epoch, appends the commit record and settles the
  /// ticket. False if the queue was empty.
  bool ApplyOneQueued();

  /// True once `ticket`'s batch was applied (or rejected); fills the
  /// update's response (epoch created, or the rejection status).
  bool UpdateOutcome(int64_t ticket, Response* response) const;

  int64_t pending_updates() const;

  /// One reader step: serves a read request against the currently
  /// published snapshot. Budget/cancellation are checked before pinning
  /// and again between pin and payload serialization; a refused request
  /// holds no pin on return. `admit` is the budget's start point —
  /// threaded mode passes the moment the request entered the server.
  Response ServeQuery(const Request& request);
  Response ServeQuery(const Request& request,
                      std::chrono::steady_clock::time_point admit);

  // -- Threaded mode ----------------------------------------------------

  /// Spawns the writer thread and `num_readers` reader threads. Idempotent.
  void Start();
  /// Drains nothing: pending updates stay queued, in-flight Calls are
  /// completed, then threads exit. Idempotent; called by the destructor.
  void Stop();

  /// Thread-safe blocking request: updates wait for their commit (their
  /// response carries the created epoch), reads are dispatched to the
  /// reader pool. Requires Start().
  Response Call(const Request& request);

  /// Pumps frames from one connection until kClose, EOF, or a malformed
  /// frame. Requires Start(). Blocking — run on the connection's thread.
  void Serve(ByteChannel* channel);

  /// Accept loop: one connection-pump thread per accepted channel.
  /// Returns when the listener is closed; the pump threads are joined by
  /// Stop().
  void ServeListener(SocketListener* listener);

  // -- Introspection ----------------------------------------------------

  /// What recovery-on-start found (all defaults when the server runs
  /// without durability or from a fresh directory).
  struct RecoveryInfo {
    /// True when Create ran recovery (durability.dir was non-empty).
    bool ran = false;
    /// Epoch recovered to — the first publish and the base the commit
    /// log continues from. CommitLog() only holds post-recovery commits.
    int64_t epoch = 0;
    int64_t replayed = 0;
    bool from_snapshot = false;
    bool truncated_tail = false;
  };
  const RecoveryInfo& recovery() const { return recovery_; }
  /// The durable store, or null when running in-memory. The store is the
  /// writer's — readers may only touch the const counters at quiescence.
  const store::DurableStore* store() const { return store_.get(); }
  /// Closes the store's group-commit window now — the shutdown flush the
  /// destructor would otherwise issue. Lets a caller that needs the
  /// store's final state (oracle pair #11) settle it first: a scheduled
  /// crash pending on the fsync path fires here, not mid-destruction.
  /// OK when running in-memory or when the store already crashed.
  Status FlushStore();

  /// Epoch of the currently published snapshot (0 right after Create).
  int64_t epoch() const { return registry_.current_epoch(); }
  const SnapshotRegistry& snapshots() const { return registry_; }
  const Catalog& catalog() const { return *catalog_; }
  /// Copy of the commit log (publication order).
  std::vector<CommitRecord> CommitLog() const;
  /// The underlying view's deterministic maintenance counters. Only
  /// meaningful at quiescence (the writer thread mutates them).
  IncrementalView::Stats view_stats() const;

  /// Writer-side hook, invoked after each publish with the new epoch and
  /// its canonical model bytes — the virtual scheduler and tests capture
  /// the per-epoch byte stream here. The bytes are assembled for the
  /// hook, an O(model) copy per publish that runs only while one is set.
  /// Runs on the writer('s thread); must not call back into the server.
  /// Set before any writer step.
  using PublishHook =
      std::function<void(int64_t epoch, const std::string& bytes)>;
  void set_on_publish(PublishHook hook) { on_publish_ = std::move(hook); }

 private:
  struct PendingUpdate {
    int64_t ticket = 0;
    std::vector<FactUpdate> batch;
  };
  struct TicketState {
    bool done = false;
    Response response;
  };
  /// One read request waiting for (or on) a reader thread.
  struct QueryJob {
    Request request;
    std::chrono::steady_clock::time_point admit;
    Response response;
    bool done = false;
  };

  Server(std::unique_ptr<IncrementalView> view, const Catalog* catalog,
         SymbolTable* symbols, const ServerOptions& options);

  /// Publishes `chunks` as `epoch`. Writer only.
  void Publish(int64_t epoch, SnapshotChunks chunks);
  /// Applies, logs and publishes one batch; the response to settle its
  /// ticket with. Writer only.
  Response Commit(std::vector<FactUpdate> batch);

  void WriterLoop();
  void ReaderLoop();

  const Catalog* catalog_;
  SymbolTable* symbols_;
  ServerOptions options_;
  /// Mutated only by the writer (thread or ApplyOneQueued caller).
  std::unique_ptr<IncrementalView> view_;
  /// Durable commit path (null = in-memory). Writer-only, like view_;
  /// flushed (group-commit window closed) by the destructor on a clean
  /// shutdown.
  std::unique_ptr<store::DurableStore> store_;
  RecoveryInfo recovery_;
  /// The view's model as a chunk manifest, merged after every applied
  /// batch. Writer only; published snapshots share its chunks.
  SnapshotChunks chunks_;
  SnapshotRegistry registry_;
  PublishHook on_publish_;

  /// Guards the writer queue, tickets and commit log.
  mutable std::mutex mu_;
  std::condition_variable writer_cv_;   // queue non-empty or stopping
  std::condition_variable tickets_cv_;  // a ticket settled
  std::deque<PendingUpdate> queue_;
  std::unordered_map<int64_t, TicketState> tickets_;
  std::vector<CommitRecord> commit_log_;
  int64_t next_ticket_ = 1;

  /// Guards the reader job queue.
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;       // job available or stopping
  std::condition_variable jobs_done_cv_;  // a job finished
  std::deque<QueryJob*> jobs_;

  std::mutex threads_mu_;  // guards the thread containers + started_
  bool started_ = false;
  bool stopping_ = false;  // written under mu_ AND jobs_mu_ when set
  std::thread writer_thread_;
  std::vector<std::thread> reader_threads_;
  std::vector<std::thread> conn_threads_;
  /// Accepted connections, owned here so Stop can Close them to unblock
  /// their pump threads.
  std::vector<std::unique_ptr<ByteChannel>> conn_channels_;
};

}  // namespace server
}  // namespace datalog

#endif  // UNCHAINED_SERVER_SERVER_H_
