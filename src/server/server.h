#ifndef UNCHAINED_SERVER_SERVER_H_
#define UNCHAINED_SERVER_SERVER_H_

// A long-lived concurrent Datalog service (docs/server.md): one writer at
// a time drains a mutation op-queue through IncrementalView::ApplyBatch
// and publishes an immutable epoch-versioned snapshot after every batch,
// re-encoding only the relations the batch changed; every read is served
// on the thread that made it, by pinning the current snapshot and
// serving its frozen chunks — MVCC snapshot reads with epoch-based
// reclamation (snapshot.h). Per-request budgets reuse
// EvalOptions::deadline_ms / CancelToken semantics; `server.*` metrics
// and spans plug into the observability layer (docs/observability.md).
//
// The class has two driving modes sharing one engine room:
//
//   * Scheduler-driven (single-threaded): SubmitUpdate / ApplyOneQueued /
//     ServeQuery expose each writer and reader step as an explicit call,
//     which is what the deterministic virtual-clock scheduler
//     (scheduler.h) and oracle pair #10 interleave and replay.
//   * Threaded: Call() is the thread-safe blocking client surface, and
//     Serve/ServeListener pump wire frames (wire.h) from in-process or
//     socket channels (dist/transport.h) into Call. The server runs no
//     thread of its own: a read is served on the calling thread, and an
//     update is applied there too, by whichever caller holds the *writer
//     role* (Call), so a socket request never leaves its connection's
//     pump thread.
//
// Consistency contract (what pair #10 checks): the bytes published for
// epoch e are byte-identical to a sequential IncrementalView replay of
// the first e committed batches; epochs observed by any one session are
// monotone; a reader pinned at epoch e sees the same bytes no matter how
// many batches commit meanwhile; and at quiescence no pins are held and
// every retired snapshot has been reclaimed.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

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
  /// Options of the underlying IncrementalView's initial evaluation (its
  /// round and fact budgets). The view evaluates on one thread whatever
  /// `num_threads` says. Request budgets ride the requests.
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
/// Commit order is publication order; replaying the records in order
/// against a fresh IncrementalView reproduces every epoch's bytes.
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
  /// publishes the next epoch, runs the publish hook and settles the
  /// ticket. False if the queue was empty.
  bool ApplyOneQueued();

  /// True once `ticket`'s batch was applied (or rejected); fills the
  /// update's response (epoch created, or the rejection status).
  bool UpdateOutcome(int64_t ticket, Response* response) const;

  int64_t pending_updates() const;

  /// One reader step: serves a read request against the currently
  /// published snapshot, on the calling thread; the registry's pin
  /// bookkeeping is the only lock it takes. Budget/cancellation are
  /// checked before pinning and again between pin and payload
  /// serialization; the deadline runs from the call. A refused request
  /// holds no pin on return.
  Response ServeQuery(const Request& request);

  // -- Threaded mode ----------------------------------------------------

  /// Admits Call again after a Stop; spawns no thread. Idempotent.
  void Start();
  /// Refuses every later Call with kCancelled, closes and joins every
  /// connection pump (a pump inside Call finishes its request first), then
  /// takes the writer role once no caller holds it and applies what is
  /// still queued, so every accepted update settles and no socket request
  /// is in flight on return. A Call made directly by another thread
  /// finishes on that thread. Idempotent and restartable; called by the
  /// destructor.
  void Stop();

  /// Thread-safe blocking request, run on the calling thread. A read is
  /// served there (ServeQuery). An update is queued, and the caller takes
  /// the writer role if no commit is running: it applies the queue in
  /// ticket order, up to and including its own batch, then hands the role
  /// to the caller at the front of what is left. A caller that finds the
  /// role taken waits on its ticket and is woken once, by the commit that
  /// settles it or by that hand-off. The response carries the created
  /// epoch. Refused with kCancelled once Stop has begun. SubmitUpdate and
  /// ApplyOneQueued must not run concurrently with it.
  Response Call(const Request& request);

  /// Pumps frames from one connection until kClose, EOF, or a malformed
  /// frame, writing each response as one channel write. Blocking — run on
  /// the connection's thread.
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
    /// Epoch recovered to — the first publish. The publish hook sees
    /// only post-recovery commits, from epoch + 1 on.
    int64_t epoch = 0;
    int64_t replayed = 0;
    bool from_snapshot = false;
    bool truncated_tail = false;
  };
  const RecoveryInfo& recovery() const { return recovery_; }
  /// The durable store, or null when running in-memory. The store belongs
  /// to the writer role's holder — others may only touch the const
  /// counters at quiescence.
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
  /// The underlying view's deterministic maintenance counters. Only
  /// meaningful at quiescence (each commit mutates them on its caller's
  /// thread).
  IncrementalView::Stats view_stats() const;

  /// Writer-side hook, run after each commit's publish with the commit
  /// record and the snapshot that was published for it — the virtual
  /// scheduler, the tests and the tools keep their commit logs and
  /// per-epoch bytes here. A hook that needs bytes calls
  /// snapshot.ModelBytes(); the reference is valid only during the call.
  /// Runs on the committing thread — the Call holding the writer role,
  /// Stop's drain, or the ApplyOneQueued caller — with no server lock
  /// held, one commit at a time; it may read pending_updates() but must
  /// not submit, apply or Call. Set before any writer step.
  using PublishHook = std::function<void(const CommitRecord& commit,
                                         const Snapshot& snapshot)>;
  void set_on_publish(PublishHook hook) { on_publish_ = std::move(hook); }

 private:
  struct PendingUpdate {
    int64_t ticket = 0;
    std::vector<FactUpdate> batch;
    /// The batch's WAL record body when a store is open, formatted at
    /// submission under mu_ (the SymbolTable's lock).
    std::string wal_tokens;
  };
  struct TicketState {
    bool done = false;
    /// The writer role was handed to this ticket's Call.
    bool lead = false;
    Response response;
    /// Notified, under mu_, when the ticket settles or is handed the
    /// role. Only the ticket's own Call waits on it, so a commit wakes no
    /// other session.
    std::condition_variable settled;
  };

  Server(std::unique_ptr<IncrementalView> view, const Catalog* catalog,
         SymbolTable* symbols);

  /// Publishes `chunks` as `epoch` and returns the published snapshot,
  /// which stays alive until the next Publish. Writer only.
  const Snapshot& Publish(int64_t epoch, SnapshotChunks chunks);
  /// Applies, logs (as `wal_tokens`) and publishes one batch; the
  /// response to settle its ticket with. Writer only.
  Response Commit(std::vector<FactUpdate> batch,
                  const std::string& wal_tokens);
  /// Pops the oldest queued batch, commits it with `lock` (on mu_)
  /// released, and settles its ticket under the lock again. Requires a
  /// non-empty queue; writer only.
  void ApplyFront(std::unique_lock<std::mutex>& lock);
  /// Call's update half: waits for `ticket` to settle, taking the writer
  /// role when it is free or handed over, and returns the response. An
  /// exception would leave the role held and every later update hung, so
  /// it ends the process instead.
  Response AwaitCommit(int64_t ticket) noexcept;

  const Catalog* catalog_;
  SymbolTable* symbols_;
  /// Mutated only by the writer (the role's holder or the ApplyOneQueued
  /// caller).
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

  /// Guards the writer queue, the tickets, the writer role and every
  /// server-side use of the shared SymbolTable.
  mutable std::mutex mu_;
  std::deque<PendingUpdate> queue_;
  std::unordered_map<int64_t, TicketState> tickets_;
  int64_t next_ticket_ = 1;
  /// The writer role is held: a Call or Stop is applying the queue.
  bool committing_ = false;
  /// Notified when the role is left with the queue empty; Stop waits here.
  std::condition_variable role_free_;

  std::mutex threads_mu_;  // guards the thread containers + started_
  bool started_ = false;
  /// Written under mu_, so Stop and SubmitUpdate see it in step with the
  /// queue; a read loads it without taking a lock.
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> conn_threads_;
  /// Accepted connections, owned here so Stop can Close them to unblock
  /// their pump threads.
  std::vector<std::unique_ptr<ByteChannel>> conn_channels_;
};

}  // namespace server
}  // namespace datalog

#endif  // UNCHAINED_SERVER_SERVER_H_
