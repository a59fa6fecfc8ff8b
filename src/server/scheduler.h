#ifndef UNCHAINED_SERVER_SCHEDULER_H_
#define UNCHAINED_SERVER_SCHEDULER_H_

// Deterministic virtual-clock scheduler (docs/server.md#virtual-clock):
// replays a seeded interleaving of client sessions against a Server's
// scheduler-driven surface, with no real threads and no wall clock.
//
// The scheduler maintains one actor per session plus the writer. Each
// step it draws the next runnable actor from a seeded Rng and advances
// the virtual clock by one tick:
//
//   * A session actor executes its next script op (session.h). Reads are
//     served immediately at the currently published epoch; an update is
//     submitted to the writer queue and *blocks its session* until the
//     batch commits — which gives sessions read-your-writes and makes
//     per-session epoch monotonicity a hard invariant to check.
//   * The writer actor (runnable while the queue is non-empty) applies
//     one batch and publishes the next epoch.
//
// Budgets: wall-clock deadlines are meaningless under a virtual clock,
// so deadline exhaustion is exercised by the threaded tests; here a
// seeded fraction of read ops arrives pre-cancelled instead, driving the
// cancellation path (and its no-leaked-pins guarantee) inside every
// fuzzed schedule. Cancelled responses carry no payload and are skipped
// by the oracle's byte diffs.
//
// The run is a pure function of (server state, ops, options): the same
// seed yields the same event order, the same commit order, and the same
// response bytes — which is what lets oracle pair #10 re-run a schedule
// to check the server's own determinism, and what makes shrunken repros
// replayable.

#include <cstdint>
#include <string>
#include <vector>

#include "server/server.h"
#include "server/session.h"

namespace datalog {
namespace server {

struct SchedulerOptions {
  uint64_t seed = 0;
  /// Probability a read op's token is pre-cancelled (see above).
  double cancel_prob = 0.0;
};

/// One executed session op, in virtual-time order.
struct ScheduledEvent {
  int64_t vtime = 0;     // virtual tick the op completed at
  size_t op_index = 0;   // index into the script's op list
  int session = 0;
  bool cancelled_injected = false;
  Response response;
};

struct ScheduleRun {
  bool ok = false;
  std::string error;
  /// Completed ops, in completion (virtual-time) order. Update events
  /// complete when their batch commits.
  std::vector<ScheduledEvent> events;
  /// The batches the run committed, in publication order (collected
  /// through the server's publish hook).
  std::vector<CommitRecord> commits;
  /// Published model bytes per epoch: epoch_bytes[i] is epoch
  /// (base_epoch + i)'s canonical snapshot. base_epoch is 0 for a fresh
  /// server and the recovered epoch when the run drives a server that
  /// restarted from a durable store (server.h RecoveryInfo).
  std::vector<std::string> epoch_bytes;
  int64_t base_epoch = 0;
  int64_t final_epoch = 0;
  /// Maintenance counters and reclamation state at quiescence.
  IncrementalView::Stats view_stats;
  SnapshotRegistry::Counters counters;
  int64_t live_snapshots = 0;
  int64_t pinned = 0;
};

/// Runs `ops` against `server` (fresh from Create, not Start()ed) until
/// every session is exhausted and the writer queue is drained. The
/// scheduler installs its own publish hook on the server. `!ok` means
/// the schedule itself could not make progress (e.g. an update op whose
/// tokens the server rejects still completes — with the rejection as its
/// response — so rejections do not fail the run).
ScheduleRun RunSessions(Server* server, const std::vector<SessionOp>& ops,
                        const SchedulerOptions& options);

}  // namespace server
}  // namespace datalog

#endif  // UNCHAINED_SERVER_SCHEDULER_H_
