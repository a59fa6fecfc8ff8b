#include "server/scheduler.h"

#include <map>
#include <utility>

#include "base/rng.h"

namespace datalog {
namespace server {

namespace {

struct SessionState {
  std::vector<size_t> op_indices;  // positions in the script, in order
  size_t cursor = 0;
  /// >= 0 while the session is blocked on a submitted update.
  int64_t waiting_ticket = -1;
  size_t waiting_op_index = 0;

  bool blocked() const { return waiting_ticket >= 0; }
  bool exhausted() const { return cursor >= op_indices.size(); }
};

}  // namespace

ScheduleRun RunSessions(Server* server, const std::vector<SessionOp>& ops,
                        const SchedulerOptions& options) {
  ScheduleRun run;
  Rng rng(options.seed);

  std::map<int, SessionState> sessions;  // ordered: deterministic walks
  for (size_t i = 0; i < ops.size(); ++i) {
    sessions[ops[i].session].op_indices.push_back(i);
  }

  // Commit log and per-epoch byte capture: the publish hook sees every
  // commit the run makes; the initial epoch's bytes come from one
  // bookkeeping snapshot query before any writer step runs.
  std::map<int64_t, std::string> epoch_bytes;
  server->set_on_publish(
      [&](const CommitRecord& commit, const Snapshot& snapshot) {
        run.commits.push_back(commit);
        epoch_bytes[commit.epoch] = snapshot.ModelBytes();
      });
  {
    Request initial;
    initial.kind = Request::Kind::kSnapshotQuery;
    Response r = server->ServeQuery(initial);
    if (r.status != StatusCode::kOk) {
      server->set_on_publish(nullptr);
      run.error = "initial snapshot query failed: " + r.error;
      return run;
    }
    epoch_bytes[r.epoch] = r.body;
  }

  int64_t vtime = 0;
  for (;;) {
    // Runnable actors, in a fixed order so the seeded draw is the only
    // source of schedule variation: sessions ascending, then the writer.
    constexpr int kWriter = -1;
    std::vector<int> runnable;
    for (const auto& [sid, state] : sessions) {
      if (!state.blocked() && !state.exhausted()) runnable.push_back(sid);
    }
    if (server->pending_updates() > 0) runnable.push_back(kWriter);
    if (runnable.empty()) {
      bool all_done = true;
      for (const auto& [sid, state] : sessions) {
        all_done = all_done && !state.blocked() && state.exhausted();
      }
      if (!all_done) {
        server->set_on_publish(nullptr);
        run.error = "schedule stuck: blocked session with an empty queue";
        return run;
      }
      break;
    }

    const int actor = runnable[rng.Uniform(runnable.size())];
    ++vtime;

    if (actor == kWriter) {
      server->ApplyOneQueued();
      // The commit settles exactly one ticket; unblock its session.
      for (auto& [sid, state] : sessions) {
        if (!state.blocked()) continue;
        Response response;
        if (!server->UpdateOutcome(state.waiting_ticket, &response)) {
          continue;
        }
        run.events.push_back(ScheduledEvent{vtime, state.waiting_op_index,
                                            sid, false,
                                            std::move(response)});
        state.waiting_ticket = -1;
      }
      continue;
    }

    SessionState& state = sessions[actor];
    const size_t op_index = state.op_indices[state.cursor++];
    const SessionOp& op = ops[op_index];
    if (op.kind == SessionOp::Kind::kUpdate) {
      Result<int64_t> ticket = server->SubmitUpdate(op.update_tokens);
      if (!ticket.ok()) {
        Response response;
        response.status = ticket.status().code();
        response.error = ticket.status().message();
        run.events.push_back(ScheduledEvent{vtime, op_index, actor, false,
                                            std::move(response)});
      } else {
        state.waiting_ticket = *ticket;
        state.waiting_op_index = op_index;
      }
      continue;
    }

    Request request;
    request.kind = op.kind == SessionOp::Kind::kQuery
                       ? Request::Kind::kQuery
                       : Request::Kind::kSnapshotQuery;
    request.text = op.pred;
    CancelToken token;
    const bool cancelled =
        options.cancel_prob > 0 && rng.Chance(options.cancel_prob);
    if (cancelled) token.Cancel();
    request.cancel = &token;
    Response response = server->ServeQuery(request);
    run.events.push_back(ScheduledEvent{vtime, op_index, actor, cancelled,
                                        std::move(response)});
  }
  server->set_on_publish(nullptr);

  run.final_epoch = server->epoch();
  run.view_stats = server->view_stats();
  run.counters = server->snapshots().counters();
  run.live_snapshots = server->snapshots().live();
  run.pinned = server->snapshots().pinned();

  // Flatten the per-epoch bytes; the epochs seen must be contiguous from
  // the first observed one (0 for a fresh server, the recovered epoch for
  // one restarted from a durable store) through final_epoch.
  int64_t expected = epoch_bytes.empty() ? 0 : epoch_bytes.begin()->first;
  run.base_epoch = expected;
  for (auto& [epoch, bytes] : epoch_bytes) {
    if (epoch != expected++) {
      run.error = "epoch gap in published snapshots at " +
                  std::to_string(epoch);
      return run;
    }
    run.epoch_bytes.push_back(std::move(bytes));
  }
  if (expected != run.final_epoch + 1) {
    run.error = "published epochs end at " + std::to_string(expected - 1) +
                " but the server is at " + std::to_string(run.final_epoch);
    return run;
  }
  run.ok = true;
  return run;
}

}  // namespace server
}  // namespace datalog
