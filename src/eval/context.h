#ifndef UNCHAINED_EVAL_CONTEXT_H_
#define UNCHAINED_EVAL_CONTEXT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/ast.h"
#include "base/status.h"
#include "eval/common.h"
#include "ra/index.h"
#include "ra/instance.h"

namespace datalog {

/// Incrementally maintained active domain adom(P, I): the sorted vector of
/// every value in the instance plus every constant of the program
/// (Section 4.1). The cache tracks per-relation (epoch, journal position)
/// pairs, exactly like IndexManager: while the instance only grows, each
/// refresh merges just the journal tail into the sorted vector; any
/// non-monotone mutation (or a different instance/program) falls back to
/// a full recompute. This replaces the per-round `std::set<Value>`
/// materialization the engines used to pay.
class AdomCache {
 public:
  /// The current active domain, sorted ascending. The reference is valid
  /// until the next Get call on this cache.
  const std::vector<Value>& Get(const Program& program,
                                const Instance& instance);

 private:
  struct RelState {
    uint64_t epoch = 0;
    size_t journal_pos = 0;
    size_t erase_pos = 0;
  };

  void Recompute(const Program& program, const Instance& instance);
  /// Inserts any of `fresh` not already present, keeping `adom_` sorted.
  void MergeValues(std::vector<Value>* fresh);

  const Program* program_ = nullptr;
  const Instance* instance_ = nullptr;
  std::unordered_map<PredId, RelState> rel_states_;
  std::vector<Value> adom_;
};

/// Shared per-evaluation state threaded through every engine in the
/// family: budgets, stats, the persistent index manager, the incremental
/// active-domain cache, provenance, and wall-clock timers. One EvalContext
/// corresponds to one evaluation; the Engine facade constructs one per
/// entry-point call and surfaces its stats via Engine::LastRunStats().
class EvalContext {
 public:
  EvalContext();
  explicit EvalContext(const EvalOptions& opts);
  ~EvalContext();

  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  EvalOptions options;
  EvalStats stats;
  IndexManager index;
  AdomCache adom_cache;
  /// When non-null, engines record first derivations here (mirrors
  /// options.provenance; kept as a member so engines no longer thread a
  /// third parameter around).
  DerivationLog* provenance = nullptr;
  /// Whether this context publishes its final stats to the global
  /// obs::MetricsRegistry on destruction (when metrics collection is
  /// enabled). Sub-contexts whose counters are merged into a parent —
  /// e.g. stable-model candidate checks — set this false so registry
  /// totals count each event exactly once and stay equal to the
  /// LastRunStats of the enclosing run.
  bool publish_metrics = true;

  /// The active domain for matching `program` against `instance`.
  const std::vector<Value>& Adom(const Program& program,
                                 const Instance& instance) {
    return adom_cache.Get(program, instance);
  }

  /// Cooperative interruption gate, polled by every engine at its round
  /// boundary (the same sites as the max_rounds budget; see RunStages in
  /// eval/stage.h): kCancelled when options.cancel is set,
  /// kBudgetExhausted when options.deadline_ms has elapsed since
  /// construction, OK otherwise. Callers follow the budget contract:
  /// Finalize(), then return the status.
  Status CheckInterrupt() const {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return Status::Cancelled("evaluation cancelled via CancelToken");
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      return Status::BudgetExhausted(
          "deadline of " + std::to_string(options.deadline_ms) +
          " ms exceeded");
    }
    return Status::OK();
  }

  /// Adopts `parent`'s absolute deadline and cancel token, so a
  /// sub-evaluation (e.g. one stable-model candidate check) cannot outlive
  /// the budget of the run that spawned it.
  void InheritDeadline(const EvalContext& parent) {
    has_deadline_ = parent.has_deadline_;
    deadline_ = parent.deadline_;
    options.deadline_ms = parent.options.deadline_ms;
    options.cancel = parent.options.cancel;
  }

  /// Round timing: call StartRound at the top of a stage and FinishRound
  /// once its new facts are merged; FinishRound appends to stats.round_ms
  /// (up to EvalStats::kMaxRoundTimings entries).
  void StartRound() { round_start_ = Clock::now(); }
  void FinishRound() {
    if (stats.round_ms.size() < EvalStats::kMaxRoundTimings) {
      stats.round_ms.push_back(ElapsedMs(round_start_));
    }
  }

  /// Folds the index counters and the total wall-clock into `stats`.
  /// Engines call it on their success path; the Engine facade also calls
  /// it defensively before copying stats out, and the destructor before
  /// publishing metrics.
  /// Idempotent: only the counter growth since the last call is added, so
  /// counters merged in from sub-evaluations (stable-model candidates)
  /// survive a repeat call.
  void Finalize();

 private:
  using Clock = std::chrono::steady_clock;
  static double ElapsedMs(Clock::time_point since) {
    return std::chrono::duration<double, std::milli>(Clock::now() - since)
        .count();
  }

  /// Folds the final stats into the global metrics registry (one call,
  /// from the destructor) so registry counters equal the per-run stats
  /// summed over every published evaluation.
  void PublishMetrics();

  Clock::time_point start_;
  Clock::time_point round_start_{};
  /// Absolute deadline derived from options.deadline_ms at construction
  /// (or inherited); only meaningful when has_deadline_ is set.
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  /// Counter values already folded into `stats` by Finalize.
  IndexManager::Counters folded_index_;
};

}  // namespace datalog

#endif  // UNCHAINED_EVAL_CONTEXT_H_
