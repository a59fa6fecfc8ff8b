#ifndef UNCHAINED_EVAL_COMMON_H_
#define UNCHAINED_EVAL_COMMON_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/parallel.h"

namespace datalog {

class DerivationLog;

/// Cooperative cancellation flag shared between an evaluation and the
/// caller that may abort it (another thread, a signal handler, a driving
/// event loop). Engines poll it at every round boundary, and the
/// stable-model search before every candidate; once set, the evaluation
/// returns kCancelled with finalized stats at the next check point. Tokens
/// are sticky: there is deliberately no Reset — use a fresh token per run
/// so a late cancel can never leak into the next evaluation.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-rule counters (indexed like `Program::rules`), collected by the
/// engines that evaluate a program rule-by-rule. Units: `matches` counts
/// satisfying body valuations found for the rule; `tuples_produced` counts
/// facts the rule inserted that were not already in the database.
struct RuleStats {
  int64_t matches = 0;
  int64_t tuples_produced = 0;
};

/// Counters reported by the engines through EvalContext. Times are
/// wall-clock milliseconds.
struct EvalStats {
  /// Number of evaluation rounds (the "stages" of Section 4.1, or
  /// alternating-fixpoint outer iterations for the well-founded engine).
  int rounds = 0;
  /// Facts newly derived across the whole evaluation.
  int64_t facts_derived = 0;
  /// Rule-body matches found (successful instantiations).
  int64_t instantiations = 0;

  // -- Index maintenance (mirrors IndexManager::Counters) --------------
  /// Lookups served by an index that was already up to date.
  int64_t index_hits = 0;
  /// First-time (pred, mask) index builds.
  int64_t index_builds = 0;
  /// Full index rebuilds forced by non-monotone mutation.
  int64_t index_rebuilds = 0;
  /// Tuples appended incrementally from relation journals.
  int64_t index_appended = 0;
  /// Tuples removed incrementally from relation erase journals.
  int64_t index_removed = 0;

  // -- Parallel execution ----------------------------------------------
  /// Per-worker activity (index 0 = the evaluating thread), filled by a
  /// stable-model search that checked its candidates on more than one
  /// worker; empty otherwise. Unlike every counter above, this is
  /// scheduling telemetry and is NOT deterministic across runs or thread
  /// counts.
  std::vector<WorkerActivity> per_worker;

  // -- Timing ----------------------------------------------------------
  /// Total wall-clock of the evaluation, set by EvalContext::Finalize.
  double total_ms = 0;
  /// Wall-clock per round, in round order; capped at kMaxRoundTimings
  /// entries so budget-exhausting runs don't balloon memory.
  std::vector<double> round_ms;
  static constexpr size_t kMaxRoundTimings = 4096;

  /// Per-rule counters, sized to the evaluated program on demand.
  std::vector<RuleStats> per_rule;

  /// Grows `per_rule` to cover `num_rules` entries.
  void EnsureRuleSlots(size_t num_rules) {
    if (per_rule.size() < num_rules) per_rule.resize(num_rules);
  }

  /// Adds one rule match (and optionally a produced tuple) to `rule`.
  void CountMatch(size_t rule, bool produced) {
    ++instantiations;
    if (rule < per_rule.size()) {
      ++per_rule[rule].matches;
      if (produced) ++per_rule[rule].tuples_produced;
    }
  }

  /// Accumulates the scalar counters of `other` (used when a semantics is
  /// computed from sub-evaluations, e.g. stable models).
  void MergeFrom(const EvalStats& other) {
    rounds += other.rounds;
    facts_derived += other.facts_derived;
    instantiations += other.instantiations;
    index_hits += other.index_hits;
    index_builds += other.index_builds;
    index_rebuilds += other.index_rebuilds;
    index_appended += other.index_appended;
    index_removed += other.index_removed;
  }
};

/// Budgets shared by the engines. The deterministic inflationary engines
/// always terminate, so their default budgets are effectively unlimited;
/// Datalog¬¬ and Datalog¬new can diverge and rely on these.
struct EvalOptions {
  /// Worker threads for the stable-model search's candidate fan-out
  /// (StableModels): 0 = one per hardware thread, 1 = candidates checked
  /// inline, N > 1 = up to N workers for the search (the calling thread
  /// plus up to N-1 spawned ones). Every other engine fires its stages
  /// inline at any setting. Results and all deterministic EvalStats
  /// counters are byte-identical at every setting (see
  /// docs/execution.md).
  int num_threads = 0;
  /// Maximum number of stages/rounds before giving up (kBudgetExhausted).
  int64_t max_rounds = 1'000'000;
  /// Maximum total facts derived (guards invention blow-ups).
  int64_t max_facts = 50'000'000;
  /// Datalog¬new: maximum invented values (kBudgetExhausted beyond).
  int64_t max_invented = 1'000'000;
  /// Wall-clock deadline for the whole evaluation in milliseconds;
  /// <= 0 disables. Checked cooperatively at every round boundary (and
  /// before every stable-model candidate), so overshoot is bounded by one
  /// round. An expired deadline returns kBudgetExhausted with finalized
  /// stats, exactly like the round budget. Note the check makes the
  /// *abort point* wall-clock dependent: results of deadline-exceeded
  /// runs are partial and not reproducible (use max_rounds for
  /// deterministic truncation).
  int64_t deadline_ms = 0;
  /// When non-null, engines poll this token alongside the deadline and
  /// return kCancelled once it is set. The token must outlive the run.
  const CancelToken* cancel = nullptr;
  /// When non-null, the semi-naive/stratified/inflationary engines record
  /// the first derivation of every fact here (see eval/provenance.h). The
  /// well-founded engine ignores it (its inner fixpoints run on
  /// over-/under-estimates whose derivations would be misleading).
  DerivationLog* provenance = nullptr;
};

}  // namespace datalog

#endif  // UNCHAINED_EVAL_COMMON_H_
