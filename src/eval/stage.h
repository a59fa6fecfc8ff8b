#ifndef UNCHAINED_EVAL_STAGE_H_
#define UNCHAINED_EVAL_STAGE_H_

// The stage loop shared by the forward-chaining engines (docs/execution.md).
// Every language of the family evaluates stage by stage: fire every rule
// against the frozen current instance (the immediate-consequence operator
// ΓP of Sections 3.1 and 4.1), then combine what fired — by union for
// Datalog, Datalog¬ and Datalog¬new, by a signed apply for Datalog¬¬
// (Section 4.2) and active rules. FireStage is the firing, RunStages the
// loop around the stages, StateSet the memo of the engines that can cycle.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/result.h"
#include "eval/context.h"
#include "eval/grounder.h"
#include "ra/instance.h"

namespace datalog {

/// One unit of a stage's matching work: one rule, optionally restricted to
/// one delta relation (the semi-naive rewriting). Units fire in list
/// order.
struct MatchUnit {
  /// Index into the engine's matcher vector.
  size_t matcher = 0;
  /// Program-level rule index, for per-rule stats.
  int rule_index = 0;
  /// Body literal matched against the delta; < 0 = full match.
  int delta_literal = -1;
  /// The delta tuples (null/0 for full matches). Pointers must stay stable
  /// for the stage: they reference journal-backed tuples.
  const Tuple* const* delta_begin = nullptr;
  size_t delta_count = 0;
};

/// Receives the head facts of one match from an engine's sink and inserts
/// them into the stage's output.
class Firing {
 public:
  Firing(Instance* additions, Instance* retractions)
      : additions_(additions), retractions_(retractions) {}

  /// Fires `tuple` into `pred`; a retraction when `negative`.
  void Fire(PredId pred, Tuple tuple, bool negative = false) {
    (negative ? retractions_ : additions_)
        ->MutableRel(pred)
        ->Insert(std::move(tuple));
  }
  /// Abandons the stage: this match is not counted and no further match
  /// fires (the invention engine's value budget).
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

 private:
  Instance* additions_;
  Instance* retractions_;
  bool stopped_ = false;
};

/// An engine's per-match callback: fires the heads of `unit`'s rule under
/// `val` and returns whether the match produced a fact the frozen instance
/// lacks (the per-rule `tuples_produced` counter).
using StageSink = std::function<bool(const MatchUnit& unit,
                                     const Valuation& val, Firing* out)>;

/// Fires `units` in order against the frozen `view` (over adom(`program`,
/// view.positives)) through `sink`, counting every match into ctx->stats;
/// positive heads land in `additions`, negative ones in `retractions`.
void FireStage(const Program& program,
               const std::vector<RuleMatcher>& matchers,
               std::span<const MatchUnit> units, const DbView& view,
               EvalContext* ctx, const StageSink& sink, Instance* additions,
               Instance* retractions = nullptr);

/// One full-match unit per matcher, rule index = matcher index.
std::vector<MatchUnit> WholeRuleUnits(size_t num_matchers);

/// How an engine's stages show up in spans and budget exits. The span
/// opens around each stage with one argument, ctx->stats.rounds + 1.
struct StageLoop {
  const char* span;
  const char* span_arg;
  std::string rounds_exceeded;
  std::string facts_exceeded;
};

/// The round loop. Before each stage: the interrupt check, then the round
/// budget against the cumulative ctx->stats.rounds (`stage` counts rounds
/// the way its engine does). Around it: the round timer and the span.
/// After it: `db` against the fact budget. `stage` returns whether another
/// stage is needed (false at the fixpoint) or an error. Every exit calls
/// ctx->Finalize().
Status RunStages(EvalContext* ctx, const StageLoop& loop, const Instance& db,
                 const std::function<Result<bool>()>& stage);

/// The states an engine has visited, found by fingerprint and confirmed
/// exactly (fingerprints may collide).
class StateSet {
 public:
  /// Adds `state` unless an equal state is present. Returns the state's
  /// index (in visiting order) and whether it was added.
  std::pair<size_t, bool> Insert(const Instance& state);
  const Instance& operator[](size_t i) const { return states_[i]; }
  size_t size() const { return states_.size(); }

 private:
  std::unordered_map<uint64_t, std::vector<size_t>> by_fingerprint_;
  std::vector<Instance> states_;
};

}  // namespace datalog

#endif  // UNCHAINED_EVAL_STAGE_H_
