#ifndef UNCHAINED_EVAL_NONINFLATIONARY_H_
#define UNCHAINED_EVAL_NONINFLATIONARY_H_

#include <functional>

#include "ast/ast.h"
#include "base/result.h"
#include "eval/context.h"
#include "ra/instance.h"

namespace datalog {

/// How simultaneous inference of a fact A and its retraction ¬A within one
/// firing is resolved (Section 4.2). The four options listed by the paper;
/// all yield equivalent languages, and the paper (and this engine) default
/// to giving priority to positive inference.
enum class ConflictPolicy {
  /// The paper's chosen semantics: A is kept.
  kPositiveWins,
  /// A is removed.
  kNegativeWins,
  /// A keeps its previous status ("no-op").
  kNoOp,
  /// The result is undefined: evaluation returns kConflict.
  kUndefined,
};

struct NonInflationaryOptions {
  ConflictPolicy policy = ConflictPolicy::kPositiveWins;
  /// Detect revisited states and report kNonTerminating with the cycle
  /// length (e.g. the flip-flop program of Section 4.2). When disabled,
  /// divergence is caught by `eval.max_rounds` instead.
  bool detect_cycles = true;
  EvalOptions eval;
};

struct NonInflationaryResult {
  Instance instance;
  int stages = 0;
  EvalStats stats;

  explicit NonInflationaryResult(Instance db) : instance(std::move(db)) {}
};

/// The noninflationary semantics of Datalog¬¬ (Section 4.2): rules fire in
/// parallel; positive heads insert facts and negative heads delete them,
/// subject to the conflict policy. Input (edb) relations may appear in
/// heads, so the language expresses updates. Unlike inflationary Datalog¬,
/// a fixpoint need not exist — the engine reports kNonTerminating when the
/// state sequence provably cycles.
///
/// `ctx` must be non-null. Deletions change relation epochs, so the
/// persistent indexes fall back to full rebuilds as needed.
Result<NonInflationaryResult> NonInflationaryFixpoint(
    const Program& program, const Instance& input,
    const NonInflationaryOptions& options, EvalContext* ctx);

/// Applies one firing's signed facts to `state`: erases `retractions` and
/// inserts `additions`, resolving a fact found in both per `policy` (under
/// kUndefined, kConflict with `state` partly applied). `changed`, when set,
/// sees every effective change (true = inserted). Shared by Datalog¬¬ and
/// the active rules, which apply with kPositiveWins.
Status ApplySigned(const Instance& additions, const Instance& retractions,
                   ConflictPolicy policy, Instance* state,
                   const std::function<void(PredId, const Tuple&, bool)>&
                       changed = {});

}  // namespace datalog

#endif  // UNCHAINED_EVAL_NONINFLATIONARY_H_
