#ifndef UNCHAINED_ACTIVE_ECA_H_
#define UNCHAINED_ACTIVE_ECA_H_

#include "ast/ast.h"
#include "base/result.h"
#include "eval/common.h"
#include "ra/instance.h"

namespace datalog {

/// Active-database rule evaluation — the event-condition-action flavor of
/// forward chaining that the paper names as an early adopter (Sections 1,
/// 6; Picouet–Vianu [104], Statelog [91]).
///
/// Rules are Datalog¬¬ rules that may additionally reference *delta*
/// predicates in their bodies: a literal over `ins_<p>` (resp. `del_<p>`)
/// holds the facts inserted into (deleted from) predicate `p` by the
/// previous stage — the triggering events. Heads may update any user
/// predicate (insertions and retractions), but never delta predicates,
/// which the engine maintains automatically.
///
/// Execution: the external update (initial insertions/deletions) is
/// applied and becomes the first stage's deltas; then rules fire in
/// parallel, Datalog¬¬ style with the positive-wins policy, each stage's
/// *effective* changes becoming the next stage's deltas; evaluation
/// quiesces when a stage changes nothing. Non-termination (e.g. two rules
/// endlessly undoing each other) is detected by revisited-state checking,
/// like the Datalog¬¬ engine.
struct ActiveResult {
  /// Final database (delta relations cleared).
  Instance instance;
  /// Stages until quiescence (0 = the external update triggered nothing).
  int stages = 0;
  EvalStats stats;

  explicit ActiveResult(Instance db) : instance(std::move(db)) {}
};

struct ActiveOptions {
  /// Detect revisited states and report kNonTerminating with the cycle
  /// length. When disabled, divergence is caught by `eval.max_rounds`.
  bool detect_cycles = true;
  EvalOptions eval;
};

/// Runs `program` on `db` after applying the external update
/// (`insertions`, then `deletions`, all over user predicates). All three
/// instances share `catalog`, in which the engine declares the
/// `ins_<p>` / `del_<p>` predicates it encounters in rule bodies.
///
/// Returns kInvalidProgram if a rule head writes a delta predicate.
Result<ActiveResult> RunActiveRules(const Program& program, Catalog* catalog,
                                    const Instance& db,
                                    const Instance& insertions,
                                    const Instance& deletions,
                                    const ActiveOptions& options = {});

}  // namespace datalog

#endif  // UNCHAINED_ACTIVE_ECA_H_
