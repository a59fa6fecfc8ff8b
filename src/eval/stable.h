#ifndef UNCHAINED_EVAL_STABLE_H_
#define UNCHAINED_EVAL_STABLE_H_

#include <vector>

#include "ast/ast.h"
#include "base/result.h"
#include "eval/context.h"
#include "ra/instance.h"

namespace datalog {

/// The stable models of a Datalog¬ program on one input.
struct StableModelsResult {
  /// Every 2-valued stable model (each includes the input facts). May be
  /// empty (e.g. the win program on an odd cycle), a singleton (always,
  /// for stratified programs), or many (the win program on a 2-cycle).
  std::vector<Instance> models;
  /// Atoms unknown under the well-founded semantics — the search space.
  int64_t unknown_atoms = 0;
  /// Gelfond–Lifschitz candidates tested.
  int64_t candidates_checked = 0;
};

/// Computes all stable models (Gelfond–Lifschitz [65], discussed in
/// Section 3.3) of a Datalog¬ program: M is stable iff M equals the least
/// fixpoint of the reduct P^M, i.e. S(M) = M for the same operator S used
/// by the alternating fixpoint.
///
/// Implementation: the well-founded model brackets every stable model
/// (true facts ⊆ M ⊆ possible facts), so candidates enumerate subsets of
/// the *unknown* atoms only — exact and complete, exponential in the
/// number of unknowns (which is 0 for stratified programs and small for
/// the paper's game examples). `max_candidates` bounds the search
/// (kBudgetExhausted beyond); 2^unknowns candidates are needed in the
/// worst case.
///
/// Classical facts exercised by the tests:
///  * stratified programs have exactly one stable model — the stratified
///    semantics;
///  * the well-founded true facts are contained in every stable model;
///  * programs may have no stable model (win on a 3-cycle) or several
///    (win on a 2-cycle).
/// When `ctx` is non-null it hosts the well-founded bracket and receives
/// the merged scalar counters of every candidate check; otherwise an
/// internal context is used. Each Gelfond–Lifschitz candidate is checked
/// in its own sub-context (its indexes are specific to that candidate),
/// on up to `num_threads` workers; the models and every deterministic
/// counter are the same at any thread count (docs/execution.md).
Result<StableModelsResult> StableModels(const Program& program,
                                        const Instance& input,
                                        const EvalOptions& options,
                                        int64_t max_candidates = 1 << 20,
                                        EvalContext* ctx = nullptr);

}  // namespace datalog

#endif  // UNCHAINED_EVAL_STABLE_H_
