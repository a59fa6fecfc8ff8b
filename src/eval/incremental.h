#ifndef UNCHAINED_EVAL_INCREMENTAL_H_
#define UNCHAINED_EVAL_INCREMENTAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/stratify.h"
#include "ast/ast.h"
#include "base/result.h"
#include "base/status.h"
#include "eval/common.h"
#include "eval/grounder.h"
#include "eval/provenance.h"
#include "ra/catalog.h"
#include "ra/index.h"
#include "ra/instance.h"
#include "ra/relation.h"
#include "ra/storage/row_set.h"

namespace datalog {

/// One base-fact mutation applied to an IncrementalView: insert or retract
/// `tuple` in the base (extensional) relation `pred`. Updates are applied
/// in batch order; inserting a present fact or retracting an absent one is
/// a recorded no-op.
struct FactUpdate {
  PredId pred = -1;
  Tuple tuple;
  bool insert = true;
};

/// A materialized stratified model maintained under base-fact insertions
/// and retractions (docs/incremental.md).
///
/// Strategy, per stratum of the stratification:
///  * *Counting* for flat strata (no rule consumes a same-stratum idb
///    predicate): delta passes over the changed predicates collect the
///    head facts whose derivation count may have changed, and each
///    candidate is recounted exactly by matching the rule bodies with the
///    head atom prepended as a bound delta literal. A fact is present iff
///    it is in the base or its count is positive.
///  * *DRed* (delete–rederive) for the remaining strata, which may be
///    recursive: an overdeletion fixpoint removes everything a lost
///    support could reach, the rederivation pass reinserts facts that
///    still have a derivation (checking the recorded why-provenance of
///    the initial run first, falling back to a bound derivability query),
///    and a semi-naive insertion pass propagates the gains.
///
/// The lost-support passes read the pre-batch model through the batch's
/// net delta (MatchDelta): the view holds one model and one IndexManager.
///
/// The maintenance is sequential by construction: results, serialized
/// snapshots and the deterministic stats counters are byte-identical
/// across thread counts (oracle pair #9 sweeps incremental-vs-scratch).
///
/// `program` and `catalog` must outlive the view. Programs outside the
/// supported fragment — non-stratifiable, ∀-rules, multiple or negative
/// heads, or unsafe rules (a variable not bound by a positive relational
/// body literal, whose evaluation would need active-domain enumeration) —
/// are refused at Create with kNotStratifiable / kUnsupported.
class IncrementalView {
 public:
  /// Deterministic maintenance counters, accumulated across ApplyBatch
  /// calls. Byte-identical across storage backends and thread counts.
  struct Stats {
    int64_t batches = 0;
    /// Effective (state-changing) base insertions / retractions.
    int64_t inserts = 0;
    int64_t retracts = 0;
    /// Updates that did not change the base (duplicate insert, retract of
    /// an absent fact).
    int64_t noops = 0;
    /// Strata maintained by counting vs delete–rederive (fixed at Create;
    /// strata with no rules are counted in neither).
    int counting_strata = 0;
    int dred_strata = 0;
    /// Candidate head facts recounted in counting strata.
    int64_t recounted = 0;
    /// Rule-body matches found by the counting and DRed passes, one per
    /// match callback: the maintenance work that EvalStats::instantiations
    /// measures for a from-scratch run.
    int64_t instantiations = 0;
    /// Facts removed by the DRed overdeletion fixpoint (before
    /// rederivation).
    int64_t overdeleted = 0;
    /// Overdeleted facts rederived: still in the base / via a recorded
    /// provenance entry that is valid in the current model / via a full
    /// derivability query.
    int64_t rederived_base = 0;
    int64_t rederived_provenance = 0;
    int64_t rederived_query = 0;
    /// Net model-level fact changes across all strata (and the base
    /// relations themselves).
    int64_t facts_added = 0;
    int64_t facts_removed = 0;
  };

  /// Validates `program`, runs the initial from-scratch stratified
  /// evaluation of `base` (sequentially, recording why-provenance), and
  /// returns the materialized view.
  static Result<std::unique_ptr<IncrementalView>> Create(
      const Program& program, const Catalog& catalog, const Instance& base,
      const EvalOptions& options = EvalOptions());

  IncrementalView(const IncrementalView&) = delete;
  IncrementalView& operator=(const IncrementalView&) = delete;

  /// Applies one batch of base-fact updates and repairs the model to the
  /// exact stratified semantics of the updated base. Returns kSchemaError
  /// (and changes nothing) if an update names an out-of-range predicate
  /// or has the wrong arity.
  Status ApplyBatch(const std::vector<FactUpdate>& updates);

  /// The maintained model (base facts plus everything derivable).
  const Instance& model() const { return model_; }
  /// The current base instance (initial facts plus applied updates).
  const Instance& base() const { return base_; }
  /// Stats of the initial from-scratch evaluation, for comparison against
  /// a reference run.
  const EvalStats& initial_stats() const { return initial_stats_; }
  const Stats& stats() const { return stats_; }

  /// The net model delta of the last ApplyBatch, per predicate: exactly
  /// diff(model after, model before), so the two are disjoint. Empty after
  /// a batch that changed nothing or was rejected.
  const storage::FactSet& last_added() const { return added_; }
  const storage::FactSet& last_removed() const { return removed_; }

 private:
  /// Per-rule matching machinery, prepared once at Create. The rule
  /// variants are heap-allocated so their RuleMatchers stay valid as the
  /// containing vector moves.
  struct PreparedRule {
    int rule_index = -1;
    const Rule* rule = nullptr;
    /// Matcher over the original rule (delta = a positive body literal).
    std::unique_ptr<RuleMatcher> matcher;
    /// The rule with its head atom prepended as a positive body literal:
    /// matching with delta literal 0 bound to {t} enumerates exactly the
    /// body valuations that derive t — the recount / derivability query.
    std::unique_ptr<Rule> head_append;
    std::unique_ptr<RuleMatcher> head_matcher;
    /// Per body literal: the rule with that (negated relational) literal
    /// flipped positive, so it can serve as a delta literal ranging over
    /// the facts that entered or left the negated predicate. Null for
    /// literals that are not negated relational.
    std::vector<std::unique_ptr<Rule>> flipped;
    std::vector<std::unique_ptr<RuleMatcher>> flipped_matchers;
  };

  IncrementalView(const Program& program, const Catalog& catalog,
                  const Instance& base);

  Status InitialEvaluate(const EvalOptions& options);
  void PrepareRules();

  bool SameStratum(PredId p, int s) const {
    return program_->IsIdb(p) &&
           strat_.stratum_of_pred[static_cast<size_t>(p)] == s;
  }

  /// Calls `fn(prepared rule, dl, literal)` for each relational body
  /// literal `dl` of stratum `s`'s rules, in rule and body order, with
  /// `*head` pointing at the literal's rule head.
  template <typename Fn>
  void ForEachBodyLiteral(int s, const Atom** head, Fn&& fn) const {
    for (int ri : strat_.rules_by_stratum[static_cast<size_t>(s)]) {
      const PreparedRule& pr = prepared_[static_cast<size_t>(ri)];
      *head = &pr.rule->heads[0].atom;
      for (size_t li = 0; li < pr.rule->body.size(); ++li) {
        const Literal& lit = pr.rule->body[li];
        if (lit.kind == Literal::Kind::kRelational) {
          fn(pr, static_cast<int>(li), lit);
        }
      }
    }
  }

  /// Runs `matcher` with body literal `dl` ranging over the `rows` flat
  /// rows at `values`, against the current model or, when `old`, against
  /// the pre-batch model: `model_` read with `added_` hidden and
  /// `removed_` shown (DbView's overlay). That is exact because strata
  /// are maintained in order and each writes its net delta only after its
  /// own pre-batch reads (counting in its recount loop, DRed its gains in
  /// the insertion rounds and its losses at the end). At any pre-batch
  /// read, the predicates maintained so far (those no rule defines and
  /// those of lower strata) hold their final net delta in the two sets,
  /// and no other predicate has changed. So for every predicate,
  /// pre-batch = model_ − added_ + removed_, with added_ ⊆ model_ and
  /// removed_ ∩ model_ = ∅. `pre_batch_readable_` asserts the order.
  /// The callbacks of a pre-batch pass write only the counting
  /// candidates, `over_` and the overdeletion queue, never the two sets
  /// the matcher is reading.
  void MatchDelta(const RuleMatcher& matcher, bool old, int dl,
                  const Value* values, size_t rows,
                  const std::function<bool(const Valuation&)>& cb);
  /// The same over the rows `delta` holds for that literal's predicate;
  /// a no-op when it holds none.
  void MatchDelta(const RuleMatcher& matcher, bool old, int dl,
                  const storage::FactSet& delta,
                  const std::function<bool(const Valuation&)>& cb);

  /// Counting maintenance of flat stratum `s` (see class comment).
  void MaintainCounting(int s, bool have_old);
  /// DRed maintenance of stratum `s` (see class comment).
  void MaintainDred(int s, bool have_old);

  const Program* program_;
  const Catalog* catalog_;
  Instance base_;
  Instance model_;
  Stratification strat_;
  /// Per stratum: true when no rule of the stratum consumes a same-stratum
  /// idb predicate (counting applies).
  std::vector<bool> flat_;
  bool has_negation_ = false;
  std::vector<PreparedRule> prepared_;
  /// Why-provenance of the initial evaluation — the rederivation fast
  /// path.
  DerivationLog provenance_;
  /// Persistent indexes over `model_`; maintained incrementally through
  /// the relations' insert and erase journals across batches.
  IndexManager index_;
  /// Net per-predicate gains/losses of *present* facts in the current (or
  /// last) batch, accumulated from the base edits and every maintained
  /// stratum in stratum order.
  storage::FactSet added_;
  storage::FactSet removed_;
  /// From the start of a stratum's maintenance to its first model write.
  bool pre_batch_readable_ = false;
  /// The batch's net base edits.
  storage::FactSet base_added_;
  storage::FactSet base_removed_;
  /// DRed's per-stratum state: the overdeleted facts, and the facts new
  /// in the current insertion round and in the next. A matcher reads
  /// `cur_` while a round writes `staged_`; the two swap between rounds.
  storage::FactSet over_;
  storage::FactSet cur_;
  storage::FactSet staged_;
  EvalStats initial_stats_;
  Stats stats_;
};

}  // namespace datalog

#endif  // UNCHAINED_EVAL_INCREMENTAL_H_
