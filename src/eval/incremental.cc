#include "eval/incremental.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <tuple>
#include <utility>

#include "eval/context.h"
#include "eval/stratified.h"
#include "eval/test_hooks.h"
#include "obs/trace.h"

namespace datalog {

namespace internal {
bool g_dred_skip_rederive = false;
}  // namespace internal

namespace {

/// The empty active domain: safe-rule validation at Create guarantees
/// every variable is bound by a positive body literal, so the matchers
/// never fall back to active-domain enumeration.
const std::vector<Value> kNoAdom;

size_t Slot(int index) { return static_cast<size_t>(index); }

}  // namespace

IncrementalView::IncrementalView(const Program& program,
                                 const Catalog& catalog, const Instance& base)
    : program_(&program),
      catalog_(&catalog),
      base_(base),
      model_(&catalog) {}

Result<std::unique_ptr<IncrementalView>> IncrementalView::Create(
    const Program& program, const Catalog& catalog, const Instance& base,
    const EvalOptions& options) {
  Stratification strat = Stratify(program, catalog);
  if (!strat.ok) return Status::NotStratifiable(strat.error);
  for (const Rule& rule : program.rules) {
    if (rule.heads.size() != 1 ||
        rule.heads[0].kind != Literal::Kind::kRelational ||
        rule.heads[0].negative) {
      return Status::Unsupported(
          "incremental maintenance requires single positive relational "
          "heads");
    }
    if (!rule.universal_vars.empty()) {
      return Status::Unsupported(
          "incremental maintenance does not support forall rules");
    }
    const std::set<int> bound = rule.PositiveBodyVars();
    std::set<int> used = rule.BodyVars();
    const std::set<int> head_vars = rule.HeadVars();
    used.insert(head_vars.begin(), head_vars.end());
    for (int v : used) {
      if (bound.count(v) == 0) {
        return Status::Unsupported(
            "incremental maintenance requires safe rules: every variable "
            "must be bound by a positive relational body literal");
      }
    }
  }

  std::unique_ptr<IncrementalView> view(
      new IncrementalView(program, catalog, base));
  view->strat_ = std::move(strat);

  // Flat strata (counting applies): no rule of the stratum consumes a
  // same-stratum idb predicate, so head counts depend only on already
  // final lower strata.
  view->flat_.assign(static_cast<size_t>(view->strat_.num_strata), true);
  for (int s = 0; s < view->strat_.num_strata; ++s) {
    for (int ri : view->strat_.rules_by_stratum[static_cast<size_t>(s)]) {
      for (const Literal& lit : program.rules[static_cast<size_t>(ri)].body) {
        if (lit.kind != Literal::Kind::kRelational) continue;
        if (view->SameStratum(lit.atom.pred, s)) {
          view->flat_[static_cast<size_t>(s)] = false;
        }
      }
    }
    if (!view->strat_.rules_by_stratum[static_cast<size_t>(s)].empty()) {
      if (view->flat_[static_cast<size_t>(s)]) {
        ++view->stats_.counting_strata;
      } else {
        ++view->stats_.dred_strata;
      }
    }
  }

  view->PrepareRules();
  if (Status init = view->InitialEvaluate(options); !init.ok()) return init;
  return view;
}

void IncrementalView::PrepareRules() {
  prepared_.resize(program_->rules.size());
  for (size_t ri = 0; ri < program_->rules.size(); ++ri) {
    PreparedRule& pr = prepared_[ri];
    pr.rule_index = static_cast<int>(ri);
    pr.rule = &program_->rules[ri];
    pr.matcher = std::make_unique<RuleMatcher>(pr.rule);
    pr.head_append = std::make_unique<Rule>(*pr.rule);
    pr.head_append->body.insert(pr.head_append->body.begin(),
                                Literal::Positive(pr.rule->heads[0].atom));
    pr.head_matcher = std::make_unique<RuleMatcher>(pr.head_append.get());
    pr.flipped.resize(pr.rule->body.size());
    pr.flipped_matchers.resize(pr.rule->body.size());
    for (size_t li = 0; li < pr.rule->body.size(); ++li) {
      const Literal& lit = pr.rule->body[li];
      if (lit.kind != Literal::Kind::kRelational || !lit.negative) continue;
      has_negation_ = true;
      auto variant = std::make_unique<Rule>(*pr.rule);
      variant->body[li].negative = false;
      pr.flipped_matchers[li] = std::make_unique<RuleMatcher>(variant.get());
      pr.flipped[li] = std::move(variant);
    }
  }
}

Status IncrementalView::InitialEvaluate(const EvalOptions& options) {
  OBS_SPAN("incremental.initial");
  EvalOptions opts = options;
  opts.provenance = &provenance_;
  EvalContext ctx(opts);
  ctx.publish_metrics = false;
  Result<Instance> result =
      StratifiedSemantics(*program_, *catalog_, base_, &ctx);
  if (!result.ok()) return result.status();
  model_ = std::move(*result);
  ctx.Finalize();
  initial_stats_ = ctx.stats;
  return Status::OK();
}

void IncrementalView::MatchDelta(
    const RuleMatcher& matcher, bool old, int dl, const Value* values,
    size_t rows, const std::function<bool(const Valuation&)>& cb) {
  assert((!old || pre_batch_readable_) &&
         "a stratum reads the pre-batch state after writing the model");
  const DbView view = old ? DbView{&model_, &model_, &added_, &removed_}
                          : DbView{&model_, &model_};
  matcher.ForEachMatch(view, kNoAdom, &index_, dl, values, rows, cb);
}

void IncrementalView::MatchDelta(
    const RuleMatcher& matcher, bool old, int dl,
    const storage::FactSet& delta,
    const std::function<bool(const Valuation&)>& cb) {
  const PredId q = matcher.rule().body[static_cast<size_t>(dl)].atom.pred;
  if (const storage::RowSet* rows = delta.Find(q)) {
    MatchDelta(matcher, old, dl, rows->data(), rows->rows(), cb);
  }
}

Status IncrementalView::ApplyBatch(const std::vector<FactUpdate>& updates) {
  OBS_SPAN("incremental.batch",
           {{"updates", static_cast<int64_t>(updates.size())}});
  added_.Reset();
  removed_.Reset();
  for (const FactUpdate& u : updates) {
    if (u.pred < 0 || u.pred >= static_cast<PredId>(catalog_->size())) {
      return Status::SchemaError("fact update names an unknown predicate");
    }
    if (static_cast<int>(u.tuple.size()) != catalog_->ArityOf(u.pred)) {
      return Status::SchemaError("fact update has the wrong arity for " +
                                 catalog_->NameOf(u.pred));
    }
  }
  ++stats_.batches;

  // Apply the batch to the base in order. Sorted by (fact, position),
  // the effective updates give each touched fact's first change, and so
  // its presence before the batch; the *net* effect of the batch falls
  // out (an insert+retract pair of the same fact cancels).
  std::vector<size_t> touched;
  for (size_t i = 0; i < updates.size(); ++i) {
    const FactUpdate& u = updates[i];
    const bool changed = u.insert ? base_.Insert(u.pred, u.tuple)
                                  : base_.Erase(u.pred, u.tuple);
    if (!changed) {
      ++stats_.noops;
      continue;
    }
    if (u.insert) {
      ++stats_.inserts;
    } else {
      ++stats_.retracts;
    }
    touched.push_back(i);
  }
  std::sort(touched.begin(), touched.end(), [&](size_t a, size_t b) {
    return std::tie(updates[a].pred, updates[a].tuple, a) <
           std::tie(updates[b].pred, updates[b].tuple, b);
  });
  base_added_.Reset();
  base_removed_.Reset();
  for (size_t k = 0; k < touched.size(); ++k) {
    const FactUpdate& u = updates[touched[k]];
    if (k > 0) {
      const FactUpdate& prev = updates[touched[k - 1]];
      if (prev.pred == u.pred && prev.tuple == u.tuple) continue;
    }
    const bool was_present = !u.insert;
    if (base_.Contains(u.pred, u.tuple) == was_present) continue;
    (was_present ? base_removed_ : base_added_).Insert(u.pred, u.tuple);
  }
  if (base_added_.empty() && base_removed_.empty()) return Status::OK();

  // Retractions and negation are the two ways a derivation can be *lost*;
  // only then do the lost-support passes consult the pre-batch model,
  // read as `model_` through the net delta (see MatchDelta's comment).
  const bool have_old = !base_removed_.empty() || has_negation_;

  // Predicates no rule defines change exactly as their base relations do.
  base_added_.ForEach([&](PredId p, const Tuple& t) {
    if (!program_->IsIdb(p) && model_.Insert(p, t)) {
      added_.Insert(p, t);
      ++stats_.facts_added;
    }
  });
  base_removed_.ForEach([&](PredId p, const Tuple& t) {
    if (!program_->IsIdb(p) && model_.Erase(p, t)) {
      removed_.Insert(p, t);
      ++stats_.facts_removed;
    }
  });

  for (int s = 0; s < strat_.num_strata; ++s) {
    if (strat_.rules_by_stratum[static_cast<size_t>(s)].empty()) continue;
    pre_batch_readable_ = true;
    if (flat_[static_cast<size_t>(s)]) {
      MaintainCounting(s, have_old);
    } else {
      MaintainDred(s, have_old);
    }
  }
  return Status::OK();
}

void IncrementalView::MaintainCounting(int s, bool have_old) {
  OBS_SPAN("incremental.counting", {{"stratum", s}});
  const std::vector<int>& rule_idxs =
      strat_.rules_by_stratum[static_cast<size_t>(s)];

  // Candidate head facts whose derivation count may have changed. A
  // gained instantiation is valid in the new state and uses a changed
  // atom; a lost one is valid in the old state and uses a changed atom —
  // so delta passes over the changed predicates (flipping negated
  // literals positive to range over their changes) cover every
  // candidate. Sorted and deduplicated below: the recount runs in order.
  std::vector<std::pair<PredId, Tuple>> candidates;
  const Atom* head = nullptr;
  const std::function<bool(const Valuation&)> collect =
      [&](const Valuation& val) {
        ++stats_.instantiations;
        candidates.emplace_back(head->pred, InstantiateAtom(*head, val));
        return true;
      };
  ForEachBodyLiteral(s, &head, [&](const PreparedRule& pr, int dl,
                                   const Literal& lit) {
    if (!lit.negative) {
      MatchDelta(*pr.matcher, false, dl, added_, collect);
      if (have_old) MatchDelta(*pr.matcher, true, dl, removed_, collect);
    } else {
      const RuleMatcher& flipped = *pr.flipped_matchers[Slot(dl)];
      MatchDelta(flipped, false, dl, removed_, collect);
      if (have_old) MatchDelta(flipped, true, dl, added_, collect);
    }
  });
  // Base edits of this stratum's predicates change presence directly.
  const auto add_candidate = [&](PredId p, const Tuple& t) {
    if (SameStratum(p, s)) candidates.emplace_back(p, t);
  };
  base_added_.ForEach(add_candidate);
  base_removed_.ForEach(add_candidate);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // Exact recount of every candidate: the head-append variant with the
  // head atom bound to the candidate enumerates precisely the body
  // valuations deriving it. Flat strata never consume stratum-s
  // predicates, so recounts are independent of the presence flips below.
  pre_batch_readable_ = false;  // the flips write the model
  int64_t count = 0;
  const std::function<bool(const Valuation&)> count_match =
      [&](const Valuation&) {
        ++stats_.instantiations;
        ++count;
        return true;
      };
  for (const auto& [p, t] : candidates) {
    ++stats_.recounted;
    count = 0;
    for (int ri : rule_idxs) {
      const PreparedRule& pr = prepared_[static_cast<size_t>(ri)];
      if (pr.rule->heads[0].atom.pred != p) continue;
      MatchDelta(*pr.head_matcher, false, 0, t.data(), 1, count_match);
    }
    const bool present_old = model_.Contains(p, t);
    const bool present_new = count > 0 || base_.Contains(p, t);
    if (present_new && !present_old) {
      model_.Insert(p, t);
      added_.Insert(p, t);
      ++stats_.facts_added;
    } else if (!present_new && present_old) {
      model_.Erase(p, t);
      removed_.Insert(p, t);
      ++stats_.facts_removed;
    }
  }
}

void IncrementalView::MaintainDred(int s, bool have_old) {
  OBS_SPAN("incremental.dred", {{"stratum", s}});
  const std::vector<int>& rule_idxs =
      strat_.rules_by_stratum[static_cast<size_t>(s)];
  const Atom* head = nullptr;

  // -- Overdeletion fixpoint (against the pre-batch model) --------------
  // Everything a lost support could reach is deleted; the rederivation
  // pass restores what an independent derivation still grounds.
  over_.Reset();
  std::vector<std::pair<PredId, Tuple>> over_queue;
  auto overdelete = [&](PredId p, const Tuple& t) {
    if (model_.Contains(p, t) && over_.Insert(p, t)) {
      over_queue.emplace_back(p, t);
      ++stats_.overdeleted;
    }
  };
  const std::function<bool(const Valuation&)> overdelete_head =
      [&](const Valuation& val) {
        ++stats_.instantiations;
        overdelete(head->pred, InstantiateAtom(*head, val));
        return true;
      };
  if (have_old) {
    // Seeds: rule instantiations valid pre-batch that used a lost lower-
    // stratum fact (or a gained fact under negation), plus base
    // retractions of this stratum's predicates.
    ForEachBodyLiteral(s, &head, [&](const PreparedRule& pr, int dl,
                                     const Literal& lit) {
      if (!lit.negative) {
        if (SameStratum(lit.atom.pred, s)) return;  // fixpoint below
        MatchDelta(*pr.matcher, true, dl, removed_, overdelete_head);
      } else {
        MatchDelta(*pr.flipped_matchers[Slot(dl)], true, dl, added_,
                   overdelete_head);
      }
    });
    base_removed_.ForEach([&](PredId p, const Tuple& t) {
      if (SameStratum(p, s)) overdelete(p, t);
    });
    // Same-stratum consumption: derivations through an overdeleted fact
    // are themselves overdeleted, to fixpoint.
    for (size_t qi = 0; qi < over_queue.size(); ++qi) {
      // A copy: the callbacks below may grow the queue.
      const std::pair<PredId, Tuple> item = over_queue[qi];
      ForEachBodyLiteral(s, &head, [&](const PreparedRule& pr, int dl,
                                       const Literal& lit) {
        if (lit.negative || lit.atom.pred != item.first) return;
        MatchDelta(*pr.matcher, true, dl, item.second.data(), 1,
                   overdelete_head);
      });
    }
  }
  pre_batch_readable_ = false;  // the stratum's first model write
  over_.ForEach([&](PredId p, const Tuple& t) { model_.Erase(p, t); });

  // -- Rederivation ------------------------------------------------------
  // In sorted order: an overdeleted fact survives if it is still in the
  // base, its recorded first derivation is valid in the current model, or
  // a derivability query (head-append variant, early exit) succeeds.
  // Facts not overdeleted kept an untouched derivation, so a positive
  // premise that is *present* here is grounded — which is what makes the
  // provenance check sound. The survivors open the first insertion round.
  std::sort(over_queue.begin(), over_queue.end());
  cur_.Reset();
  bool derivable = false;
  const std::function<bool(const Valuation&)> derives =
      [&](const Valuation&) {
        ++stats_.instantiations;
        derivable = true;
        return false;
      };
  if (!internal::g_dred_skip_rederive) {
    for (const auto& [p, t] : over_queue) {
      derivable = false;
      if (base_.Contains(p, t)) {
        derivable = true;
        ++stats_.rederived_base;
      } else if (const DerivationLog::Entry* e = provenance_.Lookup(p, t)) {
        bool valid = true;
        for (const GroundFact& g : e->premises) {
          const bool in = model_.Contains(g.pred, g.tuple);
          if (g.negative ? in : !in) {
            valid = false;
            break;
          }
        }
        if (valid) {
          derivable = true;
          ++stats_.rederived_provenance;
        }
      }
      for (size_t k = 0; !derivable && k < rule_idxs.size(); ++k) {
        const PreparedRule& pr = prepared_[static_cast<size_t>(rule_idxs[k])];
        if (pr.rule->heads[0].atom.pred != p) continue;
        MatchDelta(*pr.head_matcher, false, 0, t.data(), 1, derives);
        if (derivable) ++stats_.rederived_query;
      }
      if (derivable) {
        model_.Insert(p, t);
        cur_.Insert(p, t);
      }
    }
  }

  // -- Insertion propagation (semi-naive within the stratum) ------------
  // First round: lower-stratum gains (and losses under negation) plus the
  // same-stratum delta of rederived and base-inserted facts; later
  // rounds: only the previous round's new facts. A round reads `cur_`
  // and stages its productions in `staged_` — never mutating a set or
  // relation a matcher is reading — and the two swap after it.
  const auto gain = [&](PredId p, const Tuple& t) {
    model_.Insert(p, t);
    if (!over_.Contains(p, t)) {
      added_.Insert(p, t);
      ++stats_.facts_added;
    }
  };
  base_added_.ForEach([&](PredId p, const Tuple& t) {
    if (!SameStratum(p, s) || model_.Contains(p, t)) return;
    cur_.Insert(p, t);
    gain(p, t);
  });
  const std::function<bool(const Valuation&)> produce =
      [&](const Valuation& val) {
        ++stats_.instantiations;
        Tuple t = InstantiateAtom(*head, val);
        if (!model_.Contains(head->pred, t)) staged_.Insert(head->pred, t);
        return true;
      };
  for (bool first = true;; first = false) {
    staged_.Reset();
    ForEachBodyLiteral(s, &head, [&](const PreparedRule& pr, int dl,
                                     const Literal& lit) {
      if (lit.negative) {
        if (first) {
          MatchDelta(*pr.flipped_matchers[Slot(dl)], false, dl, removed_,
                     produce);
        }
      } else if (SameStratum(lit.atom.pred, s)) {
        MatchDelta(*pr.matcher, false, dl, cur_, produce);
      } else if (first) {
        MatchDelta(*pr.matcher, false, dl, added_, produce);
      }
    });
    std::swap(cur_, staged_);
    if (cur_.empty()) break;
    cur_.ForEach(gain);
  }

  // Net losses: overdeleted facts that neither rederivation nor the
  // insertion rounds brought back.
  over_.ForEach([&](PredId p, const Tuple& t) {
    if (model_.Contains(p, t)) return;
    removed_.Insert(p, t);
    ++stats_.facts_removed;
  });
}

}  // namespace datalog
