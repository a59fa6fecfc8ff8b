#include "eval/incremental.h"

#include <algorithm>
#include <map>
#include <set>
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

}  // namespace

IncrementalView::IncrementalView(const Program& program,
                                 const Catalog& catalog, const Instance& base)
    : program_(&program),
      catalog_(&catalog),
      base_(base),
      model_(&catalog),
      shadow_(&catalog) {}

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
  // The maintenance algorithms are index-driven; pinning the initial run
  // to the hash path (provenance attached forces the generic sinks that
  // honor on_derivation) makes the view's state — model, counts,
  // provenance, stats — byte-identical across storage backends.
  opts.storage = storage::StorageBackend::kHash;
  opts.provenance = &provenance_;
  EvalContext ctx(opts);
  ctx.publish_metrics = false;
  ctx.on_derivation = [this](size_t, PredId pred, const Tuple& t) {
    const int s = strat_.stratum_of_pred[static_cast<size_t>(pred)];
    if (flat_[static_cast<size_t>(s)]) ++counts_[FactKey{pred, t}];
  };
  Result<Instance> result =
      StratifiedSemantics(*program_, *catalog_, base_, &ctx);
  if (!result.ok()) return result.status();
  model_ = std::move(*result);
  shadow_ = model_;
  ctx.Finalize();
  initial_stats_ = ctx.stats;
  return Status::OK();
}

void IncrementalView::AddTo(DeltaMap* m, PredId p, const Tuple& t) const {
  auto it = m->find(p);
  if (it == m->end()) {
    it = m->emplace(p, Relation(catalog_->ArityOf(p))).first;
  }
  it->second.Insert(t);
}

Status IncrementalView::ApplyBatch(const std::vector<FactUpdate>& updates) {
  OBS_SPAN("incremental.batch",
           {{"updates", static_cast<int64_t>(updates.size())}});
  added_.clear();
  removed_.clear();
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

  // Apply the batch to the base in order, remembering each touched fact's
  // presence before its first effective change so the *net* effect of the
  // batch falls out (an insert+retract pair of the same fact cancels).
  std::map<std::pair<PredId, Tuple>, bool> first_touch;
  for (const FactUpdate& u : updates) {
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
    first_touch.emplace(std::make_pair(u.pred, u.tuple), !u.insert);
  }

  DeltaMap base_added;
  DeltaMap base_removed;
  for (const auto& [key, was_present] : first_touch) {
    const bool now_present = base_.Contains(key.first, key.second);
    if (now_present == was_present) continue;
    AddTo(now_present ? &base_added : &base_removed, key.first, key.second);
  }
  if (base_added.empty() && base_removed.empty()) return Status::OK();

  // Retractions and negation are the two ways a derivation can be *lost*;
  // only then do the lost-support passes consult the pre-batch model.
  // That old state is `shadow_` — a persistent replica resynced by each
  // batch's net delta (see the member comment) — so even retraction
  // batches touch O(delta) state, not an O(model) copy.
  const bool have_old = !base_removed.empty() || has_negation_;
  const DbView new_view{&model_, &model_};
  const DbView old_view{&shadow_, &shadow_};

  // Predicates no rule defines change exactly as their base relations do.
  for (const auto& [p, rel] : base_added) {
    if (program_->IsIdb(p)) continue;
    for (const Tuple& t : rel) {
      if (model_.Insert(p, t)) {
        AddTo(&added_, p, t);
        ++stats_.facts_added;
      }
    }
  }
  for (const auto& [p, rel] : base_removed) {
    if (program_->IsIdb(p)) continue;
    for (const Tuple& t : rel) {
      if (model_.Erase(p, t)) {
        AddTo(&removed_, p, t);
        ++stats_.facts_removed;
      }
    }
  }

  for (int s = 0; s < strat_.num_strata; ++s) {
    if (strat_.rules_by_stratum[static_cast<size_t>(s)].empty()) continue;
    if (flat_[static_cast<size_t>(s)]) {
      MaintainCounting(s, new_view, old_view, have_old, &shadow_index_,
                       base_added, base_removed, &added_, &removed_);
    } else {
      MaintainDred(s, new_view, old_view, have_old, &shadow_index_,
                   base_added, base_removed, &added_, &removed_);
    }
  }

  // Re-sync the shadow by the batch's net model delta: `added_`/
  // `removed_` are exactly diff(model after, model before), so after this
  // replay the shadow is the old state the *next* batch needs.
  for (const auto& [p, rel] : added_) {
    for (const Tuple& t : rel) shadow_.Insert(p, t);
  }
  for (const auto& [p, rel] : removed_) {
    for (const Tuple& t : rel) shadow_.Erase(p, t);
  }
  return Status::OK();
}

void IncrementalView::MaintainCounting(
    int s, const DbView& new_view, const DbView& old_view, bool have_old,
    IndexManager* old_index, const DeltaMap& base_added,
    const DeltaMap& base_removed, DeltaMap* added, DeltaMap* removed) {
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
  for (int ri : rule_idxs) {
    PreparedRule& pr = prepared_[static_cast<size_t>(ri)];
    const Atom& head = pr.rule->heads[0].atom;
    auto collect = [&](const Valuation& val) -> bool {
      ++stats_.instantiations;
      candidates.emplace_back(head.pred, InstantiateAtom(head, val));
      return true;
    };
    for (size_t li = 0; li < pr.rule->body.size(); ++li) {
      const Literal& lit = pr.rule->body[li];
      if (lit.kind != Literal::Kind::kRelational) continue;
      const PredId q = lit.atom.pred;
      const int dl = static_cast<int>(li);
      if (!lit.negative) {
        if (auto it = added->find(q);
            it != added->end() && !it->second.empty()) {
          pr.matcher->ForEachMatch(new_view, kNoAdom, &index_, dl,
                                   &it->second, collect);
        }
        if (have_old) {
          if (auto it = removed->find(q);
              it != removed->end() && !it->second.empty()) {
            pr.matcher->ForEachMatch(old_view, kNoAdom, old_index, dl,
                                     &it->second, collect);
          }
        }
      } else {
        if (auto it = removed->find(q);
            it != removed->end() && !it->second.empty()) {
          pr.flipped_matchers[li]->ForEachMatch(new_view, kNoAdom, &index_,
                                                dl, &it->second, collect);
        }
        if (have_old) {
          if (auto it = added->find(q);
              it != added->end() && !it->second.empty()) {
            pr.flipped_matchers[li]->ForEachMatch(old_view, kNoAdom,
                                                  old_index, dl, &it->second,
                                                  collect);
          }
        }
      }
    }
  }
  // Base edits of this stratum's predicates change presence directly.
  for (const DeltaMap* base_delta : {&base_added, &base_removed}) {
    for (const auto& [p, rel] : *base_delta) {
      if (!SameStratum(p, s)) continue;
      for (const Tuple& t : rel) candidates.emplace_back(p, t);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // Exact recount of every candidate: the head-append variant with the
  // head atom bound to the candidate enumerates precisely the body
  // valuations deriving it. Flat strata never consume stratum-s
  // predicates, so recounts are independent of the presence flips below.
  for (const auto& [p, t] : candidates) {
    ++stats_.recounted;
    int64_t count = 0;
    const Tuple* one = &t;
    for (int ri : rule_idxs) {
      PreparedRule& pr = prepared_[static_cast<size_t>(ri)];
      if (pr.rule->heads[0].atom.pred != p) continue;
      pr.head_matcher->ForEachMatch(new_view, kNoAdom, &index_, 0, &one, 1,
                                    [&](const Valuation&) -> bool {
                                      ++stats_.instantiations;
                                      ++count;
                                      return true;
                                    });
    }
    const FactKey key{p, t};
    if (count > 0) {
      counts_[key] = count;
    } else {
      counts_.erase(key);
    }
    const bool present_old = model_.Contains(p, t);
    const bool present_new = count > 0 || base_.Contains(p, t);
    if (present_new && !present_old) {
      model_.Insert(p, t);
      AddTo(added, p, t);
      ++stats_.facts_added;
    } else if (!present_new && present_old) {
      model_.Erase(p, t);
      AddTo(removed, p, t);
      ++stats_.facts_removed;
    }
  }
}

void IncrementalView::MaintainDred(int s, const DbView& new_view,
                                   const DbView& old_view, bool have_old,
                                   IndexManager* old_index,
                                   const DeltaMap& base_added,
                                   const DeltaMap& base_removed,
                                   DeltaMap* added, DeltaMap* removed) {
  OBS_SPAN("incremental.dred", {{"stratum", s}});
  const std::vector<int>& rule_idxs =
      strat_.rules_by_stratum[static_cast<size_t>(s)];

  // -- Overdeletion fixpoint (against the pre-batch model) --------------
  // Everything a lost support could reach is deleted; the rederivation
  // pass restores what an independent derivation still grounds.
  DeltaMap over;
  std::vector<std::pair<PredId, Tuple>> over_queue;
  auto overdelete = [&](PredId p, const Tuple& t) {
    if (!model_.Contains(p, t)) return;
    auto it = over.find(p);
    if (it == over.end()) {
      it = over.emplace(p, Relation(catalog_->ArityOf(p))).first;
    }
    if (it->second.Insert(t)) {
      over_queue.emplace_back(p, t);
      ++stats_.overdeleted;
    }
  };
  if (have_old) {
    // Seeds: rule instantiations valid pre-batch that used a lost lower-
    // stratum fact (or a gained fact under negation), plus base
    // retractions of this stratum's predicates.
    for (int ri : rule_idxs) {
      PreparedRule& pr = prepared_[static_cast<size_t>(ri)];
      const Atom& head = pr.rule->heads[0].atom;
      auto collect = [&](const Valuation& val) -> bool {
        ++stats_.instantiations;
        overdelete(head.pred, InstantiateAtom(head, val));
        return true;
      };
      for (size_t li = 0; li < pr.rule->body.size(); ++li) {
        const Literal& lit = pr.rule->body[li];
        if (lit.kind != Literal::Kind::kRelational) continue;
        const PredId q = lit.atom.pred;
        const int dl = static_cast<int>(li);
        if (!lit.negative) {
          if (SameStratum(q, s)) continue;  // fixpoint loop below
          if (auto it = removed->find(q);
              it != removed->end() && !it->second.empty()) {
            pr.matcher->ForEachMatch(old_view, kNoAdom, old_index, dl,
                                     &it->second, collect);
          }
        } else {
          if (auto it = added->find(q);
              it != added->end() && !it->second.empty()) {
            pr.flipped_matchers[li]->ForEachMatch(old_view, kNoAdom,
                                                  old_index, dl, &it->second,
                                                  collect);
          }
        }
      }
    }
    for (const auto& [p, rel] : base_removed) {
      if (!SameStratum(p, s)) continue;
      for (const Tuple& t : rel) overdelete(p, t);
    }
    // Same-stratum consumption: derivations through an overdeleted fact
    // are themselves overdeleted, to fixpoint.
    for (size_t qi = 0; qi < over_queue.size(); ++qi) {
      // A copy: the callbacks below may grow the queue.
      const std::pair<PredId, Tuple> item = over_queue[qi];
      const Tuple* one = &item.second;
      for (int ri : rule_idxs) {
        PreparedRule& pr = prepared_[static_cast<size_t>(ri)];
        const Atom& head = pr.rule->heads[0].atom;
        for (size_t li = 0; li < pr.rule->body.size(); ++li) {
          const Literal& lit = pr.rule->body[li];
          if (lit.kind != Literal::Kind::kRelational || lit.negative) {
            continue;
          }
          if (lit.atom.pred != item.first) continue;
          pr.matcher->ForEachMatch(
              old_view, kNoAdom, old_index, static_cast<int>(li), &one, 1,
              [&](const Valuation& val) -> bool {
                ++stats_.instantiations;
                overdelete(head.pred, InstantiateAtom(head, val));
                return true;
              });
        }
      }
    }
  }
  for (const auto& [p, rel] : over) {
    for (const Tuple& t : rel) model_.Erase(p, t);
  }

  // -- Rederivation ------------------------------------------------------
  // In sorted order: an overdeleted fact survives if it is still in the
  // base, its recorded first derivation is valid in the current model, or
  // a derivability query (head-append variant, early exit) succeeds.
  // Facts not overdeleted kept an untouched derivation, so a positive
  // premise that is *present* here is grounded — which is what makes the
  // provenance check sound.
  std::vector<std::pair<PredId, Tuple>> sorted_over = over_queue;
  std::sort(sorted_over.begin(), sorted_over.end());
  DeltaMap rederived;
  if (!internal::g_dred_skip_rederive) {
    for (const auto& [p, t] : sorted_over) {
      bool derivable = false;
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
      if (!derivable) {
        const Tuple* one = &t;
        for (int ri : rule_idxs) {
          PreparedRule& pr = prepared_[static_cast<size_t>(ri)];
          if (pr.rule->heads[0].atom.pred != p) continue;
          pr.head_matcher->ForEachMatch(new_view, kNoAdom, &index_, 0, &one,
                                        1, [&](const Valuation&) -> bool {
                                          ++stats_.instantiations;
                                          derivable = true;
                                          return false;
                                        });
          if (derivable) {
            ++stats_.rederived_query;
            break;
          }
        }
      }
      if (derivable) {
        model_.Insert(p, t);
        AddTo(&rederived, p, t);
      }
    }
  }

  // -- Insertion propagation (semi-naive within the stratum) ------------
  // First round: lower-stratum gains (and losses under negation) plus the
  // same-stratum delta of rederived and base-inserted facts; later
  // rounds: only the previous round's new facts. Productions are staged
  // per round — never mutate a relation a matcher is reading.
  auto in_over = [&](PredId p, const Tuple& t) {
    auto it = over.find(p);
    return it != over.end() && it->second.Contains(t);
  };
  DeltaMap cur = rederived;
  for (const auto& [p, rel] : base_added) {
    if (!SameStratum(p, s)) continue;
    for (const Tuple& t : rel) {
      if (model_.Contains(p, t)) continue;
      model_.Insert(p, t);
      AddTo(&cur, p, t);
      if (!in_over(p, t)) {
        AddTo(added, p, t);
        ++stats_.facts_added;
      }
    }
  }
  bool first = true;
  while (true) {
    DeltaMap staged;
    auto stage = [&](PredId hp, const Tuple& t) {
      if (model_.Contains(hp, t)) return;
      auto it = staged.find(hp);
      if (it == staged.end()) {
        it = staged.emplace(hp, Relation(catalog_->ArityOf(hp))).first;
      }
      it->second.Insert(t);
    };
    for (int ri : rule_idxs) {
      PreparedRule& pr = prepared_[static_cast<size_t>(ri)];
      const Atom& head = pr.rule->heads[0].atom;
      auto produce = [&](const Valuation& val) -> bool {
        ++stats_.instantiations;
        stage(head.pred, InstantiateAtom(head, val));
        return true;
      };
      for (size_t li = 0; li < pr.rule->body.size(); ++li) {
        const Literal& lit = pr.rule->body[li];
        if (lit.kind != Literal::Kind::kRelational) continue;
        const PredId q = lit.atom.pred;
        const int dl = static_cast<int>(li);
        if (lit.negative) {
          if (!first) continue;
          if (auto it = removed->find(q);
              it != removed->end() && !it->second.empty()) {
            pr.flipped_matchers[li]->ForEachMatch(new_view, kNoAdom, &index_,
                                                  dl, &it->second, produce);
          }
          continue;
        }
        if (SameStratum(q, s)) {
          if (auto it = cur.find(q);
              it != cur.end() && !it->second.empty()) {
            pr.matcher->ForEachMatch(new_view, kNoAdom, &index_, dl,
                                     &it->second, produce);
          }
        } else if (first) {
          if (auto it = added->find(q);
              it != added->end() && !it->second.empty()) {
            pr.matcher->ForEachMatch(new_view, kNoAdom, &index_, dl,
                                     &it->second, produce);
          }
        }
      }
    }
    first = false;
    cur.clear();
    for (const auto& [p, rel] : staged) {
      for (const Tuple& t : rel) {
        model_.Insert(p, t);
        AddTo(&cur, p, t);
        if (!in_over(p, t)) {
          AddTo(added, p, t);
          ++stats_.facts_added;
        }
      }
    }
    if (cur.empty()) break;
  }

  // Net losses: overdeleted facts that neither rederivation nor the
  // insertion rounds brought back.
  for (const auto& [p, rel] : over) {
    for (const Tuple& t : rel) {
      if (model_.Contains(p, t)) continue;
      AddTo(removed, p, t);
      ++stats_.facts_removed;
    }
  }
}

}  // namespace datalog
