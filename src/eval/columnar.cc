#include "eval/columnar.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>
#include <set>

#include "obs/trace.h"
#include "ra/storage/column_store.h"

namespace datalog {
namespace columnar {

namespace {

/// Row indices of a flat row-major buffer, in lexicographic row order.
std::vector<size_t> SortedRowOrder(int arity, size_t rows,
                                   const std::vector<Value>& values) {
  std::vector<size_t> order(rows);
  std::iota(order.begin(), order.end(), size_t{0});
  if (arity == 0) return order;
  const size_t stride = static_cast<size_t>(arity);
  const Value* base = values.data();
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Value* ra = base + a * stride;
    const Value* rb = base + b * stride;
    return std::lexicographical_compare(ra, ra + stride, rb, rb + stride);
  });
  return order;
}

bool RowsEqual(const Value* a, const Value* b, size_t stride) {
  for (size_t c = 0; c < stride; ++c) {
    if (a[c] != b[c]) return false;
  }
  return true;
}

/// True when the flat rows are already in (non-strict) lexicographic
/// order — the common case for merge-join output, whose delta rows are
/// probed in ascending key order. Lets Phase B skip building the sort
/// permutation entirely.
bool RowsSorted(int arity, size_t rows, const std::vector<Value>& values) {
  if (arity == 0 || rows < 2) return true;
  const size_t stride = static_cast<size_t>(arity);
  const Value* prev = values.data();
  const Value* cur = prev + stride;
  for (size_t r = 1; r < rows; ++r, prev = cur, cur += stride) {
    if (std::lexicographical_compare(cur, cur + stride, prev, prev + stride)) {
      return false;
    }
  }
  return true;
}

}  // namespace

DeltaEngine::DeltaEngine(const std::vector<int>& rule_indexes,
                         const std::vector<const Rule*>& rules,
                         const std::vector<RuleMatcher>* matchers,
                         const std::vector<PredId>& recursive_preds)
    : rule_indexes_(rule_indexes),
      rules_(rules),
      matchers_(matchers),
      recursive_preds_(recursive_preds),
      recursive_(recursive_preds.begin(), recursive_preds.end()) {
  plans_.resize(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) PlanRule(i);
}

void DeltaEngine::PlanRule(size_t i) {
  const Rule& rule = *rules_[i];
  RulePlan& rp = plans_[i];
  const Atom& head = rule.heads[0].atom;
  rp.head_pred = head.pred;
  rp.head_arity = static_cast<int>(head.terms.size());
  for (const Term& t : head.terms) {
    ValueSrc src;
    if (t.is_var()) {
      src.var = t.var;
    } else {
      src.is_const = true;
      src.constant = t.constant;
    }
    rp.head.push_back(src);
  }

  const auto bail = [&rp] {
    rp.fallback = true;
    rp.plans.clear();
  };

  // Shape gate for the fast path: ≤2 positive relational literals of
  // arity ≥ 1, no ∀-prefix, no negation/equality, and a head bound
  // entirely by the body atoms. Everything else runs through the generic
  // matcher — the fast path is an optimization, never a semantics change.
  if (!rule.universal_vars.empty()) return bail();
  std::vector<int> positives;
  for (size_t li = 0; li < rule.body.size(); ++li) {
    const Literal& lit = rule.body[li];
    if (lit.kind != Literal::Kind::kRelational || lit.negative) return bail();
    if (lit.atom.terms.empty()) return bail();
    positives.push_back(static_cast<int>(li));
  }
  if (positives.empty() || positives.size() > 2) return bail();

  std::set<int> body_vars;
  for (int li : positives) {
    for (const Term& t : rule.body[static_cast<size_t>(li)].atom.terms) {
      if (t.is_var()) body_vars.insert(t.var);
    }
  }
  for (const ValueSrc& src : rp.head) {
    if (!src.is_const && body_vars.count(src.var) == 0) return bail();
  }

  // One plan per recursive positive literal (the semi-naive delta sites).
  for (int li : positives) {
    const Atom& datom = rule.body[static_cast<size_t>(li)].atom;
    if (recursive_.count(datom.pred) == 0) continue;
    Plan plan;
    plan.delta_literal = li;
    plan.delta_pred = datom.pred;
    std::vector<char> delta_bound(static_cast<size_t>(rule.num_vars), 0);
    for (size_t c = 0; c < datom.terms.size(); ++c) {
      const Term& t = datom.terms[c];
      ColOp op;
      op.col = static_cast<int>(c);
      if (!t.is_var()) {
        op.kind = ColOp::Kind::kCheckConst;
        op.constant = t.constant;
      } else if (delta_bound[static_cast<size_t>(t.var)] != 0) {
        op.kind = ColOp::Kind::kCheckVar;
        op.var = t.var;
      } else {
        op.kind = ColOp::Kind::kBind;
        op.var = t.var;
        delta_bound[static_cast<size_t>(t.var)] = 1;
      }
      plan.delta_cols.push_back(op);
    }
    if (positives.size() == 1) {
      plan.kind = Plan::Kind::kDeltaScan;
      rp.plans.push_back(std::move(plan));
      continue;
    }

    const int oli = positives[0] == li ? positives[1] : positives[0];
    const Atom& oatom = rule.body[static_cast<size_t>(oli)].atom;
    plan.other_pred = oatom.pred;
    // Columns of the other atom whose value the delta row (or a rule
    // constant) determines become the sorted view's key; the remaining
    // columns bind or equality-check the still-free variables.
    std::vector<char> other_bound = delta_bound;
    for (size_t c = 0; c < oatom.terms.size(); ++c) {
      const Term& t = oatom.terms[c];
      if (!t.is_var()) {
        plan.key_cols.push_back(static_cast<int>(c));
        ValueSrc src;
        src.is_const = true;
        src.constant = t.constant;
        plan.key_src.push_back(src);
      } else if (delta_bound[static_cast<size_t>(t.var)] != 0) {
        plan.key_cols.push_back(static_cast<int>(c));
        ValueSrc src;
        src.var = t.var;
        plan.key_src.push_back(src);
      } else {
        ColOp op;
        op.col = static_cast<int>(c);
        op.var = t.var;
        if (other_bound[static_cast<size_t>(t.var)] != 0) {
          op.kind = ColOp::Kind::kCheckVar;
        } else {
          op.kind = ColOp::Kind::kBind;
          other_bound[static_cast<size_t>(t.var)] = 1;
        }
        plan.other_cols.push_back(op);
      }
    }
    if (oatom.terms.size() == 1 && plan.key_cols.size() == 1) {
      plan.kind = Plan::Kind::kBitmapSemiJoin;
      plan.probe = plan.key_src[0];
    } else {
      plan.kind = Plan::Kind::kMergeJoin;
    }
    rp.plans.push_back(std::move(plan));
  }
}

void DeltaEngine::SeedDelta(const Instance& fresh) {
  delta_.clear();
  for (PredId p : recursive_preds_) {
    const Relation& rel = fresh.Rel(p);
    if (rel.empty()) continue;
    FlatDelta fd;
    fd.arity = rel.arity();
    fd.rows = rel.size();
    fd.values.reserve(rel.size() * static_cast<size_t>(rel.arity()));
    for (const Tuple& t : rel.Sorted()) {
      fd.values.insert(fd.values.end(), t.begin(), t.end());
    }
    delta_.emplace(p, std::move(fd));
  }
}

void DeltaEngine::ExecutePlan(const Plan& plan, const RulePlan& rp,
                              const FlatDelta& delta, const Instance& db,
                              EvalContext* ctx, std::vector<Value>* val,
                              Candidates* out) const {
  using storage::SortedView;
  const SortedView* other = nullptr;
  const storage::ValueBitmap* bitmap = nullptr;
  if (plan.kind == Plan::Kind::kMergeJoin) {
    other = &ctx->column_store.View(db, plan.other_pred, plan.key_cols);
  } else if (plan.kind == Plan::Kind::kBitmapSemiJoin) {
    bitmap = ctx->index.UnaryBitmap(db, plan.other_pred);
    assert(bitmap != nullptr);
  }

  std::vector<Value>& v = *val;
  const auto emit = [&v, &rp, out] {
    for (const ValueSrc& h : rp.head) {
      out->values.push_back(h.is_const ? h.constant
                                       : v[static_cast<size_t>(h.var)]);
    }
    ++out->rows;
  };

  std::vector<SortedView::Range> ranges;
  std::vector<Value> key(plan.key_cols.size());
  const size_t stride = static_cast<size_t>(delta.arity);
  const Value* row = delta.values.data();
  for (size_t r = 0; r < delta.rows; ++r, row += stride) {
    bool ok = true;
    for (const ColOp& op : plan.delta_cols) {
      const Value x = row[op.col];
      switch (op.kind) {
        case ColOp::Kind::kBind:
          v[static_cast<size_t>(op.var)] = x;
          break;
        case ColOp::Kind::kCheckVar:
          ok = x == v[static_cast<size_t>(op.var)];
          break;
        case ColOp::Kind::kCheckConst:
          ok = x == op.constant;
          break;
      }
      if (!ok) break;
    }
    if (!ok) continue;
    switch (plan.kind) {
      case Plan::Kind::kDeltaScan:
        emit();
        break;
      case Plan::Kind::kBitmapSemiJoin: {
        const Value probe = plan.probe.is_const
                                ? plan.probe.constant
                                : v[static_cast<size_t>(plan.probe.var)];
        if (bitmap->Contains(probe)) emit();
        break;
      }
      case Plan::Kind::kMergeJoin: {
        for (size_t k = 0; k < key.size(); ++k) {
          key[k] = plan.key_src[k].is_const
                       ? plan.key_src[k].constant
                       : v[static_cast<size_t>(plan.key_src[k].var)];
        }
        ranges.clear();
        other->FindRanges(key.data(), &ranges);
        for (const SortedView::Range& rg : ranges) {
          for (size_t orow = rg.begin; orow < rg.end; ++orow) {
            bool o_ok = true;
            for (const ColOp& op : plan.other_cols) {
              const Value x = rg.run->cols[static_cast<size_t>(op.col)][orow];
              if (op.kind == ColOp::Kind::kBind) {
                v[static_cast<size_t>(op.var)] = x;
              } else if (x != v[static_cast<size_t>(op.var)]) {
                o_ok = false;
                break;
              }
            }
            if (o_ok) emit();
          }
        }
        break;
      }
    }
  }
}

storage::RowSet& DeltaEngine::SeenFor(PredId p, const Instance& db) {
  storage::RowSet& seen = seen_[p];
  if (!seen.initialized()) seen.Init(db.Rel(p));
  return seen;
}

int64_t DeltaEngine::Round(const Program& program, Instance* db,
                           EvalContext* ctx, int skip_rule) {
  EvalStats& st = ctx->stats;
  // The active domain walks every relation's journal — forcing staged
  // rows to materialize — and only fallback rules consume it, so it is
  // computed on their first live delta rather than per round.
  const std::vector<Value>* adom = nullptr;
  DbView view{db, db};

  // Phase A: enumerate every match, buffering candidate head rows per
  // rule. Nothing is inserted yet, so every probe below sees the
  // round-start database — exactly what the hash path's per-match
  // produced-check sees.
  std::vector<Candidates> cand(rules_.size());
  std::vector<Value> val;
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (rule_indexes_[i] == skip_rule) continue;
    const Rule& rule = *rules_[i];
    const RulePlan& rp = plans_[i];
    OBS_SPAN("seminaive.rule", {{"rule", rule_indexes_[i]}});
    if (rp.fallback) {
      const auto sink = [&](const Valuation& bound) -> bool {
        for (const ValueSrc& h : rp.head) {
          cand[i].values.push_back(
              h.is_const ? h.constant : bound[static_cast<size_t>(h.var)]);
        }
        ++cand[i].rows;
        return true;
      };
      for (size_t li = 0; li < rule.body.size(); ++li) {
        const Literal& lit = rule.body[li];
        if (lit.kind != Literal::Kind::kRelational || lit.negative) continue;
        if (recursive_.count(lit.atom.pred) == 0) continue;
        auto dit = delta_.find(lit.atom.pred);
        if (dit == delta_.end()) continue;
        if (adom == nullptr) adom = &ctx->Adom(program, *db);
        (*matchers_)[i].ForEachMatch(view, *adom, &ctx->index,
                                     static_cast<int>(li),
                                     dit->second.values.data(),
                                     dit->second.rows, sink);
      }
    } else {
      val.assign(static_cast<size_t>(rule.num_vars), kUnboundValue);
      for (const Plan& plan : rp.plans) {
        auto dit = delta_.find(plan.delta_pred);
        if (dit == delta_.end()) continue;
        ExecutePlan(plan, rp, dit->second, *db, ctx, &val, &cand[i]);
      }
    }
    st.instantiations += static_cast<int64_t>(cand[i].rows);
    st.per_rule[static_cast<size_t>(rule_indexes_[i])].matches +=
        static_cast<int64_t>(cand[i].rows);
  }

  // Phase B: sort each rule's candidates, deduplicate, and count
  // `tuples_produced` against the (still round-start) database — every
  // match of a not-yet-present tuple counts, duplicates included, to
  // mirror the per-match semantics of the hash path.
  struct NewRows {
    std::vector<Value> values;
    size_t rows = 0;
  };
  std::vector<NewRows> fresh_rows(rules_.size());
  Tuple scratch;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const Candidates& c = cand[i];
    if (c.rows == 0) continue;
    const RulePlan& rp = plans_[i];
    int64_t produced = 0;
    if (rp.head_arity == 0) {
      scratch.clear();
      if (!db->Rel(rp.head_pred).Contains(scratch)) {
        produced = static_cast<int64_t>(c.rows);
        fresh_rows[i].rows = 1;
      }
    } else {
      const storage::RowSet& seen = SeenFor(rp.head_pred, *db);
      const size_t stride = static_cast<size_t>(rp.head_arity);
      // Merge-join output arrives presorted (delta rows are probed in
      // ascending key order); the sort permutation is only built when a
      // plan actually produced out-of-order rows.
      const bool presorted = RowsSorted(rp.head_arity, c.rows, c.values);
      std::vector<size_t> order;
      if (!presorted) order = SortedRowOrder(rp.head_arity, c.rows, c.values);
      const Value* base = c.values.data();
      const Value* prev = nullptr;
      bool cur_new = false;
      for (size_t k = 0; k < c.rows; ++k) {
        const size_t r = presorted ? k : order[k];
        const Value* crow = base + r * stride;
        if (prev == nullptr || !RowsEqual(prev, crow, stride)) {
          cur_new = !seen.Contains(crow);
          if (cur_new) {
            fresh_rows[i].values.insert(fresh_rows[i].values.end(), crow,
                                        crow + stride);
            ++fresh_rows[i].rows;
          }
          prev = crow;
        }
        if (cur_new) ++produced;
      }
    }
    st.per_rule[static_cast<size_t>(rule_indexes_[i])].tuples_produced +=
        produced;
  }

  // Phase C: insert the new rows (rules in order, like the sequential
  // merge of the hash path — the first rule producing a tuple wins) and
  // assemble the next delta from the facts that were actually new. For
  // arity >= 1 heads the accepted rows go through the membership set —
  // which handles cross-rule duplicates exactly — and are then *staged*
  // into the relation as flat values (Relation::AppendStagedRows): the
  // per-tuple hash build that dominates the hash backend's round cost is
  // deferred until some consumer actually needs tuple-level access.
  int64_t added = 0;
  std::unordered_map<PredId, FlatDelta> next;
  std::vector<Value> accepted;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const NewRows& nr = fresh_rows[i];
    if (nr.rows == 0) continue;
    const RulePlan& rp = plans_[i];
    const size_t stride = static_cast<size_t>(rp.head_arity);
    const bool rec = recursive_.count(rp.head_pred) != 0;
    FlatDelta* nd = nullptr;
    if (rec) {
      nd = &next[rp.head_pred];
      nd->arity = rp.head_arity;
    }
    if (rp.head_arity == 0) {
      if (db->Insert(rp.head_pred, Tuple())) {
        ++added;
        if (rec) ++nd->rows;
      }
      continue;
    }
    storage::RowSet& seen = SeenFor(rp.head_pred, *db);
    accepted.clear();
    size_t accepted_rows = 0;
    const Value* base = nr.values.data();
    for (size_t r = 0; r < nr.rows; ++r, base += stride) {
      if (seen.Insert(base)) {
        accepted.insert(accepted.end(), base, base + stride);
        ++accepted_rows;
      }
    }
    if (accepted_rows == 0) continue;
    added += static_cast<int64_t>(accepted_rows);
    db->MutableRel(rp.head_pred)
        ->AppendStagedRows(accepted.data(), accepted_rows);
    if (rec) {
      nd->values.insert(nd->values.end(), accepted.begin(), accepted.end());
      nd->rows += accepted_rows;
    }
  }
  for (auto it = next.begin(); it != next.end();) {
    it = it->second.rows == 0 ? next.erase(it) : std::next(it);
  }
  // Per-rule new rows are sorted, so a delta fed by a single rule already
  // is too; only merged multi-rule deltas need the re-sort that keeps the
  // next round probing in ascending key order.
  for (auto& [p, fd] : next) {
    if (fd.arity > 0 && fd.rows > 1 &&
        !RowsSorted(fd.arity, fd.rows, fd.values)) {
      const std::vector<size_t> order =
          SortedRowOrder(fd.arity, fd.rows, fd.values);
      std::vector<Value> sorted;
      sorted.reserve(fd.values.size());
      const size_t stride = static_cast<size_t>(fd.arity);
      for (size_t r : order) {
        const Value* rbase = fd.values.data() + r * stride;
        sorted.insert(sorted.end(), rbase, rbase + stride);
      }
      fd.values = std::move(sorted);
    }
  }
  delta_ = std::move(next);
  return added;
}

}  // namespace columnar
}  // namespace datalog
