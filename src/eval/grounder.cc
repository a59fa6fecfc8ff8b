#include "eval/grounder.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <set>
#include <span>

namespace datalog {

RuleMatcher::RuleMatcher(const Rule* rule) : rule_(rule) {
  is_forall_ = !rule->universal_vars.empty();
  for (size_t i = 0; i < rule->body.size(); ++i) {
    const Literal& lit = rule->body[i];
    if (lit.kind == Literal::Kind::kRelational && !lit.negative) {
      assert(lit.atom.terms.size() <= 32 && "arity above index-mask limit");
      positive_literals_.push_back(static_cast<int>(i));
    } else {
      check_literals_.push_back(static_cast<int>(i));
    }
  }
  for (int v : rule->BodyVars()) enumerable_vars_.push_back(v);
}

namespace {

size_t Slot(int index) { return static_cast<size_t>(index); }

/// Value of a term under a partial valuation, or kUnboundValue.
Value TermValue(const Term& t, const Valuation& val) {
  return t.is_var() ? val[Slot(t.var)] : t.constant;
}

/// Writes `atom` instantiated under `val` into `out`, reusing its storage.
void InstantiateInto(const Atom& atom, const Valuation& val, Tuple* out) {
  out->clear();
  for (const Term& term : atom.terms) {
    Value v = TermValue(term, val);
    assert(v != kUnboundValue && "atom instantiated under partial valuation");
    out->push_back(v);
  }
}

/// The rows `set` holds for `p`, or null (also when `set` is).
const storage::RowSet* OverlayRows(const storage::FactSet* set, PredId p) {
  return set != nullptr ? set->Find(p) : nullptr;
}

/// Whether p(t) is in `db` as the view's overlay shows it.
bool OverlayContains(const DbView& view, const Instance& db, PredId p,
                     const Tuple& t) {
  if (view.extra != nullptr && view.extra->Contains(p, t)) return true;
  if (view.hidden != nullptr && view.hidden->Contains(p, t)) return false;
  return db.Contains(p, t);
}

}  // namespace

/// Everything one ForEachMatch call mutates. The scratch stacks are
/// shared by the whole backtracking search and unwound to a mark, so
/// nothing is allocated per tried tuple or per check pass; the state
/// itself is recycled across calls (StateLease).
struct RuleMatcher::MatchState {
  const DbView* view = nullptr;
  const std::vector<Value>* adom = nullptr;
  IndexManager* index = nullptr;
  int delta_literal = -1;
  /// What the delta literal iterates: the `delta_count` tuples at
  /// `delta_tuples`, or — when that is null — as many flat rows at
  /// `delta_values` (null for arity 0).
  const Value* delta_values = nullptr;
  const Tuple* const* delta_tuples = nullptr;
  size_t delta_count = 0;
  const std::function<bool(const Valuation&)>* cb = nullptr;
  Valuation val;
  std::vector<bool> literal_done;  // indexed like rule_->body
  int positives_remaining = 0;
  bool aborted = false;
  /// Variables bound by unifying positive literals with tuples.
  std::vector<int> trail;
  /// What ApplyPendingChecks did: check literals marked done (>= 0) and
  /// variables bound by equalities (~var).
  std::vector<int> applied;
  /// An index key, membership probe or negated-literal probe. Dead once
  /// its lookup returns, so the recursion below may reuse it.
  Tuple probe;

  void Bind(int var, Value value) {
    val[Slot(var)] = value;
    trail.push_back(var);
  }
  void UnwindTrail(size_t mark) {
    while (trail.size() > mark) {
      val[Slot(trail.back())] = kUnboundValue;
      trail.pop_back();
    }
  }
  void UnwindApplied(size_t mark) {
    while (applied.size() > mark) {
      const int entry = applied.back();
      applied.pop_back();
      if (entry >= 0) {
        literal_done[Slot(entry)] = false;
      } else {
        val[Slot(~entry)] = kUnboundValue;
      }
    }
  }
};

template <bool kOverlay>
bool RuleMatcher::CheckLiteral(const Literal& lit, const Valuation& val,
                               const DbView& view, Tuple* probe) const {
  switch (lit.kind) {
    case Literal::Kind::kEquality: {
      Value l = TermValue(lit.lhs, val);
      Value r = TermValue(lit.rhs, val);
      assert(l != kUnboundValue && r != kUnboundValue);
      return (l == r) != lit.negative;
    }
    case Literal::Kind::kRelational: {
      InstantiateInto(lit.atom, val, probe);
      const Instance* db = lit.negative ? view.negatives : view.positives;
      if constexpr (kOverlay) {
        return OverlayContains(view, *db, lit.atom.pred, *probe) !=
               lit.negative;
      }
      return db->Contains(lit.atom.pred, *probe) != lit.negative;
    }
    case Literal::Kind::kBottom:
      assert(false && "bottom cannot appear in a body");
      return false;
  }
  return false;
}

/// Applies every pending check literal whose variables are bound; positive
/// equalities with exactly one unbound side *bind* it. Pushes what it did
/// onto `state->applied`, which the caller unwinds to its mark whatever
/// the outcome. Returns false if some check fails (branch dies).
template <bool kOverlay>
bool RuleMatcher::ApplyPendingChecks(MatchState* state) const {
  Valuation& val = state->val;
  bool progress = true;
  while (progress) {
    progress = false;
    for (int li : check_literals_) {
      if (state->literal_done[Slot(li)]) continue;
      const Literal& lit = rule_->body[Slot(li)];
      if (lit.kind == Literal::Kind::kEquality) {
        Value l = TermValue(lit.lhs, val);
        Value r = TermValue(lit.rhs, val);
        if (l != kUnboundValue && r != kUnboundValue) {
          if ((l == r) == lit.negative) return false;
        } else if (!lit.negative && l != kUnboundValue && lit.rhs.is_var()) {
          val[Slot(lit.rhs.var)] = l;
          state->applied.push_back(~lit.rhs.var);
        } else if (!lit.negative && r != kUnboundValue && lit.lhs.is_var()) {
          val[Slot(lit.lhs.var)] = r;
          state->applied.push_back(~lit.lhs.var);
        } else {
          continue;
        }
      } else {  // negative relational literal
        bool all_bound = true;
        for (const Term& t : lit.atom.terms) {
          if (TermValue(t, val) == kUnboundValue) {
            all_bound = false;
            break;
          }
        }
        if (!all_bound) continue;
        if (!CheckLiteral<kOverlay>(lit, val, *state->view, &state->probe)) {
          return false;
        }
      }
      state->literal_done[Slot(li)] = true;
      state->applied.push_back(li);
      progress = true;
    }
  }
  return true;
}

template <bool kOverlay>
bool RuleMatcher::MatchPositives(MatchState* state) const {
  const size_t applied_mark = state->applied.size();
  if (!ApplyPendingChecks<kOverlay>(state)) {
    state->UnwindApplied(applied_mark);
    return true;  // this branch fails; continue exploring others
  }
  bool keep_going = true;
  if (state->positives_remaining == 0) {
    keep_going = EnumerateFree<kOverlay>(state, 0);
    state->UnwindApplied(applied_mark);
    return keep_going;
  }

  // Pick the next positive literal: the forced delta literal first,
  // otherwise the one with the most bound columns (tie: smaller relation).
  int best = -1;
  uint32_t best_mask = 0;
  int best_bound = -1;
  size_t best_size = 0;
  for (int li : positive_literals_) {
    if (state->literal_done[Slot(li)]) continue;
    if (li == state->delta_literal) {
      best = li;
      best_mask = 0;  // unused: the delta literal scans its tuples
      break;
    }
    const Literal& lit = rule_->body[Slot(li)];
    uint32_t mask = 0;
    int bound = 0;
    for (size_t c = 0; c < lit.atom.terms.size(); ++c) {
      if (TermValue(lit.atom.terms[c], state->val) != kUnboundValue) {
        mask |= 1u << c;
        ++bound;
      }
    }
    size_t size = state->view->positives->Rel(lit.atom.pred).size();
    if constexpr (kOverlay) {
      const storage::RowSet* hidden =
          OverlayRows(state->view->hidden, lit.atom.pred);
      const storage::RowSet* extra =
          OverlayRows(state->view->extra, lit.atom.pred);
      if (hidden != nullptr) size -= std::min(size, hidden->rows());
      if (extra != nullptr) size += extra->rows();
    }
    if (bound > best_bound || (bound == best_bound && size < best_size)) {
      best = li;
      best_mask = mask;
      best_bound = bound;
      best_size = size;
    }
  }
  assert(best >= 0);
  const Literal& lit = rule_->body[Slot(best)];
  const Atom& atom = lit.atom;
  const size_t arity = atom.terms.size();
  state->literal_done[Slot(best)] = true;
  --state->positives_remaining;

  // Unifies `row` (`arity` values) with the atom under the current
  // valuation; on success recurses. Returns false to stop all matching
  // (callback said stop).
  auto try_row = [&](const Value* row) -> bool {
    const size_t trail_mark = state->trail.size();
    bool match = true;
    for (size_t c = 0; c < arity; ++c) {
      const Term& term = atom.terms[c];
      Value bound_value = TermValue(term, state->val);
      if (bound_value == kUnboundValue) {
        state->Bind(term.var, row[c]);
      } else if (bound_value != row[c]) {
        match = false;
        break;
      }
    }
    bool cont = true;
    if (match) cont = MatchPositives<kOverlay>(state);
    state->UnwindTrail(trail_mark);
    return cont;
  };

  if (best == state->delta_literal) {
    for (size_t i = 0; i < state->delta_count; ++i) {
      const Value* row = state->delta_tuples != nullptr
                             ? state->delta_tuples[i]->data()
                             : state->delta_values + i * arity;
      if (!try_row(row)) {
        keep_going = false;
        break;
      }
    }
  } else {
    // The bound values in column order: the index key, or — when every
    // column is bound — the instantiated atom itself.
    Tuple& key = state->probe;
    key.clear();
    for (size_t c = 0; c < arity; ++c) {
      Value v = TermValue(atom.terms[c], state->val);
      if (v != kUnboundValue) key.push_back(v);
    }
    if (key.size() == arity) {
      bool present;
      if constexpr (kOverlay) {
        present = OverlayContains(*state->view, *state->view->positives,
                                  atom.pred, key);
      } else {
        present = state->view->positives->Contains(atom.pred, key);
      }
      if (present) keep_going = MatchPositives<kOverlay>(state);
    } else {
      const IndexManager::Bucket* bucket = state->index->Lookup(
          *state->view->positives, atom.pred, best_mask, key);
      if constexpr (kOverlay) {
        // The bucket minus the hidden rows, then the extra rows with the
        // same key, found first: the recursion below reuses `key`.
        const storage::RowSet* hidden =
            OverlayRows(state->view->hidden, atom.pred);
        const storage::RowSet* extra =
            OverlayRows(state->view->extra, atom.pred);
        const std::span<const uint32_t> extra_rows =
            extra != nullptr ? extra->RowsMatching(best_mask, key)
                             : std::span<const uint32_t>();
        if (bucket != nullptr) {
          for (const Tuple* t : *bucket) {
            if (hidden != nullptr && hidden->Contains(t->data())) continue;
            keep_going = try_row(t->data());
            if (!keep_going) break;
          }
        }
        for (size_t i = 0; keep_going && i < extra_rows.size(); ++i) {
          keep_going = try_row(extra->data() + extra_rows[i] * arity);
        }
      } else if (bucket != nullptr) {
        for (const Tuple* t : *bucket) {
          if (!try_row(t->data())) {
            keep_going = false;
            break;
          }
        }
      }
    }
  }

  ++state->positives_remaining;
  state->literal_done[Slot(best)] = false;
  state->UnwindApplied(applied_mark);
  return keep_going;
}

template <bool kOverlay>
bool RuleMatcher::EnumerateFree(MatchState* state, size_t next_var) const {
  while (next_var < enumerable_vars_.size() &&
         state->val[Slot(enumerable_vars_[next_var])] != kUnboundValue) {
    ++next_var;
  }
  if (next_var == enumerable_vars_.size()) {
    // Everything bound: apply remaining checks, then emit.
    const size_t mark = state->applied.size();
    if (ApplyPendingChecks<kOverlay>(state)) {
      // All checks must have been applicable now.
      for (int li : check_literals_) {
        (void)li;
        assert(state->literal_done[Slot(li)]);
      }
      if (!(*state->cb)(state->val)) state->aborted = true;
    }
    state->UnwindApplied(mark);
    return !state->aborted;
  }
  const size_t var = Slot(enumerable_vars_[next_var]);
  for (Value v : *state->adom) {
    state->val[var] = v;
    // Prune eagerly: checks that became decidable may already fail.
    const size_t mark = state->applied.size();
    bool cont = true;
    if (ApplyPendingChecks<kOverlay>(state)) {
      cont = EnumerateFree<kOverlay>(state, next_var + 1);
    }
    state->UnwindApplied(mark);
    state->val[var] = kUnboundValue;
    if (!cont) return false;
  }
  return true;
}

bool RuleMatcher::BodyHolds(const Valuation& val, const DbView& view,
                            Tuple* probe) const {
  for (const Literal& lit : rule_->body) {
    if (!CheckLiteral<false>(lit, val, view, probe)) return false;
  }
  return true;
}

bool RuleMatcher::MatchForall(
    const DbView& view, const std::vector<Value>& adom,
    const std::function<bool(const Valuation&)>& cb) const {
  // Free variables: body variables not under the ∀.
  std::vector<int> free_vars;
  std::set<int> universal(rule_->universal_vars.begin(),
                          rule_->universal_vars.end());
  for (int v : enumerable_vars_) {
    if (!universal.count(v)) free_vars.push_back(v);
  }
  Valuation val(Slot(rule_->num_vars), kUnboundValue);
  Tuple probe;

  // Checks whether the body holds for every extension of the universal
  // variables over adom (vacuously true when adom is empty).
  std::function<bool(size_t)> all_extensions = [&](size_t i) -> bool {
    if (i == rule_->universal_vars.size()) {
      return BodyHolds(val, view, &probe);
    }
    const size_t var = Slot(rule_->universal_vars[i]);
    for (Value v : adom) {
      val[var] = v;
      bool holds = all_extensions(i + 1);
      val[var] = kUnboundValue;
      if (!holds) return false;
    }
    return true;
  };

  std::function<bool(size_t)> enum_free = [&](size_t i) -> bool {
    if (i == free_vars.size()) {
      if (all_extensions(0)) {
        if (!cb(val)) return false;
      }
      return true;
    }
    const size_t var = Slot(free_vars[i]);
    for (Value v : adom) {
      val[var] = v;
      bool cont = enum_free(i + 1);
      val[var] = kUnboundValue;
      if (!cont) return false;
    }
    return true;
  };
  return enum_free(0);
}

/// A MatchState leased from the calling thread's free list for one call
/// and returned on exit. A warm call reuses a state's vectors and so
/// allocates nothing; a callback that re-enters the matcher leases
/// another state; states never cross threads, and a thread's list is
/// freed when the thread exits.
class RuleMatcher::StateLease {
 public:
  StateLease() {
    std::vector<std::unique_ptr<MatchState>>& free = FreeList();
    if (free.empty()) {
      // Room to take back every state this thread owns, so that the
      // destructor never allocates.
      free.reserve(free.capacity() + 1);
      state_ = std::make_unique<MatchState>();
    } else {
      state_ = std::move(free.back());
      free.pop_back();
    }
  }
  ~StateLease() { FreeList().push_back(std::move(state_)); }
  StateLease(const StateLease&) = delete;
  StateLease& operator=(const StateLease&) = delete;

  MatchState* get() const { return state_.get(); }

 private:
  static std::vector<std::unique_ptr<MatchState>>& FreeList() {
    thread_local std::vector<std::unique_ptr<MatchState>> free;
    return free;
  }

  std::unique_ptr<MatchState> state_;
};

void RuleMatcher::Match(const DbView& view, const std::vector<Value>& adom,
                        IndexManager* index, int delta_literal,
                        const Value* delta_values,
                        const Tuple* const* delta_tuples, size_t delta_count,
                        const std::function<bool(const Valuation&)>& cb) const {
  StateLease lease;
  MatchState* state = lease.get();
  state->view = &view;
  state->adom = &adom;
  state->index = index;
  state->delta_literal = delta_literal;
  state->delta_values = delta_values;
  state->delta_tuples = delta_tuples;
  state->delta_count = delta_count;
  state->cb = &cb;
  state->val.assign(Slot(rule_->num_vars), kUnboundValue);
  state->literal_done.assign(rule_->body.size(), false);
  state->positives_remaining = static_cast<int>(positive_literals_.size());
  state->aborted = false;
  state->trail.clear();
  state->applied.clear();
  if (view.has_overlay()) {
    MatchPositives<true>(state);
  } else {
    MatchPositives<false>(state);
  }
}

void RuleMatcher::ForEachMatch(
    const DbView& view, const std::vector<Value>& adom, IndexManager* index,
    int delta_literal, const Value* delta_values, size_t delta_rows,
    const std::function<bool(const Valuation&)>& cb) const {
  assert(!is_forall_ && "semi-naive deltas unsupported for ∀ rules");
  assert(delta_literal >= 0);
  Match(view, adom, index, delta_literal, delta_values, nullptr, delta_rows,
        cb);
}

void RuleMatcher::ForEachMatch(
    const DbView& view, const std::vector<Value>& adom, IndexManager* index,
    int delta_literal, const Tuple* const* delta_tuples, size_t delta_count,
    const std::function<bool(const Valuation&)>& cb) const {
  assert(!is_forall_ && "semi-naive deltas unsupported for ∀ rules");
  assert(delta_literal >= 0);
  Match(view, adom, index, delta_literal, nullptr, delta_tuples, delta_count,
        cb);
}

void RuleMatcher::ForEachMatch(
    const DbView& view, const std::vector<Value>& adom, IndexManager* index,
    const std::function<bool(const Valuation&)>& cb) const {
  if (is_forall_) {
    assert(!view.has_overlay() && "∀ rules read no overlay");
    MatchForall(view, adom, cb);
    return;
  }
  Match(view, adom, index, /*delta_literal=*/-1, nullptr, nullptr, 0, cb);
}

Tuple InstantiateAtom(const Atom& atom, const Valuation& val) {
  Tuple t;
  t.reserve(atom.terms.size());
  InstantiateInto(atom, val, &t);
  return t;
}

std::vector<Value> ActiveDomain(const Program& program,
                                const Instance& instance) {
  std::set<Value> dom = instance.ActiveDomain();
  dom.insert(program.constants.begin(), program.constants.end());
  return std::vector<Value>(dom.begin(), dom.end());
}

}  // namespace datalog
