#ifndef UNCHAINED_EVAL_GROUNDER_H_
#define UNCHAINED_EVAL_GROUNDER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "ast/ast.h"
#include "ra/index.h"
#include "ra/instance.h"
#include "ra/storage/row_set.h"

namespace datalog {

/// A (partial) valuation ν of a rule's variables: `valuation[v]` is the
/// value bound to variable v, or `kUnboundValue`. After a successful body
/// match, every variable is bound except invention variables (Datalog¬new),
/// which the engines fill with fresh values.
inline constexpr Value kUnboundValue = -1;
using Valuation = std::vector<Value>;

/// Where body literals are checked. Splitting positive from negative
/// checking is what makes the alternating-fixpoint computation of the
/// well-founded semantics (Section 3.3) expressible with the same matcher:
/// there, negative idb literals are checked against a *fixed* instance
/// while positive ones see the growing one. All other engines pass the same
/// instance for both.
///
/// An optional overlay changes what both instances read as: a fact of
/// `hidden` reads as absent and a fact of `extra` as present, so matching
/// sees `instance − hidden + extra` without it being built. `extra` must
/// hold no fact the instance holds outside `hidden`, or a match through
/// it would be found twice. The incremental view reads its pre-batch
/// model this way (docs/incremental.md). Forward-chaining engines leave
/// both null and run the matcher's plain code.
struct DbView {
  const Instance* positives;
  /// ¬A holds iff A ∉ *negatives.
  const Instance* negatives;
  const storage::FactSet* hidden = nullptr;
  const storage::FactSet* extra = nullptr;

  bool has_overlay() const { return hidden != nullptr || extra != nullptr; }
};

/// Matches one rule's body against a database view, enumerating every
/// satisfying valuation — the instantiations of the immediate consequence
/// operator ΓP (Section 4.1).
///
/// Strategy: positive relational literals are joined greedily (most-bound
/// first, smaller relation as tie-break) through `IndexManager`; equality and
/// negative literals are applied as soon as their variables are bound;
/// variables still unbound after all positive literals (e.g. variables
/// occurring only under negation, as in `ct(X,Y) :- !t(X,Y)`) are
/// enumerated over the active domain `adom`, matching the paper's
/// active-domain semantics of ΓP.
///
/// Rules with a ∀-prefix (N-Datalog¬∀) take a brute-force path: free
/// variables are enumerated over `adom`, and the body must hold for every
/// extension of the universal variables over `adom`.
class RuleMatcher {
 public:
  /// `rule` must outlive the matcher.
  explicit RuleMatcher(const Rule* rule);

  const Rule& rule() const { return *rule_; }

  /// Semi-naive entry: invokes `cb` once per satisfying valuation in
  /// which body literal `delta_literal` (positive relational) is matched
  /// against the `delta_rows` flat rows at `delta_values` — row-major,
  /// the literal's arity values each (a RowSet's rows, or one tuple's
  /// `data()` with a count of 1) — instead of the view. Matching stops
  /// early if `cb` returns false. Every mutable piece of a match lives in
  /// a state leased from the calling thread's free list, so threads may
  /// share a matcher, `cb` may call ForEachMatch again, and a warm call
  /// allocates nothing.
  void ForEachMatch(const DbView& view, const std::vector<Value>& adom,
                    IndexManager* index, int delta_literal,
                    const Value* delta_values, size_t delta_rows,
                    const std::function<bool(const Valuation&)>& cb) const;

  /// Pointer-list semi-naive entry: like the flat-row overload, but the
  /// delta literal ranges over the `delta_count` tuples at `delta_tuples`
  /// (a round's delta flattened once).
  void ForEachMatch(const DbView& view, const std::vector<Value>& adom,
                    IndexManager* index, int delta_literal,
                    const Tuple* const* delta_tuples, size_t delta_count,
                    const std::function<bool(const Valuation&)>& cb) const;

  /// Convenience: all-matches entry with no delta.
  void ForEachMatch(const DbView& view, const std::vector<Value>& adom,
                    IndexManager* index,
                    const std::function<bool(const Valuation&)>& cb) const;

 private:
  struct MatchState;
  class StateLease;

  /// Leases a state, sets it up for one call and runs the search,
  /// choosing the overlay instantiation once.
  void Match(const DbView& view, const std::vector<Value>& adom,
             IndexManager* index, int delta_literal,
             const Value* delta_values, const Tuple* const* delta_tuples,
             size_t delta_count,
             const std::function<bool(const Valuation&)>& cb) const;
  /// The search, instantiated with and without the view's overlay, so
  /// the engines' plain matches pay nothing for it.
  template <bool kOverlay>
  bool MatchPositives(MatchState* state) const;
  template <bool kOverlay>
  bool EnumerateFree(MatchState* state, size_t next_var) const;
  template <bool kOverlay>
  bool ApplyPendingChecks(MatchState* state) const;
  template <bool kOverlay>
  bool CheckLiteral(const Literal& lit, const Valuation& val,
                    const DbView& view, Tuple* probe) const;
  bool MatchForall(const DbView& view, const std::vector<Value>& adom,
                   const std::function<bool(const Valuation&)>& cb) const;
  bool BodyHolds(const Valuation& val, const DbView& view,
                 Tuple* probe) const;

  const Rule* rule_;
  /// Indexes into rule_->body of positive relational literals.
  std::vector<int> positive_literals_;
  /// Indexes of equality + negative relational literals ("check" literals).
  std::vector<int> check_literals_;
  /// Variables needing enumeration if unbound after the positive join:
  /// all body/head variables except invention variables.
  std::vector<int> enumerable_vars_;
  bool is_forall_ = false;
};

/// Instantiates `atom` under a complete-for-this-atom valuation. Asserts
/// every variable in the atom is bound.
Tuple InstantiateAtom(const Atom& atom, const Valuation& val);

/// The active domain used for rule instantiation: adom(P, K) — every value
/// in the instance plus every constant of the program (Section 4.1).
std::vector<Value> ActiveDomain(const Program& program,
                                const Instance& instance);

}  // namespace datalog

#endif  // UNCHAINED_EVAL_GROUNDER_H_
