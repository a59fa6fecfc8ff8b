#ifndef UNCHAINED_EVAL_PROVENANCE_H_
#define UNCHAINED_EVAL_PROVENANCE_H_

#include <string>
#include <vector>

#include "ast/ast.h"
#include "base/symbols.h"
#include "eval/grounder.h"
#include "ra/catalog.h"
#include "ra/instance.h"
#include "ra/storage/row_set.h"

namespace datalog {

/// A ground fact reference used in derivations.
struct GroundFact {
  PredId pred = -1;
  Tuple tuple;
  /// True for the negative premises (¬A held at derivation time).
  bool negative = false;
};

/// Why-provenance for forward-chaining evaluation: records, for each
/// derived fact, the *first* rule instantiation that produced it — enough
/// to reconstruct one derivation tree per fact (the classic deductive-
/// database EXPLAIN facility; provenance-tracking descendants of this idea
/// power the systems of Section 6, e.g. Orchestra).
///
/// Engines fill the log when `EvalOptions::provenance` points at one.
/// Input (edb) facts have no entry: they are the leaves.
class DerivationLog {
 public:
  struct Entry {
    /// Index into the evaluated program's rule list.
    int rule_index = -1;
    /// The stage/round at which the fact was first derived (1-based).
    int stage = 0;
    /// The instantiated body: positive premises and negative checks.
    std::vector<GroundFact> premises;
  };

  DerivationLog() = default;
  DerivationLog(const DerivationLog&) = delete;
  DerivationLog& operator=(const DerivationLog&) = delete;

  /// Records the first derivation of (pred, tuple); later derivations of
  /// the same fact are ignored (the first is the canonical witness).
  void Record(PredId pred, const Tuple& tuple, int rule_index, int stage,
              std::vector<GroundFact> premises);

  /// Returns the entry for a derived fact, or nullptr for edb facts and
  /// unknown facts. Valid until the next Record.
  const Entry* Lookup(PredId pred, const Tuple& tuple) const;

  size_t size() const { return size_; }

  /// Renders the derivation tree of a fact, e.g.
  ///
  ///   t(a, c)
  ///   └─ rule #2 [stage 2]: t(X, Y) :- g(X, Z), t(Z, Y).
  ///      ├─ g(a, b)   (input)
  ///      └─ t(b, c)
  ///         └─ rule #1 [stage 1]: ...
  ///
  /// Depth is capped by `max_depth` (derivations are acyclic by
  /// construction — a fact's premises were derived at earlier stages — so
  /// the cap only truncates very deep proofs).
  std::string Explain(PredId pred, const Tuple& tuple, const Program& program,
                      const Catalog& catalog, const SymbolTable& symbols,
                      int max_depth = 16) const;

 private:
  /// One predicate's derived facts as flat rows, and their entries in
  /// the same (insertion) order: `entries[r]` is row r's.
  struct PredLog {
    storage::RowSet facts;
    std::vector<Entry> entries;
  };

  std::vector<PredLog> preds_;  // indexed by PredId
  size_t size_ = 0;
};

/// Instantiates every relational body literal of `rule` under a complete
/// valuation — the premises of one rule firing, in body order.
std::vector<GroundFact> InstantiateBodyPremises(const Rule& rule,
                                                const Valuation& val);

}  // namespace datalog

#endif  // UNCHAINED_EVAL_PROVENANCE_H_
