#ifndef UNCHAINED_CORE_ENGINE_H_
#define UNCHAINED_CORE_ENGINE_H_

#include <string_view>

#include "ast/ast.h"
#include "ast/dialect.h"
#include "base/result.h"
#include "base/symbols.h"
#include "eval/common.h"
#include "eval/inflationary.h"
#include "eval/invention.h"
#include "eval/nondet.h"
#include "eval/noninflationary.h"
#include "eval/wellfounded.h"
#include "ra/instance.h"

namespace datalog {

/// The public facade of the library: one object owning the catalog and the
/// symbol table, with parse / validate / evaluate entry points for every
/// language in the family.
///
/// Typical use (the transitive-closure quickstart):
///
///   Engine engine;
///   auto program = engine.Parse(
///       "t(X, Y) :- g(X, Y).\n"
///       "t(X, Y) :- g(X, Z), t(Z, Y).\n");
///   Instance db = engine.NewInstance();
///   engine.AddFacts("g(a, b). g(b, c).", &db);
///   auto model = engine.MinimumModel(*program, db);
///   // model->Rel(engine.catalog().Find("t")) now holds the closure.
///
/// Each evaluation method validates the program against the dialect it
/// implements before running (so e.g. routing the non-stratifiable win
/// program to `Stratified` returns kNotStratifiable rather than garbage).
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  /// Budgets applied by all deterministic evaluation methods.
  EvalOptions& options() { return options_; }

  /// Stats of the most recent evaluation run through this facade
  /// (whatever entry point it used): rounds, facts, instantiations,
  /// index-maintenance counters, per-rule counters and wall-clock timings.
  /// Overwritten by every evaluation call.
  const EvalStats& LastRunStats() const { return last_run_stats_; }

  /// An empty instance over this engine's catalog.
  Instance NewInstance() const { return Instance(&catalog_); }

  /// Parses a program (union syntax of all dialects; see parser.h).
  Result<Program> Parse(std::string_view text);

  /// Parses ground facts into `db`.
  Status AddFacts(std::string_view text, Instance* db);

  /// Validates `program` against `dialect` (see analysis/validate.h).
  Status Validate(const Program& program, Dialect dialect) const;

  // -- Deterministic semantics ----------------------------------------

  /// Minimum model of positive Datalog (Section 3.1), semi-naive.
  Result<Instance> MinimumModel(const Program& program, const Instance& input,
                                EvalStats* stats = nullptr) const;

  /// Minimum model computed by the naive algorithm (baseline for the
  /// semi-naive comparison bench).
  Result<Instance> MinimumModelNaive(const Program& program,
                                     const Instance& input,
                                     EvalStats* stats = nullptr) const;

  /// Stratified semantics of Datalog¬ (Section 3.2). Accepts semi-positive
  /// programs too.
  Result<Instance> Stratified(const Program& program, const Instance& input,
                              EvalStats* stats = nullptr) const;

  /// Well-founded (3-valued) semantics of Datalog¬ (Section 3.3).
  Result<WellFoundedModel> WellFounded(const Program& program,
                                       const Instance& input) const;

  /// Inflationary fixpoint semantics of Datalog¬ (Section 4.1).
  Result<InflationaryResult> Inflationary(
      const Program& program, const Instance& input,
      const StageObserver& observer = nullptr) const;

  /// Noninflationary semantics of Datalog¬¬ (Section 4.2).
  Result<NonInflationaryResult> NonInflationary(
      const Program& program, const Instance& input,
      const NonInflationaryOptions& options = {}) const;

  /// Inflationary semantics of Datalog¬new (Section 4.3).
  Result<InventionResult> Invention(const Program& program,
                                    const Instance& input);

  // -- Nondeterministic semantics (Section 5) -------------------------

  /// One seeded computation of an N-Datalog program.
  Result<Instance> NondetRun(const Program& program, Dialect dialect,
                             const Instance& input, uint64_t seed,
                             const NondetOptions& options = {});

  /// Every image of `input` under eff(P) (Definition 5.2).
  Result<EffectSet> NondetEnumerate(const Program& program, Dialect dialect,
                                    const Instance& input,
                                    const NondetOptions& options = {}) const;

  /// poss / cert semantics (Definition 5.10) over the full effect set.
  Result<PossCert> NondetPossCert(const Program& program, Dialect dialect,
                                  const Instance& input,
                                  const NondetOptions& options = {}) const;

 private:
  /// Runs `eval(EvalContext*)` in a fresh context built from `options`,
  /// finalizes it and records its stats in last_run_stats_ (and `*stats`).
  template <typename Eval>
  auto Run(const EvalOptions& options, EvalStats* stats, Eval eval) const;

  Catalog catalog_;
  SymbolTable symbols_;
  EvalOptions options_;
  /// Mutable so the const evaluation entry points can record their stats.
  mutable EvalStats last_run_stats_;
};

}  // namespace datalog

#endif  // UNCHAINED_CORE_ENGINE_H_
