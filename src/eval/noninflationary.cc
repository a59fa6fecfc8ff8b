#include "eval/noninflationary.h"

#include <cassert>

#include "eval/grounder.h"
#include "eval/stage.h"
#include "obs/trace.h"

namespace datalog {

Result<NonInflationaryResult> NonInflationaryFixpoint(
    const Program& program, const Instance& input,
    const NonInflationaryOptions& options, EvalContext* ctx) {
  assert(ctx != nullptr);
  OBS_SPAN("noninflationary.eval");
  EvalStats& st = ctx->stats;
  st.EnsureRuleSlots(program.rules.size());

  std::vector<RuleMatcher> matchers;
  matchers.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    for (const Literal& head : rule.heads) {
      if (head.kind != Literal::Kind::kRelational) {
        return Status::Unsupported(
            "Datalog¬¬ heads must be (possibly negated) atoms");
      }
    }
    if (!rule.universal_vars.empty()) {
      return Status::Unsupported(
          "∀-rules belong to N-Datalog¬∀ (nondeterministic engine)");
    }
    matchers.emplace_back(&rule);
  }

  NonInflationaryResult result(input);
  Instance& db = result.instance;
  const std::vector<MatchUnit> units = WholeRuleUnits(matchers.size());
  StateSet seen;
  if (options.detect_cycles) seen.Insert(db);

  // Only stages that change the state count.
  const StageLoop loop{"noninflationary.stage", "stage",
                       "Datalog¬¬ evaluation exceeded " +
                           std::to_string(ctx->options.max_rounds) + " stages",
                       "Datalog¬¬ evaluation exceeded fact budget"};
  Status status = RunStages(ctx, loop, db, [&]() -> Result<bool> {
    // Parallel firing against the frozen instance: collect insertions and
    // deletions separately, then reconcile. Deletions change relation
    // epochs, so the index/adom caches rebuild per round — the correctness
    // fallback for non-inflationary mutation.
    Instance inserts(&input.catalog());
    Instance deletes(&input.catalog());
    FireStage(
        program, matchers, units, DbView{&db, &db}, ctx,
        [&](const MatchUnit& unit, const Valuation& val, Firing* out) {
          bool produced = false;
          for (const Literal& head : matchers[unit.matcher].rule().heads) {
            Tuple t = InstantiateAtom(head.atom, val);
            if (!head.negative && !db.Contains(head.atom.pred, t)) {
              produced = true;
            }
            out->Fire(head.atom.pred, std::move(t), head.negative);
          }
          return produced;
        },
        &inserts, &deletes);

    Instance next = db;
    DATALOG_RETURN_IF_ERROR(
        ApplySigned(inserts, deletes, options.policy, &next));
    if (next == db) return false;  // fixpoint reached
    ++result.stages;
    ++st.rounds;
    // Net growth only: deletions can shrink the state, which is not
    // "derivation" in the facts_derived sense.
    const int64_t delta = static_cast<int64_t>(next.TotalFacts()) -
                          static_cast<int64_t>(db.TotalFacts());
    if (delta > 0) st.facts_derived += delta;
    db = std::move(next);
    if (options.detect_cycles) {
      auto [prev, added] = seen.Insert(db);
      if (!added) {
        return Status::NonTerminating(
            "no fixpoint: state at stage " + std::to_string(result.stages) +
            " revisits stage " + std::to_string(prev) + " (cycle length " +
            std::to_string(seen.size() - prev) + ")");
      }
    }
    return true;
  });
  if (!status.ok()) return status;
  result.stats = st;
  return result;
}

Status ApplySigned(const Instance& additions, const Instance& retractions,
                   ConflictPolicy policy, Instance* state,
                   const std::function<void(PredId, const Tuple&, bool)>&
                       changed) {
  const Catalog& catalog = additions.catalog();
  const bool undefined = policy == ConflictPolicy::kUndefined;
  // A fact in both sets is retracted only when negation wins and added
  // only when positive inference wins; otherwise it keeps its status.
  auto apply = [&](const Instance& facts, const Instance& others, bool wins,
                   bool insert) {
    for (PredId p = 0; p < catalog.size(); ++p) {
      for (const Tuple& t : facts.Rel(p)) {
        if ((!wins || undefined) && others.Contains(p, t)) {
          if (!undefined) continue;
          return Status::Conflict(
              "fact and its negation inferred in the same firing for "
              "predicate '" +
              catalog.NameOf(p) + "'");
        }
        if ((insert ? state->Insert(p, t) : state->Erase(p, t)) && changed) {
          changed(p, t, insert);
        }
      }
    }
    return Status::OK();
  };
  const bool negative_wins = policy == ConflictPolicy::kNegativeWins;
  if (negative_wins) {
    DATALOG_RETURN_IF_ERROR(apply(additions, retractions, false, true));
  }
  DATALOG_RETURN_IF_ERROR(apply(retractions, additions, negative_wins, false));
  if (negative_wins) return Status::OK();
  return apply(additions, retractions,
               policy == ConflictPolicy::kPositiveWins, true);
}

}  // namespace datalog
