#include "eval/seminaive.h"

#include <cassert>
#include <unordered_map>

#include "eval/grounder.h"
#include "eval/provenance.h"
#include "eval/stage.h"
#include "eval/test_hooks.h"
#include "obs/trace.h"

namespace datalog {

namespace internal {
int g_seminaive_skip_delta_rule = -1;
}  // namespace internal

Result<int64_t> SemiNaiveStep(const Program& program,
                              const std::vector<int>& rule_indexes,
                              const std::vector<PredId>& recursive_preds,
                              Instance* db, EvalContext* ctx) {
  assert(ctx != nullptr);
  OBS_SPAN("seminaive.step");
  EvalStats& st = ctx->stats;
  st.EnsureRuleSlots(program.rules.size());
  // Entry gate: a stratified run calls one step per stratum, and this is
  // its between-strata deadline/cancellation check.
  if (Status interrupted = ctx->CheckInterrupt(); !interrupted.ok()) {
    ctx->Finalize();
    return interrupted;
  }

  std::vector<RuleMatcher> matchers;
  std::vector<const Rule*> rules;
  for (int idx : rule_indexes) {
    const Rule& rule = program.rules[static_cast<size_t>(idx)];
    if (rule.heads.size() != 1 ||
        rule.heads[0].kind != Literal::Kind::kRelational ||
        rule.heads[0].negative) {
      return Status::Unsupported(
          "semi-naive evaluation requires single positive heads");
    }
    rules.push_back(&rule);
    matchers.emplace_back(&rule);
  }

  const StageSink sink = [&](const MatchUnit& unit, const Valuation& val,
                             Firing* out) {
    const Atom& head = rules[unit.matcher]->heads[0].atom;
    Tuple t = InstantiateAtom(head, val);
    if (db->Contains(head.pred, t)) return false;
    if (ctx->provenance != nullptr) {
      ctx->provenance->Record(head.pred, t, unit.rule_index, st.rounds + 1,
                              InstantiateBodyPremises(*rules[unit.matcher],
                                                      val));
    }
    out->Fire(head.pred, std::move(t));
    return true;
  };
  // One generic round: fires `units` rule by rule (each traced), then
  // merges the new facts; the recursive ones are the next round's delta.
  std::unordered_map<PredId, Relation> delta;
  auto round = [&](std::span<const MatchUnit> units) {
    const DbView view{db, db};
    Instance fresh(&db->catalog());
    for (size_t i = 0; i < matchers.size(); ++i) {
      OBS_SPAN("seminaive.rule", {{"rule", rule_indexes[i]}});
      size_t n = 0;
      while (n < units.size() && units[n].matcher == i) ++n;
      FireStage(program, matchers, units.first(n), view, ctx, sink, &fresh);
      units = units.subspan(n);
    }
    ++st.rounds;
    delta.clear();
    for (PredId p : recursive_preds) {
      const Relation& rel = fresh.Rel(p);
      if (!rel.empty()) delta.emplace(p, rel);
    }
    st.facts_derived += static_cast<int64_t>(db->UnionWith(fresh));
  };
  const int64_t derived_before = st.facts_derived;

  // Round 0: full evaluation of every rule against the current database.
  // It runs unconditionally; the budget applies to the delta rounds.
  {
    ctx->StartRound();
    OBS_SPAN("seminaive.round", {{"round", st.rounds + 1}});
    std::vector<MatchUnit> units = WholeRuleUnits(matchers.size());
    for (MatchUnit& unit : units) unit.rule_index = rule_indexes[unit.matcher];
    round(units);
    ctx->FinishRound();
  }

  // Every round counts, round 0 included, cumulatively across strata.
  const StageLoop loop{"seminaive.round", "round",
                       "semi-naive evaluation exceeded " +
                           std::to_string(ctx->options.max_rounds) + " rounds",
                       "semi-naive evaluation exceeded fact budget"};
  // Delta rounds refresh the persistent indexes over `db` by appending
  // each round's journal tail.
  if (delta.empty()) return st.facts_derived - derived_before;
  Status status = RunStages(ctx, loop, *db, [&]() -> Result<bool> {
    // Flatten each delta relation once, as stable tuple pointers; one
    // unit per (rule, delta literal), in that order.
    std::unordered_map<PredId, std::vector<const Tuple*>> lists;
    for (const auto& [p, rel] : delta) {
      for (const Tuple& t : rel) lists[p].push_back(&t);
    }
    std::vector<MatchUnit> units;
    for (size_t i = 0; i < matchers.size(); ++i) {
      if (rule_indexes[i] == internal::g_seminaive_skip_delta_rule) continue;
      const Rule& rule = *rules[i];
      for (size_t li = 0; li < rule.body.size(); ++li) {
        const Literal& lit = rule.body[li];
        if (lit.kind != Literal::Kind::kRelational || lit.negative) continue;
        // Only recursive predicates have deltas.
        auto it = lists.find(lit.atom.pred);
        if (it == lists.end()) continue;
        units.push_back(MatchUnit{i, rule_indexes[i], static_cast<int>(li),
                                  it->second.data(), it->second.size()});
      }
    }
    round(units);
    return !delta.empty();
  });
  if (!status.ok()) return status;
  return st.facts_derived - derived_before;
}

Result<Instance> SemiNaiveDatalog(const Program& program,
                                  const Instance& input, EvalContext* ctx) {
  for (const Rule& rule : program.rules) {
    for (const Literal& body : rule.body) {
      if (body.kind == Literal::Kind::kRelational && body.negative) {
        return Status::Unsupported(
            "SemiNaiveDatalog requires a negation-free program; use the "
            "stratified engine for Datalog¬");
      }
    }
  }
  std::vector<int> all_rules(program.rules.size());
  for (size_t i = 0; i < all_rules.size(); ++i) all_rules[i] = static_cast<int>(i);
  Instance db = input;
  Result<int64_t> added =
      SemiNaiveStep(program, all_rules, program.idb_preds, &db, ctx);
  if (!added.ok()) return added.status();
  return db;
}

}  // namespace datalog
