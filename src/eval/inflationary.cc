#include "eval/inflationary.h"

#include <cassert>

#include "eval/grounder.h"
#include "eval/provenance.h"
#include "eval/stage.h"
#include "obs/trace.h"

namespace datalog {

Result<InflationaryResult> InflationaryFixpoint(const Program& program,
                                                const Instance& input,
                                                EvalContext* ctx,
                                                const StageObserver& observer) {
  assert(ctx != nullptr);
  OBS_SPAN("inflationary.eval");
  EvalStats& st = ctx->stats;
  st.EnsureRuleSlots(program.rules.size());

  std::vector<RuleMatcher> matchers;
  matchers.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    if (rule.heads.size() != 1 ||
        rule.heads[0].kind != Literal::Kind::kRelational ||
        rule.heads[0].negative) {
      return Status::Unsupported(
          "inflationary Datalog¬ requires single positive heads; use the "
          "non-inflationary engine for Datalog¬¬");
    }
    if (!rule.universal_vars.empty()) {
      return Status::Unsupported(
          "∀-rules belong to N-Datalog¬∀ (nondeterministic engine)");
    }
    matchers.emplace_back(&rule);
  }

  const std::vector<MatchUnit> units = WholeRuleUnits(matchers.size());

  InflationaryResult result(input);
  Instance& db = result.instance;
  // Only stages that derive something count; the fixpoint stage does not.
  const StageLoop loop{
      "inflationary.stage", "stage",
      "inflationary evaluation exceeded " +
          std::to_string(ctx->options.max_rounds) + " stages",
      "inflationary evaluation exceeded fact budget"};
  Status status = RunStages(ctx, loop, db, [&]() -> Result<bool> {
    // One stage: fire every rule with every applicable instantiation
    // against the frozen current instance (parallel firing), then add all
    // inferred facts at once.
    Instance fresh(&input.catalog());
    FireStage(
        program, matchers, units, DbView{&db, &db}, ctx,
        [&](const MatchUnit& unit, const Valuation& val, Firing* out) {
          const Rule& rule = matchers[unit.matcher].rule();
          const Atom& head = rule.heads[0].atom;
          Tuple t = InstantiateAtom(head, val);
          if (db.Contains(head.pred, t)) return false;
          if (ctx->provenance != nullptr) {
            ctx->provenance->Record(head.pred, t, unit.rule_index,
                                    result.stages + 1,
                                    InstantiateBodyPremises(rule, val));
          }
          out->Fire(head.pred, std::move(t));
          return true;
        },
        &fresh);
    if (fresh.TotalFacts() == 0) return false;
    ++result.stages;
    ++st.rounds;
    if (observer) observer(result.stages, fresh);
    st.facts_derived += static_cast<int64_t>(db.UnionWith(fresh));
    return true;
  });
  if (!status.ok()) return status;
  result.stats = st;
  return result;
}

}  // namespace datalog
