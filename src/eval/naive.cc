#include "eval/naive.h"

#include <cassert>

#include "eval/grounder.h"
#include "eval/stage.h"
#include "obs/trace.h"

namespace datalog {

Result<Instance> NaiveLeastFixpoint(const Program& program,
                                    const Instance& input,
                                    const Instance* fixed_negation,
                                    EvalContext* ctx) {
  assert(ctx != nullptr);
  OBS_SPAN("naive.fixpoint");
  EvalStats& st = ctx->stats;
  st.EnsureRuleSlots(program.rules.size());

  std::vector<RuleMatcher> matchers;
  matchers.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    if (rule.heads.size() != 1 ||
        rule.heads[0].kind != Literal::Kind::kRelational ||
        rule.heads[0].negative) {
      return Status::Unsupported(
          "naive least fixpoint requires single positive heads");
    }
    if (fixed_negation == nullptr) {
      for (const Literal& body : rule.body) {
        if (body.kind == Literal::Kind::kRelational && body.negative) {
          return Status::Unsupported(
              "naive least fixpoint without a fixed negation view requires "
              "a negation-free program");
        }
      }
    }
    matchers.emplace_back(&rule);
  }
  const std::vector<MatchUnit> units = WholeRuleUnits(matchers.size());

  Instance db = input;
  // Every round counts, the final one that adds nothing included.
  const StageLoop loop{"naive.round", "round",
                       "naive evaluation exceeded " +
                           std::to_string(ctx->options.max_rounds) + " rounds",
                       "naive evaluation exceeded fact budget"};
  Status status = RunStages(ctx, loop, db, [&]() -> Result<bool> {
    ++st.rounds;
    Instance fresh(&input.catalog());
    DbView view{&db, fixed_negation != nullptr ? fixed_negation : &db};
    FireStage(
        program, matchers, units, view, ctx,
        [&](const MatchUnit& unit, const Valuation& val, Firing* out) {
          const Atom& head = matchers[unit.matcher].rule().heads[0].atom;
          Tuple t = InstantiateAtom(head, val);
          if (db.Contains(head.pred, t)) return false;
          out->Fire(head.pred, std::move(t));
          return true;
        },
        &fresh);
    const size_t added = db.UnionWith(fresh);
    st.facts_derived += static_cast<int64_t>(added);
    return added > 0;
  });
  if (!status.ok()) return status;
  return db;
}

}  // namespace datalog
