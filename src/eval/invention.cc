#include "eval/invention.h"

#include <cassert>
#include <map>
#include <utility>

#include "eval/grounder.h"
#include "eval/stage.h"
#include "obs/trace.h"

namespace datalog {

Relation InventionResult::AnswerWithoutInvented(
    PredId pred, const SymbolTable& symbols) const {
  const Relation& rel = instance.Rel(pred);
  Relation out(rel.arity());
  for (const Tuple& t : rel) {
    bool clean = true;
    for (Value v : t) {
      if (symbols.IsInvented(v)) {
        clean = false;
        break;
      }
    }
    if (clean) out.Insert(t);
  }
  return out;
}

Result<InventionResult> InventionFixpoint(const Program& program,
                                          const Instance& input,
                                          SymbolTable* symbols,
                                          EvalContext* ctx) {
  assert(ctx != nullptr);
  OBS_SPAN("invention.eval");
  EvalStats& st = ctx->stats;
  st.EnsureRuleSlots(program.rules.size());

  std::vector<RuleMatcher> matchers;
  std::vector<std::vector<int>> invention_vars;
  std::vector<std::vector<int>> body_vars;
  matchers.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    if (rule.heads.size() != 1 ||
        rule.heads[0].kind != Literal::Kind::kRelational ||
        rule.heads[0].negative) {
      return Status::Unsupported("Datalog¬new requires single positive heads");
    }
    if (!rule.universal_vars.empty()) {
      return Status::Unsupported(
          "∀-rules belong to N-Datalog¬∀ (nondeterministic engine)");
    }
    matchers.emplace_back(&rule);
    invention_vars.push_back(rule.InventionVars());
    std::set<int> bv = rule.BodyVars();
    body_vars.emplace_back(bv.begin(), bv.end());
  }

  InventionResult result(input);
  Instance& db = result.instance;

  // Skolem memo: (rule index, body valuation) -> invented values for the
  // rule's invention variables.
  std::map<std::pair<size_t, Tuple>, std::vector<Value>> memo;
  const std::vector<MatchUnit> units = WholeRuleUnits(matchers.size());
  Status budget = Status::OK();
  const StageSink sink = [&](const MatchUnit& unit, const Valuation& val,
                             Firing* out) {
    const size_t ri = unit.matcher;
    const std::vector<int>& inv = invention_vars[ri];
    Valuation full = val;
    if (!inv.empty()) {
      Tuple key;
      key.reserve(body_vars[ri].size());
      for (int v : body_vars[ri]) key.push_back(val[static_cast<size_t>(v)]);
      auto [it, inserted] = memo.try_emplace({ri, std::move(key)});
      if (inserted) {
        const int64_t minted = static_cast<int64_t>(inv.size());
        if (result.invented_values + minted > ctx->options.max_invented) {
          budget = Status::BudgetExhausted(
              "Datalog¬new exceeded invented-value budget (" +
              std::to_string(ctx->options.max_invented) + ")");
          out->Stop();
          return false;
        }
        for (size_t k = 0; k < inv.size(); ++k) {
          it->second.push_back(symbols->Invent());
        }
        result.invented_values += minted;
      }
      for (size_t k = 0; k < inv.size(); ++k) {
        full[static_cast<size_t>(inv[k])] = it->second[k];
      }
    }
    const Atom& head = matchers[ri].rule().heads[0].atom;
    Tuple t = InstantiateAtom(head, full);
    if (db.Contains(head.pred, t)) return false;
    out->Fire(head.pred, std::move(t));
    return true;
  };

  const StageLoop loop{"invention.stage", "stage",
                       "Datalog¬new evaluation exceeded " +
                           std::to_string(ctx->options.max_rounds) + " stages",
                       "Datalog¬new exceeded fact budget"};
  Status status = RunStages(ctx, loop, db, [&]() -> Result<bool> {
    Instance fresh(&input.catalog());
    FireStage(program, matchers, units, DbView{&db, &db}, ctx, sink, &fresh);
    DATALOG_RETURN_IF_ERROR(budget);
    if (fresh.TotalFacts() == 0) return false;
    ++result.stages;
    ++st.rounds;
    st.facts_derived += static_cast<int64_t>(db.UnionWith(fresh));
    return true;
  });
  if (!status.ok()) return status;
  result.stats = st;
  return result;
}

}  // namespace datalog
