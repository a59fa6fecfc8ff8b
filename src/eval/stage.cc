#include "eval/stage.h"

#include "obs/trace.h"

namespace datalog {

void FireStage(const Program& program,
               const std::vector<RuleMatcher>& matchers,
               std::span<const MatchUnit> units, const DbView& view,
               EvalContext* ctx, const StageSink& sink, Instance* additions,
               Instance* retractions) {
  EvalStats& st = ctx->stats;
  const std::vector<Value>& adom = ctx->Adom(program, *view.positives);
  Firing firing(additions, retractions);
  for (const MatchUnit& unit : units) {
    const size_t rule = static_cast<size_t>(unit.rule_index);
    auto fire = [&](const Valuation& val) {
      const bool produced = sink(unit, val, &firing);
      if (firing.stopped()) return false;
      st.CountMatch(rule, produced);
      return true;
    };
    const RuleMatcher& matcher = matchers[unit.matcher];
    if (unit.delta_literal < 0) {
      matcher.ForEachMatch(view, adom, &ctx->index, fire);
    } else {
      matcher.ForEachMatch(view, adom, &ctx->index, unit.delta_literal,
                           unit.delta_begin, unit.delta_count, fire);
    }
    if (firing.stopped()) return;
  }
}

std::vector<MatchUnit> WholeRuleUnits(size_t num_matchers) {
  std::vector<MatchUnit> units;
  for (size_t i = 0; i < num_matchers; ++i) {
    units.push_back(MatchUnit{i, static_cast<int>(i)});
  }
  return units;
}

Status RunStages(EvalContext* ctx, const StageLoop& loop, const Instance& db,
                 const std::function<Result<bool>()>& stage) {
  Status status = [&]() -> Status {
    while (true) {
      DATALOG_RETURN_IF_ERROR(ctx->CheckInterrupt());
      if (ctx->stats.rounds >= ctx->options.max_rounds) {
        return Status::BudgetExhausted(loop.rounds_exceeded);
      }
      ctx->StartRound();
      Result<bool> more = [&] {
        OBS_SPAN(loop.span, {{loop.span_arg, ctx->stats.rounds + 1}});
        return stage();
      }();
      ctx->FinishRound();
      if (!more.ok()) return more.status();
      if (static_cast<int64_t>(db.TotalFacts()) > ctx->options.max_facts) {
        return Status::BudgetExhausted(loop.facts_exceeded);
      }
      if (!*more) return Status::OK();
    }
  }();
  ctx->Finalize();
  return status;
}

std::pair<size_t, bool> StateSet::Insert(const Instance& state) {
  std::vector<size_t>& bucket = by_fingerprint_[state.Fingerprint()];
  for (size_t i : bucket) {
    if (states_[i] == state) return {i, false};
  }
  bucket.push_back(states_.size());
  states_.push_back(state);
  return {states_.size() - 1, true};
}

}  // namespace datalog
