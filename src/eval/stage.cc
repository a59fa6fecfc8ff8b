#include "eval/stage.h"

#include <cassert>

#include "base/thread_pool.h"
#include "obs/trace.h"

namespace datalog {

void Firing::Fire(PredId pred, Tuple tuple, bool negative) {
  if (staged_ != nullptr) {
    staged_->push_back(FiredFact{pred, std::move(tuple), negative});
  } else {
    (negative ? retractions_ : additions_)
        ->MutableRel(pred)
        ->Insert(std::move(tuple));
  }
}

namespace {

/// What one pooled unit stages while the database is frozen.
struct StagedUnit {
  std::vector<FiredFact> facts;
  int64_t matches = 0;
  int64_t produced = 0;
};

}  // namespace

Status FireStage(const Program& program,
                 const std::vector<RuleMatcher>& matchers,
                 std::span<const MatchUnit> units, const DbView& view,
                 EvalContext* ctx, ThreadPool* pool, const StageSink& sink,
                 Instance* additions, Instance* retractions) {
  EvalStats& st = ctx->stats;
  const std::vector<Value>& adom = ctx->Adom(program, *view.positives);
  auto match = [&](const MatchUnit& unit,
                   const std::function<bool(const Valuation&)>& cb) {
    const RuleMatcher& matcher = matchers[unit.matcher];
    if (unit.delta_literal < 0) {
      return matcher.ForEachMatch(view, adom, &ctx->index, cb);
    }
    matcher.ForEachMatch(view, adom, &ctx->index, unit.delta_literal,
                         unit.delta_begin, unit.delta_count, cb);
  };
  if (pool == nullptr) {
    Firing firing(additions, retractions);
    for (const MatchUnit& unit : units) {
      const size_t rule = static_cast<size_t>(unit.rule_index);
      match(unit, [&](const Valuation& val) {
        const bool produced = sink(unit, val, &firing);
        if (firing.stopped()) return false;
        st.CountMatch(rule, produced);
        return true;
      });
      if (firing.stopped()) break;
    }
    return Status::OK();
  }

  std::vector<StagedUnit> staged(units.size());
#ifndef NDEBUG
  const uint64_t gen_pos = view.positives->Generation();
  const uint64_t gen_neg = view.negatives->Generation();
#endif
  ctx->index.BeginParallel();
  pool->ParallelFor(
      units.size(), /*chunk_size=*/1,
      [&](size_t begin, size_t end, int /*worker*/) {
        for (size_t u = begin; u < end; ++u) {
          const MatchUnit& unit = units[u];
          OBS_SPAN("eval.unit", {{"rule", unit.rule_index}});
          StagedUnit& s = staged[u];
          Firing firing(&s.facts);
          match(unit, [&](const Valuation& val) {
            ++s.matches;
            if (sink(unit, val, &firing)) ++s.produced;
            return true;
          });
        }
      },
      ctx->StopProbe());
  ctx->index.EndParallel();
  assert(view.positives->Generation() == gen_pos &&
         "frozen database mutated during a parallel matching region");
  assert(view.negatives->Generation() == gen_neg &&
         "frozen negation view mutated during a parallel matching region");
  // An interrupt drains the remaining pool chunks without running them,
  // so whole units may be missing — an empty stage would misread as the
  // fixpoint, a partial one as a real successor.
  DATALOG_RETURN_IF_ERROR(ctx->CheckInterrupt());
  for (size_t u = 0; u < units.size(); ++u) {
    StagedUnit& s = staged[u];
    st.instantiations += s.matches;
    const size_t rule = static_cast<size_t>(units[u].rule_index);
    if (rule < st.per_rule.size()) {
      st.per_rule[rule].matches += s.matches;
      st.per_rule[rule].tuples_produced += s.produced;
    }
    Firing firing(additions, retractions);
    for (FiredFact& f : s.facts) {
      firing.Fire(f.pred, std::move(f.tuple), f.negative);
    }
  }
  return Status::OK();
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
