#include "core/engine.h"

#include "analysis/validate.h"
#include "ast/parser.h"
#include "eval/context.h"
#include "eval/naive.h"
#include "eval/seminaive.h"
#include "eval/stratified.h"

namespace datalog {

Result<Program> Engine::Parse(std::string_view text) {
  return ParseProgram(text, &catalog_, &symbols_);
}

Status Engine::AddFacts(std::string_view text, Instance* db) {
  return ParseFacts(text, &catalog_, &symbols_, db);
}

Status Engine::Validate(const Program& program, Dialect dialect) const {
  return ValidateProgram(program, catalog_, dialect);
}

template <typename Eval>
auto Engine::Run(const EvalOptions& options, EvalStats* stats,
                 Eval eval) const {
  EvalContext ctx(options);
  auto out = eval(&ctx);
  ctx.Finalize();
  last_run_stats_ = ctx.stats;
  if (stats != nullptr) *stats = ctx.stats;
  return out;
}

Result<Instance> Engine::MinimumModel(const Program& program,
                                      const Instance& input,
                                      EvalStats* stats) const {
  DATALOG_RETURN_IF_ERROR(Validate(program, Dialect::kDatalog));
  return Run(options_, stats, [&](EvalContext* ctx) {
    return SemiNaiveDatalog(program, input, ctx);
  });
}

Result<Instance> Engine::MinimumModelNaive(const Program& program,
                                           const Instance& input,
                                           EvalStats* stats) const {
  DATALOG_RETURN_IF_ERROR(Validate(program, Dialect::kDatalog));
  return Run(options_, stats, [&](EvalContext* ctx) {
    return NaiveLeastFixpoint(program, input, /*fixed_negation=*/nullptr,
                              ctx);
  });
}

Result<Instance> Engine::Stratified(const Program& program,
                                    const Instance& input,
                                    EvalStats* stats) const {
  DATALOG_RETURN_IF_ERROR(Validate(program, Dialect::kStratified));
  return Run(options_, stats, [&](EvalContext* ctx) {
    return StratifiedSemantics(program, catalog_, input, ctx);
  });
}

Result<WellFoundedModel> Engine::WellFounded(const Program& program,
                                             const Instance& input) const {
  DATALOG_RETURN_IF_ERROR(Validate(program, Dialect::kDatalogNeg));
  return Run(options_, nullptr, [&](EvalContext* ctx) {
    return WellFoundedSemantics(program, input, ctx);
  });
}

Result<InflationaryResult> Engine::Inflationary(
    const Program& program, const Instance& input,
    const StageObserver& observer) const {
  DATALOG_RETURN_IF_ERROR(Validate(program, Dialect::kDatalogNeg));
  return Run(options_, nullptr, [&](EvalContext* ctx) {
    return InflationaryFixpoint(program, input, ctx, observer);
  });
}

Result<NonInflationaryResult> Engine::NonInflationary(
    const Program& program, const Instance& input,
    const NonInflationaryOptions& options) const {
  DATALOG_RETURN_IF_ERROR(Validate(program, Dialect::kDatalogNegNeg));
  return Run(options.eval, nullptr, [&](EvalContext* ctx) {
    return NonInflationaryFixpoint(program, input, options, ctx);
  });
}

Result<InventionResult> Engine::Invention(const Program& program,
                                          const Instance& input) {
  DATALOG_RETURN_IF_ERROR(Validate(program, Dialect::kDatalogNew));
  return Run(options_, nullptr, [&](EvalContext* ctx) {
    return InventionFixpoint(program, input, &symbols_, ctx);
  });
}

Result<Instance> Engine::NondetRun(const Program& program, Dialect dialect,
                                   const Instance& input, uint64_t seed,
                                   const NondetOptions& options) {
  if (!IsNondeterministic(dialect)) {
    return Status::Unsupported("NondetRun requires an N-Datalog dialect");
  }
  DATALOG_RETURN_IF_ERROR(Validate(program, dialect));
  NondetOptions opts = options;
  if (dialect == Dialect::kNDatalogNew) opts.allow_invention = true;
  NondetEvaluator evaluator(&program, &catalog_);
  Result<Instance> out = evaluator.RunOnce(input, seed, &symbols_, opts);
  last_run_stats_ = evaluator.last_stats();
  return out;
}

Result<EffectSet> Engine::NondetEnumerate(const Program& program,
                                          Dialect dialect,
                                          const Instance& input,
                                          const NondetOptions& options) const {
  if (!IsNondeterministic(dialect)) {
    return Status::Unsupported(
        "NondetEnumerate requires an N-Datalog dialect");
  }
  DATALOG_RETURN_IF_ERROR(Validate(program, dialect));
  NondetEvaluator evaluator(&program, &catalog_);
  Result<EffectSet> out = evaluator.Enumerate(input, options);
  last_run_stats_ = evaluator.last_stats();
  return out;
}

Result<PossCert> Engine::NondetPossCert(const Program& program,
                                        Dialect dialect, const Instance& input,
                                        const NondetOptions& options) const {
  Result<EffectSet> effects =
      NondetEnumerate(program, dialect, input, options);
  if (!effects.ok()) return effects.status();
  return ComputePossCert(*effects, catalog_);
}

}  // namespace datalog
