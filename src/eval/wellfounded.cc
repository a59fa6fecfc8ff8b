#include "eval/wellfounded.h"

#include <cassert>

#include "eval/naive.h"
#include "obs/trace.h"

namespace datalog {

Result<WellFoundedModel> WellFoundedSemantics(const Program& program,
                                              const Instance& input,
                                              EvalContext* ctx) {
  assert(ctx != nullptr);
  OBS_SPAN("wellfounded.eval");
  // Alternating fixpoint: under_0 = input (no idb facts);
  //   over_k  = S(under_k); under_{k+1} = S(over_k).
  // The under-sequence is increasing, the over-sequence decreasing; stop
  // when the under-sequence is stationary. The inner naive fixpoints poll
  // interrupts and the round budget, cumulative across alternations, and
  // never record provenance (derivations over the estimates would mislead).
  Instance under = input;
  Instance over = input;
  int outer = 0;
  while (true) {
    ++outer;
    OBS_SPAN("wellfounded.alternation", {{"alternation", outer}});
    Result<Instance> next_over =
        NaiveLeastFixpoint(program, input, &under, ctx);
    if (!next_over.ok()) return next_over.status();
    over = std::move(next_over).value();

    Result<Instance> next_under =
        NaiveLeastFixpoint(program, input, &over, ctx);
    if (!next_under.ok()) return next_under.status();

    if (*next_under == under) break;
    under = std::move(next_under).value();
  }
  // Report outer alternations, not the inner fixpoints' cumulative rounds.
  ctx->stats.rounds = outer;
  ctx->Finalize();
  WellFoundedModel model(std::move(under), std::move(over));
  model.stats = ctx->stats;
  return model;
}

}  // namespace datalog
