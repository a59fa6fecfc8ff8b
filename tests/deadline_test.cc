// Engine-wide deadlines and cooperative cancellation (ISSUE 5): every
// engine's round loop polls EvalContext::CheckInterrupt, so a run given
// EvalOptions::deadline_ms stops with kBudgetExhausted and a run whose
// CancelToken fires stops with kCancelled — in both cases with finalized
// stats (wall-clock and per-rule counters populated), exactly like the
// existing max_rounds budget paths.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "active/eca.h"
#include "core/engine.h"
#include "dist/peers.h"
#include "eval/context.h"
#include "eval/inflationary.h"
#include "eval/invention.h"
#include "eval/naive.h"
#include "eval/noninflationary.h"
#include "eval/seminaive.h"
#include "eval/stable.h"
#include "eval/stratified.h"
#include "eval/wellfounded.h"
#include "workload/graphs.h"

namespace datalog {
namespace {

class DeadlineTest : public ::testing::Test {
 protected:
  Program MustParse(std::string_view text) {
    Result<Program> p = engine_.Parse(text);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return std::move(p).value();
  }

  Program Tc() {
    return MustParse(
        "t(X, Y) :- g(X, Y).\n"
        "t(X, Y) :- g(X, Z), t(Z, Y).\n");
  }

  Engine engine_;
};

// A transitive closure sized to run for seconds uninterrupted must come
// back as kBudgetExhausted within a 10ms deadline, with stats finalized
// mid-flight, at every num_threads setting (stages fire inline at each).
TEST_F(DeadlineTest, TcDeadlineExhaustsAtEveryThreadCount) {
  Program tc = Tc();
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance big = graphs.Chain(2048);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    engine_.options() = EvalOptions{};
    engine_.options().num_threads = threads;
    engine_.options().deadline_ms = 10;

    Result<Instance> seminaive = engine_.MinimumModel(tc, big);
    ASSERT_FALSE(seminaive.ok());
    EXPECT_EQ(seminaive.status().code(), StatusCode::kBudgetExhausted);
    const EvalStats& stats = engine_.LastRunStats();
    // Finalized stats: the clock ran and the per-rule slots exist for
    // both TC rules. Round 0 has no intra-round interrupt point, so some
    // progress is guaranteed; it is asserted once, at threads = 1.
    EXPECT_GT(stats.total_ms, 0.0);
    ASSERT_EQ(stats.per_rule.size(), 2u);
    if (threads == 1) {
      EXPECT_GT(stats.rounds, 0);
      EXPECT_GT(stats.facts_derived, 0);
      EXPECT_GT(stats.per_rule[0].matches + stats.per_rule[1].matches, 0);
    }

    Result<Instance> naive = engine_.MinimumModelNaive(tc, big);
    ASSERT_FALSE(naive.ok());
    EXPECT_EQ(naive.status().code(), StatusCode::kBudgetExhausted);
    EXPECT_GT(engine_.LastRunStats().total_ms, 0.0);

    Result<Instance> stratified = engine_.Stratified(tc, big);
    ASSERT_FALSE(stratified.ok());
    EXPECT_EQ(stratified.status().code(), StatusCode::kBudgetExhausted);
    EXPECT_GT(engine_.LastRunStats().total_ms, 0.0);

    Result<InflationaryResult> inflationary = engine_.Inflationary(tc, big);
    ASSERT_FALSE(inflationary.ok());
    EXPECT_EQ(inflationary.status().code(), StatusCode::kBudgetExhausted);
    EXPECT_GT(engine_.LastRunStats().total_ms, 0.0);
  }
}

// A deadline that comfortably covers the run must not change anything.
TEST_F(DeadlineTest, GenerousDeadlineCompletes) {
  Program tc = Tc();
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance small = graphs.Chain(16);

  Result<Instance> baseline = engine_.MinimumModel(tc, small);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  engine_.options().deadline_ms = 60'000;
  Result<Instance> with_deadline = engine_.MinimumModel(tc, small);
  ASSERT_TRUE(with_deadline.ok()) << with_deadline.status().ToString();
  EXPECT_EQ(*baseline, *with_deadline);
}

// A deadline far beyond any run is a budget that never runs out, however
// large: it is kept in milliseconds, never added to a nanosecond clock
// (INT64_MAX ms there overflowed, so the run was refused at once). The
// stable-model search carries it into every candidate check.
TEST_F(DeadlineTest, HugeDeadlinesNeverExpire) {
  Program tc = Tc();
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance chain = graphs.Chain(16);
  Result<Instance> baseline = engine_.MinimumModel(tc, chain);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  Program win = MustParse("win(X) :- g(X, Y), !win(Y).\n");
  Instance cycle = graphs.Cycle(2);
  for (const int64_t deadline_ms :
       {std::numeric_limits<int64_t>::max(), int64_t{1} << 50}) {
    SCOPED_TRACE("deadline_ms=" + std::to_string(deadline_ms));
    engine_.options().deadline_ms = deadline_ms;
    Result<Instance> model = engine_.MinimumModel(tc, chain);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    EXPECT_EQ(*model, *baseline);
    EXPECT_GT(engine_.LastRunStats().rounds, 1);

    EvalOptions options;
    options.deadline_ms = deadline_ms;
    Result<StableModelsResult> stable = StableModels(win, cycle, options);
    ASSERT_TRUE(stable.ok()) << stable.status().ToString();
    EXPECT_EQ(stable->models.size(), 2u);
  }
}

// A token cancelled before the run starts stops every engine in its first
// round check with kCancelled — the whole family honors the same token.
TEST_F(DeadlineTest, PreCancelledTokenStopsEveryEngine) {
  Program tc = Tc();
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = graphs.Chain(64);
  CancelToken token;
  token.Cancel();
  engine_.options().cancel = &token;

  Result<Instance> seminaive = engine_.MinimumModel(tc, db);
  EXPECT_EQ(seminaive.status().code(), StatusCode::kCancelled);
  Result<Instance> naive = engine_.MinimumModelNaive(tc, db);
  EXPECT_EQ(naive.status().code(), StatusCode::kCancelled);
  Result<Instance> stratified = engine_.Stratified(tc, db);
  EXPECT_EQ(stratified.status().code(), StatusCode::kCancelled);
  Result<WellFoundedModel> wf = engine_.WellFounded(tc, db);
  EXPECT_EQ(wf.status().code(), StatusCode::kCancelled);
  Result<InflationaryResult> inflationary = engine_.Inflationary(tc, db);
  EXPECT_EQ(inflationary.status().code(), StatusCode::kCancelled);
  // The non-inflationary facade reads its own options struct, not the
  // engine-wide ones; the token threads through NonInflationaryOptions.
  NonInflationaryOptions ni;
  ni.eval.cancel = &token;
  Result<NonInflationaryResult> noninflationary =
      engine_.NonInflationary(tc, db, ni);
  EXPECT_EQ(noninflationary.status().code(), StatusCode::kCancelled);
  Result<InventionResult> invention = engine_.Invention(tc, db);
  EXPECT_EQ(invention.status().code(), StatusCode::kCancelled);
  NondetOptions nd;
  nd.eval.cancel = &token;
  Result<Instance> nondet =
      engine_.NondetRun(tc, Dialect::kNDatalogNeg, db, 7, nd);
  EXPECT_EQ(nondet.status().code(), StatusCode::kCancelled);
  Result<EffectSet> effects =
      engine_.NondetEnumerate(tc, Dialect::kNDatalogNeg, db, nd);
  EXPECT_EQ(effects.status().code(), StatusCode::kCancelled);
}

// Stable-model search threads the deadline into every Gelfond–Lifschitz
// candidate check; the eca and peer runtimes poll it in their own loops.
TEST_F(DeadlineTest, CancellationCoversStableEcaAndPeers) {
  CancelToken token;
  token.Cancel();

  Program win = MustParse("win(X) :- g(X, Y), !win(Y).\n");
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance cycle = graphs.Cycle(2);
  EvalOptions cancelled;
  cancelled.cancel = &token;
  Result<StableModelsResult> stable = StableModels(win, cycle, cancelled);
  EXPECT_EQ(stable.status().code(), StatusCode::kCancelled);

  Program eca = MustParse("p1(X) :- ins_e2(X).\n");
  Instance db = engine_.NewInstance();
  Instance ins = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("e2(0).", &ins).ok());
  ActiveOptions active;
  active.eval = cancelled;
  Result<ActiveResult> fired = RunActiveRules(
      eca, &engine_.catalog(), db, ins, engine_.NewInstance(), active);
  EXPECT_EQ(fired.status().code(), StatusCode::kCancelled);

  PeerSystem system(&engine_.catalog(), &engine_.symbols());
  Program forward = MustParse("at_echo_fact(X) :- fact(X).\n");
  Instance seed = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("fact(0).", &seed).ok());
  ASSERT_TRUE(system.AddPeer("echo", forward, seed).ok());
  Result<int> rounds = system.Run(cancelled);
  EXPECT_EQ(rounds.status().code(), StatusCode::kCancelled);
}

// Cancelling mid-run (from the deadline of a sibling clock) still reports
// finalized stats: rounds executed so far and a populated wall-clock.
TEST_F(DeadlineTest, DeadlineStatsMatchBudgetExhaustionShape) {
  Program tc = Tc();
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance big = graphs.Chain(2048);

  // Reference shape: the existing max_rounds budget path.
  engine_.options() = EvalOptions{};
  engine_.options().max_rounds = 3;
  Result<Instance> budget = engine_.MinimumModel(tc, big);
  ASSERT_EQ(budget.status().code(), StatusCode::kBudgetExhausted);
  const EvalStats budget_stats = engine_.LastRunStats();

  engine_.options() = EvalOptions{};
  engine_.options().deadline_ms = 10;
  Result<Instance> deadline = engine_.MinimumModel(tc, big);
  ASSERT_EQ(deadline.status().code(), StatusCode::kBudgetExhausted);
  const EvalStats deadline_stats = engine_.LastRunStats();

  EXPECT_GT(budget_stats.total_ms, 0.0);
  EXPECT_GT(deadline_stats.total_ms, 0.0);
  EXPECT_EQ(budget_stats.per_rule.size(), deadline_stats.per_rule.size());
}

// The single exit contract of RunStages (docs/execution.md): every
// engine, called directly with a caller-owned EvalContext, leaves it
// finalized — wall-clock set, index counters folded into its stats — when
// a max_rounds budget or a pre-cancelled token ends the run.
TEST_F(DeadlineTest, DirectCallsLeaveTheCallersContextFinalized) {
  Program tc = Tc();
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  const Instance chain = graphs.Chain(5);  // 4 edges: TC needs 4 rounds
  CancelToken cancelled;
  cancelled.Cancel();
  using Run = std::function<Status(EvalContext*)>;
  const std::vector<std::pair<std::string, Run>> engines = {
      {"naive",
       [&](EvalContext* ctx) {
         return NaiveLeastFixpoint(tc, chain, nullptr, ctx).status();
       }},
      {"seminaive",
       [&](EvalContext* ctx) {
         return SemiNaiveDatalog(tc, chain, ctx).status();
       }},
      {"stratified",
       [&](EvalContext* ctx) {
         return StratifiedSemantics(tc, engine_.catalog(), chain, ctx)
             .status();
       }},
      {"wellfounded",
       [&](EvalContext* ctx) {
         return WellFoundedSemantics(tc, chain, ctx).status();
       }},
      {"stable",
       [&](EvalContext* ctx) {
         return StableModels(tc, chain, ctx->options, 1 << 20, ctx).status();
       }},
      {"inflationary",
       [&](EvalContext* ctx) {
         return InflationaryFixpoint(tc, chain, ctx).status();
       }},
      {"noninflationary",
       [&](EvalContext* ctx) {
         return NonInflationaryFixpoint(tc, chain, NonInflationaryOptions{},
                                        ctx)
             .status();
       }},
      {"invention",
       [&](EvalContext* ctx) {
         return InventionFixpoint(tc, chain, &engine_.symbols(), ctx)
             .status();
       }},
  };
  auto expect_finalized = [](const EvalContext& ctx) {
    EXPECT_GT(ctx.stats.total_ms, 0.0);
    const IndexManager::Counters& c = ctx.index.counters();
    EXPECT_EQ(ctx.stats.index_hits, c.hits);
    EXPECT_EQ(ctx.stats.index_builds, c.builds);
    EXPECT_EQ(ctx.stats.index_rebuilds, c.rebuilds);
    EXPECT_EQ(ctx.stats.index_appended, c.appended);
  };
  for (const auto& [name, run] : engines) {
    SCOPED_TRACE(name);
    EvalOptions budget;
    budget.num_threads = 1;
    budget.max_rounds = 1;
    EvalContext budget_ctx(budget);
    EXPECT_EQ(run(&budget_ctx).code(), StatusCode::kBudgetExhausted);
    expect_finalized(budget_ctx);
    // The one round that ran built the join indexes.
    EXPECT_GT(budget_ctx.stats.index_builds, 0);
    EXPECT_EQ(budget_ctx.stats.rounds, 1);

    EvalOptions cancel;
    cancel.cancel = &cancelled;
    EvalContext cancel_ctx(cancel);
    EXPECT_EQ(run(&cancel_ctx).code(), StatusCode::kCancelled);
    expect_finalized(cancel_ctx);
  }
}

}  // namespace
}  // namespace datalog
