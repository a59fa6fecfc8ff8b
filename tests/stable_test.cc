// Tests for stable model semantics (Section 3.3's stable/default models
// [65], bracketed by the well-founded model).

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "eval/context.h"
#include "eval/stable.h"
#include "workload/graphs.h"

namespace datalog {
namespace {

class StableTest : public ::testing::Test {
 protected:
  Program MustParse(std::string_view text) {
    Result<Program> p = engine_.Parse(text);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return std::move(p).value();
  }
  Result<StableModelsResult> Run(const Program& p, const Instance& db) {
    return StableModels(p, db, engine_.options());
  }
  Engine engine_;
};

constexpr const char* kWin = "win(X) :- moves(X, Y), !win(Y).\n";

TEST_F(StableTest, TwoCycleGameHasTwoStableModels) {
  // moves(a,b), moves(b,a): the classic even negative loop — two stable
  // models, {win(a)} and {win(b)}.
  Program p = MustParse(kWin);
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("moves(a, b). moves(b, a).", &db).ok());
  Result<StableModelsResult> r = Run(p, db);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->models.size(), 2u);
  PredId win = engine_.catalog().Find("win");
  Value a = engine_.symbols().Find("a");
  Value b = engine_.symbols().Find("b");
  bool found_a = false, found_b = false;
  for (const Instance& m : r->models) {
    ASSERT_EQ(m.Rel(win).size(), 1u);
    if (m.Contains(win, {a})) found_a = true;
    if (m.Contains(win, {b})) found_b = true;
  }
  EXPECT_TRUE(found_a);
  EXPECT_TRUE(found_b);
}

TEST_F(StableTest, ThreeCycleGameHasNoStableModel) {
  // Odd negative loop: no stable model (though the well-founded model
  // exists, with everything unknown).
  Program p = MustParse(kWin);
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(
      engine_.AddFacts("moves(a, b). moves(b, c). moves(c, a).", &db).ok());
  Result<StableModelsResult> r = Run(p, db);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->models.size(), 0u);
  EXPECT_EQ(r->unknown_atoms, 3);
}

TEST_F(StableTest, StratifiedProgramHasUniqueStableModel) {
  Program p = MustParse(
      "t(X, Y) :- g(X, Y).\n"
      "t(X, Y) :- g(X, Z), t(Z, Y).\n"
      "ct(X, Y) :- !t(X, Y).\n");
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Instance db = graphs.RandomDigraph(7, 12, seed);
    Result<StableModelsResult> r = Run(p, db);
    Result<Instance> strat = engine_.Stratified(p, db);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(strat.ok());
    ASSERT_EQ(r->models.size(), 1u) << "seed " << seed;
    EXPECT_EQ(r->models[0], *strat) << "seed " << seed;
    EXPECT_EQ(r->unknown_atoms, 0) << "stratified => well-founded total";
  }
}

TEST_F(StableTest, WellFoundedTrueFactsInEveryStableModel) {
  Program p = MustParse(kWin);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Engine engine;
    Result<Program> wp = engine.Parse(kWin);
    ASSERT_TRUE(wp.ok());
    Instance db =
        RandomGameGraph(&engine.catalog(), &engine.symbols(), 7, 10, seed);
    Result<WellFoundedModel> wf = engine.WellFounded(*wp, db);
    Result<StableModelsResult> r =
        StableModels(*wp, db, engine.options());
    ASSERT_TRUE(wf.ok());
    ASSERT_TRUE(r.ok());
    for (const Instance& m : r->models) {
      EXPECT_TRUE(wf->true_facts.SubsetOf(m)) << "seed " << seed;
      EXPECT_TRUE(m.SubsetOf(wf->possible_facts)) << "seed " << seed;
    }
  }
  (void)p;
}

TEST_F(StableTest, PaperGameStableModels) {
  // On the Example 3.2 instance the unknowns {a, b, c} form a 3-cycle;
  // no assignment to them satisfies stability, so the program has no
  // stable model (win(d), win(f) notwithstanding).
  Program p = MustParse(kWin);
  Instance db = PaperGameGraph(&engine_.catalog(), &engine_.symbols());
  Result<StableModelsResult> r = Run(p, db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->unknown_atoms, 3);
  EXPECT_EQ(r->models.size(), 0u);
}

TEST_F(StableTest, SupportedButUnfoundedSetRejected) {
  // p(a) <- p(a) has the classical two fixpoints {} and {p(a)}, but only
  // {} is stable (the loop is unfounded).
  Program p = MustParse(
      "p(X) :- p(X), s(X).\n");
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("s(a).", &db).ok());
  Result<StableModelsResult> r = Run(p, db);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->models.size(), 1u);
  PredId pp = engine_.catalog().Find("p");
  EXPECT_TRUE(r->models[0].Rel(pp).empty());
}

TEST_F(StableTest, BudgetGuardsExponentialSearch) {
  Program p = MustParse(kWin);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols(), "moves");
  // 12 disjoint 2-cycles: 24 unknowns -> 2^24 candidates.
  Instance db = graphs.TwoCycles(12);
  Result<StableModelsResult> r =
      StableModels(p, db, engine_.options(), /*max_candidates=*/1000);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExhausted);
}

TEST_F(StableTest, DisjointTwoCyclesMultiplyModels) {
  // k independent 2-cycles => 2^k stable models.
  Program p = MustParse(kWin);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols(), "moves");
  Instance db = graphs.TwoCycles(3);
  Result<StableModelsResult> r = Run(p, db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->models.size(), 8u);
  PredId win = engine_.catalog().Find("win");
  for (const Instance& m : r->models) {
    EXPECT_EQ(m.Rel(win).size(), 3u) << "one winner per 2-cycle";
  }
}

/// Every scalar counter of `s`, in declaration order.
std::vector<int64_t> Scalars(const EvalStats& s) {
  return {s.rounds,
          s.facts_derived,
          s.instantiations,
          s.index_hits,
          s.index_builds,
          s.index_rebuilds,
          s.index_appended,
          s.index_removed};
}

// The pooled candidate fan-out folds each candidate's stats with the same
// merge as the sequential loop, so no counter can be left out.
TEST_F(StableTest, PooledMergesEveryScalarCounter) {
  Program win = MustParse(kWin);
  Instance game = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("moves(a, b). moves(b, a).", &game).ok());
  Program choice = MustParse(
      "p(X) :- node(X), !q(X).\n"
      "q(X) :- node(X), !p(X).\n");
  Instance nodes = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("node(a). node(b). node(c).", &nodes).ok());

  for (auto [program, db, models] :
       {std::tuple{&win, &game, size_t{2}},
        std::tuple{&choice, &nodes, size_t{8}}}) {
    std::vector<std::vector<int64_t>> by_threads;
    for (int threads : {1, 4}) {
      EvalOptions options = engine_.options();
      options.num_threads = threads;
      EvalContext ctx(options);
      Result<StableModelsResult> r =
          StableModels(*program, *db, options, 1 << 20, &ctx);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->models.size(), models);
      by_threads.push_back(Scalars(ctx.stats));
    }
    EXPECT_GT(by_threads[0][2], 0);  // instantiations
    EXPECT_EQ(by_threads[0], by_threads[1]);
  }
}

}  // namespace
}  // namespace datalog
