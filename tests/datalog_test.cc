// Tests for positive Datalog evaluation: naive and semi-naive minimum
// models (Section 3.1), checked against independent oracles, plus
// parameterized equivalence sweeps between the two algorithms.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "test_util.h"
#include "workload/graphs.h"

namespace datalog {
namespace {

class DatalogTest : public ::testing::Test {
 protected:
  Program MustParse(std::string_view text) {
    Result<Program> p = engine_.Parse(text);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return std::move(p).value();
  }
  Engine engine_;
};

constexpr const char* kTcProgram =
    "t(X, Y) :- g(X, Y).\n"
    "t(X, Y) :- g(X, Z), t(Z, Y).\n";

TEST_F(DatalogTest, TransitiveClosureOnChain) {
  Program p = MustParse(kTcProgram);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = graphs.Chain(5);
  Result<Instance> model = engine_.MinimumModel(p, db);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  PredId t = engine_.catalog().Find("t");
  // Chain 0->1->2->3->4: C(5,2) = 10 pairs.
  EXPECT_EQ(model->Rel(t).size(), 10u);
  EXPECT_TRUE(model->Contains(t, {graphs.Node(0), graphs.Node(4)}));
  EXPECT_FALSE(model->Contains(t, {graphs.Node(4), graphs.Node(0)}));
}

TEST_F(DatalogTest, TransitiveClosureOnCycleIsComplete) {
  Program p = MustParse(kTcProgram);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = graphs.Cycle(6);
  Result<Instance> model = engine_.MinimumModel(p, db);
  ASSERT_TRUE(model.ok());
  PredId t = engine_.catalog().Find("t");
  EXPECT_EQ(model->Rel(t).size(), 36u);  // every pair incl. self-loops
}

TEST_F(DatalogTest, EmptyInputYieldsEmptyIdb) {
  Program p = MustParse(kTcProgram);
  Instance db = engine_.NewInstance();
  Result<Instance> model = engine_.MinimumModel(p, db);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->TotalFacts(), 0u);
}

TEST_F(DatalogTest, GroundFactsInProgram) {
  Program p = MustParse(
      "g(a, b).\n"
      "t(X, Y) :- g(X, Y).\n"
      "t(X, Y) :- g(X, Z), t(Z, Y).\n");
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("g(b, c).", &db).ok());
  Result<Instance> model = engine_.MinimumModel(p, db);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  PredId t = engine_.catalog().Find("t");
  EXPECT_EQ(model->Rel(t).size(), 3u);  // ab, bc, ac
}

TEST_F(DatalogTest, SameGeneration) {
  Program p = MustParse(
      "sg(X, Y) :- flat(X, Y).\n"
      "sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\n");
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts(
                  "up(a, e). up(b, e). up(c, f). up(d, f).\n"
                  "flat(e, f).\n"
                  "down(e, a). down(e, b). down(f, c). down(f, d).",
                  &db)
                  .ok());
  Result<Instance> model = engine_.MinimumModel(p, db);
  ASSERT_TRUE(model.ok());
  PredId sg = engine_.catalog().Find("sg");
  auto v = [&](const char* s) { return engine_.symbols().Find(s); };
  EXPECT_TRUE(model->Contains(sg, {v("e"), v("f")}));
  EXPECT_TRUE(model->Contains(sg, {v("a"), v("c")}));
  EXPECT_TRUE(model->Contains(sg, {v("b"), v("d")}));
  EXPECT_FALSE(model->Contains(sg, {v("a"), v("b")}));  // needs flat(e,e)
}

TEST_F(DatalogTest, ConstantInRuleBody) {
  Program p = MustParse("from_a(Y) :- t0(a, Y).\n");
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("t0(a, b). t0(a, c). t0(b, c).", &db).ok());
  Result<Instance> model = engine_.MinimumModel(p, db);
  ASSERT_TRUE(model.ok());
  PredId from_a = engine_.catalog().Find("from_a");
  EXPECT_EQ(model->Rel(from_a).size(), 2u);
}

TEST_F(DatalogTest, RepeatedVariableInAtom) {
  Program p = MustParse("loop(X) :- g(X, X).\n");
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = graphs.Chain(4);
  db.Insert(graphs.edge_pred(), {graphs.Node(2), graphs.Node(2)});
  Result<Instance> model = engine_.MinimumModel(p, db);
  ASSERT_TRUE(model.ok());
  PredId loop = engine_.catalog().Find("loop");
  EXPECT_EQ(model->Rel(loop).size(), 1u);
  EXPECT_TRUE(model->Contains(loop, {graphs.Node(2)}));
}

TEST_F(DatalogTest, NaiveMatchesOracle) {
  Program p = MustParse(kTcProgram);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = graphs.RandomDigraph(12, 24, /*seed=*/7);
  Result<Instance> model = engine_.MinimumModelNaive(p, db);
  ASSERT_TRUE(model.ok());
  PredId t = engine_.catalog().Find("t");
  std::set<std::pair<Value, Value>> oracle =
      testutil::ReachabilityOracle(db.Rel(graphs.edge_pred()));
  EXPECT_EQ(model->Rel(t).size(), oracle.size());
  for (const auto& [x, y] : oracle) {
    EXPECT_TRUE(model->Contains(t, {x, y}));
  }
}

TEST_F(DatalogTest, SemiNaiveDoesLessWorkThanNaive) {
  Program p = MustParse(kTcProgram);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = graphs.Chain(40);
  EvalStats naive_stats, seminaive_stats;
  ASSERT_TRUE(engine_.MinimumModelNaive(p, db, &naive_stats).ok());
  ASSERT_TRUE(engine_.MinimumModel(p, db, &seminaive_stats).ok());
  // Naive re-derives every previously known fact each round; semi-naive
  // only touches the frontier.
  EXPECT_LT(seminaive_stats.instantiations, naive_stats.instantiations / 2);
}

TEST_F(DatalogTest, RejectsNegationViaValidation) {
  Program p = MustParse("p(X) :- q(X), !r(X).\n");
  Instance db = engine_.NewInstance();
  Result<Instance> model = engine_.MinimumModel(p, db);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidProgram);
}

// ---- Parameterized equivalence sweep: naive == semi-naive -------------

struct GraphCase {
  const char* name;
  int n;
  int m;
  uint64_t seed;
};

// gtest's default printer dumps the struct's bytes, and those start with the
// address of `name`, which ASLR moves on every run. The printed value is part
// of each test's registered name, so print the graph shape instead.
void PrintTo(const GraphCase& gc, std::ostream* os) {
  *os << "n=" << gc.n << " m=" << gc.m << " seed=" << gc.seed;
}

class NaiveSemiNaiveEquivalence : public ::testing::TestWithParam<GraphCase> {};

TEST_P(NaiveSemiNaiveEquivalence, SameMinimumModel) {
  const GraphCase& gc = GetParam();
  Engine engine;
  Result<Program> p = engine.Parse(kTcProgram);
  ASSERT_TRUE(p.ok());
  GraphBuilder graphs(&engine.catalog(), &engine.symbols());
  Instance db = graphs.RandomDigraph(gc.n, gc.m, gc.seed);
  Result<Instance> naive = engine.MinimumModelNaive(*p, db);
  Result<Instance> seminaive = engine.MinimumModel(*p, db);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(seminaive.ok());
  EXPECT_EQ(*naive, *seminaive) << "graph " << gc.name;
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, NaiveSemiNaiveEquivalence,
    ::testing::Values(GraphCase{"sparse8", 8, 10, 1},
                      GraphCase{"sparse16", 16, 24, 2},
                      GraphCase{"dense8", 8, 40, 3},
                      GraphCase{"dense12", 12, 100, 4},
                      GraphCase{"medium24", 24, 60, 5},
                      GraphCase{"large32", 32, 64, 6}),
    [](const ::testing::TestParamInfo<GraphCase>& info) {
      return info.param.name;
    });

// ---- Genericity (Section 2): isomorphism invariance -------------------

TEST(GenericityTest, MinimumModelCommutesWithRenaming) {
  // Run TC on a graph, rename every constant by an injective mapping, run
  // again: results must correspond under the mapping.
  Engine engine;
  Result<Program> p = engine.Parse(kTcProgram);
  ASSERT_TRUE(p.ok());
  GraphBuilder graphs(&engine.catalog(), &engine.symbols());
  Instance db = graphs.RandomDigraph(10, 20, /*seed=*/11);
  PredId g = graphs.edge_pred(), t = engine.catalog().Find("t");

  // Isomorphism: i -> i + 1000.
  auto rename = [&](Value v) {
    int64_t i = std::stoll(engine.symbols().NameOf(v));
    return engine.symbols().InternInt(i + 1000);
  };
  Instance renamed = engine.NewInstance();
  for (const Tuple& e : db.Rel(g)) {
    renamed.Insert(g, {rename(e[0]), rename(e[1])});
  }

  Result<Instance> m1 = engine.MinimumModel(*p, db);
  Result<Instance> m2 = engine.MinimumModel(*p, renamed);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  ASSERT_EQ(m1->Rel(t).size(), m2->Rel(t).size());
  for (const Tuple& e : m1->Rel(t)) {
    EXPECT_TRUE(m2->Contains(t, {rename(e[0]), rename(e[1])}));
  }
}

}  // namespace
}  // namespace datalog
