// Tests for the active-rule (ECA / delta) engine: triggering on
// insertions/deletions, cascades, incremental view maintenance, and
// non-termination detection.

#include <gtest/gtest.h>

#include "active/eca.h"
#include "core/engine.h"
#include "test_util.h"
#include "workload/graphs.h"

namespace datalog {
namespace {

class EcaTest : public ::testing::Test {
 protected:
  Program MustParse(std::string_view text) {
    Result<Program> p = engine_.Parse(text);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return std::move(p).value();
  }
  Result<ActiveResult> Run(const Program& p, const Instance& db,
                           const Instance& ins, const Instance& del) {
    return RunActiveRules(p, &engine_.catalog(), db, ins, del);
  }
  Engine engine_;
};

TEST_F(EcaTest, InsertionTriggerFiresOnce) {
  // Audit log: record every inserted edge.
  Program p = MustParse("log(X, Y) :- ins_g(X, Y).\n");
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = graphs.Chain(3);
  Instance ins = engine_.NewInstance();
  ins.Insert(graphs.edge_pred(), {graphs.Node(7), graphs.Node(8)});
  Instance del = engine_.NewInstance();
  Result<ActiveResult> r = Run(p, db, ins, del);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  PredId log = engine_.catalog().Find("log");
  EXPECT_EQ(r->instance.Rel(log).size(), 1u);
  EXPECT_TRUE(
      r->instance.Contains(log, {graphs.Node(7), graphs.Node(8)}));
  // The pre-existing chain edges did NOT trigger the rule.
  EXPECT_FALSE(
      r->instance.Contains(log, {graphs.Node(0), graphs.Node(1)}));
  EXPECT_EQ(r->stages, 1);
}

// Active rules resolve a fact and its retraction fired in the same stage
// with positive priority, the one policy eca.h defines for them.
TEST_F(EcaTest, SameStageConflictKeepsThePositiveFact) {
  Program p = MustParse(
      "a(X) :- ins_g(X).\n"
      "!a(X) :- ins_g(X).\n");
  Instance db = engine_.NewInstance();
  Instance ins = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("g(1).", &ins).ok());
  Result<ActiveResult> r = Run(p, db, ins, engine_.NewInstance());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->instance.Contains(engine_.catalog().Find("a"),
                                   {engine_.symbols().Find("1")}));
  EXPECT_EQ(r->stages, 1);
}

TEST_F(EcaTest, NoEventMeansNoWork) {
  Program p = MustParse("log(X, Y) :- ins_g(X, Y).\n");
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = graphs.Chain(3);
  Instance none = engine_.NewInstance();
  Result<ActiveResult> r = Run(p, db, none, none);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stages, 0);
  EXPECT_EQ(r->instance, db);
}

TEST_F(EcaTest, CascadingDeleteAcrossStages) {
  // Referential integrity: deleting a department deletes its employees
  // (stage 1), which deletes their project assignments (stage 2).
  Program p = MustParse(
      "!emp(E, D) :- del_dept(D), emp(E, D).\n"
      "!assigned(P, E) :- del_emp(E, D), assigned(P, E).\n");
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_
                  .AddFacts(
                      "dept(sales). dept(eng).\n"
                      "emp(alice, sales). emp(bob, eng).\n"
                      "assigned(crm, alice). assigned(web, bob).",
                      &db)
                  .ok());
  PredId dept = engine_.catalog().Find("dept");
  Instance del = engine_.NewInstance();
  del.Insert(dept, {engine_.symbols().Find("sales")});
  Instance ins = engine_.NewInstance();
  Result<ActiveResult> r = Run(p, db, ins, del);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  PredId emp = engine_.catalog().Find("emp");
  PredId assigned = engine_.catalog().Find("assigned");
  EXPECT_EQ(r->instance.Rel(emp).size(), 1u);       // bob survives
  EXPECT_EQ(r->instance.Rel(assigned).size(), 1u);  // web/bob survives
  EXPECT_FALSE(r->instance.Contains(
      assigned, {engine_.symbols().Find("crm"),
                 engine_.symbols().Find("alice")}));
  EXPECT_EQ(r->stages, 2);
}

TEST_F(EcaTest, IncrementalViewMaintenance) {
  // Maintain tc as new edges arrive: classic delta-driven closure.
  Program p = MustParse(
      "tc(X, Y) :- ins_g(X, Y).\n"
      "tc(X, Y) :- ins_tc(X, Z), tc(Z, Y).\n"
      "tc(X, Y) :- tc(X, Z), ins_tc(Z, Y).\n");
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  PredId tc = *engine_.catalog().Declare("tc", 2);

  // Start with the chain's closure precomputed.
  Instance db = graphs.Chain(4);
  auto closure = testutil::ReachabilityOracle(db.Rel(graphs.edge_pred()));
  for (const auto& [x, y] : closure) db.Insert(tc, {x, y});

  // Insert the closing edge 3 -> 0 and let the rules repair the view.
  Instance ins = engine_.NewInstance();
  ins.Insert(graphs.edge_pred(), {graphs.Node(3), graphs.Node(0)});
  Instance del = engine_.NewInstance();
  Result<ActiveResult> r = Run(p, db, ins, del);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Oracle: closure of the cycle = all 16 pairs.
  EXPECT_EQ(r->instance.Rel(tc).size(), 16u);
}

TEST_F(EcaTest, DeltasAreClearedInResult) {
  Program p = MustParse("log(X, Y) :- ins_g(X, Y).\n");
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = engine_.NewInstance();
  Instance ins = engine_.NewInstance();
  ins.Insert(graphs.edge_pred(), {graphs.Node(1), graphs.Node(2)});
  Instance del = engine_.NewInstance();
  Result<ActiveResult> r = Run(p, db, ins, del);
  ASSERT_TRUE(r.ok());
  PredId ins_g = engine_.catalog().Find("ins_g");
  ASSERT_GE(ins_g, 0);
  EXPECT_TRUE(r->instance.Rel(ins_g).empty());
}

TEST_F(EcaTest, HeadWritingDeltaRejected) {
  Program p = MustParse("ins_g(X, Y) :- h(X, Y).\n");
  Instance db = engine_.NewInstance();
  Instance none = engine_.NewInstance();
  Result<ActiveResult> r = Run(p, db, none, none);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidProgram);
}

TEST_F(EcaTest, PingPongRulesDetectedAsNonTerminating) {
  // Two triggers endlessly undoing each other: every insertion of mark
  // deletes it, every deletion re-inserts it — a classic active-database
  // runaway, caught by revisited-state detection.
  Program p = MustParse(
      "!mark(X) :- ins_mark(X).\n"
      "mark(X) :- del_mark(X).\n");
  Instance db = engine_.NewInstance();
  PredId mark = *engine_.catalog().Declare("mark", 1);
  Instance ins = engine_.NewInstance();
  ins.Insert(mark, {engine_.symbols().Intern("a")});
  Instance del = engine_.NewInstance();
  Result<ActiveResult> r = Run(p, db, ins, del);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNonTerminating)
      << r.status().ToString();
}

TEST_F(EcaTest, ConditionsConsultTheCurrentState) {
  // Trigger only fires when the database satisfies the condition part:
  // new edges into a node already marked hot.
  Program p = MustParse("alert(X, Y) :- ins_g(X, Y), hot(Y).\n");
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = engine_.NewInstance();
  PredId hot = *engine_.catalog().Declare("hot", 1);
  db.Insert(hot, {graphs.Node(5)});
  Instance ins = engine_.NewInstance();
  ins.Insert(graphs.edge_pred(), {graphs.Node(1), graphs.Node(5)});
  ins.Insert(graphs.edge_pred(), {graphs.Node(1), graphs.Node(6)});
  Instance del = engine_.NewInstance();
  Result<ActiveResult> r = Run(p, db, ins, del);
  ASSERT_TRUE(r.ok());
  PredId alert = engine_.catalog().Find("alert");
  EXPECT_EQ(r->instance.Rel(alert).size(), 1u);
  EXPECT_TRUE(r->instance.Contains(alert, {graphs.Node(1), graphs.Node(5)}));
}

}  // namespace
}  // namespace datalog
