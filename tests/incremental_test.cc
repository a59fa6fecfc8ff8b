// Tests for IncrementalView (docs/incremental.md): counting maintenance on
// flat strata, DRed on recursive/stratified-negation strata, and the
// golden maintenance counters that pin the algorithms' shapes. Every
// ApplyBatch is cross-checked byte-for-byte against a from-scratch
// stratified run of the same base.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "eval/incremental.h"
#include "eval/test_hooks.h"
#include "workload/graphs.h"

namespace datalog {
namespace {

class IncrementalTest : public ::testing::Test {
 protected:
  Program MustParse(std::string_view text) {
    Result<Program> p = engine_.Parse(text);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return std::move(p).value();
  }

  std::unique_ptr<IncrementalView> MustCreate(const Program& program,
                                              const Instance& base) {
    auto view = IncrementalView::Create(program, engine_.catalog(), base);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    return std::move(*view);
  }

  /// The reference: evaluate the view's *current* base from scratch and
  /// compare serialized snapshots byte-for-byte.
  void ExpectMatchesScratch(const Program& program,
                            const IncrementalView& view) {
    Result<Instance> scratch = engine_.Stratified(program, view.base());
    ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
    EXPECT_EQ(view.model().SerializeSnapshot(), scratch->SerializeSnapshot());
  }

  FactUpdate Ins(std::string_view pred, Tuple t) {
    return FactUpdate{engine_.catalog().Find(pred), std::move(t), true};
  }
  FactUpdate Del(std::string_view pred, Tuple t) {
    return FactUpdate{engine_.catalog().Find(pred), std::move(t), false};
  }

  Engine engine_;
};

constexpr const char* kTc =
    "t(X, Y) :- e(X, Y).\n"
    "t(X, Z) :- t(X, Y), e(Y, Z).\n";

TEST_F(IncrementalTest, TransitiveClosureInsertAndRetract) {
  Program p = MustParse(kTc);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols(), "e");
  Instance base = graphs.Chain(5);  // nodes 0..4
  auto view = MustCreate(p, base);
  ExpectMatchesScratch(p, *view);
  const PredId t = engine_.catalog().Find("t");
  EXPECT_EQ(view->model().Rel(t).size(), 10u);

  // Close the cycle: every ordered pair becomes reachable.
  ASSERT_TRUE(
      view->ApplyBatch({Ins("e", {graphs.Node(4), graphs.Node(0)})}).ok());
  ExpectMatchesScratch(p, *view);
  EXPECT_EQ(view->model().Rel(t).size(), 25u);

  // Cut the chain in the middle: reachability splits.
  ASSERT_TRUE(
      view->ApplyBatch({Del("e", {graphs.Node(2), graphs.Node(3)})}).ok());
  ExpectMatchesScratch(p, *view);

  // The recursive stratum is maintained by DRed, not counting.
  EXPECT_EQ(view->stats().counting_strata, 0);
  EXPECT_EQ(view->stats().dred_strata, 1);
  EXPECT_GT(view->stats().overdeleted, 0);
}

TEST_F(IncrementalTest, DiamondRetractionRederives) {
  // The canonical DRed case: deleting one edge of a diamond overdeletes
  // facts the other path still supports; rederivation must restore them.
  Program p = MustParse(kTc);
  Instance base(&engine_.catalog());
  ASSERT_TRUE(engine_
                  .AddFacts(
                      "e(a, b1). e(a, b2). e(b1, c). e(b2, c). e(c, d).\n",
                      &base)
                  .ok());
  auto view = MustCreate(p, base);
  const PredId t = engine_.catalog().Find("t");
  const Value a = engine_.symbols().Find("a");
  const Value b1 = engine_.symbols().Find("b1");
  const Value c = engine_.symbols().Find("c");
  const Value d = engine_.symbols().Find("d");
  ASSERT_TRUE(view->model().Contains(t, {a, d}));

  ASSERT_TRUE(view->ApplyBatch({Del("e", {b1, c})}).ok());
  ExpectMatchesScratch(p, *view);
  // t(a,c) and t(a,d) survived via b2; they were overdeleted and came
  // back through rederivation.
  EXPECT_TRUE(view->model().Contains(t, {a, c}));
  EXPECT_TRUE(view->model().Contains(t, {a, d}));
  EXPECT_GT(view->stats().rederived_provenance + view->stats().rederived_query,
            0);
  // t(b1,c) is gone for good.
  EXPECT_FALSE(view->model().Contains(t, {b1, c}));
}

TEST_F(IncrementalTest, InjectedDredSkipRederiveLosesDiamondFacts) {
  // The planted --inject-bug=dred-skip-rederive bug: with rederivation
  // skipped, the overdeleted-but-still-supported diamond facts stay lost.
  Program p = MustParse(kTc);
  Instance base(&engine_.catalog());
  ASSERT_TRUE(engine_
                  .AddFacts("e(a, b1). e(a, b2). e(b1, c). e(b2, c).\n",
                              &base)
                  .ok());
  auto view = MustCreate(p, base);
  const PredId t = engine_.catalog().Find("t");
  const Value a = engine_.symbols().Find("a");
  const Value b1 = engine_.symbols().Find("b1");
  const Value c = engine_.symbols().Find("c");
  internal::g_dred_skip_rederive = true;
  ASSERT_TRUE(view->ApplyBatch({Del("e", {b1, c})}).ok());
  internal::g_dred_skip_rederive = false;
  // t(a,c) is still derivable via b2, but the buggy view dropped it.
  EXPECT_FALSE(view->model().Contains(t, {a, c}));
  Result<Instance> scratch = engine_.Stratified(p, view->base());
  ASSERT_TRUE(scratch.ok());
  EXPECT_TRUE(scratch->Contains(t, {a, c}));
}

TEST_F(IncrementalTest, CountingOnFlatStratumWithNegation) {
  // A layered win/move-style program without recursion through the
  // negation: both strata are flat, so both are maintained by counting.
  constexpr const char* kLayered =
      "reach(X) :- start(X).\n"
      "reach(Y) :- reach(X), e(X, Y).\n"
      "dead(X) :- node(X), !reach(X).\n";
  Program p = MustParse(kLayered);
  Instance base(&engine_.catalog());
  ASSERT_TRUE(engine_
                  .AddFacts(
                      "node(a). node(b). node(c). node(d).\n"
                      "start(a). e(a, b). e(b, c).\n",
                      &base)
                  .ok());
  auto view = MustCreate(p, base);
  ExpectMatchesScratch(p, *view);
  EXPECT_EQ(view->stats().counting_strata, 1);  // the dead stratum
  EXPECT_EQ(view->stats().dred_strata, 1);      // the recursive reach one
  const PredId dead = engine_.catalog().Find("dead");
  const Value c = engine_.symbols().Find("c");
  const Value d = engine_.symbols().Find("d");
  EXPECT_TRUE(view->model().Contains(dead, {d}));
  EXPECT_FALSE(view->model().Contains(dead, {c}));

  // Cutting e(b,c) makes c unreachable: reach loses via DRed, dead gains
  // via the flipped-negation counting pass.
  const Value b = engine_.symbols().Find("b");
  ASSERT_TRUE(view->ApplyBatch({Del("e", {b, c})}).ok());
  ExpectMatchesScratch(p, *view);
  EXPECT_TRUE(view->model().Contains(dead, {c}));
  EXPECT_GT(view->stats().recounted, 0);

  // Re-linking c through d flips it back.
  ASSERT_TRUE(
      view->ApplyBatch({Ins("e", {b, d}), Ins("e", {d, c})}).ok());
  ExpectMatchesScratch(p, *view);
  EXPECT_FALSE(view->model().Contains(dead, {c}));
  EXPECT_FALSE(view->model().Contains(dead, {d}));
}

TEST_F(IncrementalTest, RetractToEmptyAndReinsert) {
  Program p = MustParse(kTc);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols(), "e");
  Instance base = graphs.Chain(4);
  auto view = MustCreate(p, base);
  const PredId e = engine_.catalog().Find("e");
  const PredId t = engine_.catalog().Find("t");

  // Retract every base edge: the model must drain to empty.
  std::vector<FactUpdate> drain;
  for (const Tuple& edge : view->base().Rel(e)) {
    drain.push_back(Del("e", edge));
  }
  ASSERT_TRUE(view->ApplyBatch(drain).ok());
  ExpectMatchesScratch(p, *view);
  EXPECT_EQ(view->model().Rel(t).size(), 0u);
  EXPECT_EQ(view->model().Rel(e).size(), 0u);

  // Re-insert after retract-to-empty: full closure comes back.
  std::vector<FactUpdate> refill;
  for (const Tuple& edge : base.Rel(e)) refill.push_back(Ins("e", edge));
  ASSERT_TRUE(view->ApplyBatch(refill).ok());
  ExpectMatchesScratch(p, *view);
  EXPECT_EQ(view->model().Rel(t).size(), 6u);
}

TEST_F(IncrementalTest, DuplicateAndCancellingUpdatesAreNoops) {
  Program p = MustParse(kTc);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols(), "e");
  auto view = MustCreate(p, graphs.Chain(3));
  const Tuple edge{graphs.Node(0), graphs.Node(1)};
  const std::string before = view->model().SerializeSnapshot();

  // Duplicate insert: no-op, no model change.
  ASSERT_TRUE(view->ApplyBatch({Ins("e", edge)}).ok());
  EXPECT_EQ(view->stats().noops, 1);
  EXPECT_EQ(view->model().SerializeSnapshot(), before);

  // Retract of an absent fact: no-op.
  ASSERT_TRUE(view->ApplyBatch({Del("e", {graphs.Node(2), graphs.Node(0)})})
                  .ok());
  EXPECT_EQ(view->stats().noops, 2);
  EXPECT_EQ(view->model().SerializeSnapshot(), before);

  // Retract+insert of the same fact in one batch cancels to nothing.
  ASSERT_TRUE(view->ApplyBatch({Del("e", edge), Ins("e", edge)}).ok());
  EXPECT_EQ(view->model().SerializeSnapshot(), before);
  ExpectMatchesScratch(p, *view);
}

// A batch's net effect on a fact is decided by its presence before the
// batch's first effective update of it.
TEST_F(IncrementalTest, InsertThenRetractOfAnAbsentFactLeavesNoDelta) {
  Program p = MustParse(kTc);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols(), "e");
  auto view = MustCreate(p, graphs.Chain(3));
  const std::string before = view->model().SerializeSnapshot();
  const Tuple absent{graphs.Node(2), graphs.Node(0)};
  ASSERT_TRUE(view->ApplyBatch({Ins("e", absent), Del("e", absent)}).ok());
  EXPECT_EQ(view->model().SerializeSnapshot(), before);
  EXPECT_TRUE(view->last_added().empty());
  EXPECT_TRUE(view->last_removed().empty());
  EXPECT_EQ(view->stats().inserts, 1);
  EXPECT_EQ(view->stats().retracts, 1);
}

TEST_F(IncrementalTest, RetractInsertRetractOfAPresentFactIsOneRetraction) {
  Program p = MustParse(kTc);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols(), "e");
  const PredId e = engine_.catalog().Find("e");
  const Tuple edge{graphs.Node(1), graphs.Node(2)};
  auto single = MustCreate(p, graphs.Chain(3));
  ASSERT_TRUE(single->ApplyBatch({Del("e", edge)}).ok());

  auto view = MustCreate(p, graphs.Chain(3));
  ASSERT_TRUE(
      view->ApplyBatch({Del("e", edge), Ins("e", edge), Del("e", edge)}).ok());
  ExpectMatchesScratch(p, *view);
  EXPECT_FALSE(view->base().Contains(e, edge));
  EXPECT_EQ(view->model().SerializeSnapshot(),
            single->model().SerializeSnapshot());
  // The same net delta as the lone retraction: e(1,2), t(1,2), t(0,2).
  auto facts = [](const storage::FactSet& set) {
    std::vector<std::pair<PredId, Tuple>> out;
    set.ForEach([&](PredId q, const Tuple& t) { out.emplace_back(q, t); });
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_TRUE(view->last_added().empty());
  EXPECT_TRUE(view->last_removed().Contains(e, edge));
  EXPECT_EQ(facts(view->last_removed()).size(), 3u);
  EXPECT_EQ(facts(view->last_removed()), facts(single->last_removed()));
}

TEST_F(IncrementalTest, MaintenanceStatsGolden) {
  // Golden counters on a fixed scenario: pins the candidate/overdeletion
  // fan-out of both algorithms. If maintenance strategy changes, update
  // these alongside docs/incremental.md.
  Program p = MustParse(kTc);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols(), "e");
  auto view = MustCreate(p, graphs.Chain(5));
  ASSERT_TRUE(
      view->ApplyBatch({Ins("e", {graphs.Node(4), graphs.Node(0)})}).ok());
  ASSERT_TRUE(
      view->ApplyBatch({Del("e", {graphs.Node(2), graphs.Node(3)})}).ok());
  const IncrementalView::Stats& st = view->stats();
  EXPECT_EQ(st.batches, 2);
  EXPECT_EQ(st.inserts, 1);
  EXPECT_EQ(st.retracts, 1);
  EXPECT_EQ(st.noops, 0);
  EXPECT_EQ(st.facts_added, 16);    // 15 new t facts + the e edge
  EXPECT_EQ(st.facts_removed, 16);  // 15 lost t facts + the e edge
  EXPECT_EQ(st.overdeleted, 25);    // cutting the cycle overdeletes all t
  EXPECT_EQ(st.rederived_base, 0);
  // 10 of the 25 survive (the path 3→4→0→1→2): 7 rederive directly in
  // the delete–rederive pass, the other 3 come back through the insert
  // propagation rounds once their supports are restored.
  EXPECT_EQ(st.rederived_provenance + st.rederived_query, 7);
  // Every match callback of both batches' DRed passes (TC is one
  // recursive stratum, so counting never runs).
  EXPECT_EQ(st.instantiations, 60);
}

// One batch retracts facts on both sides of a join. The lost-
// instantiation pass reads the pre-batch model through the removed facts:
// each removed q fact probes the removed r facts by the join column, and
// the reverse, through orders of the removed rows built once per batch.
TEST_F(IncrementalTest, JoinRetractionOfBothSidesInOneBatch) {
  Program program = MustParse("p(X, Z) :- q(X, Y), r(Y, Z).\n");
  constexpr int kKeys = 1000;
  const PredId p = engine_.catalog().Find("p");
  const PredId q = engine_.catalog().Find("q");
  const PredId r = engine_.catalog().Find("r");
  SymbolTable& symbols = engine_.symbols();
  Instance base(&engine_.catalog());
  std::vector<FactUpdate> batch;
  // Per key: 4 q facts and 8 r facts, of which 2 and 6 are retracted.
  for (int i = 0; i < 4 * kKeys; ++i) {
    const Tuple t{symbols.InternInt(i), symbols.InternInt(i % kKeys)};
    base.Insert(q, t);
    if (i / kKeys % 2 == 0) batch.push_back(FactUpdate{q, t, false});
  }
  for (int j = 0; j < 8 * kKeys; ++j) {
    const Tuple t{symbols.InternInt(j % kKeys), symbols.InternInt(j)};
    base.Insert(r, t);
    if (j / kKeys % 4 != 3) batch.push_back(FactUpdate{r, t, false});
  }
  auto view = MustCreate(program, base);
  EXPECT_EQ(view->model().Rel(p).size(), size_t{32} * kKeys);

  ASSERT_TRUE(view->ApplyBatch(batch).ok());
  ExpectMatchesScratch(program, *view);
  EXPECT_EQ(view->model().Rel(p).size(), size_t{4} * kKeys);
  EXPECT_EQ(view->stats().facts_removed, 8000 + 28 * kKeys);
}

// The lost-instantiation pass reads the pre-batch model, in which the
// batch's gains are absent. Reading them as present would still leave
// the model right (the extra candidates recount to what they were), so
// only the work counters show it: a partial probe (q by its join column)
// and a fully bound one (u(7)) must each skip the fact the batch gained.
TEST_F(IncrementalTest, PreBatchReadsHideTheBatchsGains) {
  Program program = MustParse(
      "p(X, Z) :- q(X, Y), r(Y, Z).\n"
      "s(X) :- u(X), w(X).\n");
  Instance base(&engine_.catalog());
  ASSERT_TRUE(engine_.AddFacts("q(1, 10). r(10, 100). w(7).\n", &base).ok());
  const Value n1 = engine_.symbols().Find("1");
  const Value n2 = engine_.symbols().InternInt(2);
  const Value n7 = engine_.symbols().Find("7");
  const Value n10 = engine_.symbols().Find("10");
  const Value n100 = engine_.symbols().Find("100");
  auto view = MustCreate(program, base);
  ASSERT_TRUE(view->model().Contains(engine_.catalog().Find("p"),
                                     {n1, n100}));

  ASSERT_TRUE(view->ApplyBatch({Ins("q", {n2, n10}), Del("r", {n10, n100}),
                                Ins("u", {n7}), Del("w", {n7})})
                  .ok());
  ExpectMatchesScratch(program, *view);
  // Only p(1, 100), found through the removed r(10, 100), is a candidate;
  // its recount finds no derivation.
  EXPECT_EQ(view->stats().recounted, 1);
  EXPECT_EQ(view->stats().instantiations, 1);
}

TEST_F(IncrementalTest, UnsupportedAndNotStratifiable) {
  // Recursion through negation: refused at Create as kNotStratifiable.
  Program win = MustParse("win(X) :- move(X, Y), !win(Y).\n");
  Instance base(&engine_.catalog());
  auto r1 = IncrementalView::Create(win, engine_.catalog(), base);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kNotStratifiable);

  // Unsafe rule (variable bound only under negation): needs active-domain
  // enumeration, refused as kUnsupported.
  Program unsafe = MustParse("ct(X, Y) :- !t(X, Y).\n");
  auto r2 = IncrementalView::Create(unsafe, engine_.catalog(), base);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kUnsupported);

  // Forall rules: refused as kUnsupported.
  Program forall =
      MustParse("ans(X) :- forall Y : p(X), !q(X, Y).\n");
  auto r3 = IncrementalView::Create(forall, engine_.catalog(), base);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kUnsupported);
}

TEST_F(IncrementalTest, BadUpdatesAreRejectedAtomically) {
  Program p = MustParse(kTc);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols(), "e");
  auto view = MustCreate(p, graphs.Chain(3));
  const std::string before = view->model().SerializeSnapshot();
  // Wrong arity: rejected up front, nothing applied.
  Status s = view->ApplyBatch(
      {Ins("e", {graphs.Node(0)}),
       Ins("e", {graphs.Node(2), graphs.Node(0)})});
  EXPECT_EQ(s.code(), StatusCode::kSchemaError);
  EXPECT_EQ(view->model().SerializeSnapshot(), before);
  // Unknown predicate id.
  Status s2 = view->ApplyBatch({FactUpdate{PredId{9999}, {1, 2}, true}});
  EXPECT_EQ(s2.code(), StatusCode::kSchemaError);
  EXPECT_EQ(view->model().SerializeSnapshot(), before);
}

TEST_F(IncrementalTest, RandomizedUpdatesMatchScratch) {
  // Property sweep: random single and multi-fact batches over a two-rule
  // program with negation, checked against from-scratch after every batch.
  constexpr const char* kProgram =
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Z) :- t(X, Y), e(Y, Z).\n"
      "blocked(X) :- node(X), !t(X, X).\n";
  Program p = MustParse(kProgram);
  Instance base(&engine_.catalog());
  ASSERT_TRUE(
      engine_.AddFacts("node(n0). node(n1). node(n2). node(n3).\n", &base)
          .ok());
  const PredId e = engine_.catalog().Find("e");
  std::vector<Value> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(engine_.symbols().Find("n" + std::to_string(i)));
  }
  auto view = MustCreate(p, base);
  // A fixed LCG keeps the sweep deterministic.
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<size_t>(state >> 33);
  };
  for (int step = 0; step < 60; ++step) {
    std::vector<FactUpdate> batch;
    const size_t batch_size = 1 + next() % 3;
    for (size_t i = 0; i < batch_size; ++i) {
      const Tuple edge{nodes[next() % nodes.size()],
                       nodes[next() % nodes.size()]};
      batch.push_back(FactUpdate{e, edge, next() % 2 == 0});
    }
    ASSERT_TRUE(view->ApplyBatch(batch).ok()) << "step " << step;
    ExpectMatchesScratch(p, *view);
  }
  EXPECT_GT(view->stats().inserts, 0);
  EXPECT_GT(view->stats().retracts, 0);
}

}  // namespace
}  // namespace datalog
