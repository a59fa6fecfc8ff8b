// Tests for the nondeterministic family (Section 5): one-at-a-time firing,
// eff(P) enumeration, the orientation program, Example 5.5's three ways of
// computing P − πA(Q), and the poss/cert semantics of Definition 5.10.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/engine.h"
#include "test_util.h"
#include "workload/graphs.h"

namespace datalog {
namespace {

class NondetTest : public ::testing::Test {
 protected:
  Program MustParse(std::string_view text) {
    Result<Program> p = engine_.Parse(text);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return std::move(p).value();
  }
  Engine engine_;
};

constexpr const char* kOrientation = "!g(X, Y) :- g(X, Y), g(Y, X).\n";

TEST_F(NondetTest, OrientationEffHasOneImagePerChoiceCombination) {
  // Section 5: nondeterministically, exactly one edge of each 2-cycle is
  // removed => eff has 2^k images on k disjoint 2-cycles.
  Program p = MustParse(kOrientation);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  const int k = 3;
  Instance db = graphs.TwoCycles(k);
  Result<EffectSet> eff =
      engine_.NondetEnumerate(p, Dialect::kNDatalogNegNeg, db);
  ASSERT_TRUE(eff.ok()) << eff.status().ToString();
  EXPECT_EQ(eff->images.size(), 8u);
  PredId g = graphs.edge_pred();
  for (const Instance& image : eff->images) {
    EXPECT_EQ(image.Rel(g).size(), static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) {
      bool fwd = image.Contains(g, {graphs.Node(2 * i), graphs.Node(2 * i + 1)});
      bool bwd = image.Contains(g, {graphs.Node(2 * i + 1), graphs.Node(2 * i)});
      EXPECT_NE(fwd, bwd) << "exactly one orientation per 2-cycle";
    }
  }
}

TEST_F(NondetTest, OrientationRunOnceIsReproduciblePerSeed) {
  Program p = MustParse(kOrientation);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = graphs.TwoCycles(4);
  Result<Instance> run1 =
      engine_.NondetRun(p, Dialect::kNDatalogNegNeg, db, /*seed=*/42);
  Result<Instance> run2 =
      engine_.NondetRun(p, Dialect::kNDatalogNegNeg, db, /*seed=*/42);
  ASSERT_TRUE(run1.ok());
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(*run1, *run2);
  // Different seeds usually give different orientations (16 possibilities).
  bool found_different = false;
  for (uint64_t seed = 0; seed < 12 && !found_different; ++seed) {
    Result<Instance> other =
        engine_.NondetRun(p, Dialect::kNDatalogNegNeg, db, seed);
    ASSERT_TRUE(other.ok());
    if (*other != *run1) found_different = true;
  }
  EXPECT_TRUE(found_different);
}

TEST_F(NondetTest, EveryRunOnceResultIsInEff) {
  Program p = MustParse(kOrientation);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = graphs.TwoCycles(2);
  Result<EffectSet> eff =
      engine_.NondetEnumerate(p, Dialect::kNDatalogNegNeg, db);
  ASSERT_TRUE(eff.ok());
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Result<Instance> run =
        engine_.NondetRun(p, Dialect::kNDatalogNegNeg, db, seed);
    ASSERT_TRUE(run.ok());
    bool in_eff = false;
    for (const Instance& image : eff->images) {
      if (image == *run) {
        in_eff = true;
        break;
      }
    }
    EXPECT_TRUE(in_eff) << "seed " << seed;
  }
}

/// One seeded run on one line: the terminal instance or the status, then
/// the steps taken and the matches found.
std::string RenderRun(Engine* engine, const Program& p, Dialect dialect,
                      const Instance& db, uint64_t seed,
                      const NondetOptions& options = {}) {
  Result<Instance> run = engine->NondetRun(p, dialect, db, seed, options);
  std::string out = run.ok() ? run->ToString(engine->symbols())
                             : run.status().ToString() + "\n";
  std::replace(out.begin(), out.end(), '\n', ' ');
  const EvalStats& st = engine->LastRunStats();
  return "seed " + std::to_string(seed) + ": " + out +
         "steps=" + std::to_string(st.rounds) +
         " inst=" + std::to_string(st.instantiations) + "\n";
}

// The Rng draws of RunOnce are part of its contract: the same seed picks
// the same moves, so these runs (results, ⊥ abandonments and stats) stay
// as they are across changes to the run loop.
TEST_F(NondetTest, RunOnceIsPinnedPerSeed) {
  Program orient = MustParse(kOrientation);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  const Instance cycles = graphs.TwoCycles(3);
  std::string got;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    got += RenderRun(&engine_, orient, Dialect::kNDatalogNegNeg, cycles, seed);
  }
  EXPECT_EQ(got,
            "seed 0: g(1, 0). g(2, 3). g(4, 5). steps=3 inst=12\n"
            "seed 1: g(0, 1). g(2, 3). g(4, 5). steps=3 inst=12\n"
            "seed 2: g(1, 0). g(3, 2). g(5, 4). steps=3 inst=12\n"
            "seed 3: g(1, 0). g(3, 2). g(4, 5). steps=3 inst=12\n");

  // Example 5.5's N-Datalog¬⊥ program: ⊥ abandons the unlucky orders.
  Program bottom = MustParse(
      "proj(X) :- !done-with-proj, q(X, Y).\n"
      "done-with-proj.\n"
      "bottom :- done-with-proj, q(X, Y), !proj(X).\n"
      "answer(X) :- done-with-proj, p(X), !proj(X).\n");
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_
                  .AddFacts("p(a). p(b). p(c). p(d).\n"
                            "q(a, 1). q(c, 2). q(e, 3).",
                            &db)
                  .ok());
  got.clear();
  for (uint64_t seed = 0; seed < 8; ++seed) {
    got += RenderRun(&engine_, bottom, Dialect::kNDatalogBottom, db, seed);
  }
  const std::string done =
      "proj(a). proj(c). proj(e). done-with-proj. q(a, 1). q(c, 2). "
      "q(e, 3). answer(b). answer(d). p(a). p(b). p(c). p(d). ";
  EXPECT_EQ(got,
            "seed 0: Abandoned: computation derived ⊥ at step 3 "
            "steps=3 inst=15\n"
            "seed 1: " + done + "steps=6 inst=25\n"
            "seed 2: Abandoned: computation derived ⊥ at step 5 "
            "steps=5 inst=36\n"
            "seed 3: Abandoned: computation derived ⊥ at step 6 "
            "steps=6 inst=27\n"
            "seed 4: Abandoned: computation derived ⊥ at step 4 "
            "steps=4 inst=28\n"
            "seed 5: " + done + "steps=6 inst=25\n"
            "seed 6: Abandoned: computation derived ⊥ at step 5 "
            "steps=5 inst=36\n"
            "seed 7: Abandoned: computation derived ⊥ at step 3 "
            "steps=3 inst=20\n");
}

// The step budget counts applied moves and, like every stage loop's round
// budget, is checked before each stage: a run stops after exactly
// max_rounds moves, even one whose next stage would find no move, and
// reports that many steps.
TEST_F(NondetTest, StepBudgetExitReportsTheStepsThatRan) {
  Program p = MustParse(kOrientation);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  const Instance db = graphs.TwoCycles(3);  // every run takes 3 steps
  for (int64_t budget : {1, 2, 3}) {
    SCOPED_TRACE("max_rounds=" + std::to_string(budget));
    NondetOptions options;
    options.eval.max_rounds = budget;
    Result<Instance> run =
        engine_.NondetRun(p, Dialect::kNDatalogNegNeg, db, /*seed=*/1, options);
    ASSERT_EQ(run.status().code(), StatusCode::kBudgetExhausted);
    EXPECT_EQ(engine_.LastRunStats().rounds, budget);
    EXPECT_GT(engine_.LastRunStats().total_ms, 0.0);
  }
  NondetOptions options;
  options.eval.max_rounds = 4;
  Result<Instance> run =
      engine_.NondetRun(p, Dialect::kNDatalogNegNeg, db, /*seed=*/1, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(engine_.LastRunStats().rounds, 3);
}

// ---- Example 5.4 / 5.5: P − πA(Q) --------------------------------------

// Input: p over A, q over A x B. Expected answer: p minus the projection.
class ProjectionDiffTest : public NondetTest {
 protected:
  void LoadInput() {
    db_ = engine_.NewInstance();
    ASSERT_TRUE(engine_
                    .AddFacts(
                        "p(a). p(b). p(c). p(d).\n"
                        "q(a, 1). q(c, 2). q(e, 3).",
                        &db_)
                    .ok());
    expected_ = {engine_.symbols().Find("b"), engine_.symbols().Find("d")};
  }

  void CheckAnswer(const Instance& image) {
    PredId answer = engine_.catalog().Find("answer");
    std::set<Value> got;
    for (const Tuple& t : image.Rel(answer)) got.insert(t[0]);
    EXPECT_EQ(got, expected_);
  }

  Instance db_{nullptr};
  std::set<Value> expected_;
};

TEST_F(ProjectionDiffTest, NDatalogNegNegVersion) {
  // The paper's N-Datalog¬¬ program (Section 5.2):
  //   answer(x) <- p(x)
  //   !answer(x), !p(x) <- q(x, y)
  Program p = MustParse(
      "answer(X) :- p(X).\n"
      "!answer(X), !p(X) :- q(X, Y).\n");
  ASSERT_TRUE(engine_.Validate(p, Dialect::kNDatalogNegNeg).ok());
  LoadInput();
  Result<EffectSet> eff =
      engine_.NondetEnumerate(p, Dialect::kNDatalogNegNeg, db_);
  ASSERT_TRUE(eff.ok()) << eff.status().ToString();
  ASSERT_GT(eff->images.size(), 0u);
  for (const Instance& image : eff->images) CheckAnswer(image);
}

TEST_F(ProjectionDiffTest, ForallVersion) {
  // Example 5.5's N-Datalog¬∀ program: answer(x) <- ∀y p(x), !q(x, y).
  Program p = MustParse("answer(X) :- forall Y : p(X), !q(X, Y).\n");
  ASSERT_TRUE(engine_.Validate(p, Dialect::kNDatalogForall).ok());
  LoadInput();
  Result<EffectSet> eff =
      engine_.NondetEnumerate(p, Dialect::kNDatalogForall, db_);
  ASSERT_TRUE(eff.ok()) << eff.status().ToString();
  // The program is actually deterministic: one image.
  ASSERT_EQ(eff->images.size(), 1u);
  CheckAnswer(eff->images[0]);
}

TEST_F(ProjectionDiffTest, BottomVersion) {
  // Example 5.5's N-Datalog¬⊥ program: compute PROJ = πA(Q) guarded by
  // done-with-proj; ⊥ aborts computations that closed the projection too
  // early. (The paper writes "done-with-proj ←" with an empty body; our
  // syntax spells that as the fact "done-with-proj.".)
  Program program = MustParse(
      "proj(X) :- !done-with-proj, q(X, Y).\n"
      "done-with-proj.\n"
      "bottom :- done-with-proj, q(X, Y), !proj(X).\n"
      "answer(X) :- done-with-proj, p(X), !proj(X).\n");
  ASSERT_TRUE(engine_.Validate(program, Dialect::kNDatalogBottom).ok());
  LoadInput();
  Result<EffectSet> eff =
      engine_.NondetEnumerate(program, Dialect::kNDatalogBottom, db_);
  ASSERT_TRUE(eff.ok()) << eff.status().ToString();
  ASSERT_GT(eff->images.size(), 0u);
  EXPECT_GT(eff->abandoned_branches, 0u)
      << "some branches must be pruned by ⊥";
  for (const Instance& image : eff->images) CheckAnswer(image);
}

TEST_F(ProjectionDiffTest, BottomVersionRunOnceRetriesOnAbandonment) {
  Program program = MustParse(
      "proj(X) :- !done-with-proj, q(X, Y).\n"
      "done-with-proj.\n"
      "bottom :- done-with-proj, q(X, Y), !proj(X).\n"
      "answer(X) :- done-with-proj, p(X), !proj(X).\n");
  LoadInput();
  int valid = 0, abandoned = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Result<Instance> run =
        engine_.NondetRun(program, Dialect::kNDatalogBottom, db_, seed);
    if (run.ok()) {
      // A completed computation never fired ⊥, so its answer is correct.
      CheckAnswer(*run);
      ++valid;
    } else {
      ASSERT_EQ(run.status().code(), StatusCode::kAbandoned);
      ++abandoned;
    }
  }
  EXPECT_GT(valid, 0);
  EXPECT_GT(abandoned, 0) << "the ⊥ rule should fire on unlucky orders";
}

// ---- Equality literals and multi-head rules ----------------------------

TEST_F(NondetTest, EqualityLiteralsFilterInstantiations) {
  // Pick an arbitrary pair of *distinct* elements.
  Program p = MustParse(
      "picked(X, Y) :- s(X), s(Y), X != Y, !done.\n"
      "done :- picked(X, Y).\n");
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("s(a). s(b). s(c).", &db).ok());
  Result<EffectSet> eff = engine_.NondetEnumerate(p, Dialect::kNDatalogNeg, db);
  ASSERT_TRUE(eff.ok()) << eff.status().ToString();
  PredId picked = engine_.catalog().Find("picked");
  // Each image picked at least one ordered pair of distinct elements;
  // images where `done` raced allow up to... — the key invariants: no
  // self-pair ever, and at least one pair in every image.
  for (const Instance& image : eff->images) {
    EXPECT_GE(image.Rel(picked).size(), 1u);
    for (const Tuple& t : image.Rel(picked)) {
      EXPECT_NE(t[0], t[1]);
    }
  }
}

TEST_F(NondetTest, MultiHeadInsertsAtomically) {
  Program p = MustParse("a(X), b(X) :- c(X), !a(X).\n");
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("c(1). c(2).", &db).ok());
  Result<EffectSet> eff = engine_.NondetEnumerate(p, Dialect::kNDatalogNeg, db);
  ASSERT_TRUE(eff.ok());
  ASSERT_EQ(eff->images.size(), 1u);
  PredId a = engine_.catalog().Find("a");
  PredId b = engine_.catalog().Find("b");
  EXPECT_EQ(eff->images[0].Rel(a).size(), 2u);
  EXPECT_EQ(eff->images[0].Rel(b).size(), 2u);
}

TEST_F(NondetTest, InconsistentHeadInstantiationsSkipped) {
  // a(X), !a(X) in one head is inconsistent for every instantiation:
  // no moves, input is the only image.
  Program p = MustParse("a(X), !a(X) :- c(X).\n");
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("c(1).", &db).ok());
  Result<EffectSet> eff =
      engine_.NondetEnumerate(p, Dialect::kNDatalogNegNeg, db);
  ASSERT_TRUE(eff.ok());
  ASSERT_EQ(eff->images.size(), 1u);
  EXPECT_EQ(eff->images[0], db);
}

// ---- poss / cert (Definition 5.10, Theorem 5.11) -----------------------

TEST_F(NondetTest, PossCertOnOrientation) {
  Program p = MustParse(kOrientation);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = graphs.TwoCycles(2);
  Result<PossCert> pc =
      engine_.NondetPossCert(p, Dialect::kNDatalogNegNeg, db);
  ASSERT_TRUE(pc.ok()) << pc.status().ToString();
  EXPECT_EQ(pc->image_count, 4u);
  PredId g = graphs.edge_pred();
  // poss: every edge survives in some image; cert: no edge survives in all.
  EXPECT_EQ(pc->poss.Rel(g).size(), 4u);
  EXPECT_EQ(pc->cert.Rel(g).size(), 0u);
}

TEST_F(NondetTest, CertSubsetOfEveryImageSubsetOfPoss) {
  Program p = MustParse(
      "picked(X) :- s(X), !done.\n"
      "done :- picked(X).\n");
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("s(a). s(b). s(c).", &db).ok());
  Result<EffectSet> eff = engine_.NondetEnumerate(p, Dialect::kNDatalogNeg, db);
  ASSERT_TRUE(eff.ok());
  PossCert pc = ComputePossCert(*eff, engine_.catalog());
  for (const Instance& image : eff->images) {
    EXPECT_TRUE(pc.cert.SubsetOf(image));
    EXPECT_TRUE(image.SubsetOf(pc.poss));
  }
}

TEST_F(NondetTest, WitnessProgramPicksExactlyOneElement) {
  // The W (witness) pattern of Section 5.2, encoded with an *atomic*
  // multi-head rule: choice and the done guard are inserted in one firing,
  // so exactly one element is ever chosen. (With two separate rules, more
  // choices could race in before `done` fires — that variant is covered by
  // CertSubsetOfEveryImageSubsetOfPoss above.)
  Program p = MustParse("choice(X), done :- s(X), !done.\n");
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("s(a). s(b). s(c).", &db).ok());
  Result<EffectSet> eff = engine_.NondetEnumerate(p, Dialect::kNDatalogNeg, db);
  ASSERT_TRUE(eff.ok());
  EXPECT_EQ(eff->images.size(), 3u);
  PredId choice = engine_.catalog().Find("choice");
  for (const Instance& image : eff->images) {
    EXPECT_EQ(image.Rel(choice).size(), 1u);
  }
}

TEST_F(NondetTest, NondeterminismConstructsATotalOrder) {
  // The bridge behind Theorems 5.3/5.6: a nondeterministic program can
  // *construct* a successor relation over an unordered set — after which
  // any db-ptime query becomes expressible (Theorem 4.7). Each terminal
  // image carries one linear order; eff(P) enumerates all n! of them.
  Program p = MustParse(
      "init, placed(X), cur(X) :- s(X), !init.\n"
      "succ0(C, X), placed(X), cur(X), !cur(C) :- "
      "cur(C), s(X), !placed(X).\n");
  ASSERT_TRUE(engine_.Validate(p, Dialect::kNDatalogNegNeg).ok());
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("s(a). s(b). s(c).", &db).ok());
  Result<EffectSet> eff =
      engine_.NondetEnumerate(p, Dialect::kNDatalogNegNeg, db);
  ASSERT_TRUE(eff.ok()) << eff.status().ToString();
  EXPECT_EQ(eff->images.size(), 6u);  // 3! linear orders
  PredId succ0 = engine_.catalog().Find("succ0");
  PredId cur = engine_.catalog().Find("cur");
  for (const Instance& image : eff->images) {
    // Exactly n-1 successor edges forming a path over all of s: every
    // element appears at most once as source and at most once as target,
    // and `cur` holds the unique maximum.
    ASSERT_EQ(image.Rel(succ0).size(), 2u);
    ASSERT_EQ(image.Rel(cur).size(), 1u);
    std::set<Value> sources, targets;
    for (const Tuple& t : image.Rel(succ0)) {
      EXPECT_TRUE(sources.insert(t[0]).second) << "duplicate source";
      EXPECT_TRUE(targets.insert(t[1]).second) << "duplicate target";
    }
    Value maximum = (*image.Rel(cur).begin())[0];
    EXPECT_FALSE(sources.count(maximum)) << "maximum has no successor";
  }
}

TEST_F(NondetTest, EnumerationBudget) {
  Program p = MustParse(kOrientation);
  GraphBuilder graphs(&engine_.catalog(), &engine_.symbols());
  Instance db = graphs.TwoCycles(6);
  NondetOptions options;
  options.max_states = 10;
  Result<EffectSet> eff =
      engine_.NondetEnumerate(p, Dialect::kNDatalogNegNeg, db, options);
  ASSERT_FALSE(eff.ok());
  EXPECT_EQ(eff.status().code(), StatusCode::kBudgetExhausted);
}

TEST_F(NondetTest, ProgramWithNoValidComputation) {
  // Every computation derives ⊥: eff(P) is empty, poss/cert are empty
  // with image_count 0, and every seeded run is abandoned.
  Program p = MustParse("bottom :- p(X).\n");
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("p(a).", &db).ok());
  Result<EffectSet> eff =
      engine_.NondetEnumerate(p, Dialect::kNDatalogBottom, db);
  ASSERT_TRUE(eff.ok());
  EXPECT_EQ(eff->images.size(), 0u);
  EXPECT_GT(eff->abandoned_branches, 0u);

  Result<PossCert> pc =
      engine_.NondetPossCert(p, Dialect::kNDatalogBottom, db);
  ASSERT_TRUE(pc.ok());
  EXPECT_EQ(pc->image_count, 0u);
  EXPECT_EQ(pc->poss.TotalFacts(), 0u);
  EXPECT_EQ(pc->cert.TotalFacts(), 0u);

  for (uint64_t seed = 0; seed < 3; ++seed) {
    Result<Instance> run =
        engine_.NondetRun(p, Dialect::kNDatalogBottom, db, seed);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kAbandoned);
  }
}

TEST_F(NondetTest, DeterministicDialectRejected) {
  Program p = MustParse(kOrientation);
  Instance db = engine_.NewInstance();
  Result<Instance> run =
      engine_.NondetRun(p, Dialect::kDatalogNegNeg, db, /*seed=*/1);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnsupported);
}

TEST_F(NondetTest, NDatalogNewRunOnceInventsValues) {
  // The tagged-guard must be inserted atomically with the tag (multi-head)
  // or a second firing could mint a second tag before the guard lands.
  Program p = MustParse("tag(X, N), tagged(X) :- s(X), !tagged(X).\n");
  Instance db = engine_.NewInstance();
  ASSERT_TRUE(engine_.AddFacts("s(a). s(b).", &db).ok());
  Result<Instance> run =
      engine_.NondetRun(p, Dialect::kNDatalogNew, db, /*seed=*/3);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  PredId tag = engine_.catalog().Find("tag");
  EXPECT_EQ(run->Rel(tag).size(), 2u);
  for (const Tuple& t : run->Rel(tag)) {
    EXPECT_TRUE(engine_.symbols().IsInvented(t[1]));
  }
  // Enumeration must refuse invention programs.
  Result<EffectSet> eff =
      engine_.NondetEnumerate(p, Dialect::kNDatalogNew, db);
  ASSERT_FALSE(eff.ok());
  EXPECT_EQ(eff.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace datalog
