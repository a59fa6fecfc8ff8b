// Direct unit tests of the rule-matching machinery (eval/grounder): index
// manager, join ordering, active-domain enumeration of negation-only
// variables, equality binding, delta-bound matching, ∀-rules, early
// termination through the callback, and matching through a view's
// overlay.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>

#include "ast/parser.h"
#include "ast/printer.h"
#include "eval/grounder.h"
#include "ra/storage/row_set.h"

namespace datalog {
namespace {

class GrounderTest : public ::testing::Test {
 protected:
  GrounderTest() : db_(&catalog_) {}

  Rule MustParseRule(std::string_view text) {
    Result<Program> p = ParseProgram(text, &catalog_, &symbols_);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_EQ(p->rules.size(), 1u);
    program_ = std::move(p).value();
    return program_.rules[0];
  }

  std::vector<Valuation> AllMatches(const Rule& rule) {
    RuleMatcher matcher(&rule);
    IndexManager cache;
    DbView view{&db_, &db_};
    std::vector<Value> adom = ActiveDomain(program_, db_);
    std::vector<Valuation> out;
    matcher.ForEachMatch(view, adom, &cache, [&](const Valuation& val) {
      out.push_back(val);
      return true;
    });
    return out;
  }

  Catalog catalog_;
  SymbolTable symbols_;
  Program program_;
  Instance db_;
};

TEST_F(GrounderTest, SimpleJoin) {
  Rule rule = MustParseRule("h(X, Y) :- e(X, Z), e(Z, Y).");
  PredId e = catalog_.Find("e");
  db_.Insert(e, {1, 2});
  db_.Insert(e, {2, 3});
  db_.Insert(e, {2, 4});
  std::vector<Valuation> matches = AllMatches(rule);
  EXPECT_EQ(matches.size(), 2u);  // (1,2,3) and (1,2,4) as (X,Z,Y)
  for (const Valuation& v : matches) {
    EXPECT_EQ(v[0], 1);  // X (first variable registered)
  }
}

TEST_F(GrounderTest, RepeatedVariableUnification) {
  Rule rule = MustParseRule("h(X) :- e(X, X).");
  PredId e = catalog_.Find("e");
  db_.Insert(e, {1, 2});
  db_.Insert(e, {3, 3});
  std::vector<Valuation> matches = AllMatches(rule);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0][0], 3);
}

TEST_F(GrounderTest, ConstantsInPattern) {
  Rule rule = MustParseRule("h(Y) :- e(1, Y).");
  PredId e = catalog_.Find("e");
  db_.Insert(e, {symbols_.InternInt(1), symbols_.InternInt(5)});
  db_.Insert(e, {symbols_.InternInt(2), symbols_.InternInt(6)});
  std::vector<Valuation> matches = AllMatches(rule);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0][0], symbols_.InternInt(5));
}

TEST_F(GrounderTest, NegationOnlyVariablesRangeOverActiveDomain) {
  // ct(X, Y) :- !e(X, Y): every pair over adom not in e.
  Rule rule = MustParseRule("ct(X, Y) :- !e(X, Y).");
  PredId e = catalog_.Find("e");
  db_.Insert(e, {1, 2});
  db_.Insert(e, {2, 1});
  std::vector<Valuation> matches = AllMatches(rule);
  // adom = {1, 2}: 4 pairs - 2 in e = 2 matches.
  EXPECT_EQ(matches.size(), 2u);
  std::set<std::pair<Value, Value>> got;
  for (const Valuation& v : matches) got.emplace(v[0], v[1]);
  EXPECT_TRUE(got.count({1, 1}));
  EXPECT_TRUE(got.count({2, 2}));
}

TEST_F(GrounderTest, ProgramConstantsEnterActiveDomain) {
  // adom(P, I) includes the program's constants even when absent from I.
  Rule rule = MustParseRule("h(X) :- !e(X, 9).");
  PredId e = catalog_.Find("e");
  db_.Insert(e, {1, 2});
  std::vector<Valuation> matches = AllMatches(rule);
  // adom = {1, 2, 9}: all three X values satisfy !e(X, 9).
  EXPECT_EQ(matches.size(), 3u);
}

TEST_F(GrounderTest, EqualityBindsVariables) {
  Rule rule = MustParseRule("h(Y) :- e(X, Z), Y = X, Z != Y.");
  PredId e = catalog_.Find("e");
  db_.Insert(e, {1, 2});
  db_.Insert(e, {3, 3});
  std::vector<Valuation> matches = AllMatches(rule);
  ASSERT_EQ(matches.size(), 1u);
  // From e(1,2): Y = X = 1, Z = 2 != 1 ✓. From e(3,3): Z == Y ✗.
  for (const Valuation& v : matches) {
    EXPECT_EQ(v[1], 1);  // Y bound through the equality
  }
}

TEST_F(GrounderTest, DeltaBoundLiteralRestrictsMatching) {
  Rule rule = MustParseRule("h(X, Y) :- e(X, Z), e(Z, Y).");
  PredId e = catalog_.Find("e");
  db_.Insert(e, {1, 2});
  db_.Insert(e, {2, 3});
  db_.Insert(e, {3, 4});
  // Delta = {(2,3)} bound to the FIRST body literal: only X=2,Z=3,Y=4.
  const Value delta[] = {2, 3};  // one flat row
  RuleMatcher matcher(&rule);
  IndexManager cache;
  DbView view{&db_, &db_};
  std::vector<Value> adom = ActiveDomain(program_, db_);
  std::vector<Valuation> matches;
  matcher.ForEachMatch(view, adom, &cache, /*delta_literal=*/0, delta, 1,
                       [&](const Valuation& val) {
                         matches.push_back(val);
                         return true;
                       });
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0][0], 2);

  // Same delta bound to the SECOND literal: X=1,Z=2,Y=3.
  matches.clear();
  matcher.ForEachMatch(view, adom, &cache, /*delta_literal=*/1, delta, 1,
                       [&](const Valuation& val) {
                         matches.push_back(val);
                         return true;
                       });
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0][0], 1);
}

TEST_F(GrounderTest, CallbackCanStopMatching) {
  Rule rule = MustParseRule("h(X) :- e(X, Y).");
  PredId e = catalog_.Find("e");
  for (int i = 0; i < 10; ++i) {
    db_.Insert(e, {symbols_.InternInt(i), symbols_.InternInt(i + 100)});
  }
  RuleMatcher matcher(&rule);
  IndexManager cache;
  DbView view{&db_, &db_};
  std::vector<Value> adom = ActiveDomain(program_, db_);
  int count = 0;
  matcher.ForEachMatch(view, adom, &cache, [&](const Valuation&) {
    return ++count < 3;  // stop after 3 matches
  });
  EXPECT_EQ(count, 3);
}

TEST_F(GrounderTest, ForallRuleBruteForce) {
  // h(X) :- forall Y : e(X, Y) -> would need implication; the N-Datalog¬∀
  // reading conjoins: body holds for EVERY Y. Use the Example 5.5 shape.
  Rule rule = MustParseRule("h(X) :- forall Y : p(X), !e(X, Y).");
  PredId e = catalog_.Find("e");
  PredId p = catalog_.Find("p");
  db_.Insert(p, {1});
  db_.Insert(p, {2});
  db_.Insert(e, {1, 2});  // 1 has an e-partner: fails for Y=2
  std::vector<Valuation> matches = AllMatches(rule);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0][0], 2);
}

TEST_F(GrounderTest, ForallVacuousOnEmptyDomain) {
  Rule rule = MustParseRule("h :- forall Y : !e(Y, Y).");
  std::vector<Valuation> matches = AllMatches(rule);
  // Empty adom: the ∀ is vacuously true, and there are no free variables.
  EXPECT_EQ(matches.size(), 1u);
}

TEST_F(GrounderTest, EmptyBodyFactRuleMatchesOnce) {
  Rule rule = MustParseRule("delay.");
  std::vector<Valuation> matches = AllMatches(rule);
  EXPECT_EQ(matches.size(), 1u);
}

TEST_F(GrounderTest, IndexManagerLookupBuildsBuckets) {
  PredId e = *catalog_.Declare("e", 2);
  db_.Insert(e, {1, 2});
  db_.Insert(e, {1, 3});
  db_.Insert(e, {2, 3});
  IndexManager cache;
  // Mask 0b01: first column bound.
  const IndexManager::Bucket* bucket = cache.Lookup(db_, e, 0b01, {1});
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 2u);
  EXPECT_EQ(cache.Lookup(db_, e, 0b01, {9}), nullptr);
  // Mask 0b10: second column bound.
  const IndexManager::Bucket* by_second = cache.Lookup(db_, e, 0b10, {3});
  ASSERT_NE(by_second, nullptr);
  EXPECT_EQ(by_second->size(), 2u);
}

TEST_F(GrounderTest, InstantiateAtomSubstitutes) {
  Rule rule = MustParseRule("h(X, Y) :- e(X, Y).");
  Valuation val = {7, 8};
  Tuple t = InstantiateAtom(rule.heads[0].atom, val);
  EXPECT_EQ(t, (Tuple{7, 8}));
}

// A match's scratch (bound-variable trail, applied checks, probe tuple)
// lives in the call, not the matcher: a callback that re-enters
// ForEachMatch on the same matcher sees exactly the flat run's matches,
// and the outer match resumes undisturbed.
TEST_F(GrounderTest, ReentrantMatcherCallbackSeesTheFlatMatches) {
  Rule rule =
      MustParseRule("h(X, Y) :- e(X, Z), e(Z, Y), W = Z, !e(X, Y), X != W.");
  PredId e = catalog_.Find("e");
  for (auto [a, b] : {std::pair{1, 2}, {2, 3}, {3, 4}, {1, 3}, {2, 4},
                      {4, 1}, {3, 1}, {4, 4}}) {
    db_.Insert(e, {a, b});
  }
  const std::vector<Valuation> flat = AllMatches(rule);
  ASSERT_GE(flat.size(), 3u);

  RuleMatcher matcher(&rule);
  IndexManager cache;
  DbView view{&db_, &db_};
  std::vector<Value> adom = ActiveDomain(program_, db_);
  std::vector<Valuation> outer;
  matcher.ForEachMatch(view, adom, &cache, [&](const Valuation& val) {
    const Valuation before = val;
    std::vector<Valuation> inner;
    matcher.ForEachMatch(view, adom, &cache, [&](const Valuation& v) {
      inner.push_back(v);
      return true;
    });
    EXPECT_EQ(inner, flat);
    EXPECT_EQ(val, before);
    outer.push_back(val);
    return true;
  });
  EXPECT_EQ(outer, flat);
}

// DbView{m, m, hidden, extra} reads as m − hidden + extra: matching
// through the overlay must find exactly the valuations, each as often,
// that matching finds on that instance built outright. The seeded rounds
// cover arities 0–3, negated literals, fully bound, partial-key and
// unbound probes and delta literals, with a few overlay rows and with
// thousands; the overlay sets are reset and refilled between rounds, so
// the probe orders built on `extra` are rebuilt.
TEST_F(GrounderTest, OverlayMatcherReadsTheMaterializedInstance) {
  Result<Program> parsed = ParseProgram(
      "h3(X, Z) :- a(X, Y), b(Y, Z, W), !c(X, Z).\n"
      "h2(X, Y) :- a(X, Y), a(Y, X), u(X).\n"
      "h1(X) :- u(X), z, !a(X, X).\n"
      "h4(X, W) :- b(X, Y, W), b(W, V, X), !z.\n"
      "h5(X, Y) :- c(X, Y), !u(Y), a(Y, Z), !b(X, Y, Z).\n",
      &catalog_, &symbols_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  program_ = std::move(parsed).value();
  std::vector<PredId> preds;
  for (const char* name : {"z", "u", "a", "c", "b"}) {
    preds.push_back(catalog_.Find(name));
  }

  std::mt19937 rng(20261019);
  storage::FactSet hidden;
  storage::FactSet extra;
  const std::vector<Value> adom;  // safe rules never enumerate it
  int64_t matches = 0;
  int overlay_changed = 0;  // rules whose matches the overlay changed
  for (int round = 0; round < 9; ++round) {
    const bool large = round % 3 == 2;
    const Value domain = large ? 40 : 6;
    const size_t facts = large ? 3000 : 12;
    const size_t shown = large ? 2000 : static_cast<size_t>(round % 3);
    const auto random_tuple = [&](int arity) {
      Tuple t;
      for (int c = 0; c < arity; ++c) {
        t.push_back(static_cast<Value>(rng() % static_cast<uint32_t>(domain)));
      }
      return t;
    };
    Instance m(&catalog_);
    hidden.Reset();
    extra.Reset();
    for (PredId p : preds) {
      const int arity = catalog_.ArityOf(p);
      for (size_t i = 0; i < (arity == 0 ? 1 : facts); ++i) {
        if (arity > 0 || rng() % 2 == 0) m.Insert(p, random_tuple(arity));
      }
      // Hide about a quarter of m's facts and one random fact, which m
      // need not hold; show facts m does not hold outside `hidden`.
      for (const Tuple& t : m.Rel(p).Sorted()) {
        if (rng() % 4 == 0) hidden.Insert(p, t);
      }
      hidden.Insert(p, random_tuple(arity));
      for (size_t i = 0; i < shown; ++i) {
        const Tuple t = random_tuple(arity);
        if (!m.Contains(p, t) || hidden.Contains(p, t)) extra.Insert(p, t);
      }
    }
    Instance expected = m;
    hidden.ForEach([&](PredId p, const Tuple& t) { expected.Erase(p, t); });
    extra.ForEach([&](PredId p, const Tuple& t) { expected.Insert(p, t); });

    for (const Rule& rule : program_.rules) {
      RuleMatcher matcher(&rule);
      IndexManager overlay_index;
      IndexManager expected_index;
      IndexManager m_index;
      const auto all = [&](const DbView& view, IndexManager* index) {
        std::vector<Valuation> out;
        matcher.ForEachMatch(view, adom, index, [&](const Valuation& val) {
          out.push_back(val);
          return true;
        });
        std::sort(out.begin(), out.end());
        return out;
      };
      const std::vector<Valuation> want =
          all(DbView{&expected, &expected}, &expected_index);
      const std::string text = RuleToString(rule, catalog_, symbols_);
      EXPECT_EQ(all(DbView{&m, &m, &hidden, &extra}, &overlay_index), want)
          << "round " << round << ", rule " << text;
      if (all(DbView{&m, &m}, &m_index) != want) ++overlay_changed;
      matches += static_cast<int64_t>(want.size());

      // Literal 0 as the delta, ranging over the rows `extra` holds for
      // its predicate.
      const storage::RowSet* rows = extra.Find(rule.body[0].atom.pred);
      if (rows == nullptr) continue;
      const auto delta = [&](const DbView& view, IndexManager* index) {
        std::vector<Valuation> out;
        matcher.ForEachMatch(view, adom, index, 0, rows->data(), rows->rows(),
                             [&](const Valuation& val) {
                               out.push_back(val);
                               return true;
                             });
        std::sort(out.begin(), out.end());
        return out;
      };
      EXPECT_EQ(delta(DbView{&m, &m, &hidden, &extra}, &overlay_index),
                delta(DbView{&expected, &expected}, &expected_index))
          << "round " << round << ", delta of rule " << text;
    }
  }
  // 48,723 matches; the overlay changed 33 of the 45 rule matches.
  EXPECT_GT(matches, 10000);
  EXPECT_GT(overlay_changed, 20);
}

}  // namespace
}  // namespace datalog
