// Direct unit tests of the rule-matching machinery (eval/grounder): index
// manager, join ordering, active-domain enumeration of negation-only
// variables, equality binding, delta-bound matching, ∀-rules, and early
// termination through the callback.

#include <gtest/gtest.h>

#include <set>

#include "ast/parser.h"
#include "eval/grounder.h"

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

}  // namespace
}  // namespace datalog
