// Unit tests for src/ra: Tuple, Relation, Instance, Catalog, and the
// relational algebra expression evaluator.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.h"
#include "base/symbols.h"
#include "ra/catalog.h"
#include "ra/expr.h"
#include "ra/instance.h"
#include "ra/relation.h"
#include "ra/storage/row_set.h"
#include "ra/tuple.h"

namespace datalog {
namespace {

TEST(RelationTest, InsertIsIdempotent) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({1, 2}));
  EXPECT_FALSE(r.Insert({1, 2}));
  EXPECT_TRUE(r.Insert({2, 1}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Contains({2, 2}));
}

TEST(RelationTest, EraseAndClear) {
  Relation r(1);
  r.Insert({5});
  EXPECT_TRUE(r.Erase({5}));
  EXPECT_FALSE(r.Erase({5}));
  r.Insert({6});
  r.Clear();
  EXPECT_TRUE(r.empty());
}

TEST(RelationTest, UnionWithCountsNewTuples) {
  Relation a(1), b(1);
  a.Insert({1});
  a.Insert({2});
  b.Insert({2});
  b.Insert({3});
  EXPECT_EQ(a.UnionWith(b), 1u);
  EXPECT_EQ(a.size(), 3u);
}

TEST(RelationTest, SortedIsCanonical) {
  Relation r(2);
  r.Insert({3, 1});
  r.Insert({1, 2});
  r.Insert({1, 1});
  std::vector<Tuple> sorted = r.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], (Tuple{1, 1}));
  EXPECT_EQ(sorted[1], (Tuple{1, 2}));
  EXPECT_EQ(sorted[2], (Tuple{3, 1}));
}

TEST(RelationTest, ContentHashOrderIndependent) {
  Relation a(1), b(1);
  a.Insert({1});
  a.Insert({2});
  b.Insert({2});
  b.Insert({1});
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  b.Insert({3});
  EXPECT_NE(a.ContentHash(), b.ContentHash());
}

TEST(RelationTest, ZeroArityRelation) {
  Relation r(0);
  EXPECT_TRUE(r.Insert({}));
  EXPECT_FALSE(r.Insert({}));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains({}));
}

TEST(CatalogTest, DeclareAndFind) {
  Catalog catalog;
  Result<PredId> g = catalog.Declare("g", 2);
  ASSERT_TRUE(g.ok());
  Result<PredId> g_again = catalog.Declare("g", 2);
  ASSERT_TRUE(g_again.ok());
  EXPECT_EQ(*g, *g_again);
  EXPECT_EQ(catalog.Find("g"), *g);
  EXPECT_EQ(catalog.Find("t"), -1);
  EXPECT_EQ(catalog.ArityOf(*g), 2);
  EXPECT_EQ(catalog.NameOf(*g), "g");
}

TEST(CatalogTest, ArityConflictRejected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Declare("g", 2).ok());
  Result<PredId> bad = catalog.Declare("g", 3);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kSchemaError);
}

class InstanceTest : public ::testing::Test {
 protected:
  InstanceTest() {
    g_ = *catalog_.Declare("g", 2);
    p_ = *catalog_.Declare("p", 1);
  }
  Catalog catalog_;
  SymbolTable symbols_;
  PredId g_, p_;
};

TEST_F(InstanceTest, EmptyRelationsAreLazy) {
  Instance db(&catalog_);
  EXPECT_TRUE(db.Rel(g_).empty());
  EXPECT_EQ(db.Rel(g_).arity(), 2);
  EXPECT_EQ(db.TotalFacts(), 0u);
}

TEST_F(InstanceTest, InsertEraseContains) {
  Instance db(&catalog_);
  EXPECT_TRUE(db.Insert(g_, {1, 2}));
  EXPECT_FALSE(db.Insert(g_, {1, 2}));
  EXPECT_TRUE(db.Contains(g_, {1, 2}));
  EXPECT_TRUE(db.Erase(g_, {1, 2}));
  EXPECT_FALSE(db.Erase(g_, {1, 2}));
}

TEST_F(InstanceTest, EqualityIgnoresLazyEmptyRelations) {
  Instance a(&catalog_), b(&catalog_);
  a.Insert(g_, {1, 2});
  b.Insert(g_, {1, 2});
  // Touch p in `a` only: still equal since both are (lazily) empty.
  a.MutableRel(p_);
  EXPECT_EQ(a, b);
  b.Insert(p_, {1});
  EXPECT_NE(a, b);
}

TEST_F(InstanceTest, SubsetOf) {
  Instance a(&catalog_), b(&catalog_);
  a.Insert(g_, {1, 2});
  b.Insert(g_, {1, 2});
  b.Insert(g_, {2, 3});
  EXPECT_TRUE(a.SubsetOf(b));
  EXPECT_FALSE(b.SubsetOf(a));
}

TEST_F(InstanceTest, FingerprintMatchesEquality) {
  Instance a(&catalog_), b(&catalog_);
  a.Insert(g_, {1, 2});
  a.Insert(p_, {3});
  b.Insert(p_, {3});
  b.Insert(g_, {1, 2});
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.Insert(g_, {9, 9});
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST_F(InstanceTest, ActiveDomain) {
  Instance db(&catalog_);
  db.Insert(g_, {1, 2});
  db.Insert(p_, {7});
  std::set<Value> dom = db.ActiveDomain();
  EXPECT_EQ(dom, (std::set<Value>{1, 2, 7}));
}

TEST_F(InstanceTest, ToStringIsCanonical) {
  Instance db(&catalog_);
  Value a = symbols_.Intern("a");
  Value b = symbols_.Intern("b");
  db.Insert(g_, {b, a});
  db.Insert(g_, {a, b});
  db.Insert(p_, {a});
  EXPECT_EQ(db.ToString(symbols_), "g(a, b).\ng(b, a).\np(a).\n");
}

TEST_F(InstanceTest, RestrictKeepsOnlyListedPreds) {
  Instance db(&catalog_);
  db.Insert(g_, {1, 2});
  db.Insert(p_, {1});
  Instance only_p = db.Restrict({p_});
  EXPECT_TRUE(only_p.Rel(g_).empty());
  EXPECT_EQ(only_p.Rel(p_).size(), 1u);
}

// -- Snapshot chunks: the per-relation encoding server publishes merge ---

/// Little-endian 32-bit words, the snapshot format's unit.
std::string Words(const std::vector<uint32_t>& words) {
  std::string out;
  for (uint32_t w : words) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(w >> (8 * i)));
  }
  return out;
}

TEST(SnapshotChunkTest, RowsFollowValueOrder) {
  Catalog catalog;
  const PredId p = *catalog.Declare("p", 1);
  Instance db(&catalog);
  db.Insert(p, {2});
  db.Insert(p, {-1});
  // Signed lexicographic tuple order puts -1 (0xffffffff) first.
  const std::string chunk = Words({static_cast<uint32_t>(p), 1, 2,
                                   0xffffffffu, 2});
  EXPECT_EQ(db.SerializeSnapshot(), Words({0x31534455, 1}) + chunk);
  const SnapshotChunks chunks = db.EncodeSnapshotChunks();
  ASSERT_NE(chunks[static_cast<size_t>(p)], nullptr);
  EXPECT_EQ(*chunks[static_cast<size_t>(p)], chunk);
}

// Seeded random insert/erase batches over relations of arity 0-3 with
// values from -2 to 3. After every batch, the manifest merged from the
// batch's net delta must equal a fresh encode, assemble to
// SerializeSnapshot(), and give each predicate's restricted snapshot.
TEST(SnapshotChunkTest, MergedChunksMatchAFreshEncodeUnderRandomBatches) {
  Catalog catalog;
  std::vector<PredId> preds;
  for (int arity = 0; arity <= 3; ++arity) {
    preds.push_back(*catalog.Declare("r" + std::to_string(arity), arity));
  }
  const PredId refilled = preds[2];
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    Instance db(&catalog);
    SnapshotChunks chunks = db.EncodeSnapshotChunks();
    storage::FactSet added;
    storage::FactSet removed;
    for (int batch = 0; batch < 60; ++batch) {
      const Instance before = db;
      if (batch % 15 == 14) {
        // Empty one relation outright; the following batches refill it.
        for (const Tuple& t : before.Rel(refilled)) db.Erase(refilled, t);
      } else {
        const int updates = 1 + rng.UniformInt(12);
        for (int u = 0; u < updates; ++u) {
          const PredId p = preds[rng.Uniform(preds.size())];
          Tuple t(static_cast<size_t>(catalog.ArityOf(p)));
          for (Value& v : t) v = rng.UniformInt(6) - 2;
          if (rng.Chance(0.6)) {
            db.Insert(p, t);
          } else {
            db.Erase(p, t);
          }
        }
      }
      // The net delta: facts of `to` missing from `from`, per predicate,
      // in flat sets reused across batches as IncrementalView reuses its.
      auto diff = [&](const Instance& to, const Instance& from,
                      storage::FactSet* delta) {
        delta->Reset();
        for (PredId p : preds) {
          for (const Tuple& t : to.Rel(p)) {
            if (!from.Contains(p, t)) delta->Insert(p, t);
          }
        }
      };
      diff(db, before, &added);
      diff(before, db, &removed);
      size_t touched = added.preds().size();
      for (PredId p : removed.preds()) touched += added.Find(p) == nullptr;
      EXPECT_EQ(MergeSnapshotDelta(added, removed, &chunks),
                static_cast<int>(touched));

      const SnapshotChunks fresh = db.EncodeSnapshotChunks();
      ASSERT_EQ(chunks.size(), fresh.size());
      for (PredId p : preds) {
        const size_t i = static_cast<size_t>(p);
        SCOPED_TRACE("seed " + std::to_string(seed) + " batch " +
                     std::to_string(batch) + " pred " + std::to_string(p));
        ASSERT_EQ(chunks[i] == nullptr, db.Rel(p).empty());
        if (chunks[i] != nullptr) {
          EXPECT_EQ(*chunks[i], *fresh[i]);
        }
        EXPECT_EQ(AssembleSnapshot(std::span(chunks).subspan(i, 1)),
                  db.Restrict({p}).SerializeSnapshot());
      }
      EXPECT_EQ(AssembleSnapshot(chunks), db.SerializeSnapshot());
    }
  }
}

class RaExprTest : public InstanceTest {
 protected:
  RaExprTest() : db_(&catalog_) {
    db_.Insert(g_, {1, 2});
    db_.Insert(g_, {2, 3});
    db_.Insert(g_, {3, 1});
    db_.Insert(p_, {2});
  }
  Instance db_;
};

TEST_F(RaExprTest, ScanReadsRelation) {
  Relation r = ra::Scan(g_, 2)->Eval(db_);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.Contains({1, 2}));
}

TEST_F(RaExprTest, ProjectReordersAndDuplicates) {
  // swap columns
  Relation swapped = ra::Project(ra::Scan(g_, 2), {1, 0})->Eval(db_);
  EXPECT_TRUE(swapped.Contains({2, 1}));
  // duplicate a column
  Relation dup = ra::Project(ra::Scan(p_, 1), {0, 0})->Eval(db_);
  EXPECT_TRUE(dup.Contains({2, 2}));
  EXPECT_EQ(dup.arity(), 2);
}

TEST_F(RaExprTest, SelectByConstantAndColumn) {
  std::vector<SelCondition> conds;
  conds.push_back({SelOperand::Column(0), SelOperand::Const(2), true});
  Relation sel = ra::Select(ra::Scan(g_, 2), conds)->Eval(db_);
  EXPECT_EQ(sel.size(), 1u);
  EXPECT_TRUE(sel.Contains({2, 3}));

  // Column != column on the product g x g.
  std::vector<SelCondition> neq;
  neq.push_back({SelOperand::Column(0), SelOperand::Column(2), false});
  Relation prod =
      ra::Select(ra::Product(ra::Scan(g_, 2), ra::Scan(g_, 2)), neq)
          ->Eval(db_);
  EXPECT_EQ(prod.size(), 6u);  // 9 pairs minus the 3 equal-first-column ones
}

TEST_F(RaExprTest, JoinComposesEdges) {
  // g(x, z) join g(z, y): paths of length 2.
  Relation paths =
      ra::Project(ra::Join(ra::Scan(g_, 2), ra::Scan(g_, 2), {{1, 0}}),
                  {0, 3})
          ->Eval(db_);
  EXPECT_EQ(paths.size(), 3u);
  EXPECT_TRUE(paths.Contains({1, 3}));
  EXPECT_TRUE(paths.Contains({2, 1}));
  EXPECT_TRUE(paths.Contains({3, 2}));
}

TEST_F(RaExprTest, UnionAndDiff) {
  Relation extra(2);
  extra.Insert({9, 9});
  extra.Insert({1, 2});
  Relation u = ra::Union(ra::Scan(g_, 2), ra::ConstRel(extra))->Eval(db_);
  EXPECT_EQ(u.size(), 4u);
  Relation d = ra::Diff(ra::Scan(g_, 2), ra::ConstRel(extra))->Eval(db_);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_FALSE(d.Contains({1, 2}));
}

TEST_F(RaExprTest, AdomBuildsKFoldProduct) {
  Relation adom1 = ra::Adom(1)->Eval(db_);
  EXPECT_EQ(adom1.size(), 3u);  // values 1, 2, 3
  Relation adom2 = ra::Adom(2)->Eval(db_);
  EXPECT_EQ(adom2.size(), 9u);
  EXPECT_TRUE(adom2.Contains({3, 1}));
}

TEST_F(RaExprTest, ComplementOfEdgesViaAdomDiff) {
  Relation ct = ra::Diff(ra::Adom(2), ra::Scan(g_, 2))->Eval(db_);
  EXPECT_EQ(ct.size(), 6u);
  EXPECT_TRUE(ct.Contains({1, 1}));
  EXPECT_FALSE(ct.Contains({1, 2}));
}

// -- Tuple: up to Tuple::kInline values inline, a heap array beyond ----

std::vector<Value> ValuesOf(const Tuple& t) {
  return std::vector<Value>(t.begin(), t.end());
}

TEST(TupleTest, ValuesSurviveCopyMoveAndGrowthAtEveryArity) {
  for (size_t n = 0; n <= 9; ++n) {
    SCOPED_TRACE(n);
    std::vector<Value> expect;
    for (size_t i = 0; i < n; ++i) {
      expect.push_back(static_cast<Value>(7 * i) - 3);
    }
    // One push_back at a time, across the inline capacity.
    Tuple t;
    for (Value v : expect) t.push_back(v);
    ASSERT_EQ(t.size(), n);
    EXPECT_EQ(t.empty(), n == 0);
    EXPECT_EQ(ValuesOf(t), expect);
    EXPECT_EQ(t, Tuple(expect.begin(), expect.end()));

    Tuple copy(t);
    EXPECT_EQ(ValuesOf(copy), expect);
    Tuple assigned{99};
    assigned = t;
    EXPECT_EQ(ValuesOf(assigned), expect);
    Tuple wide_assigned(9, Value{5});  // a heap-backed target
    wide_assigned = t;
    EXPECT_EQ(ValuesOf(wide_assigned), expect);
    const Tuple& alias = assigned;
    assigned = alias;
    EXPECT_EQ(ValuesOf(assigned), expect);

    Tuple moved(std::move(copy));
    EXPECT_EQ(ValuesOf(moved), expect);
    copy.push_back(11);  // a moved-from tuple is reusable
    EXPECT_EQ(copy, (Tuple{11}));
    Tuple move_assigned(6, Value{-8});
    move_assigned = std::move(moved);
    EXPECT_EQ(ValuesOf(move_assigned), expect);
    Tuple& self = move_assigned;
    move_assigned = std::move(self);
    EXPECT_EQ(ValuesOf(move_assigned), expect);
    Tuple small{1, 2};
    small = std::move(move_assigned);
    EXPECT_EQ(ValuesOf(small), expect);

    // Growth keeps the prefix; clear keeps the buffer for reuse.
    Tuple grown = t;
    for (Value v = 0; v < 6; ++v) grown.push_back(v);
    ASSERT_EQ(grown.size(), n + 6);
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), grown.begin()));
    EXPECT_EQ(grown[n + 5], 5);
    grown.clear();
    EXPECT_TRUE(grown.empty());
    for (Value v : expect) grown.push_back(v);
    EXPECT_EQ(grown, t);
    EXPECT_EQ(Tuple(n), Tuple(n, Value{0}));
  }
}

TEST(TupleTest, OrderAndEqualityAreLexicographic) {
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) {
    std::vector<Value> a(rng.Uniform(8));
    std::vector<Value> b(rng.Uniform(8));
    for (Value& v : a) v = rng.UniformInt(5) - 2;
    for (Value& v : b) v = rng.UniformInt(5) - 2;
    // Every other pair shares a prefix, so comparisons run deep.
    if (i % 2 == 0) {
      std::copy_n(a.begin(), std::min(a.size(), b.size()), b.begin());
    }
    const Tuple ta(a.begin(), a.end());
    const Tuple tb(b.begin(), b.end());
    SCOPED_TRACE(i);
    EXPECT_EQ(ta < tb, std::lexicographical_compare(a.begin(), a.end(),
                                                    b.begin(), b.end()));
    EXPECT_EQ(tb < ta, std::lexicographical_compare(b.begin(), b.end(),
                                                    a.begin(), a.end()));
    EXPECT_EQ(ta == tb,
              std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

// Hash-set iteration orders, and with them every golden, follow these
// values: FNV-1a over the values' 32-bit patterns.
TEST(TupleTest, HashIsPinnedFnv1a) {
  const TupleHash hash;
  EXPECT_EQ(hash(Tuple{}), static_cast<size_t>(0x14650fb0739d0383ull));
  EXPECT_EQ(hash(Tuple{1, 2}), static_cast<size_t>(0x9a65ab00c545d26cull));
  EXPECT_EQ(hash(Tuple{-1, 7, 3, 9, 11}),
            static_cast<size_t>(0x6a9a418b6bb5173aull));
}

TEST(TupleTest, HeapTuplesThroughRelationAndSnapshot) {
  Catalog catalog;
  const PredId p = *catalog.Declare("wide", 6);
  Instance db(&catalog);
  EXPECT_TRUE(db.Insert(p, {3, 1, 4, 1, 5, 9}));
  EXPECT_TRUE(db.Insert(p, {2, 7, 1, 8, 2, 8}));
  EXPECT_TRUE(db.Insert(p, {-1, 0, 0, 0, 0, 1}));
  EXPECT_FALSE(db.Insert(p, {3, 1, 4, 1, 5, 9}));
  EXPECT_TRUE(db.Erase(p, {2, 7, 1, 8, 2, 8}));
  EXPECT_FALSE(db.Erase(p, {2, 7, 1, 8, 2, 8}));
  EXPECT_TRUE(db.Insert(p, {3, 1, 4, 1, 5, 2}));
  EXPECT_TRUE(db.Contains(p, {3, 1, 4, 1, 5, 2}));

  const std::vector<Tuple> sorted = db.Rel(p).Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], (Tuple{-1, 0, 0, 0, 0, 1}));
  EXPECT_EQ(sorted[1], (Tuple{3, 1, 4, 1, 5, 2}));
  EXPECT_EQ(sorted[2], (Tuple{3, 1, 4, 1, 5, 9}));

  const std::string bytes = db.SerializeSnapshot();
  EXPECT_EQ(bytes, Words({0x31534455, 1, static_cast<uint32_t>(p), 6, 3,
                          0xffffffffu, 0, 0, 0, 0, 1,  //
                          3, 1, 4, 1, 5, 2,            //
                          3, 1, 4, 1, 5, 9}));
  Instance restored(&catalog);
  ASSERT_TRUE(restored.RestoreSnapshot(bytes).ok());
  EXPECT_EQ(restored, db);
}

}  // namespace
}  // namespace datalog
