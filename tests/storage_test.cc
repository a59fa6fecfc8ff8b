// The pluggable storage layer (docs/storage.md): ValueBitmap container
// boundaries (array <-> bitset promotion, empty / full chunks), sorted-run
// SortedView maintenance checked property-style against reference set
// algebra across appends / compactions / epoch changes, the unary bitmap
// index kind in IndexManager, and engine-level hash-vs-columnar
// equivalence of models and deterministic stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "ra/index.h"
#include "ra/instance.h"
#include "ra/storage/bitmap.h"
#include "ra/storage/column_store.h"
#include "ra/storage/row_set.h"
#include "ra/storage/storage.h"

namespace datalog {
namespace {

using storage::ColumnRun;
using storage::ColumnStore;
using storage::SortedView;
using storage::ValueBitmap;

// ---- ValueBitmap ---------------------------------------------------------

TEST(ValueBitmapTest, EmptyAndBasics) {
  ValueBitmap bm;
  EXPECT_TRUE(bm.empty());
  EXPECT_EQ(bm.cardinality(), 0u);
  EXPECT_FALSE(bm.Contains(0));
  EXPECT_TRUE(bm.Add(7));
  EXPECT_FALSE(bm.Add(7));  // duplicate
  EXPECT_TRUE(bm.Add(0));
  EXPECT_EQ(bm.cardinality(), 2u);
  EXPECT_TRUE(bm.Contains(0));
  EXPECT_TRUE(bm.Contains(7));
  EXPECT_FALSE(bm.Contains(6));
  bm.Clear();
  EXPECT_TRUE(bm.empty());
  EXPECT_FALSE(bm.Contains(7));
}

TEST(ValueBitmapTest, PromotionAtArrayMaxBoundary) {
  // Fill one chunk to exactly kArrayMax entries: still the sparse array.
  ValueBitmap bm;
  for (size_t i = 0; i < ValueBitmap::kArrayMax; ++i) {
    ASSERT_TRUE(bm.Add(static_cast<Value>(2 * i)));  // spread within chunk 0
  }
  EXPECT_EQ(bm.cardinality(), ValueBitmap::kArrayMax);
  EXPECT_EQ(bm.dense_chunks(), 0u);

  // One more entry crosses the break-even point and promotes the chunk.
  ASSERT_TRUE(bm.Add(static_cast<Value>(2 * ValueBitmap::kArrayMax)));
  EXPECT_EQ(bm.dense_chunks(), 1u);
  EXPECT_EQ(bm.cardinality(), ValueBitmap::kArrayMax + 1);

  // Every value survives promotion, with the in-between odds still absent.
  for (size_t i = 0; i <= ValueBitmap::kArrayMax; ++i) {
    EXPECT_TRUE(bm.Contains(static_cast<Value>(2 * i)));
    EXPECT_FALSE(bm.Contains(static_cast<Value>(2 * i + 1)));
  }
  // Dense insert/duplicate behavior.
  EXPECT_TRUE(bm.Add(3));
  EXPECT_FALSE(bm.Add(3));
}

TEST(ValueBitmapTest, FullChunk) {
  // A completely full 64 Ki chunk, promoted along the way.
  ValueBitmap bm;
  for (int v = 0; v < (1 << 16); ++v) ASSERT_TRUE(bm.Add(v));
  EXPECT_EQ(bm.cardinality(), size_t{1} << 16);
  EXPECT_EQ(bm.dense_chunks(), 1u);
  EXPECT_TRUE(bm.Contains(0));
  EXPECT_TRUE(bm.Contains((1 << 16) - 1));
  EXPECT_FALSE(bm.Contains(1 << 16));  // next chunk untouched
  size_t count = 0;
  Value prev = -1;
  bm.ForEach([&](Value v) {
    EXPECT_EQ(v, prev + 1);  // full chunk streams 0..65535 exactly
    prev = v;
    ++count;
  });
  EXPECT_EQ(count, size_t{1} << 16);
}

TEST(ValueBitmapTest, MultiChunkOrderedIteration) {
  // Values straddling chunk boundaries come back ascending across chunks.
  ValueBitmap bm;
  const std::vector<Value> values = {5,        (1 << 16) - 1, 1 << 16,
                                     3 << 16,  (1 << 16) + 1, 0,
                                     (1 << 20)};
  for (Value v : values) bm.Add(v);
  std::vector<Value> expect = values;
  std::sort(expect.begin(), expect.end());
  std::vector<Value> got;
  bm.ForEach([&](Value v) { got.push_back(v); });
  EXPECT_EQ(got, expect);
}

TEST(ValueBitmapTest, RandomizedAgainstReferenceSet) {
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<Value> value(0, 200000);
  ValueBitmap bm;
  std::set<Value> ref;
  for (int i = 0; i < 20000; ++i) {
    const Value v = value(rng);
    EXPECT_EQ(bm.Add(v), ref.insert(v).second) << "value " << v;
  }
  EXPECT_EQ(bm.cardinality(), ref.size());
  std::vector<Value> got;
  bm.ForEach([&](Value v) { got.push_back(v); });
  EXPECT_TRUE(std::equal(got.begin(), got.end(), ref.begin(), ref.end()));
  for (int i = 0; i < 2000; ++i) {
    const Value v = value(rng);
    EXPECT_EQ(bm.Contains(v), ref.count(v) > 0) << "value " << v;
  }
}

// ---- SortedView / ColumnStore --------------------------------------------

// Flattens one view row back into a tuple in declared column order.
Tuple RowTuple(const ColumnRun& run, size_t r, int arity) {
  Tuple t(static_cast<size_t>(arity));
  for (int c = 0; c < arity; ++c) {
    t[static_cast<size_t>(c)] = run.cols[static_cast<size_t>(c)][r];
  }
  return t;
}

// Projects `t` onto the view order (key columns first) — the comparison
// key ForEachRowSorted must be ascending under.
Tuple OrderKey(const Tuple& t, const std::vector<int>& key_cols) {
  Tuple key;
  std::vector<bool> used(t.size(), false);
  for (int c : key_cols) {
    key.push_back(t[static_cast<size_t>(c)]);
    used[static_cast<size_t>(c)] = true;
  }
  for (size_t c = 0; c < t.size(); ++c) {
    if (!used[c]) key.push_back(t[c]);
  }
  return key;
}

// The full contract of one view against the relation's reference contents:
// row count, sorted unique iteration, per-key FindRanges coverage, and
// ContainsRow membership for members and misses.
void ExpectViewMatches(const SortedView& view, const Relation& rel,
                       const std::vector<int>& key_cols) {
  ASSERT_EQ(view.rows(), rel.size());
  ASSERT_LE(view.runs().size(), SortedView::kMaxRuns + 1);

  std::set<Tuple> ref(rel.begin(), rel.end());
  std::vector<Tuple> iterated;
  Tuple prev_key;
  view.ForEachRowSorted([&](const ColumnRun& run, size_t r) {
    Tuple t = RowTuple(run, r, view.arity());
    Tuple key = OrderKey(t, key_cols);
    if (!iterated.empty()) {
      EXPECT_LT(prev_key, key);  // strict: no duplicates
    }
    prev_key = std::move(key);
    iterated.push_back(std::move(t));
  });
  EXPECT_EQ(std::set<Tuple>(iterated.begin(), iterated.end()), ref);

  // Group the reference by key values and check every group (plus one
  // guaranteed-missing key) comes back exactly from FindRanges.
  std::map<Tuple, std::set<Tuple>> by_key;
  for (const Tuple& t : ref) {
    Tuple key;
    for (int c : key_cols) key.push_back(t[static_cast<size_t>(c)]);
    by_key[key].insert(t);
  }
  by_key.emplace(Tuple(key_cols.size(), Value{999983}), std::set<Tuple>());
  std::vector<SortedView::Range> ranges;
  for (const auto& [key, expect] : by_key) {
    ranges.clear();
    view.FindRanges(key.data(), &ranges);
    std::set<Tuple> got;
    for (const SortedView::Range& range : ranges) {
      for (size_t r = range.begin; r < range.end; ++r) {
        EXPECT_TRUE(got.insert(RowTuple(*range.run, r, view.arity())).second);
      }
    }
    EXPECT_EQ(got, expect);
  }

  for (const Tuple& t : ref) EXPECT_TRUE(view.ContainsRow(t.data()));
  Tuple miss(static_cast<size_t>(view.arity()), Value{999983});
  EXPECT_FALSE(view.ContainsRow(miss.data()));
}

TEST(ColumnStoreTest, IncrementalAppendsAndCompaction) {
  Catalog catalog;
  const PredId p = *catalog.Declare("p", 3);
  Instance db(&catalog);
  ColumnStore store;
  std::mt19937 rng(7);
  std::uniform_int_distribution<Value> value(0, 15);
  const std::vector<int> key_cols = {1};

  // Enough refresh cycles that the run count crosses kMaxRuns and the view
  // merge-compacts at least once mid-test.
  for (int batch = 0; batch < 24; ++batch) {
    for (int i = 0; i < 20; ++i) {
      db.MutableRel(p)->Insert(Tuple{value(rng), value(rng), value(rng)});
    }
    ExpectViewMatches(store.View(db, p, key_cols), db.Rel(p), key_cols);
  }
  EXPECT_GT(store.counters().run_appends, 0);
  EXPECT_GT(store.counters().compactions, 0);
  EXPECT_EQ(store.counters().rebuilds, 0);

  // A second key spec is an independent view of the same relation.
  const std::vector<int> pair_key = {2, 0};
  ExpectViewMatches(store.View(db, p, pair_key), db.Rel(p), pair_key);
  // Empty key: one all-rows range in lexicographic order.
  ExpectViewMatches(store.View(db, p, {}), db.Rel(p), {});
}

TEST(ColumnStoreTest, EpochChangesForceRebuild) {
  Catalog catalog;
  const PredId p = *catalog.Declare("p", 2);
  Instance db(&catalog);
  ColumnStore store;
  const std::vector<int> key_cols = {0};
  for (Value v = 0; v < 30; ++v) db.MutableRel(p)->Insert(Tuple{v, v + 1});
  ExpectViewMatches(store.View(db, p, key_cols), db.Rel(p), key_cols);

  // Erase: the epoch survives and the view splices the row out of its
  // sorted runs instead of rebuilding.
  ASSERT_TRUE(db.Erase(p, Tuple{3, 4}));
  ExpectViewMatches(store.View(db, p, key_cols), db.Rel(p), key_cols);
  EXPECT_EQ(store.counters().rebuilds, 0);
  EXPECT_EQ(store.counters().rows_removed, 1);

  // Clear: empty relation, empty view; the epoch change forces a rebuild.
  db.MutableRel(p)->Clear();
  ExpectViewMatches(store.View(db, p, key_cols), db.Rel(p), key_cols);
  EXPECT_EQ(store.counters().rebuilds, 1);

  // Copy assignment takes a fresh epoch even though contents grow.
  Relation other(2);
  other.Insert(Tuple{8, 9});
  other.Insert(Tuple{1, 2});
  *db.MutableRel(p) = other;
  ExpectViewMatches(store.View(db, p, key_cols), db.Rel(p), key_cols);
  EXPECT_EQ(store.counters().rebuilds, 2);

  // Move assignment keeps the source's epoch/journal; the view sees a new
  // epoch (it was synced to the destination's old one) and rebuilds.
  Relation moved_from(2);
  moved_from.Insert(Tuple{5, 6});
  *db.MutableRel(p) = std::move(moved_from);
  ExpectViewMatches(store.View(db, p, key_cols), db.Rel(p), key_cols);

  // Monotone growth after the churn appends again instead of rebuilding.
  const int64_t rebuilds = store.counters().rebuilds;
  db.MutableRel(p)->Insert(Tuple{7, 8});
  ExpectViewMatches(store.View(db, p, key_cols), db.Rel(p), key_cols);
  EXPECT_EQ(store.counters().rebuilds, rebuilds);
  EXPECT_GT(store.counters().run_appends, 0);
}

TEST(ColumnStoreTest, RandomizedMutationsMatchReference) {
  // Property test over the whole epoch/journal contract: interleaved
  // inserts, erases, clears, copies and moves, with the view refreshed and
  // fully checked after every step.
  Catalog catalog;
  const PredId p = *catalog.Declare("p", 2);
  Instance db(&catalog);
  ColumnStore store;
  const std::vector<int> key_cols = {1, 0};
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<Value> value(0, 9);
  std::uniform_int_distribution<int> op(0, 99);

  for (int step = 0; step < 400; ++step) {
    const int o = op(rng);
    Relation* rel = db.MutableRel(p);
    if (o < 70) {
      rel->Insert(Tuple{value(rng), value(rng)});
    } else if (o < 85) {
      rel->Erase(Tuple{value(rng), value(rng)});
    } else if (o < 90) {
      rel->Clear();
    } else if (o < 95) {
      Relation copy_src(2);
      copy_src.Insert(Tuple{value(rng), value(rng)});
      copy_src.Insert(Tuple{value(rng), value(rng)});
      *rel = copy_src;
    } else {
      Relation move_src(2);
      move_src.Insert(Tuple{value(rng), value(rng)});
      *rel = std::move(move_src);
    }
    ExpectViewMatches(store.View(db, p, key_cols), db.Rel(p), key_cols);
  }
}

// ---- IndexManager::UnaryBitmap -------------------------------------------

TEST(UnaryBitmapIndexTest, BuildAppendRebuild) {
  Catalog catalog;
  const PredId u = *catalog.Declare("u", 1);
  const PredId b = *catalog.Declare("b", 2);
  Instance db(&catalog);
  for (Value v = 0; v < 50; v += 2) db.MutableRel(u)->Insert(Tuple{v});

  IndexManager index;
  // Non-unary predicates have no bitmap index.
  EXPECT_EQ(index.UnaryBitmap(db, b), nullptr);

  const ValueBitmap* bm = index.UnaryBitmap(db, u);
  ASSERT_NE(bm, nullptr);
  EXPECT_EQ(bm->cardinality(), 25u);
  EXPECT_TRUE(bm->Contains(48));
  EXPECT_FALSE(bm->Contains(47));
  EXPECT_EQ(index.counters().bitmap_builds, 1);

  // Monotone growth appends from the journal tail.
  db.MutableRel(u)->Insert(Tuple{101});
  bm = index.UnaryBitmap(db, u);
  ASSERT_NE(bm, nullptr);
  EXPECT_TRUE(bm->Contains(101));
  EXPECT_EQ(bm->cardinality(), 26u);
  EXPECT_EQ(index.counters().bitmap_rebuilds, 0);
  EXPECT_GT(index.counters().bitmap_appended, 0);

  // Erase keeps the epoch: the value is cleared from the bitmap in place
  // via the erase journal, no rebuild.
  ASSERT_TRUE(db.Erase(u, Tuple{0}));
  bm = index.UnaryBitmap(db, u);
  ASSERT_NE(bm, nullptr);
  EXPECT_FALSE(bm->Contains(0));
  EXPECT_EQ(bm->cardinality(), 25u);
  EXPECT_EQ(index.counters().bitmap_rebuilds, 0);
  EXPECT_EQ(index.counters().bitmap_removed, 1);

  // An up-to-date probe is a hit.
  index.UnaryBitmap(db, u);
  EXPECT_GT(index.counters().bitmap_hits, 0);
}

// ---- RowSet --------------------------------------------------------------

TEST(RowSetTest, SeedInsertContains) {
  Relation rel(2);
  for (Value v = 0; v < 10; ++v) rel.Insert(Tuple{v, v + 1});
  storage::RowSet set;
  EXPECT_FALSE(set.initialized());
  set.Init(rel);
  ASSERT_TRUE(set.initialized());
  EXPECT_EQ(set.rows(), 10u);
  EXPECT_EQ(set.arity(), 2);

  const Value member[] = {3, 4};
  const Value miss[] = {3, 5};
  EXPECT_TRUE(set.Contains(member));
  EXPECT_FALSE(set.Contains(miss));
  EXPECT_FALSE(set.Insert(member));  // duplicate
  EXPECT_TRUE(set.Insert(miss));
  EXPECT_TRUE(set.Contains(miss));
  EXPECT_EQ(set.rows(), 11u);
  // The rows keep insertion order, row-major.
  EXPECT_EQ(set.data()[20], 3);
  EXPECT_EQ(set.data()[21], 5);
  EXPECT_EQ(set.Row(10), (Tuple{3, 5}));
}

TEST(RowSetTest, RandomizedAgainstReferenceSetAcrossGrowth) {
  // Enough distinct rows that the slot table doubles several times; every
  // verdict must match std::set exactly, including after each growth.
  Relation seed(2);
  storage::RowSet set;
  set.Init(seed);
  std::set<std::pair<Value, Value>> ref;
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<Value> value(0, 300);
  for (int i = 0; i < 50000; ++i) {
    const Value row[] = {value(rng), value(rng)};
    const bool fresh = ref.emplace(row[0], row[1]).second;
    EXPECT_EQ(set.Insert(row), fresh) << row[0] << "," << row[1];
  }
  EXPECT_EQ(set.rows(), ref.size());
  for (int i = 0; i < 5000; ++i) {
    const Value row[] = {value(rng), value(rng)};
    EXPECT_EQ(set.Contains(row), ref.count({row[0], row[1]}) > 0);
  }
}

TEST(RowSetTest, ResetKeepsCapacityAndReleasesItAfterASmallUse) {
  storage::RowSet set(2);
  for (Value v = 0; v < 1000; ++v) {
    const Value row[] = {v, -v};
    ASSERT_TRUE(set.Insert(row));
  }
  const size_t large = set.capacity();
  ASSERT_GE(large, 1000u);

  // A reset after a large use keeps the table and the log's storage; the
  // set is empty and refills without growing.
  set.Reset();
  EXPECT_EQ(set.rows(), 0u);
  EXPECT_EQ(set.capacity(), large);
  const Value first[] = {0, 0};
  EXPECT_FALSE(set.Contains(first));
  for (Value v = 0; v < 10; ++v) {
    const Value row[] = {v, v};
    EXPECT_TRUE(set.Insert(row));
    EXPECT_TRUE(set.Contains(row));
  }
  EXPECT_EQ(set.capacity(), large);

  // That use took under a quarter of the capacity, so this reset gives
  // the rest back: the set keeps room for what it held.
  set.Reset();
  EXPECT_EQ(set.rows(), 0u);
  EXPECT_GE(set.capacity(), 10u);
  EXPECT_LT(set.capacity(), large / 4);
  const Value again[] = {5, 5};
  EXPECT_FALSE(set.Contains(again));
  EXPECT_TRUE(set.Insert(again));
  EXPECT_EQ(set.rows(), 1u);
}

TEST(RowSetTest, ArityZeroHoldsAtMostTheEmptyRow) {
  storage::RowSet set(0);
  EXPECT_FALSE(set.Contains(nullptr));
  EXPECT_TRUE(set.Insert(nullptr));
  EXPECT_FALSE(set.Insert(nullptr));
  EXPECT_TRUE(set.Contains(nullptr));
  EXPECT_EQ(set.rows(), 1u);
  EXPECT_EQ(set.Row(0), Tuple{});
  set.Reset();
  EXPECT_EQ(set.rows(), 0u);
  EXPECT_FALSE(set.Contains(nullptr));
}

// Find gives a held row's insertion position. RowsMatching returns, for
// every mask of an arity-3 set, exactly the rows a scan selects, in
// position order among equal keys; the orders are dropped by Reset and
// rebuilt from the refilled rows.
TEST(RowSetTest, FindAndRowsMatchingAgreeWithAScan) {
  storage::RowSet set(3);
  std::mt19937 rng(20261019);
  std::uniform_int_distribution<Value> value(0, 4);
  for (int use = 0; use < 2; ++use) {
    set.Reset();
    std::vector<std::array<Value, 3>> rows;
    for (int i = 0; i < 400; ++i) {
      const std::array<Value, 3> row = {value(rng), value(rng), value(rng)};
      if (set.Insert(row.data())) rows.push_back(row);
    }
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(set.Find(rows[r].data()), r);
    }
    const Value absent[] = {9, 9, 9};
    EXPECT_EQ(set.Find(absent), storage::RowSet::kAbsent);
    for (uint32_t mask = 0; mask < 8; ++mask) {
      for (int probe = 0; probe < 30; ++probe) {
        const std::array<Value, 3> want = {value(rng), value(rng), value(rng)};
        Tuple key;
        for (size_t c = 0; c < 3; ++c) {
          if ((mask >> c & 1u) != 0) key.push_back(want[c]);
        }
        std::vector<uint32_t> scan;
        for (size_t r = 0; r < rows.size(); ++r) {
          bool match = true;
          for (size_t c = 0; c < 3; ++c) {
            if ((mask >> c & 1u) != 0 && rows[r][c] != want[c]) match = false;
          }
          if (match) scan.push_back(static_cast<uint32_t>(r));
        }
        const std::span<const uint32_t> got = set.RowsMatching(mask, key);
        EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), scan)
            << "use " << use << ", mask " << mask;
      }
    }
  }
}

// ---- FactSet -------------------------------------------------------------

TEST(FactSetTest, DeduplicatesAndOrdersPredicatesByFirstInsert) {
  storage::FactSet facts;
  EXPECT_TRUE(facts.empty());
  EXPECT_TRUE(facts.Insert(5, Tuple{1, 2}));
  EXPECT_TRUE(facts.Insert(2, Tuple{7}));
  EXPECT_FALSE(facts.Insert(5, Tuple{1, 2}));  // duplicate
  EXPECT_TRUE(facts.Insert(5, Tuple{2, 1}));
  EXPECT_TRUE(facts.Insert(0, Tuple{}));  // arity 0
  EXPECT_FALSE(facts.Insert(0, Tuple{}));
  EXPECT_EQ(facts.preds(), (std::vector<PredId>{5, 2, 0}));
  EXPECT_TRUE(facts.Contains(5, Tuple{2, 1}));
  EXPECT_FALSE(facts.Contains(5, Tuple{2, 2}));
  EXPECT_FALSE(facts.Contains(3, Tuple{7}));  // never inserted
  EXPECT_TRUE(facts.Contains(0, Tuple{}));
  ASSERT_NE(facts.Find(5), nullptr);
  EXPECT_EQ(facts.Find(5)->rows(), 2u);
  EXPECT_EQ(facts.Find(5)->arity(), 2);
  EXPECT_EQ(facts.Find(3), nullptr);

  // ForEach walks predicates in first-insert order, rows in insert order.
  std::vector<std::pair<PredId, Tuple>> seen;
  facts.ForEach([&](PredId p, const Tuple& t) { seen.emplace_back(p, t); });
  EXPECT_EQ(seen, (std::vector<std::pair<PredId, Tuple>>{
                      {5, Tuple{1, 2}}, {5, Tuple{2, 1}}, {2, Tuple{7}},
                      {0, Tuple{}}}));

  // A reset empties every predicate; the order restarts from scratch.
  facts.Reset();
  EXPECT_TRUE(facts.empty());
  EXPECT_EQ(facts.Find(5), nullptr);
  EXPECT_FALSE(facts.Contains(0, Tuple{}));
  EXPECT_TRUE(facts.Insert(2, Tuple{8}));
  EXPECT_TRUE(facts.Insert(5, Tuple{1, 2}));
  EXPECT_EQ(facts.preds(), (std::vector<PredId>{2, 5}));
}

TEST(FactSetTest, ResetKeepsEachPredicatesCapacity) {
  storage::FactSet facts;
  for (Value v = 0; v < 100; ++v) facts.Insert(1, Tuple{v});
  const size_t capacity = facts.Find(1)->capacity();
  const storage::RowSet* rows = facts.Find(1);
  facts.Reset();
  facts.Insert(1, Tuple{42});
  // The same RowSet, with its table intact: inserting another predicate
  // never moves it.
  EXPECT_EQ(facts.Find(1), rows);
  EXPECT_EQ(facts.Find(1)->capacity(), capacity);
  for (PredId p = 2; p < 40; ++p) facts.Insert(p, Tuple{p});
  EXPECT_EQ(facts.Find(1), rows);
  EXPECT_EQ(rows->Row(0), Tuple{42});
}

// ---- Relation columnar staging -------------------------------------------

TEST(RelationStagingTest, StagedRowsCountAndMaterializeLazily) {
  Relation rel(2);
  rel.Insert(Tuple{1, 2});
  const uint64_t epoch = rel.epoch();
  const Value rows[] = {3, 4, 5, 6};
  rel.AppendStagedRows(rows, 2);
  // Size and emptiness see staged rows immediately; the epoch is unchanged
  // (staging is monotone growth).
  EXPECT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.staged_rows(), 2u);
  EXPECT_EQ(rel.epoch(), epoch);

  // Contains is a tuple-level read: it folds the staged rows in.
  EXPECT_TRUE(rel.Contains(Tuple{3, 4}));
  EXPECT_EQ(rel.staged_rows(), 0u);
  EXPECT_EQ(rel.size(), 3u);
  EXPECT_TRUE(rel.Contains(Tuple{5, 6}));
  EXPECT_FALSE(rel.Contains(Tuple{4, 3}));
}

TEST(RelationStagingTest, JournalCoversStagedRowsInOrder) {
  Relation rel(2);
  rel.Insert(Tuple{0, 0});
  const Value batch1[] = {1, 1, 2, 2};
  const Value batch2[] = {3, 3};
  rel.AppendStagedRows(batch1, 2);
  rel.AppendStagedRows(batch2, 1);
  const uint64_t epoch = rel.epoch();

  // journal() materializes; staged rows arrive after the direct insert, in
  // staging order, under the same epoch.
  const std::vector<const Tuple*>& journal = rel.journal();
  ASSERT_EQ(journal.size(), 4u);
  EXPECT_EQ(*journal[0], (Tuple{0, 0}));
  EXPECT_EQ(*journal[1], (Tuple{1, 1}));
  EXPECT_EQ(*journal[2], (Tuple{2, 2}));
  EXPECT_EQ(*journal[3], (Tuple{3, 3}));
  EXPECT_EQ(rel.epoch(), epoch);
  EXPECT_TRUE(rel.journal_complete());
}

TEST(RelationStagingTest, EqualityCopyMoveEraseClearWithStagedRows) {
  Relation staged(2);
  staged.Insert(Tuple{1, 2});
  const Value rows[] = {3, 4};
  staged.AppendStagedRows(rows, 1);

  Relation plain(2);
  plain.Insert(Tuple{1, 2});
  plain.Insert(Tuple{3, 4});
  EXPECT_TRUE(staged == plain);  // equality materializes both sides

  // Copies materialize the source and start a fresh epoch of their own.
  Relation staged2(2);
  staged2.AppendStagedRows(rows, 1);
  Relation copy = staged2;
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_TRUE(copy.Contains(Tuple{3, 4}));
  EXPECT_NE(copy.epoch(), staged2.epoch());

  // Moves carry staged rows along.
  Relation staged3(2);
  staged3.AppendStagedRows(rows, 1);
  Relation moved = std::move(staged3);
  EXPECT_EQ(moved.staged_rows(), 1u);
  EXPECT_TRUE(moved.Contains(Tuple{3, 4}));

  // Erase of a staged row materializes first, then records the removal in
  // the erase journal — the epoch survives, so incremental consumers can
  // apply the event instead of rebuilding.
  Relation erased(2);
  erased.AppendStagedRows(rows, 1);
  const uint64_t erased_epoch = erased.epoch();
  EXPECT_TRUE(erased.Erase(Tuple{3, 4}));
  EXPECT_TRUE(erased.empty());
  EXPECT_EQ(erased.epoch(), erased_epoch);
  ASSERT_EQ(erased.erase_journal().size(), 1u);
  EXPECT_EQ(*erased.erase_journal()[0].tuple, (Tuple{3, 4}));
  EXPECT_EQ(erased.erase_journal()[0].ins_pos, 1u);

  // Clear drops staged rows with the rest.
  Relation cleared(2);
  cleared.AppendStagedRows(rows, 1);
  cleared.Clear();
  EXPECT_TRUE(cleared.empty());
  EXPECT_EQ(cleared.staged_rows(), 0u);
  EXPECT_FALSE(cleared.Contains(Tuple{3, 4}));
}

TEST(RelationStagingTest, SortedViewSeesStagedRows) {
  // The incremental SortedView consumes the journal, so staged rows flow
  // into views through the same epoch/journal contract.
  Catalog catalog;
  const PredId p = *catalog.Declare("p", 2);
  Instance db(&catalog);
  ColumnStore store;
  const std::vector<int> key_cols = {0};
  db.MutableRel(p)->Insert(Tuple{1, 2});
  ExpectViewMatches(store.View(db, p, key_cols), db.Rel(p), key_cols);

  const Value rows[] = {3, 4, 5, 6};
  db.MutableRel(p)->AppendStagedRows(rows, 2);
  ExpectViewMatches(store.View(db, p, key_cols), db.Rel(p), key_cols);
  EXPECT_EQ(store.counters().rebuilds, 0);
}

// ---- Engine-level hash vs columnar ---------------------------------------

struct EngineCase {
  const char* name;
  const char* program;
  const char* facts;
};

// Shapes chosen to cross every columnar plan kind: single-literal delta
// scan, binary merge join, unary bitmap semijoin, negation (stratified
// fallback) and a constant-bound join key.
const EngineCase kEngineCases[] = {
    {"transitive-closure",
     "t(X, Y) :- e(X, Y).\n"
     "t(X, Z) :- t(X, Y), e(Y, Z).\n",
     "e(a, b). e(b, c). e(c, d). e(d, a). e(b, e).\n"},
    {"unary-semijoin",
     "good(X) :- start(X).\n"
     "good(Y) :- good(X), e(X, Y).\n"
     "mark(Y) :- e(X, Y), good(Y).\n",
     "start(a). e(a, b). e(b, c). e(c, a). e(c, d).\n"},
    {"negation",
     "r(X, Y) :- e(X, Y).\n"
     "r(X, Z) :- r(X, Y), e(Y, Z).\n"
     "unreach(X, Y) :- node(X), node(Y), !r(X, Y).\n"
     "node(X) :- e(X, Y).\n"
     "node(Y) :- e(X, Y).\n",
     "e(a, b). e(b, c). e(d, d).\n"},
    {"constant-key",
     "hub(Y) :- e(a, Y).\n"
     "two(Z) :- hub(Y), e(Y, Z).\n",
     "e(a, b). e(a, c). e(b, d). e(c, d). e(d, a).\n"},
};

TEST(HashVsColumnarEngineTest, ModelsAndDeterministicStatsAgree) {
  for (const EngineCase& ec : kEngineCases) {
    SCOPED_TRACE(ec.name);
    Engine engine;
    Result<Program> program = engine.Parse(ec.program);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    Instance db = engine.NewInstance();
    ASSERT_TRUE(engine.AddFacts(ec.facts, &db).ok());

    engine.options().storage = storage::StorageBackend::kHash;
    EvalStats hash_stats;
    Result<Instance> hash = engine.Stratified(*program, db, &hash_stats);
    ASSERT_TRUE(hash.ok()) << hash.status().ToString();

    engine.options().storage = storage::StorageBackend::kColumnar;
    EvalStats col_stats;
    Result<Instance> col = engine.Stratified(*program, db, &col_stats);
    ASSERT_TRUE(col.ok()) << col.status().ToString();

    EXPECT_TRUE(*hash == *col) << "models diverge";
    EXPECT_EQ(hash_stats.rounds, col_stats.rounds);
    EXPECT_EQ(hash_stats.facts_derived, col_stats.facts_derived);
    EXPECT_EQ(hash_stats.instantiations, col_stats.instantiations);
    ASSERT_EQ(hash_stats.per_rule.size(), col_stats.per_rule.size());
    for (size_t i = 0; i < hash_stats.per_rule.size(); ++i) {
      EXPECT_EQ(hash_stats.per_rule[i].matches, col_stats.per_rule[i].matches)
          << "rule " << i;
      EXPECT_EQ(hash_stats.per_rule[i].tuples_produced,
                col_stats.per_rule[i].tuples_produced)
          << "rule " << i;
    }
  }
}

TEST(HashVsColumnarEngineTest, RandomChainAndGridGraphs) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> node(0, 19);
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE(trial);
    std::string facts;
    for (int i = 0; i < 40; ++i) {
      facts += "e(n" + std::to_string(node(rng)) + ", n" +
               std::to_string(node(rng)) + ").\n";
    }
    Engine engine;
    Result<Program> program = engine.Parse(
        "t(X, Y) :- e(X, Y).\n"
        "t(X, Z) :- t(X, Y), e(Y, Z).\n"
        "s(X) :- e(X, X).\n"
        "u(Y) :- t(X, Y), s(X).\n");
    ASSERT_TRUE(program.ok());
    Instance db = engine.NewInstance();
    ASSERT_TRUE(engine.AddFacts(facts, &db).ok());

    engine.options().storage = storage::StorageBackend::kHash;
    EvalStats hash_stats;
    Result<Instance> hash = engine.Stratified(*program, db, &hash_stats);
    ASSERT_TRUE(hash.ok());
    engine.options().storage = storage::StorageBackend::kColumnar;
    EvalStats col_stats;
    Result<Instance> col = engine.Stratified(*program, db, &col_stats);
    ASSERT_TRUE(col.ok());
    EXPECT_TRUE(*hash == *col);
    EXPECT_EQ(hash_stats.rounds, col_stats.rounds);
    EXPECT_EQ(hash_stats.facts_derived, col_stats.facts_derived);
    EXPECT_EQ(hash_stats.instantiations, col_stats.instantiations);
  }
}

}  // namespace
}  // namespace datalog
