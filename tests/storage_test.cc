// The flat row sets of incremental maintenance (docs/storage.md): RowSet
// membership, growth, Reset and the sorted RowsMatching orders checked
// against reference sets and scans, and FactSet's per-predicate rows.

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "ra/storage/row_set.h"

namespace datalog {
namespace {

// ---- RowSet --------------------------------------------------------------

TEST(RowSetTest, SeedInsertContains) {
  storage::RowSet set(2);
  EXPECT_EQ(set.rows(), 0u);
  for (Value v = 0; v < 10; ++v) {
    const Value seed[] = {v, v + 1};
    ASSERT_TRUE(set.Insert(seed));
  }
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
  storage::RowSet set(2);
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

}  // namespace
}  // namespace datalog
