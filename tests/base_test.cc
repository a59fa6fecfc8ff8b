// Unit tests for src/base: Status, Result, SymbolTable, Rng,
// ParallelChunks.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "base/result.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/symbols.h"

namespace datalog {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status st = Status::ParseError("2:3: bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "2:3: bad token");
  EXPECT_EQ(st.ToString(), "ParseError: 2:3: bad token");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kParseError, StatusCode::kInvalidProgram,
        StatusCode::kNotStratifiable, StatusCode::kSchemaError,
        StatusCode::kConflict, StatusCode::kNonTerminating,
        StatusCode::kBudgetExhausted, StatusCode::kAbandoned,
        StatusCode::kUnsupported, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::SchemaError("bad arity");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSchemaError);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "hello");
}

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable symbols;
  Value a1 = symbols.Intern("a");
  Value a2 = symbols.Intern("a");
  Value b = symbols.Intern("b");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(symbols.NameOf(a1), "a");
}

TEST(SymbolTableTest, IntegersCanonicalized) {
  SymbolTable symbols;
  Value v1 = symbols.InternInt(3);
  Value v2 = symbols.Intern("3");
  Value v3 = symbols.Intern("03");
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(v1, v3) << "leading zeros should canonicalize";
  EXPECT_EQ(symbols.NameOf(v1), "3");
  Value neg = symbols.Intern("-7");
  EXPECT_EQ(neg, symbols.InternInt(-7));
}

TEST(SymbolTableTest, IntegerAndSymbolDistinct) {
  SymbolTable symbols;
  EXPECT_NE(symbols.InternInt(3), symbols.Intern("three"));
}

TEST(SymbolTableTest, FindWithoutIntern) {
  SymbolTable symbols;
  EXPECT_EQ(symbols.Find("missing"), -1);
  Value a = symbols.Intern("a");
  EXPECT_EQ(symbols.Find("a"), a);
  Value n = symbols.InternInt(12);
  EXPECT_EQ(symbols.Find("12"), n);
}

TEST(SymbolTableTest, InventedValuesAreFreshAndMarked) {
  SymbolTable symbols;
  Value a = symbols.Intern("a");
  Value i1 = symbols.Invent();
  Value i2 = symbols.Invent();
  EXPECT_NE(i1, i2);
  EXPECT_NE(i1, a);
  EXPECT_TRUE(symbols.IsInvented(i1));
  EXPECT_TRUE(symbols.IsInvented(i2));
  EXPECT_FALSE(symbols.IsInvented(a));
  EXPECT_EQ(symbols.NameOf(i1)[0], '@');
}

TEST(SymbolTableTest, SizeCountsEverything) {
  SymbolTable symbols;
  symbols.Intern("x");
  symbols.InternInt(1);
  symbols.Invent();
  EXPECT_EQ(symbols.size(), 3);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  // Different seeds almost surely differ on the first draw.
  Rng a2(123);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
  }
  EXPECT_EQ(rng.Uniform(1), 0u);
}

/// Runs ParallelChunks over `num_chunks` chunks on `workers` workers,
/// checks that every chunk ran exactly once and that the workers'
/// activity accounts for each of them, and returns that activity.
std::vector<WorkerActivity> RunEveryChunkOnce(int workers,
                                              size_t num_chunks) {
  std::vector<std::atomic<int>> runs(num_chunks);
  std::vector<WorkerActivity> activity =
      ParallelChunks(workers, num_chunks, [&](size_t chunk) {
        runs[chunk].fetch_add(1, std::memory_order_relaxed);
      });
  for (size_t c = 0; c < num_chunks; ++c) {
    EXPECT_EQ(runs[c].load(), 1) << "chunk " << c;
  }
  EXPECT_EQ(activity.size(), static_cast<size_t>(workers));
  int64_t chunks = 0;
  for (const WorkerActivity& w : activity) {
    EXPECT_GE(w.chunks, 0);
    EXPECT_GE(w.busy_ms, 0.0);
    chunks += w.chunks;
  }
  EXPECT_EQ(chunks, static_cast<int64_t>(num_chunks));
  return activity;
}

TEST(ParallelChunksTest, RunsEveryChunkExactlyOnce) {
  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    RunEveryChunkOnce(workers, 1000);
  }
}

TEST(ParallelChunksTest, OneWorkerRunsTheChunksInOrderOnTheCaller) {
  std::vector<size_t> order;
  std::vector<WorkerActivity> activity = ParallelChunks(
      1, 5, [&](size_t chunk) { order.push_back(chunk); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  ASSERT_EQ(activity.size(), 1u);
  EXPECT_EQ(activity[0].chunks, 5);
}

TEST(ParallelChunksTest, ZeroChunksRunNothing) {
  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    for (const WorkerActivity& w : RunEveryChunkOnce(workers, 0)) {
      EXPECT_EQ(w.chunks, 0);
    }
  }
}

TEST(ParallelChunksTest, MoreWorkersThanChunks) {
  RunEveryChunkOnce(8, 3);
  RunEveryChunkOnce(4, 1);
}

TEST(ParallelChunksTest, RethrowsTheFirstExceptionAfterJoining) {
  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::atomic<int> ran{0};
    EXPECT_THROW(ParallelChunks(workers, 1000,
                                [&](size_t chunk) {
                                  ran.fetch_add(1);
                                  if (chunk == 5) {
                                    throw std::runtime_error("chunk 5");
                                  }
                                }),
                 std::runtime_error);
    // On one worker the chunks run in order and none starts after the
    // throw.
    if (workers == 1) EXPECT_EQ(ran.load(), 6);
  }
}

}  // namespace
}  // namespace datalog
