// Allocation guard: counts calls of the global operator new around rule
// matching and incremental maintenance, so a change that brings back an
// allocation per tried tuple or per maintained fact fails here on any
// host. The gates count work, not time (ROADMAP item 7).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/engine.h"
#include "eval/grounder.h"
#include "eval/incremental.h"

namespace {
std::atomic<int64_t> g_news{0};
}  // namespace

// Counting replacements of the global allocation functions. The array
// and nothrow forms forward to these by default. The deletes stay out of
// line: inlined, GCC would see `free` applied to the result of a
// new-expression and flag it as a mismatched pair.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace datalog {
namespace {

/// Calls of operator new while `fn` runs.
int64_t CountNews(const std::function<void()>& fn) {
  const int64_t before = g_news.load(std::memory_order_relaxed);
  fn();
  return g_news.load(std::memory_order_relaxed) - before;
}

constexpr const char* kTc =
    "t(X, Y) :- e(X, Y).\n"
    "t(X, Z) :- t(X, Y), e(Y, Z).\n";

/// The facts e(i, i+1) for i < `edges`, plus node(i) for i <= `edges`
/// when `nodes` is set.
std::string ChainFacts(int edges, bool nodes) {
  std::string facts;
  for (int i = 0; i < edges; ++i) {
    facts += "e(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  for (int i = 0; nodes && i <= edges; ++i) {
    facts += "node(" + std::to_string(i) + ").\n";
  }
  return facts;
}

/// Allocations of one warm ForEachMatch (indexes built by a first call)
/// of TC's recursive rule over the closure of a chain with `edges`
/// edges; `matches` receives the match count.
int64_t WarmRecursiveMatch(int edges, int64_t* matches) {
  Engine engine;
  Result<Program> program = engine.Parse(kTc);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  Instance base(&engine.catalog());
  EXPECT_TRUE(engine.AddFacts(ChainFacts(edges, false), &base).ok());
  Result<Instance> model = engine.Stratified(*program, base);
  EXPECT_TRUE(model.ok()) << model.status().ToString();

  RuleMatcher matcher(&program->rules[1]);
  IndexManager index;
  const DbView view{&*model, &*model};
  const std::vector<Value> adom;  // a safe rule never enumerates it
  int64_t count = 0;
  const std::function<bool(const Valuation&)> cb = [&count](const Valuation&) {
    ++count;
    return true;
  };
  matcher.ForEachMatch(view, adom, &index, cb);
  count = 0;
  const int64_t news =
      CountNews([&] { matcher.ForEachMatch(view, adom, &index, cb); });
  *matches = count;
  return news;
}

TEST(AllocGuardTest, WarmMatchAllocatesTheSameOnLongerChains) {
  int64_t matches64 = 0;
  int64_t matches256 = 0;
  const int64_t news64 = WarmRecursiveMatch(64, &matches64);
  const int64_t news256 = WarmRecursiveMatch(256, &matches256);
  // t(x, y), e(y, z) over a chain of n edges: one match per x < y < n.
  EXPECT_EQ(matches64, 63 * 64 / 2);
  EXPECT_EQ(matches256, 255 * 256 / 2);
  // Match states are recycled per thread, so a warm call allocates
  // nothing at all.
  EXPECT_EQ(news64, 0);
  EXPECT_EQ(news256, 0);
  RecordProperty("allocations", std::to_string(news64));
}

// The benchmark's churn shape: TC plus its stratified complement over the
// chain's nodes, chain of 64 edges. One batch cuts 4 mid-chain edges and
// the next restores them: DRed on the recursive stratum, counting on the
// negated one.
TEST(AllocGuardTest, ChurnCutAndRestoreStaysWithinBudget) {
  // Measured with libstdc++ 12: 3,634, about one per gained fact, which
  // is the model's tuple node. It was 6,642 while a shadow copy of the
  // model took a node per changed fact too, 48,324 with node-based
  // per-batch delta relations and a match state allocated per call, and
  // 164,492 before that (Tuple as std::vector, a trail per tried tuple, a
  // one-tuple Relation per maintenance query). The two batches change
  // 6,220 facts (1,553 t and 1,553 ct facts each way, plus the 4 edges),
  // so an allocation per changed fact, or one per lost fact, breaks the
  // budget.
  constexpr int64_t kBudget = 5'000;

  Engine engine;
  Result<Program> program = engine.Parse(
      std::string(kTc) + "ct(X, Y) :- node(X), node(Y), !t(X, Y).\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Instance base(&engine.catalog());
  ASSERT_TRUE(engine.AddFacts(ChainFacts(64, true), &base).ok());
  auto view = IncrementalView::Create(*program, engine.catalog(), base);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  const PredId e = engine.catalog().Find("e");
  std::vector<FactUpdate> cut;
  std::vector<FactUpdate> restore;
  for (int i : {20, 26, 33, 41}) {
    const Tuple edge{engine.symbols().InternInt(i),
                     engine.symbols().InternInt(i + 1)};
    cut.push_back(FactUpdate{e, edge, false});
    restore.push_back(FactUpdate{e, edge, true});
  }
  const std::string initial = (*view)->model().SerializeSnapshot();
  // A first round trip builds the indexes the measured one reuses.
  ASSERT_TRUE((*view)->ApplyBatch(cut).ok());
  ASSERT_TRUE((*view)->ApplyBatch(restore).ok());

  const int64_t news = CountNews([&] {
    EXPECT_TRUE((*view)->ApplyBatch(cut).ok());
    EXPECT_TRUE((*view)->ApplyBatch(restore).ok());
  });
  EXPECT_EQ((*view)->model().SerializeSnapshot(), initial);
  EXPECT_LE(news, kBudget);
  RecordProperty("allocations", std::to_string(news));
}

}  // namespace
}  // namespace datalog
