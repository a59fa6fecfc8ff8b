// Determinism across thread counts: every engine must produce
// byte-identical results and identical deterministic EvalStats counters at
// every num_threads setting. The forward-chaining engines fire every stage
// inline, and the stable-model search folds its chunks of candidate checks
// in mask order (src/eval/stable.cc), so num_threads is required to be
// unobservable everywhere except the per-worker telemetry and wall-clock
// timings — this suite is the enforcement.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/engine.h"
#include "eval/incremental.h"
#include "eval/stable.h"
#include "random_programs.h"
#include "worked_examples.h"
#include "worked_examples_golden.h"
#include "workload/graphs.h"

namespace datalog {
namespace {

const int kThreadCounts[] = {1, 2, 8};

/// The deterministic portion of EvalStats, rendered for EXPECT_EQ diffs.
/// Deliberately excludes per_worker and the wall-clock fields — those are
/// scheduling/timing telemetry and legitimately vary.
std::string StatsKey(const EvalStats& st) {
  std::string s = "rounds=" + std::to_string(st.rounds) +
                  " facts=" + std::to_string(st.facts_derived) +
                  " inst=" + std::to_string(st.instantiations) +
                  " index=" + std::to_string(st.index_hits) + "/" +
                  std::to_string(st.index_builds) + "/" +
                  std::to_string(st.index_rebuilds) + "/" +
                  std::to_string(st.index_appended) + "\n";
  for (size_t i = 0; i < st.per_rule.size(); ++i) {
    s += "rule" + std::to_string(i) + "=" +
         std::to_string(st.per_rule[i].matches) + "/" +
         std::to_string(st.per_rule[i].tuples_produced) + "\n";
  }
  return s;
}

TEST(ParallelWorkedExamples, GoldensAtEveryThreadCount) {
  for (int t : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(t));
    EXPECT_EQ(worked_examples::Ex32WinGame(t),
              worked_examples::kGoldenEx32WinGame);
    EXPECT_EQ(worked_examples::Ex41Closer(t),
              worked_examples::kGoldenEx41Closer);
    EXPECT_EQ(worked_examples::Ex43ComplementTc(t),
              worked_examples::kGoldenEx43ComplementTc);
    EXPECT_EQ(worked_examples::Ex44GoodNodes(t),
              worked_examples::kGoldenEx44GoodNodes);
    EXPECT_EQ(worked_examples::Ex54ProjectionDiff(t),
              worked_examples::kGoldenEx54ProjectionDiff);
    EXPECT_EQ(worked_examples::Ex55ProjectionDiffBottom(t),
              worked_examples::kGoldenEx55ProjectionDiffBottom);
  }
}

/// One engine pass over a random semi-positive program at a given thread
/// count: the canonical result strings plus the stats keys of every
/// deterministic entry point.
std::string RunAllEngines(const std::string& program_text,
                          const std::string& facts_text, int num_threads) {
  Engine engine;
  engine.options().num_threads = num_threads;
  Result<Program> p = engine.Parse(program_text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  Instance db = engine.NewInstance();
  EXPECT_TRUE(engine.AddFacts(facts_text, &db).ok());

  std::string out;
  const bool has_negation = program_text.find('!') != std::string::npos;
  if (!has_negation) {
    Result<Instance> naive = engine.MinimumModelNaive(*p, db);
    EXPECT_TRUE(naive.ok());
    out += "naive:\n" + naive->ToString(engine.symbols()) +
           StatsKey(engine.LastRunStats());
    Result<Instance> seminaive = engine.MinimumModel(*p, db);
    EXPECT_TRUE(seminaive.ok());
    out += "seminaive:\n" + seminaive->ToString(engine.symbols()) +
           StatsKey(engine.LastRunStats());
  }
  Result<Instance> stratified = engine.Stratified(*p, db);
  EXPECT_TRUE(stratified.ok()) << stratified.status().ToString();
  out += "stratified:\n" + stratified->ToString(engine.symbols()) +
         StatsKey(engine.LastRunStats());
  Result<WellFoundedModel> wf = engine.WellFounded(*p, db);
  EXPECT_TRUE(wf.ok());
  out += "wf-true:\n" + wf->true_facts.ToString(engine.symbols()) +
         "wf-possible:\n" + wf->possible_facts.ToString(engine.symbols()) +
         StatsKey(engine.LastRunStats());
  Result<InflationaryResult> infl = engine.Inflationary(*p, db);
  EXPECT_TRUE(infl.ok());
  out += "inflationary(stages=" + std::to_string(infl->stages) + "):\n" +
         infl->instance.ToString(engine.symbols()) +
         StatsKey(engine.LastRunStats());
  Result<NonInflationaryResult> noninfl = engine.NonInflationary(*p, db);
  EXPECT_TRUE(noninfl.ok());
  out += "noninflationary(stages=" + std::to_string(noninfl->stages) +
         "):\n" + noninfl->instance.ToString(engine.symbols()) +
         StatsKey(engine.LastRunStats());
  return out;
}

class ParallelRandomSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelRandomSweep, EnginesIdenticalAcrossThreadCounts) {
  // Generate once; re-generating per thread count from the same seed
  // would also work (generation is deterministic), but sharing the text
  // makes the SCOPED_TRACE unambiguous.
  Rng rng(GetParam());
  const std::string program_text = random_programs::RandomProgram(&rng);
  const std::string facts_text = random_programs::RandomFacts(&rng, 5, 8, 3);
  SCOPED_TRACE("program:\n" + program_text + "facts:\n" + facts_text);

  const std::string sequential = RunAllEngines(program_text, facts_text, 1);
  for (int t : kThreadCounts) {
    if (t == 1) continue;
    SCOPED_TRACE("num_threads=" + std::to_string(t));
    EXPECT_EQ(sequential, RunAllEngines(program_text, facts_text, t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRandomSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{21}),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

/// One incremental-maintenance pass under a given engine configuration:
/// random update batches (a pure function of `update_seed`) applied to an
/// IncrementalView, keyed by the serialized model after every batch plus
/// the full maintenance counters — and cross-checked against a
/// from-scratch stratified run on the final base.
std::string RunIncrementalMaintenance(const std::string& program_text,
                                      const std::string& facts_text,
                                      uint64_t update_seed, int num_threads) {
  Engine engine;
  engine.options().num_threads = num_threads;
  Result<Program> p = engine.Parse(program_text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  Instance db = engine.NewInstance();
  EXPECT_TRUE(engine.AddFacts(facts_text, &db).ok());

  Result<std::unique_ptr<IncrementalView>> view =
      IncrementalView::Create(*p, engine.catalog(), db, engine.options());
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  if (!view.ok()) return "";
  const PredId e1 = engine.catalog().Find("e1");
  const PredId e2 = engine.catalog().Find("e2");
  EXPECT_GE(e1, 0);
  EXPECT_GE(e2, 0);

  Rng urng(update_seed);
  std::string out = "initial:\n" + (*view)->model().SerializeSnapshot();
  for (int b = 0; b < 4; ++b) {
    std::vector<FactUpdate> batch;
    const int n = 1 + urng.UniformInt(3);
    for (int u = 0; u < n; ++u) {
      FactUpdate up;
      up.insert = urng.Chance(0.55);
      if (urng.Chance(0.7)) {
        up.pred = e1;
        up.tuple = {engine.symbols().InternInt(urng.UniformInt(5)),
                    engine.symbols().InternInt(urng.UniformInt(5))};
      } else {
        up.pred = e2;
        up.tuple = {engine.symbols().InternInt(urng.UniformInt(5))};
      }
      batch.push_back(std::move(up));
    }
    EXPECT_TRUE((*view)->ApplyBatch(batch).ok());
    out += "batch" + std::to_string(b) + ":\n" +
           (*view)->model().SerializeSnapshot();
  }

  Result<Instance> scratch = engine.Stratified(*p, (*view)->base());
  EXPECT_TRUE(scratch.ok()) << scratch.status().ToString();
  if (scratch.ok()) {
    EXPECT_EQ((*view)->model().SerializeSnapshot(),
              scratch->SerializeSnapshot())
        << "maintained model diverges from scratch under t=" << num_threads;
  }

  const IncrementalView::Stats& st = (*view)->stats();
  out += "stats=" + std::to_string(st.batches) + "/" +
         std::to_string(st.inserts) + "/" + std::to_string(st.retracts) +
         "/" + std::to_string(st.noops) + "/" + std::to_string(st.recounted) +
         "/" + std::to_string(st.overdeleted) + "/" +
         std::to_string(st.rederived_base) + "/" +
         std::to_string(st.rederived_provenance) + "/" +
         std::to_string(st.rederived_query) + "/" +
         std::to_string(st.facts_added) + "/" +
         std::to_string(st.facts_removed) + "\n";
  return out;
}

/// The maintenance contract of docs/incremental.md: the maintained model
/// bytes and every maintenance counter are identical at every thread
/// count.
class IncrementalRandomSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalRandomSweep, MaintenanceIdenticalAcrossThreadsAndStorage) {
  Rng rng(GetParam());
  const std::string program_text = random_programs::RandomProgram(&rng);
  const std::string facts_text = random_programs::RandomFacts(&rng, 5, 8, 3);
  SCOPED_TRACE("program:\n" + program_text + "facts:\n" + facts_text);
  const uint64_t update_seed = GetParam() * 977 + 1;

  const std::string reference =
      RunIncrementalMaintenance(program_text, facts_text, update_seed, 1);
  for (int t : kThreadCounts) {
    if (t == 1) continue;
    SCOPED_TRACE("num_threads=" + std::to_string(t));
    EXPECT_EQ(reference, RunIncrementalMaintenance(program_text, facts_text,
                                                   update_seed, t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalRandomSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{11}),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

/// Stable-model search fans candidate checks over the pool; the result —
/// models in mask order, candidates_checked, unknown_atoms — and the
/// merged scalar stats must not depend on the thread count.
TEST(ParallelStableModels, IdenticalAcrossThreadCounts) {
  const char* kWin = "win(X) :- moves(X, Y), !win(Y).\n";
  // The paper's game graph has unknowns, so the search enumerates several
  // candidates; a 3-cycle alone would too, but this exercises more.
  std::string base;
  std::vector<std::string> runs;
  for (int t : kThreadCounts) {
    Engine engine;
    engine.options().num_threads = t;
    auto p = engine.Parse(kWin);
    ASSERT_TRUE(p.ok());
    Instance db = engine.NewInstance();
    ASSERT_TRUE(engine
                    .AddFacts(
                        "moves(a, b). moves(b, a). moves(b, c). "
                        "moves(c, d). moves(d, e). moves(e, f). moves(f, g).",
                        &db)
                    .ok());
    EvalContext ctx(engine.options());
    Result<StableModelsResult> r =
        StableModels(*p, db, engine.options(), /*max_candidates=*/1 << 20,
                     &ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ctx.Finalize();
    std::string key = "unknown=" + std::to_string(r->unknown_atoms) +
                      " checked=" + std::to_string(r->candidates_checked) +
                      " models=" + std::to_string(r->models.size()) + "\n";
    for (const Instance& m : r->models) key += m.ToString(engine.symbols());
    key += StatsKey(ctx.stats);
    runs.push_back(std::move(key));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0], runs[i]) << "thread count " << kThreadCounts[i];
  }
}

/// The models come out in candidate-mask order whatever the chunking:
/// 64 candidates make 8 chunks at one thread, 16 at two, 32 at three and
/// 64 at eight. The expected order is the one-thread order.
TEST(ParallelStableModels, ModelsComeOutInMaskOrder) {
  for (int t : {1, 2, 3, 8}) {
    SCOPED_TRACE("num_threads=" + std::to_string(t));
    Engine engine;
    engine.options().num_threads = t;
    auto p = engine.Parse("win(X) :- moves(X, Y), !win(Y).\n");
    ASSERT_TRUE(p.ok());
    GraphBuilder graphs(&engine.catalog(), &engine.symbols(), "moves");
    const Instance db = graphs.TwoCycles(3);
    Result<StableModelsResult> r = StableModels(*p, db, engine.options());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const PredId win = engine.catalog().Find("win");
    std::string order;
    for (const Instance& m : r->models) {
      std::vector<std::string> winners;
      for (const Tuple& w : m.Rel(win)) {
        winners.push_back(engine.symbols().NameOf(w[0]));
      }
      std::sort(winners.begin(), winners.end());
      for (const std::string& w : winners) order += w;
      order += ' ';
    }
    EXPECT_EQ(order, "135 134 125 124 035 034 025 024 ");
  }
}

/// The per-worker telemetry is the one thread-count-dependent surface, and
/// only the stable-model search fills it: the forward-chaining engines fire
/// every stage inline whatever num_threads says, while the candidate
/// fan-out gets one entry per worker it ran on, and a search of at most
/// 16 candidates runs on the calling thread alone.
TEST(ParallelWorkerTelemetry, SizedToThePool) {
  {
    Engine engine;
    engine.options().num_threads = 8;
    auto p = engine.Parse(
        "t(X, Y) :- g(X, Y).\n"
        "t(X, Y) :- g(X, Z), t(Z, Y).\n");
    ASSERT_TRUE(p.ok());
    Instance db = engine.NewInstance();
    ASSERT_TRUE(engine.AddFacts("g(a, b). g(b, c). g(c, d).", &db).ok());
    ASSERT_TRUE(engine.MinimumModel(*p, db).ok());
    EXPECT_TRUE(engine.LastRunStats().per_worker.empty()) << "MinimumModel";
    ASSERT_TRUE(engine.MinimumModelNaive(*p, db).ok());
    EXPECT_TRUE(engine.LastRunStats().per_worker.empty())
        << "MinimumModelNaive";
    ASSERT_TRUE(engine.Inflationary(*p, db).ok());
    EXPECT_TRUE(engine.LastRunStats().per_worker.empty()) << "Inflationary";
    NonInflationaryOptions options;
    options.eval.num_threads = 8;
    ASSERT_TRUE(engine.NonInflationary(*p, db, options).ok());
    EXPECT_TRUE(engine.LastRunStats().per_worker.empty())
        << "NonInflationary";
  }
  {
    // The stratified complement of TC: the well-founded model is total,
    // so the search checks one candidate and spawns no worker.
    Engine engine;
    engine.options().num_threads = 8;
    auto p = engine.Parse(
        "t(X, Y) :- g(X, Y).\n"
        "t(X, Y) :- g(X, Z), t(Z, Y).\n"
        "ct(X, Y) :- !t(X, Y).\n");
    ASSERT_TRUE(p.ok());
    GraphBuilder graphs(&engine.catalog(), &engine.symbols());
    const Instance db = graphs.RandomDigraph(8, 14, /*seed=*/3);
    EvalContext ctx(engine.options());
    Result<StableModelsResult> r =
        StableModels(*p, db, engine.options(), /*max_candidates=*/1 << 20,
                     &ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ctx.Finalize();
    EXPECT_EQ(r->candidates_checked, 1);
    EXPECT_EQ(r->models.size(), 1u);
    EXPECT_TRUE(ctx.stats.per_worker.empty()) << "one-candidate search";
  }
  // Each worker takes at least 16 candidates: the paper game's 8 stay on
  // the calling thread at any thread count, 3 disjoint 2-cycles (64
  // candidates) fill at most 4 workers, and 6 (4,096) fill the pool.
  struct Search {
    const char* name;
    int two_cycles;  // 0 = the paper game (Ex. 3.2)
    int threads;
    size_t workers;  // 0 = no per_worker entries
    size_t models;
  };
  for (const Search& search : {Search{"paper game", 0, 4, 0, 0},
                               Search{"3 two-cycles", 3, 1, 0, 8},
                               Search{"3 two-cycles", 3, 8, 4, 8},
                               Search{"6 two-cycles", 6, 4, 4, 64}}) {
    SCOPED_TRACE(std::string(search.name) +
                 " num_threads=" + std::to_string(search.threads));
    Engine engine;
    engine.options().num_threads = search.threads;
    auto p = engine.Parse("win(X) :- moves(X, Y), !win(Y).\n");
    ASSERT_TRUE(p.ok());
    GraphBuilder graphs(&engine.catalog(), &engine.symbols(), "moves");
    const Instance db =
        search.two_cycles == 0
            ? PaperGameGraph(&engine.catalog(), &engine.symbols())
            : graphs.TwoCycles(search.two_cycles);
    EvalContext ctx(engine.options());
    Result<StableModelsResult> r =
        StableModels(*p, db, engine.options(), /*max_candidates=*/1 << 20,
                     &ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ctx.Finalize();
    EXPECT_EQ(r->models.size(), search.models);
    ASSERT_EQ(ctx.stats.per_worker.size(), search.workers);
    int64_t chunks = 0;
    for (const auto& w : ctx.stats.per_worker) chunks += w.chunks;
    if (search.workers > 0) EXPECT_GT(chunks, 0);
  }
}

}  // namespace
}  // namespace datalog
