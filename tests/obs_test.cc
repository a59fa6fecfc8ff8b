// Tests for the observability subsystem (docs/observability.md): the
// metrics registry primitives, the tracer rings, the exporters, the
// metrics-exactness contract (registry totals == LastRunStats at every
// worker-pool size), and the budget-exhausted stats regression from the
// same PR (engines must flush their stats before an early return).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "random_programs.h"

namespace datalog {
namespace {

using obs::MetricsRegistry;
using obs::Tracer;

/// Turns metrics collection on for one test body and always restores the
/// disabled default (other suites in this binary assume it is off).
class ScopedMetrics {
 public:
  ScopedMetrics() {
    MetricsRegistry::Get().Reset();
    MetricsRegistry::Get().SetEnabled(true);
  }
  ~ScopedMetrics() { MetricsRegistry::Get().SetEnabled(false); }
};

class ScopedTrace {
 public:
  explicit ScopedTrace(size_t capacity = Tracer::kDefaultCapacity) {
    Tracer::Get().Enable(capacity);
  }
  ~ScopedTrace() { Tracer::Get().Disable(); }
};

int64_t MetricValueOf(const std::string& name) {
  return MetricsRegistry::Get().Value(name);
}

/// The merged snapshot entry for `name`; fails the test when missing.
obs::MetricValue SnapshotEntry(const std::string& name) {
  for (const obs::MetricValue& v : MetricsRegistry::Get().Snapshot()) {
    if (v.name == name) return v;
  }
  ADD_FAILURE() << "metric '" << name << "' not in snapshot";
  return obs::MetricValue{};
}

// ---- Registry primitives ------------------------------------------------

TEST(MetricsRegistryTest, CounterAccumulatesWhenEnabled) {
  ScopedMetrics metrics;
  obs::CounterHandle c("obstest.counter");
  c.Add(3);
  c.Add(4);
  EXPECT_EQ(MetricValueOf("obstest.counter"), 7);
}

TEST(MetricsRegistryTest, DisabledRegistryDropsWrites) {
  MetricsRegistry::Get().Reset();
  ASSERT_FALSE(MetricsRegistry::Get().enabled());
  obs::CounterHandle c("obstest.disabled");
  c.Add(41);
  EXPECT_EQ(MetricValueOf("obstest.disabled"), 0);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentByName) {
  MetricsRegistry& reg = MetricsRegistry::Get();
  EXPECT_EQ(reg.Counter("obstest.same"), reg.Counter("obstest.same"));
  EXPECT_NE(reg.Counter("obstest.same"), reg.Counter("obstest.other"));
}

TEST(MetricsRegistryTest, CountersMergeAcrossThreads) {
  // Every thread owns a private shard; totals are the shard sum plus the
  // retired totals of threads that already exited.
  ScopedMetrics metrics;
  obs::MetricId id = MetricsRegistry::Get().Counter("obstest.sharded");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([id] {
      for (int i = 0; i < kIncrements; ++i) {
        MetricsRegistry::Get().Add(id, 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(MetricValueOf("obstest.sharded"), kThreads * kIncrements);
}

TEST(MetricsRegistryTest, GaugeIsLastWriteWins) {
  ScopedMetrics metrics;
  obs::GaugeHandle g("obstest.gauge");
  g.Set(10);
  g.Set(3);
  EXPECT_EQ(MetricValueOf("obstest.gauge"), 3);
}

TEST(MetricsRegistryTest, BucketForUsesPowerOfTwoEdges) {
  // Bucket 0 = [0, 1) µs, bucket i = [2^(i-1), 2^i), last = overflow.
  EXPECT_EQ(MetricsRegistry::BucketFor(0), 0u);
  EXPECT_EQ(MetricsRegistry::BucketFor(1), 1u);
  EXPECT_EQ(MetricsRegistry::BucketFor(2), 2u);
  EXPECT_EQ(MetricsRegistry::BucketFor(3), 2u);
  EXPECT_EQ(MetricsRegistry::BucketFor(4), 3u);
  EXPECT_EQ(MetricsRegistry::BucketFor(1 << 14), 15u);
  EXPECT_EQ(MetricsRegistry::BucketFor(int64_t{1} << 40),
            obs::kHistogramBuckets - 1);
}

TEST(MetricsRegistryTest, HistogramRecordsBucketsAndSum) {
  ScopedMetrics metrics;
  obs::HistogramHandle h("obstest.hist");
  h.Observe(0);
  h.Observe(3);
  h.Observe(3);
  h.Observe(1000);
  obs::MetricValue v = SnapshotEntry("obstest.hist");
  EXPECT_EQ(v.kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(v.value, 4);  // observation count
  EXPECT_EQ(v.sum_us, 1006);
  ASSERT_EQ(v.buckets.size(), obs::kHistogramBuckets);
  EXPECT_EQ(v.buckets[0], 1);
  EXPECT_EQ(v.buckets[2], 2);
  EXPECT_EQ(v.buckets[MetricsRegistry::BucketFor(1000)], 1);
}

TEST(MetricsRegistryTest, ResetZeroesEverything) {
  ScopedMetrics metrics;
  obs::CounterHandle c("obstest.reset");
  c.Add(5);
  MetricsRegistry::Get().Reset();
  EXPECT_EQ(MetricValueOf("obstest.reset"), 0);
}

TEST(MetricsRegistryTest, DumpTextListsMetricsSortedByName) {
  ScopedMetrics metrics;
  obs::CounterHandle c("obstest.dump");
  c.Add(2);
  const std::string dump = MetricsRegistry::Get().DumpText();
  EXPECT_NE(dump.find("obstest.dump"), std::string::npos) << dump;
}

// ---- Tracer -------------------------------------------------------------

TEST(TracerTest, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(Tracer::Get().enabled());
  { OBS_SPAN("obstest.invisible"); }
  // A later session must not resurrect spans from before its Enable.
  ScopedTrace trace;
  EXPECT_TRUE(Tracer::Get().Snapshot().empty());
}

TEST(TracerTest, RecordsNestedSpansWithArgs) {
  std::vector<obs::TraceEvent> events;
  {
    ScopedTrace trace;
    {
      OBS_SPAN("obstest.outer", {{"k", 7}});
      { OBS_SPAN("obstest.inner"); }
    }
    events = Tracer::Get().Snapshot();
  }
  ASSERT_EQ(events.size(), 2u);
  // Completion order: inner closes first.
  EXPECT_STREQ(events[0].name, "obstest.inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_STREQ(events[1].name, "obstest.outer");
  EXPECT_EQ(events[1].depth, 0u);
  ASSERT_EQ(events[1].num_args, 1u);
  EXPECT_STREQ(events[1].args[0].key, "k");
  EXPECT_EQ(events[1].args[0].value, 7);
  EXPECT_GE(events[1].dur_us, events[0].dur_us);
}

TEST(TracerTest, RingOverflowCountsDroppedEvents) {
  ScopedTrace trace(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    OBS_SPAN("obstest.spin");
  }
  EXPECT_EQ(Tracer::Get().Snapshot().size(), 4u);
  EXPECT_EQ(Tracer::Get().dropped(), 6);
}

TEST(TracerTest, SpanOpenAcrossDisableIsDropped) {
  Tracer::Get().Enable();
  std::vector<obs::TraceEvent> events;
  {
    OBS_SPAN("obstest.straddle");
    Tracer::Get().Disable();
    Tracer::Get().Enable();  // new session while the span is open
  }
  events = Tracer::Get().Snapshot();
  Tracer::Get().Disable();
  EXPECT_TRUE(events.empty());
}

// ---- Exporters ----------------------------------------------------------

obs::TraceEvent MakeEvent(const char* name, int64_t start_us, int64_t dur_us,
                          uint32_t tid, uint32_t depth, uint64_t seq) {
  obs::TraceEvent e;
  e.name = name;
  e.start_us = start_us;
  e.dur_us = dur_us;
  e.tid = tid;
  e.depth = depth;
  e.seq = seq;
  return e;
}

TEST(ExportTest, ChromeTraceJsonEmitsCompleteEvents) {
  std::vector<obs::TraceEvent> events;
  events.push_back(MakeEvent("child", 5, 10, 0, 1, 0));
  events.back().num_args = 1;
  events.back().args[0] = obs::SpanArg{"round", 3};
  events.push_back(MakeEvent("parent", 0, 20, 0, 0, 1));
  const std::string json = obs::ChromeTraceJson(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"parent\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"round\": 3"), std::string::npos) << json;
  // Sorted by start time: parent (ts 0) precedes child (ts 5).
  EXPECT_LT(json.find("\"name\": \"parent\""),
            json.find("\"name\": \"child\""))
      << json;
}

TEST(ExportTest, RenderSpanTreeNestsByDepth) {
  // Completion order per thread: children complete before their parent.
  std::vector<obs::TraceEvent> events;
  events.push_back(MakeEvent("a", 1, 2, 0, 1, 0));
  events.push_back(MakeEvent("b", 4, 2, 0, 1, 1));
  events.push_back(MakeEvent("root", 0, 10, 0, 0, 2));
  EXPECT_EQ(obs::RenderSpanTree(events),
            "thread 0:\n"
            "  root\n"
            "    a\n"
            "    b\n");
}

// ---- Metrics exactness (registry totals == LastRunStats) ---------------

int64_t WorkerSum(const EvalStats& st, int64_t WorkerActivity::*f) {
  int64_t total = 0;
  for (const WorkerActivity& w : st.per_worker) total += w.*f;
  return total;
}

TEST(MetricsExactnessTest, RegistryTotalsEqualLastRunStats) {
  // The registry is fed once per evaluation context from the same
  // EvalStats the facade surfaces, so after a single run every counter
  // must equal the corresponding LastRunStats field — at any pool size.
  for (int threads : {1, 2, 8}) {
    Rng rng(0xABCDE + static_cast<uint64_t>(threads));
    for (int round = 0; round < 3; ++round) {
      const std::string program_text = random_programs::RandomProgram(&rng);
      const std::string facts_text = random_programs::RandomFacts(&rng, 8, 14, 6);
      Engine engine;
      engine.options().num_threads = threads;
      Result<Program> program = engine.Parse(program_text);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      Instance db = engine.NewInstance();
      ASSERT_TRUE(engine.AddFacts(facts_text, &db).ok());

      ScopedMetrics metrics;
      Result<Instance> out = engine.Stratified(*program, db);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      const EvalStats& st = engine.LastRunStats();

      const std::string label = "threads=" + std::to_string(threads) +
                                " round=" + std::to_string(round);
      EXPECT_EQ(MetricValueOf("eval.runs"), 1) << label;
      EXPECT_EQ(MetricValueOf("eval.rounds"), st.rounds) << label;
      EXPECT_EQ(MetricValueOf("eval.facts_derived"), st.facts_derived)
          << label;
      EXPECT_EQ(MetricValueOf("eval.instantiations"), st.instantiations)
          << label;
      EXPECT_EQ(MetricValueOf("index.hits"), st.index_hits) << label;
      EXPECT_EQ(MetricValueOf("index.builds"), st.index_builds) << label;
      EXPECT_EQ(MetricValueOf("index.rebuilds"), st.index_rebuilds) << label;
      EXPECT_EQ(MetricValueOf("index.appended"), st.index_appended) << label;
      EXPECT_EQ(MetricValueOf("threadpool.chunks"),
                WorkerSum(st, &WorkerActivity::chunks))
          << label;
      EXPECT_EQ(SnapshotEntry("eval.round_us").value,
                static_cast<int64_t>(st.round_ms.size()))
          << label;
    }
  }
}

TEST(MetricsExactnessTest, SubContextsAreCountedExactlyOnce) {
  // Stable-model search folds candidate sub-contexts into the outer run;
  // publication must not double-count them (publish_metrics = false).
  Engine engine;
  Result<Program> program = engine.Parse(
      "win(X) :- move(X, Y), !win(Y).\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Instance db = engine.NewInstance();
  ASSERT_TRUE(engine.AddFacts("move(a, b). move(b, a). move(b, c).", &db).ok());

  ScopedMetrics metrics;
  Result<WellFoundedModel> wf = engine.WellFounded(*program, db);
  ASSERT_TRUE(wf.ok()) << wf.status().ToString();
  const EvalStats& st = engine.LastRunStats();
  EXPECT_EQ(MetricValueOf("eval.runs"), 1);
  EXPECT_EQ(MetricValueOf("eval.facts_derived"), st.facts_derived);
  EXPECT_EQ(MetricValueOf("eval.instantiations"), st.instantiations);
  EXPECT_EQ(MetricValueOf("index.builds"), st.index_builds);
}

// ---- Budget-exhausted runs still flush their stats ----------------------

TEST(BudgetStatsTest, SemiNaiveBudgetRunReportsDerivedFacts) {
  Engine engine;
  engine.options().max_rounds = 1;
  Result<Program> program = engine.Parse(
      "t(X, Y) :- g(X, Y).\n"
      "t(X, Y) :- g(X, Z), t(Z, Y).\n");
  ASSERT_TRUE(program.ok());
  Instance db = engine.NewInstance();
  ASSERT_TRUE(
      engine.AddFacts("g(a, b). g(b, c). g(c, d). g(d, e).", &db).ok());
  Result<Instance> out = engine.MinimumModel(*program, db);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kBudgetExhausted);
  const EvalStats& st = engine.LastRunStats();
  EXPECT_GT(st.rounds, 0);
  EXPECT_GT(st.facts_derived, 0) << "budget exit dropped the derived facts";
  EXPECT_GT(st.instantiations, 0);
  EXPECT_FALSE(st.round_ms.empty());
}

TEST(BudgetStatsTest, NonInflationaryBudgetRunReportsRounds) {
  Engine engine;
  Result<Program> program = engine.Parse(
      "tf(0) :- tf(1).\n"
      "!tf(1) :- tf(1).\n"
      "tf(1) :- tf(0).\n"
      "!tf(0) :- tf(0).\n");
  ASSERT_TRUE(program.ok());
  Instance db = engine.NewInstance();
  ASSERT_TRUE(engine.AddFacts("tf(0).", &db).ok());
  NonInflationaryOptions options;
  options.detect_cycles = false;
  options.eval.max_rounds = 4;
  Result<NonInflationaryResult> r = engine.NonInflationary(*program, db,
                                                           options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExhausted);
  const EvalStats& st = engine.LastRunStats();
  EXPECT_GT(st.rounds, 0);
  EXPECT_GT(st.instantiations, 0);
  EXPECT_FALSE(st.round_ms.empty());
}

TEST(BudgetStatsTest, InventionBudgetRunReportsStats) {
  Engine engine;
  engine.options().max_rounds = 3;
  // Each q fact invents a fresh companion: diverges until the budget.
  Result<Program> program = engine.Parse("q(N) :- q(X).\n");
  ASSERT_TRUE(program.ok());
  Instance db = engine.NewInstance();
  ASSERT_TRUE(engine.AddFacts("q(a).", &db).ok());
  Result<InventionResult> r = engine.Invention(*program, db);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExhausted);
  const EvalStats& st = engine.LastRunStats();
  EXPECT_GT(st.rounds, 0);
  EXPECT_GT(st.facts_derived, 0);
  EXPECT_FALSE(st.round_ms.empty());
}

}  // namespace
}  // namespace datalog
