// Fault-tolerant peer evaluation (ISSUE 5): deterministic fault
// injection, the at-least-once recovery protocol, crash/restart from
// Instance checkpoints, and the empirical CALM convergence argument —
// monotone peer programs reach the reliable run's fixpoint under every
// fault schedule (docs/distribution.md).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/engine.h"
#include "dist/convergence.h"
#include "dist/peers.h"
#include "dist/transport.h"
#include "obs/metrics.h"
#include "testing/generator.h"
#include "testing/oracle.h"

namespace datalog {
namespace {

// -- Fault-spec parsing ----------------------------------------------------

TEST(FaultSpecTest, ParsesFullSpec) {
  Result<FaultSpec> spec = ParseFaultSpec(
      "drop=0.1,dup=0.05,reorder=0.2,delay=0.3,max_delay=4,retries=9,"
      "backoff=6,partition=2:5:0+2,crash=1:3:2");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DOUBLE_EQ(spec->faults.drop, 0.1);
  EXPECT_DOUBLE_EQ(spec->faults.duplicate, 0.05);
  EXPECT_DOUBLE_EQ(spec->faults.reorder, 0.2);
  EXPECT_DOUBLE_EQ(spec->faults.delay, 0.3);
  EXPECT_EQ(spec->faults.max_delay_rounds, 4);
  EXPECT_EQ(spec->faults.max_retries, 9);
  EXPECT_EQ(spec->faults.max_backoff_rounds, 6);
  ASSERT_EQ(spec->faults.partitions.size(), 1u);
  EXPECT_EQ(spec->faults.partitions[0].from_round, 2);
  EXPECT_EQ(spec->faults.partitions[0].until_round, 5);
  EXPECT_EQ(spec->faults.partitions[0].group, (std::vector<int>{0, 2}));
  ASSERT_EQ(spec->crashes.events.size(), 1u);
  EXPECT_EQ(spec->crashes.events[0].peer, 1);
  EXPECT_EQ(spec->crashes.events[0].at_round, 3);
  EXPECT_EQ(spec->crashes.events[0].down_rounds, 2);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseFaultSpec("drop=1.5").ok());
  EXPECT_FALSE(ParseFaultSpec("drop").ok());
  EXPECT_FALSE(ParseFaultSpec("unknown=1").ok());
  EXPECT_FALSE(ParseFaultSpec("partition=5:2:0").ok());
  EXPECT_FALSE(ParseFaultSpec("crash=0:0:1").ok());
  EXPECT_TRUE(ParseFaultSpec("").ok());
}

// -- Instance snapshots ----------------------------------------------------

TEST(SnapshotTest, RoundTripsAndValidates) {
  Engine engine;
  Instance db = engine.NewInstance();
  ASSERT_TRUE(
      engine.AddFacts("e1(0, 1). e1(1, 2). e2(2). p3(0, 0).", &db).ok());
  const std::string bytes = db.SerializeSnapshot();
  // Deterministic encoding: serializing twice yields the same bytes.
  EXPECT_EQ(bytes, db.SerializeSnapshot());

  Instance restored = engine.NewInstance();
  ASSERT_TRUE(engine.AddFacts("e2(4).", &restored).ok());  // overwritten
  ASSERT_TRUE(restored.RestoreSnapshot(bytes).ok());
  EXPECT_EQ(restored, db);

  // Corruption is detected, not silently half-applied: a failed restore
  // leaves the instance empty, even when the error comes after whole
  // relations were decoded.
  std::string truncated = bytes.substr(0, bytes.size() - 2);
  Instance victim = engine.NewInstance();
  ASSERT_TRUE(engine.AddFacts("e2(4).", &victim).ok());
  EXPECT_FALSE(victim.RestoreSnapshot(truncated).ok());
  EXPECT_EQ(victim.TotalFacts(), 0u);
  ASSERT_TRUE(victim.RestoreSnapshot(bytes).ok());
  EXPECT_FALSE(victim.RestoreSnapshot("garbage").ok());
  EXPECT_EQ(victim.TotalFacts(), 0u);
  ASSERT_TRUE(victim.RestoreSnapshot(bytes).ok());
  EXPECT_FALSE(victim.RestoreSnapshot(bytes + "x").ok());  // trailing bytes
  EXPECT_EQ(victim.TotalFacts(), 0u);
}

// -- Peer-name regression --------------------------------------------------

// The at_<peer>_<pred> convention cannot distinguish peers "a" and "a_b"
// (head at_a_b_p resolves to either), so underscores are rejected at
// AddPeer before any rule can mis-route.
TEST(PeersFaultTest, PeerNamesWithUnderscoreRejected) {
  Engine engine;
  PeerSystem system(&engine.catalog(), &engine.symbols());
  Program empty;
  Result<int> underscore =
      system.AddPeer("a_b", empty, engine.NewInstance());
  ASSERT_FALSE(underscore.ok());
  EXPECT_EQ(underscore.status().code(), StatusCode::kInvalidProgram);
  Result<int> empty_name = system.AddPeer("", empty, engine.NewInstance());
  ASSERT_FALSE(empty_name.ok());
  EXPECT_EQ(empty_name.status().code(), StatusCode::kInvalidProgram);
  EXPECT_TRUE(system.AddPeer("ab", empty, engine.NewInstance()).ok());
}

// -- Re-run after exhaustion (documented in peers.h) -----------------------

// A budget-exhausted Run leaves partially delivered rounds in the local
// instances; because the dialect is inflationary that state is a subset
// of the fixpoint, and running again converges to exactly the instances
// of an uninterrupted run.
TEST(PeersFaultTest, RerunAfterExhaustionReachesFixpoint) {
  auto build = [](Engine* engine, PeerSystem* system) {
    const char* forward[] = {
        "at_pb_fact(X) :- fact(X).\n",
        "at_pc_fact(X) :- fact(X).\n",
        "at_pa_fact(X) :- fact(X).\n",
    };
    const char* names[] = {"pa", "pb", "pc"};
    for (int i = 0; i < 3; ++i) {
      Result<Program> rules = engine->Parse(forward[i]);
      ASSERT_TRUE(rules.ok());
      Instance db = engine->NewInstance();
      std::string fact = "fact(v" + std::to_string(i) + ").";
      ASSERT_TRUE(engine->AddFacts(fact, &db).ok());
      ASSERT_TRUE(system->AddPeer(names[i], *rules, db).ok());
    }
  };

  Engine uninterrupted_engine;
  PeerSystem uninterrupted(&uninterrupted_engine.catalog(),
                           &uninterrupted_engine.symbols());
  build(&uninterrupted_engine, &uninterrupted);
  ASSERT_TRUE(uninterrupted.Run(uninterrupted_engine.options()).ok());

  Engine engine;
  PeerSystem system(&engine.catalog(), &engine.symbols());
  build(&engine, &system);
  EvalOptions tight;
  tight.max_rounds = 1;
  Result<int> first = system.Run(tight);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kBudgetExhausted);

  Result<int> second = system.Run(engine.options());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(system.LocalInstance(p).ToString(engine.symbols()),
              uninterrupted.LocalInstance(p).ToString(
                  uninterrupted_engine.symbols()))
        << "peer " << p;
  }
}

// -- Convergence under faults ----------------------------------------------

std::vector<PeerSpec> GossipRing() {
  return {
      PeerSpec{"pa",
               "at_pb_fact(X) :- fact(X).\n"
               "reach(X, Y) :- link(X, Y).\n"
               "reach(X, Y) :- link(X, Z), reach(Z, Y).\n"
               "at_pb_reach(X, Y) :- reach(X, Y).\n",
               "fact(a). link(a, b). link(b, c)."},
      PeerSpec{"pb",
               "at_pc_fact(X) :- fact(X).\n"
               "at_pc_reach(X, Y) :- reach(X, Y).\n"
               "reach(X, Y) :- link(X, Y).\n"
               "reach(X, Y) :- link(X, Z), reach(Z, Y).\n",
               "link(c, d)."},
      PeerSpec{"pc",
               "at_pa_fact(X) :- fact(X).\n"
               "at_pa_reach(X, Y) :- reach(X, Y).\n",
               ""},
  };
}

ConvergenceOptions ChaosOptions(uint64_t seed) {
  ConvergenceOptions options;
  options.eval.max_rounds = 10'000;
  options.seed = seed;
  options.checkpoint_every_rounds = 2;
  const char* specs[] = {
      "drop=0.3,dup=0.25,reorder=0.5,delay=0.4,max_delay=3",
      "drop=0.2,partition=2:7:0,partition=9:12:2",
      "drop=0.15,dup=0.1,crash=1:2:3,crash=0:8:2",
  };
  for (const char* s : specs) {
    Result<FaultSpec> spec = ParseFaultSpec(s);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    options.schedules.push_back(*spec);
  }
  return options;
}

TEST(PeersFaultTest, HandWrittenRingConvergesUnderChaos) {
  Result<ConvergenceReport> report =
      CheckConvergence(GossipRing(), ChaosOptions(11));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->converged) << report->divergence;
  EXPECT_EQ(report->runs, 4);
  // The schedules actually injected faults — a lossless "fault" run would
  // make this test vacuous.
  ASSERT_EQ(report->faulty_stats.size(), 3u);
  EXPECT_GT(report->faulty_stats[0].transport.dropped, 0);
  EXPECT_GT(report->faulty_stats[0].transport.retries, 0);
  EXPECT_GT(report->faulty_stats[1].transport.dropped, 0);
  EXPECT_GT(report->faulty_stats[2].crashes, 0);
  EXPECT_GT(report->faulty_stats[2].restarts, 0);
  EXPECT_GT(report->faulty_stats[2].checkpoints, 0);
  EXPECT_GT(report->faulty_stats[2].checkpoint_bytes, 0);
}

// Determinism: the whole faulty run is a pure function of (seed,
// schedule) — identical instances and identical dist.* counters on every
// rerun.
TEST(PeersFaultTest, FaultyRunsAreDeterministicGivenSeedAndSchedule) {
  Result<ConvergenceReport> first =
      CheckConvergence(GossipRing(), ChaosOptions(23));
  Result<ConvergenceReport> second =
      CheckConvergence(GossipRing(), ChaosOptions(23));
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE(first->converged) << first->divergence;
  EXPECT_TRUE(second->converged) << second->divergence;
  EXPECT_EQ(first->baseline, second->baseline);
  ASSERT_EQ(first->faulty_stats.size(), second->faulty_stats.size());
  for (size_t m = 0; m < first->faulty_stats.size(); ++m) {
    const TransportStats& a = first->faulty_stats[m].transport;
    const TransportStats& b = second->faulty_stats[m].transport;
    SCOPED_TRACE("schedule " + std::to_string(m));
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.duplicated, b.duplicated);
    EXPECT_EQ(a.reordered, b.reordered);
    EXPECT_EQ(a.delayed, b.delayed);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.redeliveries, b.redeliveries);
    EXPECT_EQ(a.acks, b.acks);
    EXPECT_EQ(first->faulty_stats[m].checkpoint_bytes,
              second->faulty_stats[m].checkpoint_bytes);
  }
  // A different seed draws a different fault pattern (the converged
  // instances are identical regardless — that is the point).
  Result<ConvergenceReport> other =
      CheckConvergence(GossipRing(), ChaosOptions(24));
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->converged) << other->divergence;
  EXPECT_EQ(other->baseline, first->baseline);
}

// The fuzz-oracle sweep (pair #7): generated positive programs on a
// three-peer gossip ring, each against the reliable baseline plus three
// fault schedules (chaos, partition, crash). ≥500 programs, zero
// disagreements. Kept single-threaded but sharded by seed so a failure
// names the generating seed.
TEST(PeersFaultTest, ConvergenceSweepOnGeneratedPrograms) {
  fuzz::ProgramGenerator generator;
  fuzz::OracleRunner runner;
  int applicable = 0;
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed);
    const fuzz::GeneratedCase c =
        generator.GenerateCase(fuzz::ProgramClass::kPositive, &rng);
    const fuzz::OracleVerdict verdict = runner.Run(
        fuzz::OraclePair::kReliableVsFaultyPeers, c.program, c.facts, seed);
    ASSERT_TRUE(verdict.ok())
        << "seed " << seed << " diverged:\n"
        << verdict.detail << "\nprogram:\n"
        << c.program << "facts:\n" << c.facts;
    if (verdict.applicable) ++applicable;
  }
  // Positive-class programs always fit the monotone peer dialect.
  EXPECT_EQ(applicable, 500);
}

// -- dist.* metrics --------------------------------------------------------

TEST(PeersFaultTest, DistMetricsFlowThroughRegistry) {
  obs::MetricsRegistry::Get().Reset();
  obs::MetricsRegistry::Get().SetEnabled(true);
  Result<ConvergenceReport> report =
      CheckConvergence(GossipRing(), ChaosOptions(5));
  obs::MetricsRegistry::Get().SetEnabled(false);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->converged) << report->divergence;

  int64_t sent = 0, dropped = 0, retries = 0, crashes = 0, checkpoints = 0;
  for (const obs::MetricValue& v : obs::MetricsRegistry::Get().Snapshot()) {
    if (v.name == "dist.sent") sent = v.value;
    if (v.name == "dist.dropped") dropped = v.value;
    if (v.name == "dist.retries") retries = v.value;
    if (v.name == "dist.crashes") crashes = v.value;
    if (v.name == "dist.checkpoints") checkpoints = v.value;
  }
  EXPECT_GT(sent, 0);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(retries, 0);
  EXPECT_GT(crashes, 0);
  EXPECT_GT(checkpoints, 0);
}

// -- Golden crash-restart trace --------------------------------------------

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(UNCHAINED_GOLDENS_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// One deterministic run with a partition and a crash, its structural
// event log pinned as a checked-in golden: any change to checkpoint
// cadence, recovery order or partition healing shows up as a text diff.
TEST(PeersFaultTest, CrashRestartTraceMatchesGolden) {
  Engine engine;
  PeerSystem system(&engine.catalog(), &engine.symbols());
  for (const PeerSpec& spec : GossipRing()) {
    Result<Program> rules = engine.Parse(spec.rules);
    ASSERT_TRUE(rules.ok()) << rules.status().ToString();
    Instance db = engine.NewInstance();
    if (!spec.facts.empty()) {
      ASSERT_TRUE(engine.AddFacts(spec.facts, &db).ok());
    }
    ASSERT_TRUE(system.AddPeer(spec.name, *rules, db).ok());
  }
  Result<FaultSpec> spec =
      ParseFaultSpec("drop=0.2,partition=2:4:2,crash=1:3:2");
  ASSERT_TRUE(spec.ok());

  std::vector<std::string> events;
  UnreliableTransport transport(
      &engine.catalog(),
      [&system](int p) -> const Instance& { return system.LocalInstance(p); },
      spec->faults, /*seed=*/42);
  transport.set_event_log(&events);

  PeerRunOptions run;
  run.eval = engine.options();
  run.transport = &transport;
  run.crashes = &spec->crashes;
  run.checkpoint_every_rounds = 2;
  run.event_log = &events;
  Result<int> rounds = system.Run(run);
  ASSERT_TRUE(rounds.ok()) << rounds.status().ToString();

  std::string rendered;
  for (const std::string& line : events) rendered += line + "\n";
  EXPECT_EQ(rendered, ReadGolden("crash_restart_trace.txt"))
      << "-- actual --\n" << rendered;
}

}  // namespace
}  // namespace datalog
