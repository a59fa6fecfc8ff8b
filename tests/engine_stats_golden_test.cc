// Pins the output and every deterministic EvalStats counter of each
// forward-chaining entry point against a checked-in golden
// (tests/goldens/engine_stats.txt): naive, semi-naive, stratified,
// well-founded, inflationary (with per-stage fact
// counts), Datalog¬¬ under all four conflict policies, invention, active
// rules, stable models and effect enumeration, on the paper's worked
// examples and on ten random semi-positive programs, plus the budget,
// non-termination and conflict error exits. parallel_determinism_test
// compares thread counts within one build; this golden compares builds, so
// a refactor of the stage loops that moves any counter shows up as a text
// diff. Every run must render the same bytes at 1 and 8 threads.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "active/eca.h"
#include "base/rng.h"
#include "core/engine.h"
#include "eval/stable.h"
#include "random_programs.h"
#include "workload/graphs.h"

namespace datalog {
namespace {

constexpr const char* kTc =
    "t(X, Y) :- g(X, Y).\n"
    "t(X, Y) :- t(X, Z), g(Z, Y).\n";

/// Every deterministic field of `st`: all but per_worker and the
/// wall-clock timings.
std::string StatsText(const EvalStats& st) {
  std::ostringstream out;
  out << "  rounds=" << st.rounds << " facts=" << st.facts_derived
      << " inst=" << st.instantiations << "\n"
      << "  index hits=" << st.index_hits << " builds=" << st.index_builds
      << " rebuilds=" << st.index_rebuilds
      << " appended=" << st.index_appended
      << " removed=" << st.index_removed << "\n"
      << "  per_rule";
  for (const RuleStats& r : st.per_rule) {
    out << " " << r.matches << "/" << r.tuples_produced;
  }
  out << "\n";
  return out.str();
}

std::string StatusText(const Status& s) { return "  " + s.ToString() + "\n"; }

/// One engine per rendered entry, so symbol interning (and invented
/// values) never depend on what ran before.
class Fixture {
 public:
  Fixture(const std::string& program, const std::string& facts, int threads) {
    engine_.options().num_threads = threads;
    Result<Program> p = engine_.Parse(program);
    EXPECT_TRUE(p.ok()) << p.status().ToString() << "\n" << program;
    if (p.ok()) program_ = std::move(p).value();
    db_ = engine_.NewInstance();
    Status added = engine_.AddFacts(facts, &db_);
    EXPECT_TRUE(added.ok()) << added.ToString();
  }

  Engine& engine() { return engine_; }
  const Program& program() const { return program_; }
  const Instance& db() const { return db_; }
  std::string Show(const Instance& i) const {
    return i.ToString(engine_.symbols());
  }
  std::string Stats() const { return StatsText(engine_.LastRunStats()); }

 private:
  Engine engine_;
  Program program_;
  Instance db_{nullptr};
};

std::string Naive(const std::string& prog, const std::string& facts,
                  int threads) {
  Fixture f(prog, facts, threads);
  Result<Instance> r = f.engine().MinimumModelNaive(f.program(), f.db());
  return (r.ok() ? f.Show(*r) : StatusText(r.status())) + f.Stats();
}

std::string SemiNaive(const std::string& prog, const std::string& facts,
                      int threads) {
  Fixture f(prog, facts, threads);
  Result<Instance> r = f.engine().MinimumModel(f.program(), f.db());
  return (r.ok() ? f.Show(*r) : StatusText(r.status())) + f.Stats();
}

std::string Stratified(const std::string& prog, const std::string& facts,
                       int threads) {
  Fixture f(prog, facts, threads);
  Result<Instance> r = f.engine().Stratified(f.program(), f.db());
  return (r.ok() ? f.Show(*r) : StatusText(r.status())) + f.Stats();
}

std::string WellFounded(const std::string& prog, const std::string& facts,
                        int threads) {
  Fixture f(prog, facts, threads);
  Result<WellFoundedModel> r = f.engine().WellFounded(f.program(), f.db());
  if (!r.ok()) return StatusText(r.status()) + f.Stats();
  return "true:\n" + f.Show(r->true_facts) + "possible:\n" +
         f.Show(r->possible_facts) + f.Stats();
}

std::string Inflationary(const std::string& prog, const std::string& facts,
                         int threads) {
  Fixture f(prog, facts, threads);
  std::string per_stage = "  per_stage";
  Result<InflationaryResult> r = f.engine().Inflationary(
      f.program(), f.db(), [&](int stage, const Instance& fresh) {
        per_stage += " " + std::to_string(stage) + ":" +
                     std::to_string(fresh.TotalFacts());
      });
  if (!r.ok()) return StatusText(r.status()) + per_stage + "\n" + f.Stats();
  return "stages=" + std::to_string(r->stages) + "\n" + per_stage + "\n" +
         f.Show(r->instance) + f.Stats();
}

const char* PolicyName(ConflictPolicy policy) {
  switch (policy) {
    case ConflictPolicy::kPositiveWins: return "positive-wins";
    case ConflictPolicy::kNegativeWins: return "negative-wins";
    case ConflictPolicy::kNoOp: return "no-op";
    case ConflictPolicy::kUndefined: return "undefined";
  }
  return "?";
}

constexpr ConflictPolicy kPolicies[] = {
    ConflictPolicy::kPositiveWins, ConflictPolicy::kNegativeWins,
    ConflictPolicy::kNoOp, ConflictPolicy::kUndefined};

std::string NonInflationary(const std::string& prog, const std::string& facts,
                            int threads, ConflictPolicy policy,
                            int64_t max_rounds = 1'000'000) {
  Fixture f(prog, facts, threads);
  NonInflationaryOptions options;
  options.policy = policy;
  options.eval.num_threads = threads;
  options.eval.max_rounds = max_rounds;
  Result<NonInflationaryResult> r =
      f.engine().NonInflationary(f.program(), f.db(), options);
  if (!r.ok()) return StatusText(r.status()) + f.Stats();
  return "stages=" + std::to_string(r->stages) + "\n" + f.Show(r->instance) +
         f.Stats();
}

std::string Invention(const std::string& prog, const std::string& facts,
                      int threads) {
  Fixture f(prog, facts, threads);
  Result<InventionResult> r = f.engine().Invention(f.program(), f.db());
  if (!r.ok()) return StatusText(r.status()) + f.Stats();
  return "stages=" + std::to_string(r->stages) +
         " invented_values=" + std::to_string(r->invented_values) + "\n" +
         f.Show(r->instance) + f.Stats();
}

/// Active rules on `db` after the external update (`ins`, then `del`).
/// Error exits carry no stats (ActiveResult only exists on success), so
/// those render the status alone.
std::string Eca(const std::string& prog, const std::string& db,
                const std::string& ins, const std::string& del, int threads,
                int64_t max_rounds = 1'000'000) {
  Fixture f(prog, db, threads);
  Instance insertions = f.engine().NewInstance();
  Instance deletions = f.engine().NewInstance();
  EXPECT_TRUE(f.engine().AddFacts(ins, &insertions).ok());
  EXPECT_TRUE(f.engine().AddFacts(del, &deletions).ok());
  ActiveOptions options;
  options.eval.num_threads = threads;
  options.eval.max_rounds = max_rounds;
  Result<ActiveResult> r =
      RunActiveRules(f.program(), &f.engine().catalog(), f.db(), insertions,
                     deletions, options);
  if (!r.ok()) return StatusText(r.status());
  return "stages=" + std::to_string(r->stages) + "\n" + f.Show(r->instance) +
         StatsText(r->stats);
}

std::string Stable(const std::string& prog, const std::string& facts,
                   int threads) {
  Fixture f(prog, facts, threads);
  EvalContext ctx(f.engine().options());
  Result<StableModelsResult> r = StableModels(
      f.program(), f.db(), f.engine().options(), 1 << 20, &ctx);
  ctx.Finalize();
  if (!r.ok()) return StatusText(r.status()) + StatsText(ctx.stats);
  std::string out = "unknown=" + std::to_string(r->unknown_atoms) +
                    " candidates=" + std::to_string(r->candidates_checked) +
                    " models=" + std::to_string(r->models.size()) + "\n";
  for (const Instance& m : r->models) out += "model:\n" + f.Show(m);
  return out + StatsText(ctx.stats);
}

std::string Enumerate(const std::string& prog, const std::string& facts,
                      Dialect dialect, int threads) {
  Fixture f(prog, facts, threads);
  Result<EffectSet> r =
      f.engine().NondetEnumerate(f.program(), dialect, f.db());
  if (!r.ok()) return StatusText(r.status()) + f.Stats();
  std::string out = "images=" + std::to_string(r->images.size()) +
                    " states=" + std::to_string(r->states_explored) +
                    " abandoned=" + std::to_string(r->abandoned_branches) +
                    "\n";
  for (const Instance& image : r->images) out += "image:\n" + f.Show(image);
  return out + f.Stats();
}

/// A facade entry point run at max_rounds = 2: its status and stats.
template <typename Run>
std::string WithBudget(const std::string& prog, const std::string& facts,
                       int threads, Run run) {
  Fixture f(prog, facts, threads);
  f.engine().options().max_rounds = 2;
  const Status status = run(f);
  return StatusText(status) + f.Stats();
}

/// Budget exits at max_rounds = 2 on a transitive closure that needs
/// more rounds than that.
std::string BudgetExits(int threads) {
  const std::string facts = "g(0, 1). g(1, 2). g(2, 3). g(3, 4). g(4, 5).";
  std::string out;
  out += "== budget naive ==\n" +
         WithBudget(kTc, facts, threads, [](Fixture& f) {
           return f.engine().MinimumModelNaive(f.program(), f.db()).status();
         });
  out += "== budget seminaive ==\n" +
         WithBudget(kTc, facts, threads, [](Fixture& f) {
           return f.engine().MinimumModel(f.program(), f.db()).status();
         });
  out += "== budget stratified ==\n" +
         WithBudget(kTc, facts, threads, [](Fixture& f) {
           return f.engine().Stratified(f.program(), f.db()).status();
         });
  out += "== budget wellfounded ==\n" +
         WithBudget(kTc, facts, threads, [](Fixture& f) {
           return f.engine().WellFounded(f.program(), f.db()).status();
         });
  out += "== budget inflationary ==\n" +
         WithBudget(kTc, facts, threads, [](Fixture& f) {
           return f.engine().Inflationary(f.program(), f.db()).status();
         });
  out += "== budget invention ==\n" +
         WithBudget(kTc, facts, threads, [](Fixture& f) {
           return f.engine().Invention(f.program(), f.db()).status();
         });
  out += "== budget noninflationary ==\n" +
         NonInflationary(kTc, facts, threads, ConflictPolicy::kPositiveWins,
                         /*max_rounds=*/2);
  out += "== budget eca ==\n" +
         Eca("t(X, Y) :- ins_g(X, Y).\nt(X, Y) :- ins_t(X, Z), g(Z, Y).\n",
             "", facts, "", threads, /*max_rounds=*/2);
  return out;
}

/// Renders one program through every entry point it is valid for.
std::string AllEngines(const std::string& prog, const std::string& facts,
                       int threads) {
  std::string out;
  if (prog.find('!') == std::string::npos) {
    out += "== naive ==\n" + Naive(prog, facts, threads);
    out += "== seminaive ==\n" + SemiNaive(prog, facts, threads);
  }
  out += "== stratified ==\n" + Stratified(prog, facts, threads);
  out += "== wellfounded ==\n" + WellFounded(prog, facts, threads);
  out += "== inflationary ==\n" + Inflationary(prog, facts, threads);
  for (ConflictPolicy policy : kPolicies) {
    out += "== noninflationary " + std::string(PolicyName(policy)) +
           " ==\n" + NonInflationary(prog, facts, threads, policy);
  }
  out += "== invention ==\n" + Invention(prog, facts, threads);
  out += "== eca ==\n" + Eca(prog, "", facts, "", threads);
  out += "== stable ==\n" + Stable(prog, facts, threads);
  return out;
}

/// The paper's worked examples plus the error exits.
std::string WorkedExamples(int threads) {
  const std::string chain = "g(0, 1). g(1, 2). g(2, 3). g(3, 4). g(4, 5).";
  const std::string game =
      "moves(a, b). moves(b, a). moves(b, c). moves(c, d). moves(d, e). "
      "moves(e, f). moves(f, g).";
  const std::string win = "win(X) :- moves(X, Y), !win(Y).\n";
  const std::string closer =
      std::string(kTc) + "closer(X, Y, X2, Y2) :- t(X, Y), !t(X2, Y2).\n";
  const std::string ctc =
      "t(X, Y) :- g(X, Y).\n"
      "t(X, Y) :- g(X, Z), t(Z, Y).\n"
      "old-t(X, Y) :- t(X, Y).\n"
      "old-t-except-final(X, Y) :- t(X, Y), t(X2, Z2), t(Z2, Y2), "
      "!t(X2, Y2).\n"
      "ct(X, Y) :- !t(X, Y), old-t(X2, Y2), !old-t-except-final(X2, Y2).\n";
  const std::string sct =
      "st(X, Y) :- g(X, Y).\n"
      "st(X, Y) :- g(X, Z), st(Z, Y).\n"
      "sct(X, Y) :- !st(X, Y).\n";
  const std::string good =
      "bad(X) :- g(Y, X), !good(Y).\n"
      "delay.\n"
      "good(X) :- delay, !bad(X).\n"
      "bad-stamped(X, T) :- g(Y, X), !good(Y), good(T).\n"
      "delay-stamped(T) :- good(T).\n"
      "good(X) :- delay-stamped(T), !bad-stamped(X, T).\n";
  const std::string strip =
      "!out(X) :- out(X).\n"
      "out(X) :- g(X, Y).\n"
      "init0.\n"
      "!g(X, Y) :- init0, g(X, Y), !out(Y).\n";
  const std::string conflict = "q(X) :- p(X).\n!q(X) :- p(X).\n";
  const std::string flip_flop =
      "tf(0) :- tf(1).\n!tf(1) :- tf(1).\ntf(1) :- tf(0).\n!tf(0) :- tf(0).\n";
  const std::string objects =
      "edgeobj(O, X, Y) :- g(X, Y).\n"
      "src(O, X) :- edgeobj(O, X, Y).\n"
      "dst(O, Y) :- edgeobj(O, X, Y).\n";
  const std::string eca_tc =
      "t(X, Y) :- ins_g(X, Y).\n"
      "t(X, Y) :- ins_t(X, Z), t(Z, Y).\n"
      "t(X, Y) :- t(X, Z), ins_t(Z, Y).\n";
  const std::string eca_cascade =
      "dept(sales). dept(eng). emp(alice, sales). emp(bob, eng).\n";
  const std::string eca_loop = "!a(X) :- ins_a(X).\na(X) :- del_a(X).\n";
  const std::string proj_diff = "t(X) :- q(X, Y).\nanswer(X) :- p(X), !t(X).\n";
  const std::string proj_diff_bottom =
      "proj(X) :- !done-with-proj, q(X, Y).\n"
      "done-with-proj.\n"
      "bottom :- done-with-proj, q(X, Y), !proj(X).\n"
      "answer(X) :- done-with-proj, p(X), !proj(X).\n";
  const std::string proj_facts = "p(x0). p(x1). p(x2). q(x0, y0). q(x2, y2).";

  std::string out;
  out += "### tc chain\n" + AllEngines(kTc, chain, threads);
  out += "### ex3.2 win\n== wellfounded ==\n" +
         WellFounded(win, game, threads) + "== stable ==\n" +
         Stable(win, game, threads);
  out += "### ex4.1 closer\n== inflationary ==\n" +
         Inflationary(closer, "g(0, 1). g(1, 2). g(2, 3).", threads);
  out += "### ex4.3 complement tc\n== inflationary ==\n" +
         Inflationary(ctc, chain, threads);
  out += "== stratified ==\n" + Stratified(sct, chain, threads);
  out += "### ex4.4 good nodes\n== inflationary ==\n" +
         Inflationary(good, "g(0, 1). g(1, 2). g(2, 0). g(3, 2).", threads);
  out += "### sink stripping\n";
  for (ConflictPolicy policy : kPolicies) {
    out += "== noninflationary " + std::string(PolicyName(policy)) +
           " ==\n" + NonInflationary(strip, chain, threads, policy);
  }
  out += "### conflict\n";
  for (ConflictPolicy policy : kPolicies) {
    out += "== noninflationary " + std::string(PolicyName(policy)) +
           " ==\n" + NonInflationary(conflict, "p(a).", threads, policy);
  }
  out += "### flip-flop\n== noninflationary ==\n" +
         NonInflationary(flip_flop, "tf(0).", threads,
                         ConflictPolicy::kPositiveWins);
  out += "### invention\n== invention ==\n" +
         Invention(objects, "g(a, b). g(b, c).", threads) +
         "== invention chain ==\n" +
         Invention("r(X, N) :- s(X).\nt(N) :- r(X, N).\n",
                   "s(a). s(b).", threads);
  out += "### eca\n== eca tc ==\n" + Eca(eca_tc, "", chain, "", threads) +
         "== eca cascade ==\n" +
         Eca("!emp(E, D) :- del_dept(D), emp(E, D).\n"
             "gone(E) :- del_emp(E, D).\n",
             eca_cascade, "", "dept(sales).", threads) +
         "== eca loop ==\n" + Eca(eca_loop, "", "a(1).", "", threads);
  out += "### ex5.4 projection difference\n== enumerate ==\n" +
         Enumerate(proj_diff, proj_facts, Dialect::kNDatalogNeg, threads);
  out += "### ex5.5 projection difference with bottom\n== enumerate ==\n" +
         Enumerate(proj_diff_bottom, proj_facts, Dialect::kNDatalogBottom,
                   threads);
  out += "### budget exits (max_rounds = 2)\n" + BudgetExits(threads);
  return out;
}

std::string RandomPrograms(int threads) {
  std::string out;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const std::string prog = random_programs::RandomProgram(&rng);
    const std::string facts = random_programs::RandomFacts(&rng, 5, 8, 3);
    out += "### random seed " + std::to_string(seed) + "\n" + prog +
           AllEngines(prog, facts, threads);
  }
  return out;
}

std::string Render(int threads) {
  return WorkedExamples(threads) + RandomPrograms(threads);
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(UNCHAINED_GOLDENS_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class EngineStatsGolden : public ::testing::TestWithParam<int> {};

TEST_P(EngineStatsGolden, MatchesCheckedInGolden) {
  const std::string golden = ReadGolden("engine_stats.txt");
  ASSERT_FALSE(golden.empty()) << "missing tests/goldens/engine_stats.txt";
  const std::string actual = Render(GetParam());
  if (actual != golden) {
    // Leave the full rendering next to the test's temp files so an
    // intended change can be reviewed and copied over the golden.
    const std::string path =
        ::testing::TempDir() + "engine_stats.actual.txt";
    std::ofstream(path) << actual;
    ADD_FAILURE() << "rendering differs from tests/goldens/engine_stats.txt;"
                  << " full output written to " << path;
  }
  EXPECT_EQ(actual, golden);
}

INSTANTIATE_TEST_SUITE_P(Threads, EngineStatsGolden, ::testing::Values(1, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace datalog
