// Engineering benchmark (google-benchmark): naive vs semi-naive evaluation
// of transitive closure, and engine overhead across semantics on the same
// stratified query. Not a paper table — the paper has no performance
// evaluation — but it documents the cost model of this implementation and
// the classic asymptotic gap the deductive-database literature (Section 6)
// optimizes.

// Pass `--json=<path>` (alongside the usual --benchmark_* flags) to also
// run one instrumented repetition of each workload and dump its EvalStats
// — rounds, facts, instantiations, index-maintenance counters, and
// per-rule match/production counts — as a JSON array.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "workload/graphs.h"

namespace {

using datalog::Engine;
using datalog::GraphBuilder;
using datalog::Instance;

constexpr const char* kTc =
    "t(X, Y) :- g(X, Y).\n"
    "t(X, Y) :- g(X, Z), t(Z, Y).\n";

void BM_NaiveTcChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Engine engine;
  auto p = engine.Parse(kTc);
  GraphBuilder graphs(&engine.catalog(), &engine.symbols());
  Instance db = graphs.Chain(n);
  for (auto _ : state) {
    auto r = engine.MinimumModelNaive(*p, db);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_NaiveTcChain)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Complexity();

void BM_SemiNaiveTcChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Engine engine;
  auto p = engine.Parse(kTc);
  GraphBuilder graphs(&engine.catalog(), &engine.symbols());
  Instance db = graphs.Chain(n);
  for (auto _ : state) {
    auto r = engine.MinimumModel(*p, db);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SemiNaiveTcChain)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Complexity();

void BM_SemiNaiveTcRandom(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Engine engine;
  auto p = engine.Parse(kTc);
  GraphBuilder graphs(&engine.catalog(), &engine.symbols());
  Instance db = graphs.RandomDigraph(n, 3 * n, /*seed=*/42);
  for (auto _ : state) {
    auto r = engine.MinimumModel(*p, db);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SemiNaiveTcRandom)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_StratifiedComplementTc(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Engine engine;
  auto p = engine.Parse(
      "t(X, Y) :- g(X, Y).\n"
      "t(X, Y) :- g(X, Z), t(Z, Y).\n"
      "ct(X, Y) :- !t(X, Y).\n");
  GraphBuilder graphs(&engine.catalog(), &engine.symbols());
  Instance db = graphs.RandomDigraph(n, 2 * n, /*seed=*/7);
  for (auto _ : state) {
    auto r = engine.Stratified(*p, db);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_StratifiedComplementTc)->Arg(16)->Arg(32)->Arg(64);

void BM_WellFoundedWin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Engine engine;
  auto p = engine.Parse("win(X) :- moves(X, Y), !win(Y).\n");
  Instance db = datalog::RandomGameGraph(&engine.catalog(),
                                         &engine.symbols(), n, 2 * n,
                                         /*seed=*/13);
  for (auto _ : state) {
    auto r = engine.WellFounded(*p, db);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WellFoundedWin)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_InflationaryCloser(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Engine engine;
  auto p = engine.Parse(
      "t(X, Y) :- g(X, Y).\n"
      "t(X, Y) :- t(X, Z), g(Z, Y).\n"
      "closer(X, Y, X2, Y2) :- t(X, Y), !t(X2, Y2).\n");
  GraphBuilder graphs(&engine.catalog(), &engine.symbols());
  Instance db = graphs.Chain(n);
  for (auto _ : state) {
    auto r = engine.Inflationary(*p, db);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_InflationaryCloser)->Arg(8)->Arg(12)->Arg(16);

void BM_NondetOrientationRun(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Engine engine;
  auto p = engine.Parse("!g(X, Y) :- g(X, Y), g(Y, X).\n");
  GraphBuilder graphs(&engine.catalog(), &engine.symbols());
  Instance db = graphs.TwoCycles(k);
  uint64_t seed = 0;
  for (auto _ : state) {
    auto r = engine.NondetRun(*p, datalog::Dialect::kNDatalogNegNeg, db,
                              ++seed);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NondetOrientationRun)->Arg(4)->Arg(8)->Arg(16);

// One instrumented repetition per workload: wall-clock through
// bench::Timer, counters through Engine::LastRunStats(). Kept separate
// from the google-benchmark loops so the stats pass never perturbs the
// timed iterations. `body` sets up and runs one evaluation on the given
// engine, returning its wall-clock ms or a negative value on failure.
template <typename Body>
void SweepRow(datalog::bench::JsonEmitter* json, const std::string& name,
              Body body) {
  Engine engine;
  double ms = body(&engine);
  if (ms >= 0) json->Row(name, ms, engine.LastRunStats());
}

void EmitStatsJson(const std::string& path) {
  datalog::bench::JsonEmitter json(path);

  for (int n : {64, 128}) {
    SweepRow(&json, "naive_tc_chain/" + std::to_string(n),
             [n](Engine* engine) -> double {
               auto p = engine->Parse(kTc);
               GraphBuilder graphs(&engine->catalog(), &engine->symbols());
               Instance db = graphs.Chain(n);
               datalog::bench::Timer t;
               auto r = engine->MinimumModelNaive(*p, db);
               return r.ok() ? t.ElapsedMs() : -1.0;
             });
  }
  for (int n : {64, 128, 256, 512, 1024}) {
    SweepRow(&json, "seminaive_tc_chain/" + std::to_string(n),
             [n](Engine* engine) -> double {
               auto p = engine->Parse(kTc);
               GraphBuilder graphs(&engine->catalog(), &engine->symbols());
               Instance db = graphs.Chain(n);
               datalog::bench::Timer t;
               auto r = engine->MinimumModel(*p, db);
               return r.ok() ? t.ElapsedMs() : -1.0;
             });
  }
  for (int n : {128, 256}) {
    SweepRow(&json, "seminaive_tc_random/" + std::to_string(n),
             [n](Engine* engine) -> double {
               auto p = engine->Parse(kTc);
               GraphBuilder graphs(&engine->catalog(), &engine->symbols());
               Instance db = graphs.RandomDigraph(n, 3 * n, /*seed=*/42);
               datalog::bench::Timer t;
               auto r = engine->MinimumModel(*p, db);
               return r.ok() ? t.ElapsedMs() : -1.0;
             });
  }
  for (int n : {64}) {
    SweepRow(&json, "stratified_complement_tc/" + std::to_string(n),
             [n](Engine* engine) -> double {
               auto p = engine->Parse(
                   "t(X, Y) :- g(X, Y).\n"
                   "t(X, Y) :- g(X, Z), t(Z, Y).\n"
                   "ct(X, Y) :- !t(X, Y).\n");
               GraphBuilder graphs(&engine->catalog(), &engine->symbols());
               Instance db = graphs.RandomDigraph(n, 2 * n, /*seed=*/7);
               datalog::bench::Timer t;
               auto r = engine->Stratified(*p, db);
               return r.ok() ? t.ElapsedMs() : -1.0;
             });
  }
  for (int n : {128}) {
    SweepRow(&json, "wellfounded_win/" + std::to_string(n),
             [n](Engine* engine) -> double {
               auto p =
                   engine->Parse("win(X) :- moves(X, Y), !win(Y).\n");
               Instance db = datalog::RandomGameGraph(
                   &engine->catalog(), &engine->symbols(), n, 2 * n,
                   /*seed=*/13);
               datalog::bench::Timer t;
               auto r = engine->WellFounded(*p, db);
               return r.ok() ? t.ElapsedMs() : -1.0;
             });
  }
  for (int n : {16}) {
    SweepRow(&json, "inflationary_closer/" + std::to_string(n),
             [n](Engine* engine) -> double {
               auto p = engine->Parse(
                   "t(X, Y) :- g(X, Y).\n"
                   "t(X, Y) :- t(X, Z), g(Z, Y).\n"
                   "closer(X, Y, X2, Y2) :- t(X, Y), !t(X2, Y2).\n");
               GraphBuilder graphs(&engine->catalog(), &engine->symbols());
               Instance db = graphs.Chain(n);
               datalog::bench::Timer t;
               auto r = engine->Inflationary(*p, db);
               return r.ok() ? t.ElapsedMs() : -1.0;
             });
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Extract --json=<path>, --trace=<path> and --metrics before
  // google-benchmark sees the arguments (it rejects flags it doesn't
  // recognize).
  datalog::bench::ObsArgs observability(argc, argv);
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.reserve(argc);
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--trace=", 0) != 0 && arg != "--metrics") {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) EmitStatsJson(json_path);
  return 0;
}
