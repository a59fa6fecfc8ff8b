// Stable-model structure (Section 3.3's stable/default semantics): counts
// of stable models across the canonical game-graph shapes, bracketed by
// the well-founded model's unknown set. Documents the classical facts the
// test suite asserts: stratified => 1 model, even negative loops multiply
// models, odd negative loops kill them all.
//
// Pass `--json=<path>` to also dump each row's EvalStats as a JSON array,
// and `--threads=N[,N...]` to sweep the candidate checks over N workers
// (labels and JSON row names gain a "/tN" suffix; 0 means one per
// hardware thread).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "eval/stable.h"
#include "workload/graphs.h"

namespace {

void Row(const std::string& workload, datalog::Engine* engine,
         const datalog::Program& program, const datalog::Instance& db,
         datalog::bench::JsonEmitter* json, bool sweeping) {
  datalog::EvalContext ctx(engine->options());
  datalog::bench::Timer timer;
  auto r = datalog::StableModels(program, db, engine->options(),
                                 /*max_candidates=*/1 << 20, &ctx);
  double ms = timer.ElapsedMs();
  ctx.Finalize();
  std::string label = workload;
  if (sweeping) {
    label += "/t" + std::to_string(engine->options().num_threads);
  }
  if (!r.ok()) {
    std::printf("%-24s %s\n", label.c_str(), r.status().ToString().c_str());
    return;
  }
  std::printf("%-24s %10lld %10zu %12lld %10.2f\n", label.c_str(),
              static_cast<long long>(r->unknown_atoms), r->models.size(),
              static_cast<long long>(r->candidates_checked), ms);
  if (sweeping) {
    json->Row(label, ms, ctx.stats, engine->options().num_threads);
  } else {
    json->Row(label, ms, ctx.stats);
  }
}

}  // namespace

int main(int argc, char** argv) {
  datalog::bench::ObsArgs obs(argc, argv);
  using datalog::Engine;
  using datalog::GraphBuilder;
  using datalog::Instance;

  datalog::bench::JsonEmitter json(argc, argv);
  const std::vector<int> threads = datalog::bench::ThreadsFromArgs(argc, argv);

  datalog::bench::Header(
      "Stable models of win(X) :- moves(X, Y), !win(Y) across game shapes");
  std::printf("%-24s %10s %10s %12s %10s\n", "workload", "unknowns",
              "models", "candidates", "time(ms)");

  // Each workload runs once per requested thread count (once at the
  // engine default when --threads is absent).
  const bool sweeping = !threads.empty();
  auto run = [&](const std::string& label, const char* program_text,
                 auto make_db) {
    const std::vector<int> sweep = sweeping ? threads : std::vector<int>{1};
    for (int th : sweep) {
      Engine engine;
      if (sweeping) engine.options().num_threads = th;
      auto p = engine.Parse(program_text);
      Instance db = make_db(&engine);
      Row(label, &engine, *p, db, &json, sweeping);
    }
  };

  constexpr const char* kWin = "win(X) :- moves(X, Y), !win(Y).\n";
  run("paper game (Ex. 3.2)", kWin, [](Engine* engine) {
    return datalog::PaperGameGraph(&engine->catalog(), &engine->symbols());
  });
  for (int k : {1, 2, 3, 4, 6, 8}) {
    char label[32];
    std::snprintf(label, sizeof(label), "%d disjoint 2-cycles", k);
    run(label, kWin, [k](Engine* engine) {
      GraphBuilder graphs(&engine->catalog(), &engine->symbols(), "moves");
      return graphs.TwoCycles(k);
    });
  }
  for (int n : {3, 5, 7}) {
    char label[32];
    std::snprintf(label, sizeof(label), "odd cycle n=%d", n);
    run(label, kWin, [n](Engine* engine) {
      GraphBuilder graphs(&engine->catalog(), &engine->symbols(), "moves");
      return graphs.Cycle(n);
    });
  }
  run("stratified complement",
      "t(X, Y) :- g(X, Y).\n"
      "t(X, Y) :- g(X, Z), t(Z, Y).\n"
      "ct(X, Y) :- !t(X, Y).\n",
      [](Engine* engine) {
        GraphBuilder graphs(&engine->catalog(), &engine->symbols());
        return graphs.RandomDigraph(8, 14, /*seed=*/3);
      });

  std::printf(
      "\nShape check: 2^k models on k even negative loops, none on odd\n"
      "loops, exactly one on stratified programs (= the stratified model);\n"
      "the well-founded unknowns bound the search exactly as the theory\n"
      "says (every stable model lies between WF-true and WF-possible).\n");
  return 0;
}
