// unchained_cli — run any engine of the family on program + fact files.
//
// Usage:
//   unchained_cli --semantics=NAME --program=FILE [--facts=FILE]
//                 [--seed=N] [--policy=POLICY] [--max-candidates=N]
//                 [--threads=N] [--deadline-ms=N] [--trace=FILE] [--metrics]
//
//   NAME:   datalog | naive | stratified | wellfounded | inflationary |
//           noninflationary | invention | stable |
//           nondet-run | nondet-enum | poss-cert
//   POLICY: positive | negative | noop | undefined   (Datalog¬¬ conflicts)
//   --threads=N caps the workers of the stable-model search (0 =
//   one per hardware thread); every other semantics runs on one thread.
//
// Prints the resulting instance (canonical fact list) to stdout; for
// wellfounded also the unknown facts; for nondet-enum every image; for
// stable every stable model. Exits nonzero on any error, printing the
// Status to stderr.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "ast/parser.h"
#include "core/engine.h"
#include "eval/provenance.h"
#include "eval/stable.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "while/while_parser.h"

namespace {

using datalog::Engine;
using datalog::Instance;

struct Args {
  std::string semantics;
  std::string program_path;
  std::string facts_path;
  uint64_t seed = 1;
  std::string policy = "positive";
  int64_t max_candidates = 1 << 20;
  /// Stable-model search workers (0 = one per hardware thread);
  /// -1 leaves the engine default untouched.
  int threads = -1;
  /// Wall-clock budget for one evaluation (0 = none). An exhausted run
  /// exits nonzero but still reports the finalized stats it got to.
  int64_t deadline_ms = 0;
  /// A ground fact ("t(a, c).") whose derivation tree to print after a
  /// datalog / stratified / inflationary evaluation.
  std::string explain;
  /// When nonempty, write a Chrome trace-event JSON of the run here.
  std::string trace_path;
  /// Print the metrics-registry dump after the run.
  bool metrics = false;
};

/// Turns tracing/metrics on for the process and exports them when the
/// program exits `main` through any path (RAII, so error returns still
/// flush a partial trace).
struct ObsSession {
  std::string trace_path;
  bool metrics = false;

  void Start() {
    if (!trace_path.empty()) datalog::obs::Tracer::Get().Enable();
    if (metrics) {
      datalog::obs::MetricsRegistry::Get().Reset();
      datalog::obs::MetricsRegistry::Get().SetEnabled(true);
    }
  }
  ~ObsSession() {
    if (metrics) {
      datalog::obs::MetricsRegistry::Get().SetEnabled(false);
      std::printf("%% metrics\n%s",
                  datalog::obs::MetricsRegistry::Get().DumpText().c_str());
    }
    if (!trace_path.empty()) {
      datalog::obs::Tracer::Get().Disable();
      datalog::obs::WriteChromeTrace(trace_path);
    }
  }
};

bool ParseArg(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: unchained_cli --semantics=NAME --program=FILE [--facts=FILE]\n"
      "                     [--seed=N] [--policy=positive|negative|noop|"
      "undefined]\n"
      "                     [--explain=\"fact(a, b)\"] [--threads=N]\n"
      "                     [--deadline-ms=N] [--trace=FILE] [--metrics]\n"
      "  NAME: datalog | naive | stratified | wellfounded | inflationary |\n"
      "        noninflationary | invention | stable | nondet-run |\n"
      "        nondet-enum | poss-cert\n"
      "  --threads=N: workers of the stable-model search (0 = one per\n"
      "        hardware thread); every other semantics runs on one thread\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

void PrintInstance(const Engine& engine, const Instance& db) {
  std::fputs(db.ToString(engine.symbols()).c_str(), stdout);
}

/// Error exit shared by the engine paths: prints the status and, when the
/// run was cut short by a deadline/cancellation/budget, the finalized
/// stats it reached — the run still "happened" up to that point.
int Fail(const Engine& engine, const datalog::Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  if (status.code() == datalog::StatusCode::kBudgetExhausted ||
      status.code() == datalog::StatusCode::kCancelled) {
    const datalog::EvalStats& st = engine.LastRunStats();
    std::fprintf(stderr,
                 "%% interrupted after %lld round(s), %lld fact(s) derived, "
                 "%.3f ms\n",
                 static_cast<long long>(st.rounds),
                 static_cast<long long>(st.facts_derived), st.total_ms);
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseArg(argv[i], "semantics", &args.semantics) ||
        ParseArg(argv[i], "program", &args.program_path) ||
        ParseArg(argv[i], "facts", &args.facts_path)) {
      continue;
    }
    if (ParseArg(argv[i], "seed", &value)) {
      args.seed = std::stoull(value);
      continue;
    }
    if (ParseArg(argv[i], "policy", &args.policy)) continue;
    if (ParseArg(argv[i], "explain", &args.explain)) continue;
    if (ParseArg(argv[i], "threads", &value)) {
      args.threads = std::atoi(value.c_str());
      continue;
    }
    if (ParseArg(argv[i], "deadline-ms", &value)) {
      args.deadline_ms = std::stoll(value);
      continue;
    }
    if (ParseArg(argv[i], "trace", &args.trace_path)) continue;
    if (std::strcmp(argv[i], "--metrics") == 0) {
      args.metrics = true;
      continue;
    }
    if (ParseArg(argv[i], "max-candidates", &value)) {
      args.max_candidates = std::stoll(value);
      continue;
    }
    std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
    return Usage();
  }
  if (args.semantics.empty() || args.program_path.empty()) return Usage();

  ObsSession obs;
  obs.trace_path = args.trace_path;
  obs.metrics = args.metrics;
  obs.Start();

  std::string program_text;
  if (!ReadFile(args.program_path, &program_text)) {
    std::fprintf(stderr, "cannot read program file '%s'\n",
                 args.program_path.c_str());
    return 1;
  }

  Engine engine;
  if (args.threads >= 0) engine.options().num_threads = args.threads;
  if (args.deadline_ms > 0) engine.options().deadline_ms = args.deadline_ms;

  // The while/fixpoint languages use their own surface syntax; everything
  // else goes through the Datalog-family parser.
  const bool is_while =
      args.semantics == "while" || args.semantics == "fixpoint";
  datalog::Result<datalog::WhileProgram> while_program =
      datalog::Status::Internal("unset");
  datalog::Result<datalog::Program> program =
      datalog::Status::Internal("unset");
  if (is_while) {
    while_program = datalog::ParseWhileProgram(
        program_text, &engine.catalog(), &engine.symbols());
    if (!while_program.ok()) {
      std::fprintf(stderr, "%s\n",
                   while_program.status().ToString().c_str());
      return 1;
    }
    if (args.semantics == "fixpoint" &&
        !datalog::IsFixpointProgram(*while_program)) {
      std::fprintf(stderr,
                   "program uses destructive assignment; run it with "
                   "--semantics=while\n");
      return 1;
    }
  } else {
    program = engine.Parse(program_text);
    if (!program.ok()) {
      std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
      return 1;
    }
  }

  Instance db = engine.NewInstance();
  if (!args.facts_path.empty()) {
    std::string facts_text;
    if (!ReadFile(args.facts_path, &facts_text)) {
      std::fprintf(stderr, "cannot read facts file '%s'\n",
                   args.facts_path.c_str());
      return 1;
    }
    auto st = engine.AddFacts(facts_text, &db);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  if (is_while) {
    auto r = datalog::RunWhile(*while_program, db, datalog::WhileOptions{});
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    PrintInstance(engine, *r);
    return 0;
  }

  // --explain: record provenance during evaluation and print the
  // derivation tree of the requested fact afterwards.
  datalog::DerivationLog provenance;
  const std::string& s = args.semantics;
  if (!args.explain.empty()) {
    if (s != "datalog" && s != "stratified" && s != "inflationary") {
      std::fprintf(stderr,
                   "--explain requires --semantics=datalog|stratified|"
                   "inflationary\n");
      return 2;
    }
    engine.options().provenance = &provenance;
  }
  auto print_explanation = [&]() -> int {
    if (args.explain.empty()) return 0;
    Instance fact_holder = engine.NewInstance();
    std::string text = args.explain;
    if (text.find('.') == std::string::npos) text += '.';
    auto st = datalog::ParseFacts(text, &engine.catalog(), &engine.symbols(),
                                  &fact_holder);
    if (!st.ok()) {
      std::fprintf(stderr, "--explain: %s\n", st.ToString().c_str());
      return 1;
    }
    for (datalog::PredId p = 0; p < engine.catalog().size(); ++p) {
      for (const auto& t : fact_holder.Rel(p)) {
        std::printf("%s", provenance
                              .Explain(p, t, *program, engine.catalog(),
                                       engine.symbols())
                              .c_str());
      }
    }
    return 0;
  };

  if (s == "datalog" || s == "naive") {
    auto r = s == "datalog" ? engine.MinimumModel(*program, db)
                            : engine.MinimumModelNaive(*program, db);
    if (!r.ok()) return Fail(engine, r.status());
    PrintInstance(engine, *r);
    return print_explanation();
  }
  if (s == "stratified") {
    auto r = engine.Stratified(*program, db);
    if (!r.ok()) return Fail(engine, r.status());
    PrintInstance(engine, *r);
    return print_explanation();
  }
  if (s == "wellfounded") {
    auto r = engine.WellFounded(*program, db);
    if (!r.ok()) return Fail(engine, r.status());
    std::printf("%% true facts\n");
    PrintInstance(engine, r->true_facts);
    if (!r->IsTotal()) {
      std::printf("%% unknown facts\n");
      for (datalog::PredId p = 0; p < engine.catalog().size(); ++p) {
        for (const auto& t : r->possible_facts.Rel(p).Sorted()) {
          if (r->true_facts.Contains(p, t)) continue;
          std::printf("%s", engine.catalog().NameOf(p).c_str());
          if (!t.empty()) {
            std::printf("(");
            for (size_t i = 0; i < t.size(); ++i) {
              std::printf("%s%s", i ? ", " : "",
                          engine.symbols().NameOf(t[i]).c_str());
            }
            std::printf(")");
          }
          std::printf(".\n");
        }
      }
    }
    return 0;
  }
  if (s == "inflationary") {
    auto r = engine.Inflationary(*program, db);
    if (!r.ok()) return Fail(engine, r.status());
    std::printf("%% %d stages\n", r->stages);
    PrintInstance(engine, r->instance);
    return print_explanation();
  }
  if (s == "noninflationary") {
    datalog::NonInflationaryOptions options;
    // This facade reads its own options struct; forward the engine-wide
    // settings (the deadline) so the flags apply here too.
    options.eval = engine.options();
    if (args.policy == "positive") {
      options.policy = datalog::ConflictPolicy::kPositiveWins;
    } else if (args.policy == "negative") {
      options.policy = datalog::ConflictPolicy::kNegativeWins;
    } else if (args.policy == "noop") {
      options.policy = datalog::ConflictPolicy::kNoOp;
    } else if (args.policy == "undefined") {
      options.policy = datalog::ConflictPolicy::kUndefined;
    } else {
      return Usage();
    }
    auto r = engine.NonInflationary(*program, db, options);
    if (!r.ok()) return Fail(engine, r.status());
    std::printf("%% %d stages\n", r->stages);
    PrintInstance(engine, r->instance);
    return 0;
  }
  if (s == "invention") {
    auto r = engine.Invention(*program, db);
    if (!r.ok()) return Fail(engine, r.status());
    std::printf("%% %lld invented values\n",
                static_cast<long long>(r->invented_values));
    PrintInstance(engine, r->instance);
    return 0;
  }
  if (s == "stable") {
    auto r = datalog::StableModels(*program, db, engine.options(),
                                   args.max_candidates);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%% %zu stable model(s), %lld unknown atoms\n",
                r->models.size(), static_cast<long long>(r->unknown_atoms));
    for (size_t i = 0; i < r->models.size(); ++i) {
      std::printf("%% model %zu\n", i + 1);
      PrintInstance(engine, r->models[i]);
    }
    return 0;
  }
  if (s == "nondet-run" || s == "nondet-enum" || s == "poss-cert") {
    // Pick the most permissive nondeterministic dialect that validates.
    datalog::Dialect dialect = datalog::Dialect::kNDatalogNegNeg;
    for (datalog::Dialect candidate :
         {datalog::Dialect::kNDatalogNeg, datalog::Dialect::kNDatalogNegNeg,
          datalog::Dialect::kNDatalogBottom, datalog::Dialect::kNDatalogForall,
          datalog::Dialect::kNDatalogNew}) {
      if (engine.Validate(*program, candidate).ok()) {
        dialect = candidate;
        break;
      }
    }
    datalog::NondetOptions nondet_options;
    nondet_options.eval = engine.options();
    if (s == "nondet-run") {
      auto r =
          engine.NondetRun(*program, dialect, db, args.seed, nondet_options);
      if (!r.ok()) return Fail(engine, r.status());
      PrintInstance(engine, *r);
      return 0;
    }
    if (s == "nondet-enum") {
      auto r = engine.NondetEnumerate(*program, dialect, db, nondet_options);
      if (!r.ok()) return Fail(engine, r.status());
      std::printf("%% %zu image(s), %zu states, %zu abandoned\n",
                  r->images.size(), r->states_explored,
                  r->abandoned_branches);
      for (size_t i = 0; i < r->images.size(); ++i) {
        std::printf("%% image %zu\n", i + 1);
        PrintInstance(engine, r->images[i]);
      }
      return 0;
    }
    auto r = engine.NondetPossCert(*program, dialect, db);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%% poss (union over %zu images)\n", r->image_count);
    PrintInstance(engine, r->poss);
    std::printf("%% cert (intersection)\n");
    PrintInstance(engine, r->cert);
    return 0;
  }
  std::fprintf(stderr, "unknown semantics '%s'\n", s.c_str());
  return Usage();
}
