#include "testing/fuzzer.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/engine.h"

namespace datalog {
namespace fuzz {
namespace {

/// Per-case seed: decorrelates consecutive cases while keeping the whole
/// run a pure function of (options.seed, case index).
uint64_t CaseSeed(uint64_t seed, int case_index) {
  uint64_t x = seed + 0x9e3779b97f4a7c15ULL *
                          (static_cast<uint64_t>(case_index) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  return x;
}

struct MetamorphicOutcome {
  bool applicable = false;
  bool agreed = true;
  std::string detail;
};

/// Evaluates original and mutant in one engine (shared symbols, so tuple
/// values are directly comparable) and diffs each original idb relation
/// against its (possibly renamed) counterpart.
MetamorphicOutcome CheckMutant(const std::string& program_text,
                               const std::string& facts_text, Mutation m,
                               uint64_t mutation_seed) {
  MetamorphicOutcome out;
  Rng mrng(mutation_seed);
  MetamorphicMutator mutator;
  Result<MutatedProgram> mutated = mutator.Apply(m, program_text, &mrng);
  if (!mutated.ok()) return out;  // unparseable candidate: inapplicable

  Engine engine;
  Result<Program> original = engine.Parse(program_text);
  if (!original.ok()) return out;
  if (!engine.Validate(*original, Dialect::kStratified).ok()) return out;
  Result<Program> mutant = engine.Parse(mutated->program);
  if (!mutant.ok()) {
    out.applicable = true;
    out.agreed = false;
    out.detail = "mutant does not parse: " + mutant.status().ToString();
    return out;
  }
  Instance db = engine.NewInstance();
  if (!engine.AddFacts(facts_text, &db).ok()) return out;

  Result<Instance> base = engine.Stratified(*original, db);
  if (!base.ok()) return out;  // original unevaluable: inapplicable
  out.applicable = true;
  Result<Instance> mut = engine.Stratified(*mutant, db);
  if (!mut.ok()) {
    out.agreed = false;
    out.detail = "mutant evaluation failed: " + mut.status().ToString();
    return out;
  }
  for (PredId p : original->idb_preds) {
    const std::string& name = engine.catalog().NameOf(p);
    PredId q = engine.catalog().Find(mutated->Renamed(name));
    if (q < 0 || base->Rel(p).Sorted() != mut->Rel(q).Sorted()) {
      out.agreed = false;
      out.detail = "relation " + name + " changed under " +
                   MutationName(m) + " (mutant predicate " +
                   std::string(mutated->Renamed(name)) + ")";
      return out;
    }
  }
  return out;
}

void Log(const FuzzOptions& options, const std::string& line) {
  if (options.log != nullptr) *options.log << line << '\n';
}

}  // namespace

int64_t FuzzReport::TotalChecks() const {
  int64_t total = 0;
  for (const auto& [name, count] : checks_by_name) total += count;
  for (const auto& [name, count] : mutants_by_name) total += count;
  return total;
}

std::string WriteRepro(const std::string& dir, const FuzzFailure& failure,
                       uint64_t seed) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  std::string check = failure.check;
  for (char& c : check) {
    if (c == ':' || c == '/') c = '-';
  }
  const std::string stem =
      dir + "/case" + std::to_string(failure.case_index) + "-" + check;
  const std::string& program =
      failure.shrunk ? failure.shrunk_program : failure.program;
  const std::string& facts =
      failure.shrunk ? failure.shrunk_facts : failure.facts;
  {
    std::ofstream f(stem + ".dl");
    if (!f) return "";
    f << program;
  }
  {
    std::ofstream f(stem + ".facts");
    if (!f) return "";
    f << facts;
  }
  std::ofstream md(stem + ".md");
  if (!md) return "";
  md << "# Fuzz disagreement: " << failure.check << "\n\n"
     << "* case: " << failure.case_index << " (class "
     << ClassName(failure.cls) << ", run seed " << seed << ")\n"
     << "* shrunk: " << failure.shrunk_rule_count << " rules, "
     << (failure.shrunk_one_minimal ? "1-minimal" : "not verified minimal")
     << ", " << failure.shrink_oracle_calls << " oracle calls\n\n"
     << "## Diagnostic\n\n```\n" << failure.detail << "\n```\n\n"
     << "## Shrunk program (" << stem << ".dl)\n\n```\n" << program
     << "```\n\n## Shrunk facts (" << stem << ".facts)\n\n```\n" << facts
     << "```\n\n## Original program\n\n```\n" << failure.program
     << "```\n\n## Original facts\n\n```\n" << failure.facts << "```\n\n"
     << "Reproduce the whole run with:\n\n"
     << "    tools/unchained_fuzz --cases=" << failure.case_index + 1
     << " --seed=" << seed << "\n";
  return stem + ".md";
}

FuzzReport RunFuzz(const FuzzOptions& options) {
  FuzzReport report;
  ProgramGenerator generator(options.generator);
  OracleRunner runner(options.oracle);
  Shrinker shrinker(options.shrinker);

  const auto sweep_start = std::chrono::steady_clock::now();
  for (int i = 0; i < options.cases; ++i) {
    if (options.deadline_ms > 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - sweep_start)
              .count();
      if (elapsed >= options.deadline_ms) {
        report.deadline_hit = true;
        Log(options, "deadline: sweep stopped after " +
                         std::to_string(report.cases_run) + "/" +
                         std::to_string(options.cases) + " cases");
        break;
      }
    }
    const uint64_t case_seed = CaseSeed(options.seed, i);
    Rng rng(case_seed);
    const ProgramClass cls =
        options.classes[static_cast<size_t>(i) % options.classes.size()];
    const GeneratedCase c = generator.GenerateCase(cls, &rng);

    auto record_failure = [&](const std::string& check,
                              const std::string& detail,
                              const ShrinkOracle& oracle) {
      FuzzFailure failure;
      failure.case_index = i;
      failure.cls = cls;
      failure.check = check;
      failure.detail = detail;
      failure.program = c.program;
      failure.facts = c.facts;
      if (options.shrink) {
        ShrinkResult shrunk = shrinker.Shrink(c.program, c.facts, oracle);
        failure.shrunk = true;
        failure.shrunk_program = shrunk.program;
        failure.shrunk_facts = shrunk.facts;
        failure.shrunk_rule_count = shrunk.RuleCount();
        failure.shrink_oracle_calls = shrunk.oracle_calls;
        failure.shrunk_one_minimal = shrunk.one_minimal;
      }
      if (!options.artifacts_dir.empty()) {
        failure.artifact_path =
            WriteRepro(options.artifacts_dir, failure, options.seed);
      }
      Log(options, "FAIL case " + std::to_string(i) + " [" + check + "] " +
                       (failure.artifact_path.empty()
                            ? "(artifact not written)"
                            : "-> " + failure.artifact_path));
      report.failures.push_back(std::move(failure));
    };

    for (size_t pi = 0; pi < options.pairs.size(); ++pi) {
      const OraclePair pair = options.pairs[pi];
      const uint64_t salt = case_seed ^ (0x517cc1b727220a95ULL * (pi + 1));
      OracleVerdict verdict = runner.Run(pair, c.program, c.facts, salt);
      if (!verdict.applicable) continue;
      ++report.checks_by_name[PairName(pair)];
      if (!verdict.agreed) {
        record_failure(PairName(pair), verdict.detail,
                       [&runner, pair, salt](const std::string& prog,
                                             const std::string& facts) {
                         OracleVerdict v = runner.Run(pair, prog, facts, salt);
                         return v.applicable && !v.agreed;
                       });
      }
    }

    for (int mi = 0; mi < options.mutants_per_case; ++mi) {
      const Mutation m = static_cast<Mutation>(
          (i * options.mutants_per_case + mi) % kNumMutations);
      const uint64_t mseed =
          case_seed + 1000003ULL * (static_cast<uint64_t>(mi) + 1);
      MetamorphicOutcome outcome = CheckMutant(c.program, c.facts, m, mseed);
      if (!outcome.applicable) continue;
      ++report.mutants_by_name[MutationName(m)];
      if (!outcome.agreed) {
        record_failure(std::string("metamorphic:") + MutationName(m),
                       outcome.detail,
                       [m, mseed](const std::string& prog,
                                  const std::string& facts) {
                         MetamorphicOutcome o =
                             CheckMutant(prog, facts, m, mseed);
                         return o.applicable && !o.agreed;
                       });
      }
    }

    ++report.cases_run;
    if (options.log != nullptr && (i + 1) % 200 == 0) {
      Log(options, "... " + std::to_string(i + 1) + "/" +
                       std::to_string(options.cases) + " cases, " +
                       std::to_string(report.failures.size()) +
                       " disagreements");
    }
  }
  return report;
}

}  // namespace fuzz
}  // namespace datalog
