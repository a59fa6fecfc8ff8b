// unchained_fuzz — differential & metamorphic fuzzing CLI (docs/testing.md).
//
// Usage:
//   unchained_fuzz [--cases=N] [--seed=S] [--classes=a,b,...]
//                  [--pairs=a,b,...] [--mutants=N] [--artifacts=DIR]
//                  [--no-shrink] [--inject-bug=NAME[:RULE]] [--quiet]
//                  [--deadline-ms=N] [--trace=FILE] [--metrics]
//
//   classes: positive | semi-positive | stratified | total
//   pairs:   naive-vs-seminaive | magic-vs-original | inflationary-vs-while
//            | wellfounded-vs-stratified | sequential-vs-parallel
//            | trace-on-vs-trace-off | reliable-vs-faulty-peers
//            | incremental-vs-scratch | server-vs-library
//            | crash-recover-vs-replay
//   bugs:    seminaive-skip-delta (optional :RULE index, default 1)
//            dred-skip-rederive (incremental maintenance drops the
//            delete-rederive pass; caught by incremental-vs-scratch)
//            server-publish-stale (the server publishes the pre-batch
//            model bytes under the new epoch — a torn read; caught by
//            server-vs-library)
//            store-skip-truncate (crash recovery leaves the torn WAL
//            tail in place instead of truncating it; caught by
//            crash-recover-vs-replay)
//
// --trace writes a Chrome trace-event JSON of the whole sweep (load it in
// Perfetto); --metrics prints the metrics-registry dump after the sweep.
//
// Generates `cases` random (program, instance) pairs, runs every
// applicable oracle pair and `mutants` metamorphic mutants on each, shrinks
// any disagreement to a 1-minimal repro and writes it under --artifacts.
// Exits 0 iff the sweep found zero disagreements. Fully deterministic in
// --seed. --inject-bug plants a deliberate engine bug so the whole
// find->diff->shrink->report pipeline can prove itself end to end.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "eval/test_hooks.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/fuzzer.h"

namespace {

using datalog::fuzz::FuzzOptions;
using datalog::fuzz::FuzzReport;

bool ParseArg(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t end = csv.find(',', start);
    if (end == std::string::npos) end = csv.size();
    if (end > start) out.push_back(csv.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: unchained_fuzz [--cases=N] [--seed=S] [--classes=a,b,...]\n"
      "                      [--pairs=a,b,...] [--mutants=N]\n"
      "                      [--artifacts=DIR] [--no-shrink]\n"
      "                      [--inject-bug=seminaive-skip-delta[:RULE]\n"
      "                                   |dred-skip-rederive\n"
      "                                   |server-publish-stale\n"
      "                                   |store-skip-truncate]\n"
      "                      [--quiet] [--deadline-ms=N] [--trace=FILE]\n"
      "                      [--metrics]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions options;
  bool quiet = false;
  std::string trace_path;
  bool metrics = false;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseArg(arg, "cases", &value)) {
      options.cases = std::atoi(value.c_str());
    } else if (ParseArg(arg, "seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(arg, "mutants", &value)) {
      options.mutants_per_case = std::atoi(value.c_str());
    } else if (ParseArg(arg, "artifacts", &value)) {
      options.artifacts_dir = value;
    } else if (ParseArg(arg, "classes", &value)) {
      options.classes.clear();
      for (const std::string& name : SplitCsv(value)) {
        datalog::fuzz::ProgramClass cls;
        if (!datalog::fuzz::ClassFromName(name, &cls)) {
          std::fprintf(stderr, "unknown program class: %s\n", name.c_str());
          return Usage();
        }
        options.classes.push_back(cls);
      }
    } else if (ParseArg(arg, "pairs", &value)) {
      options.pairs.clear();
      for (const std::string& name : SplitCsv(value)) {
        datalog::fuzz::OraclePair pair;
        if (!datalog::fuzz::PairFromName(name, &pair)) {
          std::fprintf(stderr, "unknown oracle pair: %s\n", name.c_str());
          return Usage();
        }
        options.pairs.push_back(pair);
      }
    } else if (ParseArg(arg, "inject-bug", &value)) {
      std::string name = value;
      int rule = 1;
      if (size_t colon = name.find(':'); colon != std::string::npos) {
        rule = std::atoi(name.c_str() + colon + 1);
        name.resize(colon);
      }
      if (name == "seminaive-skip-delta") {
        datalog::internal::g_seminaive_skip_delta_rule = rule;
      } else if (name == "dred-skip-rederive") {
        datalog::internal::g_dred_skip_rederive = true;
      } else if (name == "server-publish-stale") {
        datalog::internal::g_server_publish_stale = true;
      } else if (name == "store-skip-truncate") {
        datalog::internal::g_store_skip_truncate = true;
      } else {
        std::fprintf(stderr, "unknown bug: %s\n", name.c_str());
        return Usage();
      }
    } else if (ParseArg(arg, "deadline-ms", &value)) {
      options.deadline_ms = std::strtoll(value.c_str(), nullptr, 10);
    } else if (ParseArg(arg, "trace", &trace_path)) {
      // handled below
    } else if (std::strcmp(arg, "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      options.shrink = false;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return Usage();
    }
  }
  if (options.cases <= 0 || options.classes.empty() ||
      (options.pairs.empty() && options.mutants_per_case <= 0)) {
    return Usage();
  }
  if (!quiet) options.log = &std::cerr;

  if (!trace_path.empty()) {
    // The trace-on-vs-trace-off pair drives the tracer itself and would
    // clobber the session a --trace run opens; drop it from the sweep.
    options.pairs.erase(
        std::remove(options.pairs.begin(), options.pairs.end(),
                    datalog::fuzz::OraclePair::kTraceOnVsTraceOff),
        options.pairs.end());
    datalog::obs::Tracer::Get().Enable();
  }
  if (metrics) {
    datalog::obs::MetricsRegistry::Get().Reset();
    datalog::obs::MetricsRegistry::Get().SetEnabled(true);
  }

  std::printf("unchained_fuzz: %d cases, seed %llu\n", options.cases,
              static_cast<unsigned long long>(options.seed));
  const FuzzReport report = datalog::fuzz::RunFuzz(options);

  if (metrics) {
    datalog::obs::MetricsRegistry::Get().SetEnabled(false);
    std::printf("%s", datalog::obs::MetricsRegistry::Get().DumpText().c_str());
  }
  if (!trace_path.empty()) {
    datalog::obs::Tracer::Get().Disable();
    datalog::obs::WriteChromeTrace(trace_path);
  }

  for (const auto& [name, count] : report.checks_by_name) {
    std::printf("  pair %-28s %8lld checks\n", name.c_str(),
                static_cast<long long>(count));
  }
  for (const auto& [name, count] : report.mutants_by_name) {
    std::printf("  metamorphic %-21s %8lld checks\n", name.c_str(),
                static_cast<long long>(count));
  }
  for (const auto& failure : report.failures) {
    std::printf("\nDISAGREEMENT case %d [%s]%s\n", failure.case_index,
                failure.check.c_str(),
                failure.artifact_path.empty()
                    ? ""
                    : (" -> " + failure.artifact_path).c_str());
    if (failure.shrunk) {
      std::printf("shrunk repro (%d rules, %s, %d oracle calls):\n%s-- facts:\n%s",
                  failure.shrunk_rule_count,
                  failure.shrunk_one_minimal ? "1-minimal" : "unverified",
                  failure.shrink_oracle_calls, failure.shrunk_program.c_str(),
                  failure.shrunk_facts.c_str());
    }
  }
  if (report.deadline_hit) {
    std::printf("\n%% deadline reached: sweep stopped after %d of %d cases "
                "(report covers the finished cases only)\n",
                report.cases_run, options.cases);
  }
  std::printf("\n%d cases, %lld checks, %zu disagreements\n",
              report.cases_run, static_cast<long long>(report.TotalChecks()),
              report.failures.size());
  return report.ok() ? 0 : 1;
}
