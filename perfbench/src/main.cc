// perfbench: the repo's benchmark binary (README.md next to this
// directory). perfbench/run.py builds it and forwards its arguments:
//
//   perfbench --workload <big-view|churn|durable|paper-queries>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//             [--commit <id>] [--tiny] [--inject <bug>]
//   perfbench --selftest --out-dir <dir>
//
// It prints the run's stamp and metrics (with sample counts) as text, then
// one JSON object as the last line: correct, attempted, failed, metrics.
// The exit code is 0 only when every check passed and the run is valid.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace {

using perfbench::Outcome;
using perfbench::RunConfig;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

const char* const kWorkloads[] = {"big-view", "churn", "durable",
                                  "paper-queries"};

/// Every end-to-end metric of the JSON line; each workload reports all of
/// them. Their times are scaled to the reference host speed by the probe
/// (common.h). The raw times, ops_per_s and the p99s are printed but left
/// out: they follow how fast the shared host runs at the moment, and their
/// run-to-run spread reaches or exceeds any bound a comparison could use
/// (README.md#steadiness).
const char* const kEndToEnd[] = {"setup_s", "op_p50_ref_ms",
                                 "read_p50_ref_ms", "peak_rss_mb"};

/// Every per-layer metric with its unit. A workload that never enters a
/// layer reports 0 for it (the layer did no work).
const std::pair<const char*, const char*> kPerLayer[] = {
    {"server.writer_step_mean_ms", "ms"},
    {"server.publish_mean_ms", "ms"},
    {"server.live_snapshots_max", "count"},
    {"server.serve_first_p50_ms", "ms"},
    {"server.serve_cached_p50_ms", "ms"},
    {"server.read_cache_hit_ratio", "ratio"},
    {"server.read_queue_mean_ms", "ms"},
    {"server.commit_queue_mean_ms", "ms"},
    {"wire.read_mean_ms", "ms"},
    {"wire.read_body_bytes", "bytes"},
    {"wire.commit_mean_ms", "ms"},
    {"incremental.apply_p50_ms", "ms"},
    {"incremental.apply_p99_ms", "ms"},
    {"incremental.overdeleted_per_commit", "count"},
    {"incremental.rederived_per_commit", "count"},
    {"incremental.recounted_per_commit", "count"},
    {"incremental.facts_changed_per_commit", "count"},
    {"incremental.useful_ratio", "ratio"},
    {"incremental.create_ms", "ms"},
    {"session.parse_mean_us", "us"},
    {"session.updates_per_commit", "count"},
    {"session.format_mean_us", "us"},
    {"store.append_p50_ms", "ms"},
    {"store.append_p99_ms", "ms"},
    {"store.fsyncs_per_commit", "count"},
    {"store.wal_bytes_per_commit", "bytes"},
    {"store.bytes_per_user_byte", "ratio"},
    {"store.compact_p50_ms", "ms"},
    {"store.compactions", "count"},
    {"store.recover_ms", "ms"},
    {"store.load_snapshot_ms", "ms"},
    {"store.replayed_records", "count"},
    {"eval.seminaive_p50_ms", "ms"},
    {"eval.seminaive_rounds", "count"},
    {"eval.seminaive_instantiations", "count"},
    {"eval.naive_p50_ms", "ms"},
    {"eval.naive_rounds", "count"},
    {"eval.naive_instantiations", "count"},
    {"eval.stratified_p50_ms", "ms"},
    {"eval.stratified_rounds", "count"},
    {"eval.stratified_instantiations", "count"},
    {"eval.inflationary_p50_ms", "ms"},
    {"eval.inflationary_rounds", "count"},
    {"eval.inflationary_instantiations", "count"},
    {"eval.wellfounded_p50_ms", "ms"},
    {"eval.wellfounded_rounds", "count"},
    {"eval.wellfounded_instantiations", "count"},
    {"eval.noninflationary_p50_ms", "ms"},
    {"eval.noninflationary_rounds", "count"},
    {"eval.noninflationary_instantiations", "count"},
    {"gen.read_late_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

bool KnownWorkload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

Outcome Run(const RunConfig& config) {
  return perfbench::IsServerWorkload(config.workload)
             ? perfbench::RunServerWorkload(config)
             : perfbench::RunPaperQueries(config);
}

/// Keeps exactly the metrics the mode reports, in the fixed order; a
/// missing end-to-end metric is a benchmark bug and fails the run. The
/// other metrics of an end-to-end run move to printed_only.
void Canonicalize(bool trace, Outcome* out) {
  std::vector<perfbench::Metric> kept;
  auto find = [&](const std::string& name) -> const perfbench::Metric* {
    for (const perfbench::Metric& m : out->metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  if (trace) {
    for (const auto& [name, unit] : kPerLayer) {
      const perfbench::Metric* m = find(name);
      kept.push_back(m != nullptr ? *m : perfbench::Metric{name, 0, unit, 0});
    }
  } else {
    for (const char* name : kEndToEnd) {
      const perfbench::Metric* m = find(name);
      if (m == nullptr) {
        out->Fail(std::string("metric not measured: ") + name);
        continue;
      }
      kept.push_back(*m);
    }
    for (const perfbench::Metric& m : out->metrics) {
      bool listed = false;
      for (const char* name : kEndToEnd) listed = listed || m.name == name;
      if (!listed) out->printed_only.push_back(m);
    }
  }
  for (perfbench::Metric& m : kept) {
    if (!std::isfinite(m.value)) {
      out->Fail("metric is not a finite number: " + m.name);
      m.value = 0;
    }
  }
  out->metrics = std::move(kept);
}

void Print(const RunConfig& config, const std::string& commit,
           const Outcome& out) {
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("# host nproc=%u cpu=\"%s\" build=%s commit=%s\n",
              std::thread::hardware_concurrency(),
              perfbench::HostCpuModel().c_str(), PERFBENCH_BUILD_TYPE,
              commit.c_str());
  if (!config.trace) {
    std::printf("# times on the JSON line are at the reference speed: "
                "measured x %.2f ms / median probe time\n",
                perfbench::kReferenceProbeMs);
  }
  for (const auto& [key, value] : out.stamp) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("  %-40s %14.4f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const perfbench::Metric& m : out.printed_only) {
    std::printf("  %-40s %14.4f %-6s n=%zu (not in the JSON line)\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  }
  std::printf("# ops attempted=%lld failed=%lld\n",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  const size_t shown = std::min<size_t>(out.problems.size(), 20);
  for (size_t i = 0; i < shown; ++i) {
    std::printf("# CHECK FAILED: %s\n", out.problems[i].c_str());
  }
  if (out.problems.size() > shown) {
    std::printf("# ... %zu more check failures\n", out.problems.size() - shown);
  }
  for (const std::string& why : out.invalid) {
    std::printf("# INVALID RUN: %s\n", why.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Each workload at tiny size must pass every check, and fail with the
/// planted bug switched on (the run resets the flag when it ends).
int SelfTest(const std::string& out_dir) {
  bool ok = true;
  for (const char* workload : kWorkloads) {
    RunConfig config;
    config.workload = workload;
    config.seed = 1;
    config.seconds = 0.6;
    config.tiny = true;
    config.out_dir = out_dir;
    Outcome clean = Run(config);
    config.inject = perfbench::IsServerWorkload(workload)
                        ? "server-publish-stale"
                        : "seminaive-skip-delta";
    Outcome planted = Run(config);
    const bool clean_ok = clean.failed == 0;
    const bool caught = planted.failed > 0;
    std::printf("selftest %-14s clean: %lld ops, %lld failed (%s); "
                "with %s: %lld ops, %lld failed (%s)\n",
                workload, static_cast<long long>(clean.attempted),
                static_cast<long long>(clean.failed),
                clean_ok ? "ok" : "FAIL", config.inject.c_str(),
                static_cast<long long>(planted.attempted),
                static_cast<long long>(planted.failed),
                caught ? "caught" : "MISSED");
    for (const std::string& p : clean.problems) {
      std::printf("    clean run problem: %s\n", p.c_str());
    }
    ok = ok && clean_ok && caught;
  }
  std::printf("selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> [--commit <id>] "
               "[--tiny] [--inject <bug>]\n       perfbench --selftest "
               "--out-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--out-dir") {
      config.out_dir = value();
    } else if (arg == "--commit") {
      commit = value();
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--inject") {
      config.inject = value();
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.out_dir.empty()) return Usage("--out-dir is required");
  if (selftest) return SelfTest(config.out_dir);
  if (!KnownWorkload(config.workload)) return Usage("unknown --workload");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");
  if (!config.inject.empty() && config.inject != "server-publish-stale" &&
      config.inject != "seminaive-skip-delta") {
    return Usage("unknown --inject");
  }

  Outcome out = Run(config);
  Canonicalize(config.trace, &out);
  Print(config, commit, out);
  return out.correct() ? 0 : 1;
}
