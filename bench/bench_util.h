#ifndef UNCHAINED_BENCH_BENCH_UTIL_H_
#define UNCHAINED_BENCH_BENCH_UTIL_H_

// Shared helpers for the table/figure reproduction binaries: wall-clock
// timing, aligned row printing, and an optional `--json=<path>` emitter
// that dumps one JSON object per benchmark row (name, ms, and the
// EvalStats counters of the run). The perf-focused benches use
// google-benchmark instead; these harnesses print the paper-shaped rows.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "eval/common.h"
#include "obs/export.h"

namespace datalog {
namespace bench {

/// Observability toggles for the harness mains: constructing one of these
/// at the top of main() gives the binary `--trace=<path>` (Chrome trace
/// JSON of the whole run) and `--metrics` (registry dump on exit) for
/// free — see docs/observability.md. Alias so harnesses only need this
/// header.
using ObsArgs = obs::ObsArgs;

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void Rule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

inline void Header(const std::string& title) {
  // Line-buffer stdout so progress survives redirection + timeouts.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Rule('=');
  std::printf("%s\n", title.c_str());
  Rule('=');
}

/// Scans argv for `--json=<path>` and returns the path, or "" when the
/// flag is absent. Harness mains pass their raw (argc, argv).
inline std::string JsonPathFromArgs(int argc, char** argv) {
  const std::string flag = "--json=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(flag, 0) == 0) return arg.substr(flag.size());
  }
  return "";
}

/// Scans argv for `--threads=N[,N...]` and returns the parsed thread-count
/// sweep, empty when the flag is absent. 0 means "auto" (one worker per
/// hardware thread), matching EvalOptions::num_threads.
inline std::vector<int> ThreadsFromArgs(int argc, char** argv) {
  std::vector<int> out;
  const std::string flag = "--threads=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(flag, 0) != 0) continue;
    std::string list = arg.substr(flag.size());
    size_t pos = 0;
    while (pos <= list.size()) {
      size_t comma = list.find(',', pos);
      size_t end = comma == std::string::npos ? list.size() : comma;
      if (end > pos) {
        out.push_back(std::atoi(list.substr(pos, end - pos).c_str()));
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  return out;
}

/// Collects benchmark rows and writes them as a JSON array on Flush (or
/// destruction). Inactive when constructed with an empty path: Row() is
/// then a no-op, so call sites don't need to branch on the flag.
///
/// Each row is one object:
///   {"name": ..., "ms": ..., "rounds": ..., "facts": ...,
///    "instantiations": ..., "index": {hits, builds, rebuilds, appended},
///    "per_rule": [{"rule": i, "matches": ..., "tuples_produced": ...}]}
///
/// The threads-aware overload appends the requested thread count and
/// the (nondeterministic, telemetry-only) per-worker activity:
///   ..., "threads": N,
///   "per_worker": [{"worker": i, "busy_ms": ..., "chunks": ...}]
class JsonEmitter {
 public:
  explicit JsonEmitter(std::string path) : path_(std::move(path)) {}
  JsonEmitter(int argc, char** argv)
      : JsonEmitter(JsonPathFromArgs(argc, argv)) {}
  JsonEmitter(const JsonEmitter&) = delete;
  JsonEmitter& operator=(const JsonEmitter&) = delete;
  ~JsonEmitter() { Flush(); }

  bool active() const { return !path_.empty(); }

  void Row(const std::string& name, double ms, const EvalStats& stats) {
    if (!active()) return;
    rows_.push_back(BaseRow(name, ms, stats) + "}");
  }

  /// Threads-sweep row: records the requested thread count and the
  /// per-worker activity alongside the deterministic counters.
  void Row(const std::string& name, double ms, const EvalStats& stats,
           int threads) {
    if (!active()) return;
    std::string row = BaseRow(name, ms, stats) +
                      ", \"threads\": " + std::to_string(threads) +
                      ", \"per_worker\": [";
    for (size_t i = 0; i < stats.per_worker.size(); ++i) {
      if (i > 0) row += ", ";
      row += "{\"worker\": " + std::to_string(i) +
             ", \"busy_ms\": " + FormatMs(stats.per_worker[i].busy_ms) +
             ", \"chunks\": " + std::to_string(stats.per_worker[i].chunks) +
             "}";
    }
    row += "]}";
    rows_.push_back(std::move(row));
  }

  /// Writes the accumulated array; safe to call more than once (later
  /// calls rewrite the file with any rows added in between).
  void Flush() {
    if (!active() || rows_.empty()) return;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write --json file %s\n",
                   path_.c_str());
      return;
    }
    out << "[\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out << rows_[i] << (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  /// The shared prefix of every row object — everything but the optional
  /// threads fields — without the closing brace.
  static std::string BaseRow(const std::string& name, double ms,
                             const EvalStats& stats) {
    std::string row = "  {\"name\": \"" + Escape(name) +
                      "\", \"ms\": " + FormatMs(ms) +
                      ", \"rounds\": " + std::to_string(stats.rounds) +
                      ", \"facts\": " + std::to_string(stats.facts_derived) +
                      ", \"instantiations\": " +
                      std::to_string(stats.instantiations) +
                      ", \"index\": {\"hits\": " +
                      std::to_string(stats.index_hits) +
                      ", \"builds\": " + std::to_string(stats.index_builds) +
                      ", \"rebuilds\": " +
                      std::to_string(stats.index_rebuilds) +
                      ", \"appended\": " +
                      std::to_string(stats.index_appended) +
                      "}, \"per_rule\": [";
    for (size_t i = 0; i < stats.per_rule.size(); ++i) {
      if (i > 0) row += ", ";
      row += "{\"rule\": " + std::to_string(i) +
             ", \"matches\": " + std::to_string(stats.per_rule[i].matches) +
             ", \"tuples_produced\": " +
             std::to_string(stats.per_rule[i].tuples_produced) + "}";
    }
    row += "]";
    return row;
  }

  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  static std::string FormatMs(double ms) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", ms);
    return buf;
  }

  std::string path_;
  std::vector<std::string> rows_;
};

}  // namespace bench
}  // namespace datalog

#endif  // UNCHAINED_BENCH_BENCH_UTIL_H_
