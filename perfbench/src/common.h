#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared machinery of the benchmark (README.md next to this directory):
// sample statistics, the run outcome and its metric list, the resident
// memory sampler, and the in-memory span recorder of the traced run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// What one invocation asked for (main.cc parses it from the command line).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test size: every workload shrunk to a fraction of a second.
  bool tiny = false;
  /// Planted bug to switch on for the run (self-test only): "" or
  /// "server-publish-stale" / "seminaive-skip-delta".
  std::string inject;
  /// Scratch directory for store directories and the trace file.
  std::string out_dir;
};

/// Latency samples in milliseconds (or any unit); quantiles by nearest rank.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Mean() const;
  double Sum() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  /// True when at least ten samples lie beyond quantile q — the rule for
  /// reporting a percentile at all.
  bool TailOk(double q) const;

 private:
  std::vector<double> values_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind the value (0 for counts and ratios of totals).
  size_t samples = 0;
};

/// Everything a workload run reports: ops, check failures, validity and
/// metrics. A failed check counts as a failed op and fails the run; an
/// invalid run (late generator, thin tail) is reported but not compared.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<std::string> invalid;
  std::vector<Metric> metrics;
  /// Metrics printed with the run but left out of its JSON line.
  std::vector<Metric> printed_only;
  /// Free-form `key=value` description of the run (sizes, clients, rates).
  std::vector<std::pair<std::string, std::string>> stamp;

  void Fail(const std::string& why, int64_t ops = 1);
  void Invalid(const std::string& why) { invalid.push_back(why); }
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
  void Stamp(const std::string& key, const std::string& value) {
    stamp.emplace_back(key, value);
  }
  bool correct() const { return failed == 0 && invalid.empty(); }
};

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Adds `<prefix>_p50_ms` and `<prefix>_p99_ms`, and marks the run invalid
/// when the samples cannot give a p99 with ten samples beyond it.
void AddLatency(Outcome* out, const std::string& prefix, const Samples& s);

/// Samples the process's resident set every few milliseconds from Start
/// until `*ops` reaches `limit` (or Stop comes first); reports the peak.
/// The op limit keeps the figure independent of throughput: the server
/// and the client keep a few hundred bytes per commit, so without it a
/// faster run would report more memory.
class RssSampler {
 public:
  RssSampler() = default;
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  ~RssSampler() { Stop(); }
  void Start(const std::atomic<int64_t>* ops, int64_t limit);
  void Stop();
  double peak_mb() const { return peak_kb_.load() / 1024.0; }

 private:
  std::atomic<bool> running_{false};
  std::atomic<int64_t> peak_kb_{0};
  std::thread thread_;
};

/// The host-speed probe: runs a fixed computation that depends on nothing
/// in the program (hashing, sorting and lookups over a constant
/// pseudo-random array) and returns the CPU time the calling thread spent
/// on it, in milliseconds. The host is shared, and how fast each of its
/// CPUs executes changes by tens of percent within seconds
/// (README.md#host-speed); timing the probe on the CPU that does the
/// workload's work, next to that work, measures the speed it ran at.
double ProbeMs();

/// The probe's time at the reference speed the JSON line's times are
/// given at. Any fixed value would do; this one is about the probe's
/// median on the 4-vCPU Intel Xeon guest the README's figures come from.
constexpr double kReferenceProbeMs = 0.6;

/// `value`, a time measured while the probe took `probe_ms`, scaled to
/// the reference speed.
inline double AtReferenceSpeed(double value, double probe_ms) {
  return probe_ms > 0 ? value * kReferenceProbeMs / probe_ms : 0;
}

/// The CPUs the calling thread may run on, ascending.
std::vector<int> AllowedCpus();
/// Restricts the calling thread, and the threads it creates from now on,
/// to `cpus`. False when the kernel refused.
bool PinThisThread(const std::vector<int>& cpus);

/// Current resident set in KiB (from /proc/self/statm).
int64_t CurrentRssKb();
/// Returns freed heap to the OS so the measured phase's peak RSS reflects
/// live data, not what earlier set-ups left in the allocator.
void TrimHeap();

/// One recorded span: a layer boundary crossed by one op. `parent` is the
/// index of the enclosing span in the same recorder, or -1.
struct Span {
  const char* name = "";
  int64_t op = 0;
  int64_t parent = -1;
  Clock::time_point start;
  Clock::time_point end;
  /// Recording thread (set when per-thread recorders are merged).
  int tid = 0;
};

/// Spans kept in memory per recording thread and written out at the end
/// of the traced run. Disabled recorders cost one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Records a finished span; returns its index (for children), or -1.
  int64_t Record(const char* name, int64_t op, int64_t parent,
                 Clock::time_point start, Clock::time_point end);
  /// Moves another recorder's spans in (per-thread recorders merge here).
  void Merge(SpanRecorder* other, int tid);
  size_t size() const { return spans_.size(); }
  /// Writes Chrome-trace JSON ("X" events, op id and parent in args): the
  /// first kMaxWrittenSpans spans, with the count of the rest.
  static constexpr size_t kMaxWrittenSpans = 50000;
  bool WriteJson(const std::string& path, Clock::time_point origin) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// 64-bit FNV-1a — read bodies are compared by hash after the run.
uint64_t Hash64(const std::string& bytes);

/// Host description for the stamp: CPU count and model.
std::string HostCpuModel();

/// Per-workload entry points (server_workloads.cc, paper_queries.cc).
Outcome RunServerWorkload(const RunConfig& config);
Outcome RunPaperQueries(const RunConfig& config);
bool IsServerWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
