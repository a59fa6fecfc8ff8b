#include "common.h"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <unordered_map>

namespace perfbench {

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

bool Samples::TailOk(double q) const {
  const double beyond =
      static_cast<double>(values_.size()) -
      std::ceil(q * static_cast<double>(values_.size()));
  return beyond >= 10;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void Outcome::Fail(const std::string& why, int64_t ops) {
  failed += ops;
  problems.push_back(why);
}

void AddLatency(Outcome* out, const std::string& prefix, const Samples& s) {
  out->Add(prefix + "_p50_ms", s.Quantile(0.50), "ms", s.size());
  out->Add(prefix + "_p99_ms", s.Quantile(0.99), "ms", s.size());
  if (!s.TailOk(0.99)) {
    out->Invalid(prefix + "_p99_ms has fewer than ten samples beyond it (" +
                 std::to_string(s.size()) + " samples)");
  }
}

namespace {

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

double ProbeMs() {
  // Read through atomics, so the compiler can neither fold the work from
  // a constant input nor drop it as unused.
  static std::atomic<uint64_t> seed{88172645463325252ULL};
  static std::atomic<uint64_t> sink{0};
  const double t0 = ThreadCpuMs();
  uint64_t x = seed.load(std::memory_order_relaxed);
  std::unordered_map<uint64_t, uint64_t> table;
  std::vector<uint64_t> keys;
  keys.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 0xffff] += x;
    keys.push_back(x);
  }
  std::sort(keys.begin(), keys.end());
  uint64_t sum = 0;
  for (uint64_t k : keys) {
    auto it = table.find(k & 0xffff);
    if (it != table.end()) sum += it->second;
  }
  sink += sum;
  return ThreadCpuMs() - t0;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

bool PinThisThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

int64_t CurrentRssKb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0;
  long long resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

void TrimHeap() { malloc_trim(0); }

void RssSampler::Start(const std::atomic<int64_t>* ops, int64_t limit) {
  peak_kb_ = CurrentRssKb();
  running_ = true;
  thread_ = std::thread([this, ops, limit] {
    for (bool last = false; !last;) {
      last = !running_.load() || ops->load() >= limit;
      const int64_t kb = CurrentRssKb();
      int64_t peak = peak_kb_.load();
      while (kb > peak && !peak_kb_.compare_exchange_weak(peak, kb)) {
      }
      if (!last) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

void RssSampler::Stop() {
  running_ = false;
  if (thread_.joinable()) thread_.join();
}

int64_t SpanRecorder::Record(const char* name, int64_t op, int64_t parent,
                             Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, op, parent, start, end, 0});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::Merge(SpanRecorder* other, int tid) {
  const int64_t offset = static_cast<int64_t>(spans_.size());
  for (Span span : other->spans_) {
    if (span.parent >= 0) span.parent += offset;
    span.tid = tid;
    spans_.push_back(span);
  }
  other->spans_.clear();
}

bool SpanRecorder::WriteJson(const std::string& path,
                             Clock::time_point origin) const {
  std::ofstream out(path);
  if (!out) return false;
  const size_t n = std::min(spans_.size(), kMaxWrittenSpans);
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                  "\"op\": %lld, \"parent\": %lld}}",
                  s.name, s.tid, MsBetween(origin, s.start) * 1000.0,
                  MsBetween(s.start, s.end) * 1000.0, i,
                  static_cast<long long>(s.op),
                  static_cast<long long>(s.parent));
    out << buf << (i + 1 < n ? ",\n" : "\n");
  }
  out << "], \"droppedSpans\": " << spans_.size() - n << "}\n";
  return static_cast<bool>(out);
}

uint64_t Hash64(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string HostCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace perfbench
