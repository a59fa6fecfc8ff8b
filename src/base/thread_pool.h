#ifndef UNCHAINED_BASE_THREAD_POOL_H_
#define UNCHAINED_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace datalog {

/// A fixed pool of worker threads with a chunked, work-stealing
/// ParallelFor — the execution substrate of the stable-model candidate
/// fan-out (docs/execution.md, "Stable-model fan-out").
///
/// The iteration space [0, n) is cut into chunks of `chunk_size` items;
/// each worker starts with a contiguous span of chunk ids and pops from
/// its front, and a worker whose span runs dry steals single chunks from
/// the tail of the fullest remaining span. The calling thread always
/// participates as worker 0, so a pool of size 1 spawns no threads at
/// all. ParallelFor blocks until every chunk has run.
///
/// One job runs at a time per pool; ParallelFor re-entered from inside a
/// worker (nested parallelism) degrades safely to inline execution on
/// the calling worker.
class ThreadPool {
 public:
  /// Cumulative per-worker activity, reset by ResetStats. Only mutated
  /// while a ParallelFor is live on that worker, so reading between jobs
  /// is race-free.
  struct WorkerStats {
    /// Wall-clock spent inside ParallelFor participation (chunk bodies
    /// plus the steal scan, which is negligible).
    double busy_ms = 0;
    /// Chunks executed.
    int64_t chunks = 0;
    /// Chunks taken from another worker's span.
    int64_t steals = 0;
  };

  /// `num_workers` >= 1 total workers including the caller; spawns
  /// `num_workers - 1` background threads.
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return num_workers_; }

  /// `hardware_concurrency` with a floor of 1 (the value of
  /// EvalOptions::num_threads = 0).
  static int DefaultWorkers();

  /// Runs `body(begin, end, worker)` for every chunk [begin, end) of
  /// [0, n), partitioned into chunks of at most `chunk_size` items.
  /// Blocks until all chunks complete. The assignment of chunks to
  /// workers is nondeterministic (stealing); callers that need
  /// deterministic output must stage per-chunk results and merge in
  /// chunk order themselves.
  ///
  /// When `stop` is non-empty it is polled at every chunk boundary; once
  /// it returns true the remaining chunks are drained without running
  /// their bodies (cooperative cancellation — see EvalContext::StopProbe).
  /// ParallelFor still blocks until the drain completes, and the caller
  /// is responsible for noticing the interruption afterwards; skipped
  /// chunks leave their staged outputs empty, which is safe because an
  /// interrupted evaluation discards the round.
  void ParallelFor(size_t n, size_t chunk_size,
                   const std::function<void(size_t, size_t, int)>& body,
                   const std::function<bool()>& stop = {});

  /// Snapshot of the per-worker counters (index 0 = calling thread).
  /// Call only while no job is running.
  std::vector<WorkerStats> worker_stats() const { return stats_; }

  void ResetStats();

 private:
  /// {cursor, end} over chunk ids, packed into one atomic so owner pops
  /// (front) and thief pops (back) race-freely via CAS. Padded to a
  /// cache line against false sharing between neighbouring spans.
  struct alignas(64) Span {
    std::atomic<uint64_t> bounds{0};
  };
  struct Job {
    const std::function<void(size_t, size_t, int)>* body = nullptr;
    const std::function<bool()>* stop = nullptr;
    size_t n = 0;
    size_t chunk_size = 0;
    std::vector<Span> spans;
  };

  static uint64_t Pack(uint32_t cursor, uint32_t end) {
    return (static_cast<uint64_t>(cursor) << 32) | end;
  }

  void WorkerLoop(int worker);
  /// Participates in `job` as `worker` until no chunk remains anywhere.
  void RunWorker(Job* job, int worker);
  /// Pops the front chunk of `span`; false when empty.
  static bool PopOwn(Span* span, uint32_t* chunk);
  /// Steals the tail chunk of the fullest other span; false when all dry.
  static bool StealChunk(Job* job, int self, uint32_t* chunk);

  const int num_workers_;
  std::vector<std::thread> threads_;
  std::vector<WorkerStats> stats_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;
  uint64_t job_generation_ = 0;
  int workers_active_ = 0;
  bool shutdown_ = false;
};

}  // namespace datalog

#endif  // UNCHAINED_BASE_THREAD_POOL_H_
