#ifndef UNCHAINED_BASE_PARALLEL_H_
#define UNCHAINED_BASE_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace datalog {

/// What one worker of a ParallelChunks call did.
struct WorkerActivity {
  /// Wall-clock from the worker's start to its last chunk's end.
  double busy_ms = 0;
  /// Chunks the worker ran.
  int64_t chunks = 0;
};

/// Runs `body(chunk)` once for every chunk id in [0, num_chunks) on
/// `workers` threads: the calling thread plus `workers - 1` spawned for
/// this call and joined before it returns. Each worker takes the next
/// chunk id from one shared counter until none is left, so which worker
/// runs which chunk is nondeterministic; callers stage per-chunk results
/// and fold them in chunk order. With one worker (or `workers` <= 1) the
/// chunks run in order on the calling thread and no thread is spawned.
/// Returns each worker's activity, index 0 = the calling thread. If a
/// body throws (or a thread cannot be started), no further chunk starts,
/// and the first exception is rethrown once every thread is joined.
std::vector<WorkerActivity> ParallelChunks(
    int workers, size_t num_chunks, const std::function<void(size_t)>& body);

}  // namespace datalog

#endif  // UNCHAINED_BASE_PARALLEL_H_
