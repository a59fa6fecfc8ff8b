#include "base/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/trace.h"

namespace datalog {

std::vector<WorkerActivity> ParallelChunks(
    int workers, size_t num_chunks, const std::function<void(size_t)>& body) {
  using Clock = std::chrono::steady_clock;
  std::vector<WorkerActivity> activity(
      static_cast<size_t>(std::max(1, workers)));
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // the first exception, guarded by error_mu
  // Keeps the first exception and hands out no further chunk.
  auto fail = [&] {
    std::lock_guard<std::mutex> lock(error_mu);
    if (!error) error = std::current_exception();
    next.store(num_chunks);
  };
  auto work = [&](int worker) {
    const auto start = Clock::now();
    int64_t chunks = 0;
    try {
      for (size_t chunk; (chunk = next.fetch_add(1)) < num_chunks;) {
        OBS_SPAN("pool.chunk", {{"worker", worker}});
        body(chunk);
        ++chunks;
      }
    } catch (...) {
      fail();
    }
    activity[static_cast<size_t>(worker)] = WorkerActivity{
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count(),
        chunks};
  };
  std::vector<std::thread> threads;
  try {
    for (int w = 1; w < static_cast<int>(activity.size()); ++w) {
      threads.emplace_back(work, w);
    }
  } catch (...) {
    fail();  // the threads already started stop after their current chunk
  }
  work(0);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  return activity;
}

}  // namespace datalog
