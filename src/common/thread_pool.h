// Small reusable worker pool for embarrassingly parallel kernels.
//
// The pool owns its worker threads for its whole lifetime; `parallel_for`
// partitions an index range over the workers with a shared cursor, blocks
// until every index has been processed, and rethrows the first exception a
// worker hit (remaining indices are skipped). The calling thread drains
// indices too, so a `parallel_for` nested inside a worker still makes
// progress. Work items must write to disjoint output slots so the result is
// deterministic regardless of thread count or scheduling.
//
// `thread_pool::shared()` is a lazily constructed process-wide pool sized to
// the hardware concurrency; use it for short bursts (e.g. SSAM critical-value
// payments) instead of spawning threads per call.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace ecrs {

class thread_pool {
 public:
  // `threads == 0` sizes the pool to std::thread::hardware_concurrency()
  // (at least one worker either way).
  explicit thread_pool(std::size_t threads = 0);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  // Run `fn(i)` for every i in [0, n). Blocks until all indices completed.
  // Rethrows the first exception thrown by any `fn(i)`; later indices are
  // then abandoned (already-started ones still finish). `max_workers` caps
  // the total concurrency including the calling thread (0 = pool size + 1).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t max_workers = 0) ECRS_EXCLUDES(mutex_);

  // Process-wide pool, created on first use.
  static thread_pool& shared();

 private:
  void worker_loop() ECRS_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  mutex mutex_;
  condition_variable work_ready_;
  std::deque<std::function<void()>> tasks_ ECRS_GUARDED_BY(mutex_);
  bool stopping_ ECRS_GUARDED_BY(mutex_) = false;
};

}  // namespace ecrs
