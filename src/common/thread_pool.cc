#include "common/thread_pool.h"

#include <algorithm>
#include <memory>

namespace ecrs {
namespace {

// Shared drain state of one parallel_for call. Kept alive by shared_ptr so
// pool tasks that start after the caller already returned (e.g. when an
// exception cut the range short) find valid state and exit immediately.
struct drain_state {
  std::function<void(std::size_t)> fn;
  std::size_t n = 0;
  mutex m;
  condition_variable done;
  std::size_t next ECRS_GUARDED_BY(m) = 0;       // first unclaimed index
  std::size_t in_flight ECRS_GUARDED_BY(m) = 0;  // claimed but not finished
  std::exception_ptr err ECRS_GUARDED_BY(m);
};

void drain(const std::shared_ptr<drain_state>& s) {
  for (;;) {
    std::size_t index;
    {
      mutex_lock lock(s->m);
      if (s->next >= s->n) return;
      index = s->next++;
      ++s->in_flight;
    }
    try {
      s->fn(index);
    } catch (...) {
      mutex_lock lock(s->m);
      if (!s->err) s->err = std::current_exception();
      s->next = s->n;  // abandon the rest of the range
    }
    {
      mutex_lock lock(s->m);
      --s->in_flight;
      if (s->next >= s->n && s->in_flight == 0) s->done.notify_all();
    }
  }
}

}  // namespace

thread_pool::thread_pool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

thread_pool::~thread_pool() {
  {
    mutex_lock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void thread_pool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      mutex_lock lock(mutex_);
      while (!stopping_ && tasks_.empty()) work_ready_.wait(lock);
      if (tasks_.empty()) return;  // stopping, queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void thread_pool::parallel_for(std::size_t n,
                               const std::function<void(std::size_t)>& fn,
                               std::size_t max_workers) {
  if (n == 0) return;
  auto state = std::make_shared<drain_state>();
  state->fn = fn;
  state->n = n;

  // One helper per worker (capped by the range and by `max_workers`, which
  // counts the calling thread); the caller drains too, so n == 1 or a fully
  // busy pool never deadlocks.
  std::size_t helpers = n > 1 ? std::min(size(), n) : 0;
  if (max_workers > 0) helpers = std::min(helpers, max_workers - 1);
  {
    mutex_lock lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      tasks_.emplace_back([state] { drain(state); });
    }
  }
  if (helpers > 0) work_ready_.notify_all();

  drain(state);
  mutex_lock lock(state->m);
  while (!(state->next >= state->n && state->in_flight == 0)) {
    state->done.wait(lock);
  }
  if (state->err) std::rethrow_exception(state->err);
}

thread_pool& thread_pool::shared() {
  static thread_pool pool;
  return pool;
}

}  // namespace ecrs
