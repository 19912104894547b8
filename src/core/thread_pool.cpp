#include "core/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sp::core {

namespace {

/// Process-wide pool instruments, shared by every ThreadPool instance (each
/// Session owns one; gauges are additive across them). Registered once,
/// cached by reference.
struct PoolMetrics {
  obs::Gauge& queue_depth;
  obs::Gauge& in_flight;
  obs::Gauge& threads;
  obs::Counter& tasks;
  obs::Histogram& task_ms;

  static PoolMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static PoolMetrics m{
        reg.gauge("pool_queue_depth", "Tasks waiting for a worker"),
        reg.gauge("pool_in_flight", "Tasks currently executing on a worker"),
        reg.gauge("pool_threads", "Live worker threads across all pools"),
        reg.counter("pool_tasks_total", "Helpers run_all() queued for the workers"),
        reg.histogram("pool_task_ms", "Wall time of one run_all job"),
    };
    return m;
  }
};

/// One run_all job, on whichever thread claims it.
const obs::Phase kTask{"pool.task",
                       []() -> obs::Histogram& { return PoolMetrics::get().task_ms; }};

}  // namespace

struct ThreadPool::Fork {
  std::span<const std::function<void()>> jobs;
  std::atomic<std::size_t> next{0};  ///< next unclaimed job index
  // Guarded by the pool's mutex_ (a nested type cannot name it in an
  // annotation).
  std::size_t running = 0;  ///< helpers a worker has popped and not finished
  std::exception_ptr error;  ///< of the lowest-index job that threw
  std::size_t error_index = 0;
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  PoolMetrics::get().threads.add(static_cast<std::int64_t>(num_threads));
}

ThreadPool::~ThreadPool() {
  {
    const sp::MutexLock lock(mutex_);
    stopping_ = true;
  }
  queue_has_work_.notify_all();
  for (std::thread& w : workers_) w.join();
  PoolMetrics::get().threads.sub(static_cast<std::int64_t>(workers_.size()));
}

void ThreadPool::drain(Fork& fork) {
  // A helper's job effects reach the caller through mutex_ (its exit).
  for (std::size_t i = fork.next++; i < fork.jobs.size(); i = fork.next++) {
    // Every job is its own span under the run_all caller's context, and
    // whatever the job traces nests under it.
    const obs::Span task(kTask);
    try {
      const obs::ContextGuard guard(task.context());
      fork.jobs[i]();
    } catch (...) {
      const sp::MutexLock lock(mutex_);
      if (!fork.error || i < fork.error_index) {
        fork.error = std::current_exception();
        fork.error_index = i;
      }
    }
  }
}

void ThreadPool::run_all(std::span<const std::function<void()>> jobs) {
  if (jobs.empty()) return;
  PoolMetrics& metrics = PoolMetrics::get();
  Fork fork;
  fork.jobs = jobs;
  // The caller is one runner, so more than size-1 helpers could only idle.
  const std::size_t helpers = std::min(workers_.size(), jobs.size() - 1);
  if (helpers != 0) {
    Helper helper{&fork, obs::Tracer::current(), 0};
    if (helper.ctx.sampled()) helper.enqueue_ns = obs::Tracer::now_ns();
    {
      const sp::MutexLock lock(mutex_);
      queue_.insert(queue_.end(), helpers, helper);
    }
    metrics.tasks.inc(helpers);
    metrics.queue_depth.add(static_cast<std::int64_t>(helpers));
    for (std::size_t i = 0; i < helpers; ++i) queue_has_work_.notify_one();
  }
  drain(fork);
  // Every job is claimed. Withdraw the helpers no worker has popped, then
  // wait out the running ones: each finishes the job it claimed and exits.
  std::size_t withdrawn = 0;
  {
    sp::MutexLock lock(mutex_);
    if (helpers != 0) {
      withdrawn = std::erase_if(queue_, [&fork](const Helper& h) { return h.fork == &fork; });
    }
    while (fork.running != 0) helper_done_.wait(lock);
  }
  if (withdrawn != 0) metrics.queue_depth.sub(static_cast<std::int64_t>(withdrawn));
  if (fork.error) std::rethrow_exception(fork.error);
}

std::size_t ThreadPool::queue_depth() const {
  const sp::MutexLock lock(mutex_);
  return queue_.size();
}

std::size_t ThreadPool::in_flight() const {
  const sp::MutexLock lock(mutex_);
  return running_;
}

void ThreadPool::worker_loop() {
  PoolMetrics& metrics = PoolMetrics::get();
  for (;;) {
    Helper helper;
    {
      sp::MutexLock lock(mutex_);
      while (queue_.empty() && !stopping_) queue_has_work_.wait(lock);
      if (queue_.empty()) return;  // stopping, and no run_all is live
      helper = std::move(queue_.front());
      queue_.pop_front();
      ++helper.fork->running;
      ++running_;
    }
    metrics.queue_depth.sub(1);
    metrics.in_flight.add(1);
    // Queue wait (enqueue → pop) as its own span; then the caller's context
    // is this thread's, so the jobs' spans join the caller's trace.
    obs::Span(helper.ctx, "pool.wait", helper.enqueue_ns).end();
    {
      const obs::ContextGuard guard(helper.ctx);
      drain(*helper.fork);
    }
    metrics.in_flight.sub(1);
    {
      const sp::MutexLock lock(mutex_);
      --running_;
      // The last touch of the fork: its caller may return (and destroy it)
      // as soon as mutex_ is free.
      --helper.fork->running;
    }
    helper_done_.notify_all();
  }
}

}  // namespace sp::core
