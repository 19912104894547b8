// Fixed-size worker pool behind one fork-join, `run_all`: the receiver's
// C2 KeyGen jobs and leaf Miller loops. The calling thread runs jobs itself
// while at most num_threads() queued helpers join in. Callers that serve
// many requests at once bring their own threads.
//
// Lifecycle: workers start in the constructor; the destructor stops and
// joins them. No run_all outlives its call, so the queue is empty by then.
//
// All queue state is guarded by one sp::Mutex and annotated for Clang's
// thread-safety analysis; condition waits are explicit while-loops on
// sp::CondVar so the analysis sees the capability held across the re-test.
//
// Observability: every pool reports into the process-wide MetricsRegistry —
// queue-depth / in-flight / worker-count gauges, a helper counter and a
// per-job latency histogram (docs/OBSERVABILITY.md catalog); each job is
// its own span in the caller's trace. The
// `queue_depth()` / `in_flight()` / `num_threads()` accessors expose the
// same numbers for direct test assertions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::core {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers. With none, run_all runs every job on
  /// the caller in index order.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Fork-join: runs every job exactly once and returns when all have
  /// finished. The calling thread claims and runs jobs itself while at most
  /// num_threads() queued helpers join in. Helpers no worker has popped by
  /// the time the caller runs out of jobs are withdrawn, and the call waits
  /// for the ones still running, so once it returns nothing of the call runs
  /// or reads `jobs` (and every job's pool.task span, traced under the
  /// caller's context on whichever thread ran it, has ended). A worker may
  /// call it: the caller can finish every job alone. A
  /// throwing job does not stop the others; the exception of the
  /// lowest-index job that threw is rethrown, whatever order the jobs
  /// finished in. Shaped as ec::Pairing::Runner.
  void run_all(std::span<const std::function<void()>> jobs) SP_EXCLUDES(mutex_);

  // ---- introspection (each takes the pool mutex; monitoring-path) ----
  /// Helpers waiting for a worker.
  [[nodiscard]] std::size_t queue_depth() const SP_EXCLUDES(mutex_);
  /// Helpers currently running on a worker.
  [[nodiscard]] std::size_t in_flight() const SP_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t num_threads() const { return workers_.size(); }

 private:
  /// One run_all call's state, on the caller's stack (defined in the .cpp).
  struct Fork;

  /// A queued run_all helper plus its caller's trace context: the worker
  /// records the queue wait in the caller's trace and re-installs the
  /// context before draining the fork, so the jobs reach their request's
  /// trace via Tracer::current().
  struct Helper {
    Fork* fork = nullptr;
    obs::TraceContext ctx;
    std::uint64_t enqueue_ns = 0;  ///< only stamped when ctx is sampled
  };

  void worker_loop() SP_EXCLUDES(mutex_);
  /// Claims and runs `fork`'s jobs until none is left unclaimed.
  void drain(Fork& fork) SP_EXCLUDES(mutex_);

  mutable sp::Mutex mutex_;
  sp::CondVar queue_has_work_;  ///< signaled when a helper is pushed, and on stop
  sp::CondVar helper_done_;     ///< signaled when a helper finishes
  std::deque<Helper> queue_ SP_GUARDED_BY(mutex_);
  std::size_t running_ SP_GUARDED_BY(mutex_) = 0;  ///< helpers popped and not finished
  bool stopping_ SP_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;  ///< touched only by the constructor and destructor
};

}  // namespace sp::core
