// Fixed-size worker pool with a BOUNDED work queue — the execution engine
// behind Session::access_parallel, the receiver's C2 KeyGen and leaf
// pairings (run_all) and the concurrent load harness.
//
// The queue bound is the back-pressure mechanism a serving front-end needs:
// when all workers are busy and the queue is full, `submit` blocks the
// producer instead of letting the backlog (and its memory) grow without
// limit. A production ingress would shed load at this point; the simulation
// prefers blocking so batches always complete.
//
// Lifecycle: workers start in the constructor; `shutdown()` (idempotent,
// called by the destructor) drains everything already submitted and joins
// them. Concurrent shutdown() calls all block until the join completes —
// "shutdown returned" always means "no worker is running". A `submit` racing
// or following shutdown throws std::runtime_error — a serving front-end must
// hear about dropped work, not lose it silently.
//
// All queue/lifecycle state is guarded by one sp::Mutex and annotated for
// Clang's thread-safety analysis; condition waits are explicit while-loops on
// sp::CondVar so the analysis sees the capability held across the re-test.
//
// Observability: every pool reports into the process-wide MetricsRegistry —
// queue-depth / in-flight / worker-count gauges, task + rejection counters
// and a task-latency histogram (docs/OBSERVABILITY.md catalog). The
// `queue_depth()` / `in_flight()` / `num_threads()` accessors expose the
// same numbers for direct harness assertions.
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
  /// Spawns `num_threads` workers (>= 1 enforced). `queue_capacity` bounds
  /// the number of tasks waiting for a worker (>= 1 enforced).
  explicit ThreadPool(std::size_t num_threads, std::size_t queue_capacity = 64);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; blocks while the queue is at capacity. Tasks must not
  /// throw — wrap fallible work and capture its std::exception_ptr. Throws
  /// std::runtime_error if the pool is shutting down (including a submitter
  /// woken from a full-queue wait by shutdown) — never drops work silently.
  void submit(std::function<void()> task) SP_EXCLUDES(mutex_);

  /// Blocks until every submitted task has finished executing.
  void wait_idle() SP_EXCLUDES(mutex_);

  /// Fork-join: runs every job exactly once and returns when all have
  /// finished. The calling thread claims and runs jobs itself while at most
  /// num_threads() pool tasks help. Helpers no worker has picked up by the
  /// time the caller runs out of jobs are withdrawn, and the call waits for
  /// the ones still running, so once it returns nothing of the call runs or
  /// reads `jobs` (and a helper's pool.task span ends inside the caller's
  /// trace). Never blocks on the queue bound, so a worker may call it: the
  /// caller can finish every job alone. A throwing job does not stop the
  /// others; the exception of the lowest-index job that threw is rethrown,
  /// whatever order the jobs finished in. Shaped as ec::Pairing::Runner.
  void run_all(std::span<const std::function<void()>> jobs) SP_EXCLUDES(mutex_);

  /// Drains submitted tasks, joins the workers, rejects future submits.
  /// Idempotent and safe to race: every caller (including the destructor)
  /// blocks until the workers are actually joined.
  void shutdown() SP_EXCLUDES(mutex_);

  // ---- introspection (each takes the pool mutex; monitoring-path) ----
  /// Tasks waiting for a worker.
  [[nodiscard]] std::size_t queue_depth() const SP_EXCLUDES(mutex_);
  /// Tasks currently executing on a worker.
  [[nodiscard]] std::size_t in_flight() const SP_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t num_threads() const { return num_threads_; }
  [[nodiscard]] std::size_t thread_count() const { return num_threads_; }

 private:
  /// One run_all call's state, on the caller's stack (defined in the .cpp).
  struct Fork;

  /// A queued task plus the submitter's trace context: the async-propagation
  /// hop. Workers re-install the context (and record queue wait + execution
  /// spans in the originating trace) before running the function, so code
  /// inside the task reaches its request's trace via Tracer::current().
  struct QueuedTask {
    std::function<void()> fn;
    obs::TraceContext ctx;
    std::uint64_t enqueue_ns = 0;  ///< only stamped when ctx is sampled
    Fork* fork = nullptr;          ///< set on run_all helpers
  };

  void worker_loop() SP_EXCLUDES(mutex_);
  /// Claims and runs `fork`'s jobs until none is left unclaimed.
  void drain(Fork& fork) SP_EXCLUDES(mutex_);

  mutable sp::Mutex mutex_;
  sp::CondVar queue_has_space_;  ///< signaled when a task is popped
  sp::CondVar queue_has_work_;   ///< signaled when a task is pushed
  sp::CondVar all_done_;         ///< signaled when pending_ hits 0
  sp::CondVar join_done_cv_;     ///< signaled once the workers are joined
  sp::CondVar helper_done_;      ///< signaled when a run_all helper finishes
  std::deque<QueuedTask> queue_ SP_GUARDED_BY(mutex_);
  std::size_t queue_capacity_;  ///< immutable after construction
  std::size_t pending_ SP_GUARDED_BY(mutex_) = 0;  ///< queued + executing
  bool stopping_ SP_GUARDED_BY(mutex_) = false;
  bool join_started_ SP_GUARDED_BY(mutex_) = false;  ///< a shutdown() owns the join
  bool join_done_ SP_GUARDED_BY(mutex_) = false;     ///< that join has completed
  std::size_t num_threads_ = 0;  ///< immutable after construction
  std::vector<std::thread> workers_ SP_GUARDED_BY(mutex_);
};

}  // namespace sp::core
