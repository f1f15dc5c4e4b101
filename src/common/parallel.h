#ifndef INVARNETX_COMMON_PARALLEL_H_
#define INVARNETX_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace invarnetx {

// Resolves a worker-count request: a positive value is taken literally
// (capped at kMaxThreads); zero or negative means "one worker per hardware
// thread" (at least 1).
int EffectiveThreadCount(int requested);

// Upper bound on workers a single ParallelFor may use; a backstop against
// pathological configuration values, far above any real core count here.
inline constexpr int kMaxThreads = 256;

// The process-wide pool of worker threads, fed from one FIFO task queue.
// Most callers never touch it directly and go through ParallelFor below.
//
// The pool grows on demand (EnsureSize) and never shrinks; idle workers
// block on a condition variable and cost nothing. Tasks must not block on
// other tasks' completion - ParallelFor's caller-participates design keeps
// that property for the fan-outs in this codebase.
//
// Self-observability (all in obs::MetricsRegistry::Shared()):
//   counter   threadpool.tasks_executed    tasks run to completion
//   histogram threadpool.queue_wait        Submit -> dequeue latency (s)
//   histogram threadpool.task_seconds      task execution wall time (s)
//   gauge     threadpool.workers           current worker count
//   gauge     threadpool.busy_seconds.w<N> per-worker cumulative busy time
// The workers gauge is registered once per process even when several
// pipelines grow the shared pool concurrently (registration by name is
// idempotent), so exports never show duplicates.
class ThreadPool {
 public:
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const;

  // Enqueues one task for any idle worker.
  void Submit(std::function<void()> task);

  // Grows the worker set to at least `num_threads` (capped at kMaxThreads).
  void EnsureSize(int num_threads);

  // The pool shared by every ParallelFor call. Sized to the hardware
  // concurrency at first use; grows when a caller explicitly asks for more
  // workers. Intentionally leaked so worker threads never race static
  // destruction at exit.
  static ThreadPool& Shared();

 private:
  // Starts `num_threads` workers (<= 0: one per hardware thread).
  explicit ThreadPool(int num_threads);

  struct PendingTask {
    std::function<void()> fn;
    uint64_t enqueue_us = 0;
  };

  void WorkerLoop(int worker_index);
  void PublishSizeGauge(int size);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingTask> tasks_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

// Runs fn(i) for every i in [0, n), fanned out over `num_threads` workers
// of the shared pool (<= 0: hardware concurrency; 1: a plain serial loop in
// the caller, never touching the pool).
//
// Guarantees:
//  - The caller participates in the work, so completion never depends on
//    pool availability: nested ParallelFor calls cannot deadlock, and the
//    loop finishes even if every pool worker is busy elsewhere.
//  - Every index is executed exactly once, regardless of failures (no
//    early abort - index sets are small and per-index work is bounded).
//  - Deterministic error propagation: the Status of the lowest failing
//    index is returned, independent of worker scheduling. This matches the
//    serial loop's first-error-wins behaviour.
//
// fn must be safe to call concurrently for distinct indices and must only
// write state owned by its index (e.g. one slot of a preallocated vector);
// that discipline is what makes parallel output bit-identical to serial.
Status ParallelFor(size_t n, int num_threads,
                   const std::function<Status(size_t)>& fn);

// Per-thread scratch-state plumbing for ParallelFor bodies.
//
// Returns a reference to a lazily default-constructed instance of T owned
// by the calling thread. Because pool workers are long-lived (the shared
// pool never shrinks; see ThreadPool), an instance obtained inside a
// ParallelFor body survives the loop and is handed back to the same worker
// on every later fan-out - which is what lets reusable workspaces (e.g.
// mic::MicWorkspace in the invariant-mining fan-out) reach allocation-free
// steady state across association matrices instead of re-growing per task.
//
// The caller participating in ParallelFor gets its own instance, distinct
// from every worker's. T must be default-constructible; instances are
// destroyed at thread exit.
template <typename T>
T& ThreadLocalInstance() {
  thread_local T instance;
  return instance;
}

}  // namespace invarnetx

#endif  // INVARNETX_COMMON_PARALLEL_H_
