#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"

namespace invarnetx {
namespace {

// Stable handles into the shared registry; bound once so the per-task cost
// is a couple of relaxed atomic updates, not a map lookup.
struct PoolMetrics {
  obs::Counter& tasks_executed;
  obs::Histogram& queue_wait;
  obs::Histogram& task_seconds;

  static PoolMetrics& Get() {
    static PoolMetrics* metrics = new PoolMetrics{
        obs::MetricsRegistry::Shared().GetCounter("threadpool.tasks_executed"),
        obs::MetricsRegistry::Shared().GetHistogram("threadpool.queue_wait"),
        obs::MetricsRegistry::Shared().GetHistogram("threadpool.task_seconds"),
    };
    return *metrics;
  }
};

// Shared state of one ParallelFor invocation. Workers pull indices from the
// atomic counter; the caller blocks until every pulled index has finished.
// Held by shared_ptr so runner tasks that drain after the caller returned
// (they find the counter exhausted and exit immediately) touch live memory.
struct ForJob {
  size_t n = 0;
  const std::function<Status(size_t)>* fn = nullptr;
  std::atomic<size_t> next{0};

  std::mutex mu;
  std::condition_variable done_cv;
  size_t completed = 0;            // guarded by mu
  size_t error_index = SIZE_MAX;   // guarded by mu; lowest failing index
  Status error;                    // guarded by mu
};

// Drains the job's index counter from the calling thread. Runs in the
// caller and in every pool worker that picks up a runner task; whichever
// thread grabs an index executes it, so the split adapts to load.
void DrainJob(const std::shared_ptr<ForJob>& job) {
  for (;;) {
    const size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->n) return;
    Status status = (*job->fn)(i);
    std::lock_guard<std::mutex> lock(job->mu);
    if (!status.ok() && i < job->error_index) {
      job->error_index = i;
      job->error = std::move(status);
    }
    if (++job->completed == job->n) job->done_cv.notify_all();
  }
}

}  // namespace

int EffectiveThreadCount(int requested) {
  if (requested > 0) return std::min(requested, kMaxThreads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, kMaxThreads));
}

ThreadPool::ThreadPool(int num_threads) {
  EnsureSize(EffectiveThreadCount(num_threads));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(PendingTask{std::move(task), obs::UptimeMicros()});
  }
  cv_.notify_one();
}

void ThreadPool::PublishSizeGauge(int size) {
  // GetGauge is idempotent by name: pipelines racing to grow the shared
  // pool all update the one `threadpool.workers` gauge instead of
  // registering duplicates.
  obs::MetricsRegistry::Shared()
      .GetGauge("threadpool.workers")
      .Set(static_cast<double>(size));
}

void ThreadPool::EnsureSize(int num_threads) {
  const int target = std::min(num_threads, kMaxThreads);
  int new_size = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(workers_.size()) < target) {
      const int index = static_cast<int>(workers_.size());
      workers_.emplace_back([this, index] { WorkerLoop(index); });
    }
    new_size = static_cast<int>(workers_.size());
  }
  PublishSizeGauge(new_size);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void ThreadPool::WorkerLoop(int worker_index) {
  obs::Gauge& busy = obs::MetricsRegistry::Shared().GetGauge(
      "threadpool.busy_seconds.w" + std::to_string(worker_index));
  for (;;) {
    PendingTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    PoolMetrics& metrics = PoolMetrics::Get();
    const uint64_t start_us = obs::UptimeMicros();
    metrics.queue_wait.Record(
        static_cast<double>(start_us - task.enqueue_us) / 1e6);
    task.fn();
    const double seconds =
        static_cast<double>(obs::UptimeMicros() - start_us) / 1e6;
    metrics.task_seconds.Record(seconds);
    metrics.tasks_executed.Increment();
    busy.Add(seconds);
  }
}

Status ParallelFor(size_t n, int num_threads,
                   const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::Ok();
  const int workers = EffectiveThreadCount(num_threads);
  if (workers == 1 || n == 1) {
    // Serial reference path: identical visitation order and error policy.
    Status first_error = Status::Ok();
    for (size_t i = 0; i < n; ++i) {
      Status status = fn(i);
      if (!status.ok() && first_error.ok()) first_error = std::move(status);
    }
    return first_error;
  }

  auto job = std::make_shared<ForJob>();
  job->n = n;
  job->fn = &fn;

  // One runner per extra worker; the caller is the final worker. A runner
  // that fires after the job drained simply sees an exhausted counter.
  ThreadPool& pool = ThreadPool::Shared();
  pool.EnsureSize(workers - 1);
  const size_t extra = std::min<size_t>(static_cast<size_t>(workers) - 1, n);
  for (size_t t = 0; t < extra; ++t) {
    pool.Submit([job] { DrainJob(job); });
  }
  DrainJob(job);

  std::unique_lock<std::mutex> lock(job->mu);
  job->done_cv.wait(lock, [&job] { return job->completed == job->n; });
  if (job->error_index != SIZE_MAX) return job->error;
  return Status::Ok();
}

}  // namespace invarnetx
