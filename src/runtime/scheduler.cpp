#include "runtime/scheduler.h"

#include <algorithm>
#include <exception>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/log.h"

namespace mch::runtime {

namespace {

/// True while the calling thread executes a chunk body; run() consults it
/// for the nesting rule.
thread_local bool t_in_task = false;

/// Pool ids and log worker ids are process-wide counters so two pools in
/// one process (the global Runtime's plus ad-hoc test pools) never hand
/// out colliding worker identities.
std::atomic<unsigned> g_next_pool_id{0};
std::atomic<int> g_next_log_worker_id{1};

}  // namespace

/// One top-level submission. Stack-allocated in run(); the combined
/// `remaining` count (chunks + issued tickets) guarantees a unique zeroing
/// thread, which marks `done` under `mu` — so nobody can touch a Job after
/// the submitter's wait returns and the frame dies.
struct Scheduler::Job {
  const std::function<void(std::size_t)>* task = nullptr;
  std::size_t chunks = 0;
  /// Claim cursor: every executor (submitter, ticket holders) fetch_adds
  /// until it reads >= chunks. Assignment is dynamic; results don't
  /// depend on it (see the determinism contract in scheduler.h).
  std::atomic<std::size_t> cursor{0};
  /// chunks + issued tickets. Each finished chunk and each retired ticket
  /// (drained or cancelled) subtracts one; the thread that zeroes it is
  /// unique and completes the job. An executor's own outstanding ticket
  /// keeps the count positive while it runs, so its chunk-finishes can
  /// never free the job out from under it.
  std::atomic<std::size_t> remaining{0};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;             ///< guarded by mu
  std::exception_ptr error;      ///< guarded by mu; first chunk failure
};

Scheduler::Scheduler(unsigned thread_count)
    : pool_id_(g_next_pool_id.fetch_add(1, std::memory_order_relaxed)) {
  MCH_CHECK_MSG(thread_count >= 1, "scheduler needs at least one thread");
  const unsigned worker_count = thread_count - 1;
  workers_.reserve(worker_count);
  for (unsigned i = 0; i < worker_count; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    shutdown_ = true;
  }
  sleep_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Scheduler::execute_chunk(Job& job, std::size_t chunk) {
  t_in_task = true;
  try {
    (*job.task)(chunk);
  } catch (...) {
    std::lock_guard<std::mutex> lock(job.mu);
    if (!job.error) job.error = std::current_exception();
  }
  t_in_task = false;
}

void Scheduler::finish(Job& job, std::size_t n) {
  if (n == 0) return;
  // acq_rel chains every executor's writes into the zeroer, and the mutex
  // hands them on to the waiting submitter. Notify under the lock: the
  // submitter's frame owns the Job, so the cv must not be touched after
  // `done` becomes visible outside the critical section.
  if (job.remaining.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard<std::mutex> lock(job.mu);
    job.done = true;
    job.cv.notify_all();
  }
}

std::size_t Scheduler::drain(Job& job) {
  std::size_t executed = 0;
  for (;;) {
    const std::size_t chunk =
        job.cursor.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.chunks) break;
    execute_chunk(job, chunk);
    finish(job, 1);
    ++executed;
  }
  return executed;
}

void Scheduler::push_tickets(Job* job, std::size_t count) {
  {
    std::lock_guard<std::mutex> lock(injection_mutex_);
    injection_.insert(injection_.end(), count, job);
  }
  wake_workers();
}

void Scheduler::cancel_tickets(Job* job) {
  std::size_t removed = 0;
  {
    std::lock_guard<std::mutex> lock(injection_mutex_);
    const auto keep_end = std::remove(injection_.begin(), injection_.end(), job);
    removed = static_cast<std::size_t>(injection_.end() - keep_end);
    injection_.erase(keep_end, injection_.end());
  }
  finish(*job, removed);
}

void Scheduler::wake_workers() {
  // seq_cst Dekker pairing with the sleep path: either the sleeper's
  // epoch re-check (after raising sleepers_) sees this bump, or this
  // sleepers_ load sees the sleeper and takes the lock to notify. Taking
  // sleep_mutex_ before notifying closes the window between a sleeper's
  // failed predicate check and its atomic release-and-block.
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    sleep_cv_.notify_all();
  }
}

bool Scheduler::pop_ticket(Job*& job) {
  std::lock_guard<std::mutex> lock(injection_mutex_);
  if (injection_.empty()) return false;
  job = injection_.front();
  injection_.pop_front();
  return true;
}

void Scheduler::worker_main(unsigned index) {
  set_log_worker_id(g_next_log_worker_id.fetch_add(
      1, std::memory_order_relaxed));
  obs::set_trace_thread_name("worker-" + std::to_string(pool_id_) + "." +
                             std::to_string(index));
  for (;;) {
    const std::uint64_t epoch = epoch_.load(std::memory_order_seq_cst);
    Job* job = nullptr;
    if (pop_ticket(job)) {
      {
        // One busy span per ticket (not per chunk): bounded event volume
        // even when a job has thousands of fine-grained chunks.
        obs::TraceSpan busy("pool.worker.busy");
        busy.arg("chunks", drain(*job));
      }
      // Retire the ticket last; the Job may die the moment this lands.
      finish(*job, 1);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (shutdown_) return;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    sleep_cv_.wait(lock, [&] {
      return shutdown_ || epoch_.load(std::memory_order_seq_cst) != epoch;
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (shutdown_) return;
  }
}

void Scheduler::run(std::size_t chunks,
                    const std::function<void(std::size_t)>& task) {
  if (chunks == 0) return;

  if (t_in_task) {
    // The nesting rule: a construct issued from inside a chunk body runs
    // inline on its calling thread.
    static obs::Counter& nested_inline = obs::counter("sched.nested_inline");
    nested_inline.add(static_cast<std::uint64_t>(chunks));
    for (std::size_t c = 0; c < chunks; ++c) task(c);
    return;
  }

  Job job;
  job.task = &task;
  job.chunks = chunks;
  // One ticket per worker the job could use; the submitter participates
  // unticketed, so chunks-1 is the most company it can ever need.
  const std::size_t tickets =
      std::min<std::size_t>(chunks - 1, workers_.size());
  job.remaining.store(chunks + tickets, std::memory_order_relaxed);

  static obs::Counter& jobs = obs::counter("sched.jobs");
  jobs.add();
  static obs::Histogram& queue_depth = obs::histogram("sched.queue_depth");
  queue_depth.observe(static_cast<double>(
      active_jobs_.fetch_add(1, std::memory_order_relaxed) + 1));

  if (tickets > 0) push_tickets(&job, tickets);

  // The submitter is one of the job's threads: drain the cursor like any
  // ticket holder would.
  drain(job);

  // Every chunk is claimed; tickets no worker took yet are dead weight —
  // claw them back so the job completes without waiting on a busy pool.
  if (tickets > 0) cancel_tickets(&job);

  {
    std::unique_lock<std::mutex> lock(job.mu);
    job.cv.wait(lock, [&] { return job.done; });
  }
  active_jobs_.fetch_sub(1, std::memory_order_relaxed);
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace mch::runtime
