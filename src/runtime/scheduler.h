// Cross-design job scheduler over one shared worker pool.
//
// The library parallelizes at one level: the independent units of work —
// the components of a legalization, the designs of a suite, concurrent
// client requests. Each top-level submission is a *job*: a fixed number of
// chunks drained through an atomic claim cursor. The job's *tickets* go on
// one FIFO injection queue; a ticket invites one worker to join the job and
// claim chunks until the cursor runs out. Any number of threads may submit
// jobs concurrently (the resident service's multi-client case); their
// chunks interleave on the same workers, and a queue of many designs drains
// fairly, oldest job first. The submitting thread always works on its own
// job, so a lone submitter still runs on thread_count() threads.
//
// Nesting: a run() issued from inside a chunk body — any pool's — executes
// all of its chunks inline on the calling thread, in chunk order, and adds
// them to the `sched.nested_inline` counter. The outer level already keeps
// every thread busy, so the inner construct gets no workers of its own.
// This is the only nesting rule; parallel_for inherits it.
//
// Determinism contract (see runtime/parallel.h): the chunk *layout* of
// every job is fixed by the caller and chunk bodies write disjoint state.
// Chunk *assignment* — which thread claims which chunk — only moves
// wall-clock time around; no observable result depends on it. A queue of
// legalization requests is therefore bitwise reproducible per request at
// any thread count (tests/service/scheduler_determinism_test.cpp).
//
// Exceptions thrown by chunk bodies are caught, the first is remembered on
// the job, the remaining chunks still run, and the stored exception is
// rethrown on the submitting thread once the job completes. An exception
// from an inline nested chunk propagates straight out of the nested run()
// into the enclosing chunk. The scheduler survives throwing jobs.
//
// Metrics: the `sched.jobs` and `sched.nested_inline` counters and the
// `sched.queue_depth` histogram (jobs in flight, observed at every
// top-level submission); workers carry `pool.worker.busy` spans. Worker
// trace/log identities are pool-scoped unique ("worker-<pool>.<index>",
// globally unique log ids), so processes holding several pools — the
// global Runtime's plus ad-hoc test pools — never alias worker names.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mch::runtime {

class Scheduler {
 public:
  /// Creates a scheduler that runs every job on up to `thread_count`
  /// threads: the submitting thread plus `thread_count - 1` workers.
  /// Requires >= 1. With several concurrent submitters the pool is shared:
  /// each job still completes on at most thread_count threads, but
  /// distinct jobs' chunks interleave on the same workers.
  explicit Scheduler(unsigned thread_count);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  /// Joins the workers. No job may be in flight (same contract as
  /// Runtime::configure: reconfiguration is quiescent-only).
  ~Scheduler();

  unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Pool-scoped unique id (process-wide counter), part of every worker's
  /// trace/log identity.
  unsigned pool_id() const { return pool_id_; }

  /// Runs task(c) for every c in [0, chunks) and blocks until every chunk
  /// has finished. Safe to call from any number of threads concurrently
  /// (each call is one job). Called from inside a chunk body it runs the
  /// chunks inline (see the nesting rule above). Rethrows the first
  /// exception thrown by any chunk, wherever it ran.
  void run(std::size_t chunks, const std::function<void(std::size_t)>& task);

 private:
  struct Job;

  void worker_main(unsigned index);
  /// Pops the oldest ticket off the injection queue.
  bool pop_ticket(Job*& job);
  /// Claims and executes chunks of `job` until its cursor is exhausted;
  /// returns how many chunks this thread executed.
  std::size_t drain(Job& job);
  void execute_chunk(Job& job, std::size_t chunk);
  /// Decrements the job's remaining count by `n`; the unique thread that
  /// zeroes it marks the job done and notifies the submitter.
  static void finish(Job& job, std::size_t n);
  void push_tickets(Job* job, std::size_t count);
  /// Removes every not-yet-claimed ticket of `job` after its cursor
  /// drained, so a completed job never leaves dangling tickets behind.
  void cancel_tickets(Job* job);
  void wake_workers();

  const unsigned pool_id_;
  std::vector<std::thread> workers_;

  /// Tickets of every job in flight, oldest job first.
  std::mutex injection_mutex_;
  std::deque<Job*> injection_;

  /// Sleep/wake protocol: pushes bump epoch_ and notify when sleepers
  /// exist; a worker re-checks the epoch under sleep_mutex_ before
  /// blocking, so a push between its failed scan and its wait cannot be
  /// lost (seq_cst Dekker pairing on epoch_/sleepers_).
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> sleepers_{0};
  bool shutdown_ = false;  ///< guarded by sleep_mutex_

  /// Jobs in flight, for sched.queue_depth.
  std::atomic<std::size_t> active_jobs_{0};
};

}  // namespace mch::runtime
