// Process-wide parallel runtime configuration.
//
// A single Runtime owns the worker thread pool shared by every parallel
// loop in the library (component solves, suite designs, client requests).
// The thread count is resolved, in order of precedence, from:
//
//   1. an explicit Runtime::configure(n) call (the --threads CLI flag in
//      the benches/tools ends up here, see runtime/options.h);
//   2. the MCH_THREADS environment variable;
//   3. std::thread::hardware_concurrency().
//
// A thread count of 1 keeps all work on the calling thread with no pool at
// all. Larger counts enable the pool, and by the determinism contract of
// runtime/parallel.h every result is bitwise-identical to the 1-thread run.
//
// configure() may be called repeatedly (the tests switch between 1 and N
// threads to compare results) but only from a single thread while no
// parallel work is in flight.
#pragma once

#include <memory>

#include "runtime/scheduler.h"

namespace mch::runtime {

class Runtime {
 public:
  /// The process-wide instance. First use resolves the thread count from
  /// MCH_THREADS / hardware concurrency and spins up the pool if needed.
  static Runtime& instance();

  /// Re-configures the global thread count; 0 means "auto" (MCH_THREADS,
  /// then hardware concurrency). Tears down and rebuilds the pool.
  static void configure(unsigned threads);

  /// Resolves a requested thread count the same way configure() does,
  /// without touching the global instance.
  static unsigned resolve_thread_count(unsigned requested);

  unsigned threads() const { return threads_; }

  /// The shared job scheduler, or nullptr when running single-threaded.
  Scheduler* scheduler() const { return scheduler_.get(); }

 private:
  explicit Runtime(unsigned threads);
  void reconfigure(unsigned threads);

  unsigned threads_ = 1;
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace mch::runtime
