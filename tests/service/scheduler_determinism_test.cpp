// Scheduler determinism across designs: the same queue of mixed-size
// match-mode requests must produce bitwise-identical positions per request
// at 1/4/16 threads, when the requests are submitted by concurrent clients
// sharing the worker pool, and when one pool-level parallel_for fans the
// requests out so each design's component loop nests (and runs inline).
// Tiered requests (the per-component production driver) carry the same
// schedule-independence against their own 1-thread answer.
// Cross-job interleaving may only move wall-clock time around — never
// results (the contract documented in runtime/scheduler.h).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "db/design.h"
#include "gen/generator.h"
#include "legal/flow.h"
#include "runtime/parallel.h"
#include "runtime/runtime.h"
#include "service/session.h"

namespace mch::service {
namespace {

/// Heterogeneous request mix: small components-heavy designs next to
/// larger ones, so jobs of very different lengths share the pool.
struct RequestSpec {
  std::size_t cells;
  std::uint64_t seed;
};
const std::vector<RequestSpec>& request_mix() {
  static const std::vector<RequestSpec> specs = {
      {400, 101}, {1600, 102}, {700, 103},
      {2400, 104}, {500, 105}, {1100, 106}};
  return specs;
}

db::Design make_design(const RequestSpec& spec) {
  gen::GeneratorOptions options;
  options.seed = spec.seed;
  return gen::generate_random_design(spec.cells - spec.cells / 10,
                                     spec.cells / 10, 0.7, options);
}

struct Positions {
  std::vector<double> x, y;
};

Positions snapshot(const db::Design& design) {
  Positions p;
  p.x.reserve(design.num_cells());
  p.y.reserve(design.num_cells());
  for (std::size_t c = 0; c < design.num_cells(); ++c) {
    p.x.push_back(design.cells()[c].x);
    p.y.push_back(design.cells()[c].y);
  }
  return p;
}

void expect_bitwise_equal(const Positions& got, const Positions& want,
                          const char* label, std::size_t request) {
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t c = 0; c < got.x.size(); ++c) {
    ASSERT_EQ(got.x[c], want.x[c])
        << label << ": request " << request << " cell " << c;
    ASSERT_EQ(got.y[c], want.y[c])
        << label << ": request " << request << " cell " << c;
  }
}

Positions serve_one(const RequestSpec& spec) {
  LegalizationSession session(make_design(spec));
  const SessionResult result = session.full_legalize(SolveMode::kMatch);
  EXPECT_TRUE(result.legal) << result.legality_summary;
  return snapshot(session.design());
}

/// The production path: a fresh session legalizing with the tiered
/// per-component driver (no warm-start history, so the answer depends on
/// the design alone).
Positions serve_one_tiered(const RequestSpec& spec) {
  SessionOptions options;
  options.flow.solver.partition = legal::PartitionMode::kTiered;
  LegalizationSession session(make_design(spec), options);
  const SessionResult result = session.full_legalize();
  EXPECT_TRUE(result.legal) << result.legality_summary;
  return snapshot(session.design());
}

/// Serves every request of the mix through one pool-level parallel_for, one
/// request per chunk: each design's legalize runs inside a chunk, so its
/// component loop is a nested construct and runs inline on that thread.
template <typename Serve>
std::vector<Positions> serve_fanned_out(Serve serve) {
  std::vector<Positions> got(request_mix().size());
  runtime::parallel_for(std::size_t{0}, got.size(), 1,
                        [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t r = lo; r < hi; ++r)
                            got[r] = serve(request_mix()[r]);
                        });
  return got;
}

/// Serves every request of the mix from `kClients` threads at once: client
/// c takes requests c, c+kClients, ..., so all clients overlap on the
/// shared workers.
template <typename Serve>
std::vector<Positions> serve_concurrently(Serve serve) {
  const std::size_t num = request_mix().size();
  std::vector<Positions> got(num);
  std::atomic<int> ready{0};
  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      for (std::size_t r = static_cast<std::size_t>(client); r < num;
           r += kClients)
        got[r] = serve(request_mix()[r]);
    });
  }
  for (std::thread& t : clients) t.join();
  return got;
}

class SchedulerDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The one-shot reference for every request, computed serially once per
    // process: the session's match-mode answer is contracted bitwise to
    // legal::legalize.
    static const std::vector<Positions> reference = [] {
      runtime::Runtime::configure(1);
      std::vector<Positions> snapshots;
      for (const RequestSpec& spec : request_mix()) {
        db::Design design = make_design(spec);
        legal::FlowOptions options;
        options.solver.partition = legal::PartitionMode::kMatch;
        const legal::FlowResult result = legal::legalize(design, options);
        EXPECT_TRUE(result.legal);
        snapshots.push_back(snapshot(design));
      }
      return snapshots;
    }();
    reference_ = reference;
  }

  void TearDown() override { runtime::Runtime::configure(1); }

  std::vector<Positions> reference_;
};

TEST_F(SchedulerDeterminismTest, QueueBitwiseStableAcrossThreadCounts) {
  for (const unsigned threads : {1u, 4u, 16u}) {
    runtime::Runtime::configure(threads);
    for (std::size_t r = 0; r < request_mix().size(); ++r) {
      const Positions got = serve_one(request_mix()[r]);
      expect_bitwise_equal(got, reference_[r], "threads", r);
    }
  }
}

// The multi-client case: several threads submit their requests at once, so
// component solves from different designs interleave on the shared workers
// (the exact situation the old pool aborted on). Every client must still
// get the serial reference answer, bitwise.
TEST_F(SchedulerDeterminismTest, ConcurrentClientsBitwiseStable) {
  runtime::Runtime::configure(4);
  const std::vector<Positions> got = serve_concurrently(serve_one);
  for (std::size_t r = 0; r < got.size(); ++r)
    expect_bitwise_equal(got[r], reference_[r], "concurrent", r);
}

TEST_F(SchedulerDeterminismTest, NestedFanOutBitwiseStable) {
  for (const unsigned threads : {1u, 4u, 16u}) {
    runtime::Runtime::configure(threads);
    const std::vector<Positions> got = serve_fanned_out(serve_one);
    for (std::size_t r = 0; r < got.size(); ++r)
      expect_bitwise_equal(got[r], reference_[r], "fan-out", r);
  }
}

/// The tiered reference: the same session path, served serially at one
/// thread, once per process.
const std::vector<Positions>& tiered_reference() {
  static const std::vector<Positions> reference = [] {
    runtime::Runtime::configure(1);
    std::vector<Positions> snapshots;
    for (const RequestSpec& spec : request_mix())
      snapshots.push_back(serve_one_tiered(spec));
    return snapshots;
  }();
  return reference;
}

TEST_F(SchedulerDeterminismTest, TieredQueueBitwiseStableAcrossThreadCounts) {
  const std::vector<Positions>& reference = tiered_reference();
  for (const unsigned threads : {4u, 16u}) {
    runtime::Runtime::configure(threads);
    for (std::size_t r = 0; r < request_mix().size(); ++r) {
      const Positions got = serve_one_tiered(request_mix()[r]);
      expect_bitwise_equal(got, reference[r], "tiered threads", r);
    }
  }
}

TEST_F(SchedulerDeterminismTest, TieredConcurrentClientsBitwiseStable) {
  const std::vector<Positions>& reference = tiered_reference();
  runtime::Runtime::configure(4);
  const std::vector<Positions> got = serve_concurrently(serve_one_tiered);
  for (std::size_t r = 0; r < got.size(); ++r)
    expect_bitwise_equal(got[r], reference[r], "tiered concurrent", r);
}

TEST_F(SchedulerDeterminismTest, TieredNestedFanOutBitwiseStable) {
  const std::vector<Positions>& reference = tiered_reference();
  for (const unsigned threads : {1u, 4u, 16u}) {
    runtime::Runtime::configure(threads);
    const std::vector<Positions> got = serve_fanned_out(serve_one_tiered);
    for (std::size_t r = 0; r < got.size(); ++r)
      expect_bitwise_equal(got[r], reference[r], "tiered fan-out", r);
  }
}

}  // namespace
}  // namespace mch::service
