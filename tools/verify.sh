#!/usr/bin/env bash
# Repo verification driver: tier-1 build + ctest, the env-variant ctest
# jobs (.recovery/.session/.simd-off/.trace), the perfbench helper unit
# tests, the perfbench gate (every BENCHMARK.json workload must run to a
# correct, legal result), an AddressSanitizer job over the
# solver/legalizer/session suites (the workspace arena hands slot
# references to parallel workers — ASan is what would catch a stale one), a
# UBSan job over the SIMD kernel suites, and a ThreadSanitizer job
# over the job scheduler (concurrent submitters, ticket retirement, the
# sleep/wake Dekker protocol — TSan is what would catch a misordered wake
# or a job freed under a late ticket holder).
#
#   tools/verify.sh            # full: Release + ctest + ASan + UBSan + TSan
#   tools/verify.sh --fast     # skip the sanitizer jobs
#   tools/verify.sh --bigmem   # additionally run the 1M-cell memory smoke
#
# Build trees: ./build (default config), ./build-asan (MCH_ENABLE_ASAN),
# ./build-ubsan (MCH_ENABLE_UBSAN) and ./build-tsan (MCH_ENABLE_TSAN), all
# RelWithDebInfo sanitizer trees. All are incremental across runs.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
BIGMEM=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --bigmem) BIGMEM=1 ;;
    *) echo "usage: tools/verify.sh [--fast] [--bigmem]" >&2; exit 2 ;;
  esac
done

echo "== tier-1: configure + build (Release default) =="
cmake -B build -S . >/dev/null
cmake --build build -j4

echo "== tier-1: ctest =="
(cd build && ctest -j2 --output-on-failure)

echo "== recovery: fault-injected legal/lcp suites =="
# The .recovery ctest variant runs with MCH_FORCE_SOLVER_FAILURE=1, so
# every legalization solve exercises the escalation ladder and must still
# meet its contracts; the plain legality/recovery regression suites ride
# along for the checker fixes, and the finisher suite for the escalated
# rungs it finishes and the small components it holds to the Lemke/PSOR
# oracles.
(cd build && ctest -j2 --output-on-failure \
  -R '\.recovery$|RecoveryLadderTest|DegenerateDesignTest|LegalityTest|MmsimFinisherTest')

echo "== session: resident-service suites =="
# The .session ctest variant runs the eval/integration suites with
# MCH_SESSION=1, serving every MMSIM legalization through a resident
# service::LegalizationSession; the SessionTest suite covers the
# incremental ECO path and the match-mode bitwise contract directly.
(cd build && ctest -j2 --output-on-failure \
  -R '\.session$|SessionTest')

echo "== simd-off: scalar-reference kernel suites =="
# The .simd-off ctest variant runs the kernel/solver suites with MCH_SIMD=0
# so the scalar fallback — the bitwise reference the AVX kernels are
# contracted against — stays exercised on hardware that would otherwise
# always dispatch the vector paths; the Simd* suites run the cross-level
# bitwise-identity assertions directly.
(cd build && ctest -j2 --output-on-failure \
  -R '\.simd-off$|SimdDispatchTest|SimdCsrTest|SimdBlockDiagTest|MmsimSimdTest')

echo "== trace: observability-enabled suites =="
# The .trace ctest variant re-runs the eval/service/integration suites with
# MCH_TRACE=1 and MCH_METRICS=1 — spans recording into every thread's ring
# and the metrics registry armed, no artifacts written. Tracing is
# contracted to be a pure observer (tests/obs/identity_test.cpp holds the
# bitwise line), so every assertion in those suites must still pass; the
# obs unit suites ride along.
(cd build && ctest -j2 --output-on-failure \
  -R '\.trace$|TraceTest|MetricsTest|ObsIdentityTest')

echo "== perfbench: statistics helper unit tests =="
# The repo benchmark's percentile/tail/name-grammar helpers
# (perfbench/benchstats.py) decide what a result file reports; their unit
# tests are stdlib-only and need no build.
python3 -m unittest discover -s perfbench/tests

echo "== perfbench: every workload, short run =="
# A short run of each repo-benchmark workload (perfbench/README.md). run.py
# builds the library through perfbench's standalone CMake project, audits
# every result with the full legality checker, checks cold_fft1's
# step-by-step flow against a one-shot legal::legalize, and exits non-zero
# on an illegal or mismatched result, a failed ECO audit, a build failure or
# a timeout. Exit 3 means the host has fewer cores than the workload's
# threads need (4): that is reported as a SKIP, never as a pass.
PERF_SKIPPED=()
for workload in cold_fft1 eco_50k multi_small; do
  rc=0
  report="$(python3 perfbench/run.py --workload "$workload" --seed 1 \
    --seconds 2)" || rc=$?
  case "$rc" in
    0) echo "perfbench $workload: OK" ;;
    3) echo "perfbench $workload: SKIP (needs 4 cores, host has $(nproc))"
       PERF_SKIPPED+=("$workload") ;;
    *) echo "$report"
       echo "perfbench $workload: FAIL (run.py exit $rc)" >&2
       exit 1 ;;
  esac
done

if [[ "$FAST" == 0 ]]; then
  echo "== tsan: build scheduler/service suites =="
  # The scheduler's whole job is cross-thread: the shared ticket queue,
  # the combined remaining-counter retirement, the epoch/sleepers Dekker
  # handshake. TSan over the scheduler suite (which includes the
  # concurrent-submission regression for the old pool's abort) and the
  # concurrent-client and nested fan-out determinism tests is the check
  # that those protocols are data-race-free, not merely lucky.
  cmake -B build-tsan -S . -DMCH_ENABLE_TSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  TSAN_TARGETS=(runtime_scheduler_test service_scheduler_determinism_test)
  for t in "${TSAN_TARGETS[@]}"; do
    cmake --build build-tsan -j4 --target "$t"
  done

  echo "== tsan: run (4-thread pool) =="
  sched_bin="$(find build-tsan/tests -name runtime_scheduler_test -type f | head -1)"
  MCH_THREADS=4 "$sched_bin" --gtest_brief=1
  det_bin="$(find build-tsan/tests -name service_scheduler_determinism_test -type f | head -1)"
  # The concurrent-clients and nested fan-out cases only (match and
  # tiered) — the thread-count sweep already runs in the tier-1 and MT4
  # ctest jobs, and TSan's value here is distinct sessions overlapping on
  # shared workers, with or without a pool-level loop around them.
  MCH_THREADS=4 "$det_bin" --gtest_brief=1 \
    --gtest_filter='*ConcurrentClientsBitwiseStable*:*NestedFanOutBitwiseStable*'

  echo "== asan: build solver/legalizer suites =="
  cmake -B build-asan -S . -DMCH_ENABLE_ASAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  ASAN_TARGETS=(
    lcp_mmsim_test lcp_mmsim_fused_test lcp_solver_test lcp_psor_test
    lcp_mmsim_finisher_test legal_mmsim_legalizer_test legal_partition_test
    legal_model_stream_test service_session_test linalg_csr_test
  )
  for t in "${ASAN_TARGETS[@]}"; do
    cmake --build build-asan -j4 --target "$t"
  done

  echo "== asan: run (serial and 4-thread pool) =="
  for t in "${ASAN_TARGETS[@]}"; do
    bin="$(find build-asan/tests -name "$t" -type f | head -1)"
    "$bin" --gtest_brief=1
    MCH_THREADS=4 "$bin" --gtest_brief=1
  done

  echo "== ubsan: build SIMD kernel suites =="
  # The vector kernels are the one place the codebase hand-rolls pointer
  # arithmetic over SoA gather tables and reinterprets masks — UBSan over
  # the kernel suites (at every dispatch level) is what would catch a
  # misaligned load or out-of-lane index.
  cmake -B build-ubsan -S . -DMCH_ENABLE_UBSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  UBSAN_TARGETS=(
    linalg_simd_test linalg_csr_test lcp_mmsim_simd_test
    lcp_mmsim_fused_test
  )
  for t in "${UBSAN_TARGETS[@]}"; do
    cmake --build build-ubsan -j4 --target "$t"
  done

  echo "== ubsan: run (native SIMD, forced-scalar) =="
  for t in "${UBSAN_TARGETS[@]}"; do
    bin="$(find build-ubsan/tests -name "$t" -type f | head -1)"
    "$bin" --gtest_brief=1
    MCH_SIMD=0 "$bin" --gtest_brief=1
  done
fi

if [[ "$BIGMEM" == 1 ]]; then
  echo "== bigmem: 1M-cell legalization under an address-space cap =="
  # Opt-in (several minutes of solve time): legalize the 1M-cell baseline
  # scale design end to end (streamed model build, tiered solve) inside a
  # ulimit -v cap. The streamed spine peaks near 0.5 GB at 1M cells, so a
  # 1 GiB address-space cap gives it 2x headroom while a regression that
  # reintroduces a COO staging copy or an extract-everything high-water
  # mark aborts on allocation instead of silently fitting. Requires the
  # Release bench build from the tier-1 step above.
  cmake --build build -j4 --target scaling_memory
  (
    ulimit -v $((1024 * 1024))  # 1 GiB of address space
    build/bench/scaling_memory --point baseline 1000000
  )
fi

if ((${#PERF_SKIPPED[@]})); then
  echo "verify: SKIP perfbench (${PERF_SKIPPED[*]}); all other checks passed"
else
  echo "verify: OK"
fi
