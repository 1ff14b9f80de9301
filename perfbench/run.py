#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (library sources included)
into .bench_build/perfbench, refuses thread layouts the machine cannot run,
runs the measuring program, turns its raw samples into the metrics named in
BENCHMARK.json, writes a provenance-stamped result file under
.bench_build/perfbench-out/, and prints the result as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer metrics
(the traced run also writes the Chrome trace and metrics snapshot next to
the result file). Exit code 0 iff every result was legal and every check
passed. See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

ROOT = os.path.dirname(HERE)

# Workload -> (runtime threads, client threads). The runtime's pool has
# threads - 1 workers (the submitting client is the remaining thread), so a
# run occupies clients + threads - 1 OS threads.
WORKLOADS = {
    "cold_fft1": (4, 1),
    "eco_50k": (4, 1),
    "multi_small": (3, 2),
}

RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """The git sha when run inside a work tree; always a sha1 over the
    sources the benchmark builds, so checkouts without .git are traceable."""
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()


def build(build_dir, jobs):
    """Configures once, then (re)builds; compiler output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(jobs)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def derive_metrics(raw, failed, attempted):
    """Every metric value this run can give, by BENCHMARK.json name."""
    series, values, layers = raw["series"], raw["values"], raw["layers"]
    request_ms = series.get("request_ms") or [0.0]
    # A p90 needs >= 10 samples beyond it; smaller samples report their
    # highest supported percentile (the median below 40 samples).
    tail_q = min(90.0, benchstats.tail_percentile(len(request_ms)) or 50.0)
    tail_ms = benchstats.percentile(request_ms, tail_q)
    out = {
        "setup_s": benchstats.median(series["setup_s"]),
        "legalize_s": benchstats.median(series.get("legalize_s") or [0.0]),
        # Latency and throughput of the workload's request (a full legalize,
        # an ECO batch, or one queued design; see README.md).
        "eco_p50_ms": benchstats.median(request_ms),
        "eco_p90_ms": tail_ms,
        "design_p50_ms": benchstats.median(request_ms),
        "design_p90_ms": tail_ms,
        "designs_per_s": values.get("designs_per_s", 0.0),
        "disp_mean_sites": values.get("disp_mean_sites", 0.0),
        "dhpwl_pct": values.get("dhpwl_pct", 0.0),
        "legal_rate": 1.0 - failed / attempted if attempted else 0.0,
        "fail_rate": failed / attempted if attempted else 1.0,
        "peak_rss_mb": values.get("peak_rss_mb", 0.0),
    }
    if "traced_over_untraced" in values:
        out["trace.overhead_frac"] = values["traced_over_untraced"] - 1.0
    out.update(layers)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload not in WORKLOADS:
        fail("unknown workload %r (have: %s)"
             % (args.workload, ", ".join(sorted(WORKLOADS))))
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from "
             "a full checkout of the repository")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    threads, clients = WORKLOADS[args.workload]
    cores = nproc()
    if clients + threads - 1 > cores:
        fail("%s needs %d OS threads (%d clients + %d pool workers) but only "
             "%d cores are available" % (args.workload, clients + threads - 1,
                                         clients, threads - 1, cores), code=3)

    spec = load_spec()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    exe = build(os.path.join(target, "perfbench"), min(4, cores))
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads), "--clients", str(clients),
           "--out-dir", out_dir]
    # Library defaults only: no MCH_* knob from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MCH_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail("measurement exceeded %d s" % RUN_TIMEOUT_S, code=4)
    try:
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("measuring program exited %d without a report" % proc.returncode,
             code=4)

    attempted, failed = raw["attempted"], raw["failed"]
    if proc.returncode != 0 and failed == 0:
        failed = 1  # the program saw a failure it could not attribute
    available = derive_metrics(raw, failed, attempted)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        if name not in available:
            available[name] = 0.0  # layer not exercised by this workload
        metrics[name] = {"value": available[name], "unit": entry["unit"]}

    sha, tree = source_identity()
    provenance = {
        "nproc": cores,
        "single_core": cores == 1,
        "cpu_model": cpu_model(),
        "git_sha": sha,
        "source_sha1": tree,
        "build_type": raw["build_type"],
        "simd": raw["simd"],
        "runtime_threads": threads,
        "client_threads": clients,
    }
    timings = {name: benchstats.summarize(samples)
               for name, samples in raw["series"].items() if samples}
    correct = failed == 0
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance, "timings": timings,
        "errors": raw["errors"], "correct": correct,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, stem + ".result.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    print("# %s seed %d, %s, %d cores%s, %s, simd %s, %d runtime threads, "
          "%d clients, source %s" % (
              args.workload, args.seed, provenance["cpu_model"], cores,
              " (SINGLE-CORE CAPTURE)" if cores == 1 else "",
              provenance["build_type"], provenance["simd"], threads, clients,
              sha if sha != "unknown" else "sha1:" + tree[:12]))
    for name, summary in sorted(timings.items()):
        unit = "s" if name.endswith("_s") else "ms"
        print("#   %-12s %s" % (name, benchstats.format_summary(summary, unit)))
    for name, metric in metrics.items():
        print("%-44s %.6g %s" % (name, metric["value"], metric["unit"]))
    for error in raw["errors"]:
        print("# FAIL " + error)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
