"""Statistics and naming rules shared by run.py, compare.py and the self-test.

Stdlib only. Percentiles interpolate linearly between closest ranks (the
same definition as numpy's default and bench/service_throughput.cpp).
"""

import re
import statistics

# A metric or workload name: starts with a letter or digit, then letters,
# digits, '_', '.', '-'; at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

# A tail percentile is reported only with at least this many samples
# beyond it.
MIN_TAIL_SAMPLES = 10


def valid_name(name):
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile %r outside [0, 100]" % q)
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


def median(values):
    return percentile(values, 50.0)


def tail_percentile(n):
    """The highest ladder percentile with >= MIN_TAIL_SAMPLES of n samples
    beyond it, or None when n is too small for any."""
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:
            return q
    return None


def summarize(values):
    """Median plus the highest well-supported tail percentile, with n."""
    summary = {"n": len(values), "median": median(values)}
    q = tail_percentile(len(values))
    if q is not None:
        summary["tail_pct"] = q
        summary["tail"] = percentile(values, q)
    return summary


def format_summary(summary, unit):
    text = "median %.6g %s" % (summary["median"], unit)
    if "tail" in summary:
        text += ", p%g %.6g %s" % (summary["tail_pct"], summary["tail"], unit)
    return text + " (n=%d)" % summary["n"]


def iqr_share(values):
    """(Q3 - Q1) / median by statistics.quantiles(n=4), the spread measure
    the benchmark's steadiness is judged by. 0 for fewer than 2 samples."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
