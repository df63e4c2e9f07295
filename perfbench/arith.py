"""The benchmark's own arithmetic: medians, tail percentiles, ratios, self time
and the calibrated timeline.

Kept free of numpy and of the package under test so the tests in
``perfbench/tests`` can check it in isolation.
"""

from __future__ import annotations

import bisect
import math
import statistics

# Candidate tail percentiles, highest first.  A percentile is reported only
# when at least MIN_BEYOND samples lie above it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Type-7 (linear interpolation) percentile, q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def tail(values) -> dict | None:
    """The highest percentile with at least ``MIN_BEYOND`` samples strictly above it.

    Returns ``{"percentile": q, "value": v, "beyond": k, "samples": n}`` or
    None when no candidate percentile has enough samples beyond it.
    """
    xs = list(values)
    for q in TAIL_PERCENTILES:
        if not xs:
            break
        v = percentile(xs, q)
        beyond = sum(1 for x in xs if x > v)
        if beyond >= MIN_BEYOND:
            return {"percentile": q, "value": v, "beyond": beyond, "samples": len(xs)}
    return None


def ratio(num: float, den: float) -> dict:
    """A ratio together with its base, so that a reader can recompute it."""
    return {"value": (num / den) if den else 0.0, "num": num, "den": den}


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2


def covered(start: float, end: float, children) -> float:
    """Length of [start, end] covered by the union of the child intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in children)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered(start, end, children)


def timeline(marks, scale: bool = True):
    """Map a ``time.perf_counter`` reading onto a clock that skips calibration marks.

    ``marks`` are ``(start, end, slowdown)`` in time order, at least one.
    Time inside a mark does not count.  With ``scale``, time between two
    marks counts at 1 / (their mean slowdown), and time before the first or
    after the last mark at 1 / (that mark's slowdown); without it, at 1.
    The difference of two mapped readings is the time between them, at the
    reference speed or as measured.
    """
    starts = [m[0] for m in marks]
    ends = [m[1] for m in marks]
    slow = [m[2] if scale else 1.0 for m in marks]
    rate_before = 1.0 / slow[0]
    rates = [2.0 / (a + b) for a, b in zip(slow, slow[1:])] + [1.0 / slow[-1]]
    base = [0.0]  # mapped reading at each mark
    for k in range(len(marks) - 1):
        base.append(base[k] + (starts[k + 1] - ends[k]) * rates[k])

    def at(t: float) -> float:
        k = bisect.bisect_right(starts, t) - 1
        if k < 0:
            return (t - starts[0]) * rate_before
        return base[k] + max(0.0, t - ends[k]) * rates[k]

    return at
