"""Machine-speed calibration.

A shared host runs this process at very different speeds from one stretch
of seconds to the next: a fixed loop takes up to 1.7 times as long in a
slow phase as in a fast one, and a phase can last tens of seconds.  No
amount of repetition within one run averages that out.

So the benchmark times ``probe()``, a fixed piece of interpreter work,
before every operation.  A latency scaled by
``REFERENCE_NS / (median of the probes around it)`` is its time at a
reference speed, the speed at which one probe takes ``REFERENCE_NS``.

Not every operation follows the probe fully.  Interpreter-bound work
slows down with it; long big-integer arithmetic moves much less, and
scaling it fully would add noise instead of removing it.  So
``per_input`` scales each input by ``(REFERENCE_NS / probe) ** slope``.
The slope is that input's own sensitivity, fitted over the passes of the
run: log latency against log probe.  It is pulled towards 1 (full
scaling) as far as the passes leave it uncertain, and kept within [0, 1].
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_NS = 60_000
WINDOW = 9
# Prior standard deviation of an input's slope around 1.
PRIOR_SD = 0.25

_BIG = 3**400


def probe() -> int:
    """Nanoseconds taken by a fixed piece of interpreter work."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(300):
        acc += i * i % 7
    big = _BIG
    for _ in range(20):
        big = (big * _BIG) >> 600
    table = {}
    for i in range(50):
        table[i] = str(i)
    return time.perf_counter_ns() - t0


def smoothed(probe_ns):
    """Per position, the median of the WINDOW probes nearest to it."""
    half = WINDOW // 2
    out = []
    for i in range(len(probe_ns)):
        window = sorted(probe_ns[max(0, i - half): i + half + 1])
        out.append(window[len(window) // 2])
    return out


def scale(latency_ns, probe_ns):
    """Latencies fully scaled to the reference speed.  Probe i ran just
    before latency i."""
    return [x * REFERENCE_NS / p for x, p in zip(latency_ns, smoothed(probe_ns))]


def per_input(latency_by_pass, probe_by_pass):
    """One latency per input at the reference speed: the median over the
    passes of its latencies, each scaled by its fitted sensitivity."""
    passes, n = len(latency_by_pass), len(latency_by_pass[0])
    speed = smoothed([p for row in probe_by_pass for p in row])
    xs = [[math.log(speed[k * n + i] / REFERENCE_NS) for k in range(passes)] for i in range(n)]
    ys = [[math.log(max(row[i], 1)) for row in latency_by_pass] for i in range(n)]
    fits = [_fit(x, y) for x, y in zip(xs, ys)]
    # Residual variance pooled over all inputs: one input's few passes
    # cannot estimate their own.
    dof = n * (passes - 2)
    noise = sum(rss for _, _, rss in fits) / dof if dof > 0 else 0.0
    out = []
    for (slope, sxx, _), x, y in zip(fits, xs, ys):
        if noise > 0 and sxx > 0:
            weight = sxx / noise
            prior = 1 / PRIOR_SD**2
            slope = (slope * weight + prior) / (weight + prior)
        else:
            slope = 1.0
        slope = min(1.0, max(0.0, slope))
        out.append(statistics.median(math.exp(b - slope * a) for a, b in zip(x, y)))
    return out


def _fit(x, y):
    """Least-squares slope of y on x, the spread of x, and the residual sum
    of squares."""
    mx, my = statistics.fmean(x), statistics.fmean(y)
    sxx = sum((a - mx) ** 2 for a in x)
    if sxx == 0:
        return 1.0, 0.0, 0.0
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx
    rss = sum((b - my - slope * (a - mx)) ** 2 for a, b in zip(x, y))
    return slope, sxx, rss
