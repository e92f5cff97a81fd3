"""Host-speed calibration: scales measured times to reference seconds.

The host's CPU speed drifts by up to 2x within seconds to minutes (shared
cores), far more than the changes the benchmark must resolve.  Times are
therefore reported in reference seconds: each measured time is scaled by
CAL_REF_S over the median time of a fixed calibration loop, sampled every
CAL_PERIOD_S between tasks, within CAL_WINDOW_S of the task.  The loop is
pure Python, independent of flbreuil, so a change to flbreuil moves the
scaled times as it moves the raw ones.  CAL_REF_S is the loop's time on an
unloaded 2-vCPU Intel Xeon host, so reference seconds approximate seconds
there.
"""

from __future__ import annotations

import bisect
import statistics
import time

CAL_REF_S = 0.0015
CAL_PERIOD_S = 0.02
CAL_WINDOW_S = 0.5
CAL_REPS = 2


class _Cell:
    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs, prec):
        self.coeffs = coeffs
        self.prec = prec


def calibration_loop() -> None:
    """Fixed work shaped like the kernel's: small objects holding big ints,
    a truncated convolution with binomial-style weights, reduction mod p^k."""
    mod = 5 ** 60
    n = 24
    weights = [[(i + j + 1) * 7919 % mod for j in range(n)] for i in range(n)]
    xs = [_Cell(((i * 2654435761 + 1) % mod,), 60) for i in range(n)]
    for _ in range(10):
        acc = [0] * n
        for i in range(n):
            a = xs[i].coeffs[0]
            row = weights[i]
            for j in range(n - i):
                acc[i + j] = (acc[i + j] + a * xs[j].coeffs[0] * row[j]) % mod
        xs = [_Cell((c + 1,), min(x.prec, 60)) for c, x in zip(acc, xs)]


def calibrate(reps: int = CAL_REPS) -> list:
    """(midpoint, seconds) of ``reps`` calibration loops."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        out.append(((t0 + t1) / 2, t1 - t0))
    return out


def window_scales(spans: list, cals: list) -> list:
    """Reference-second scale of each (start, end) span, from the calibration
    samples within CAL_WINDOW_S of it (``cals`` in time order)."""
    times = [t for t, _ in cals]
    out = []
    for start, end in spans:
        lo = bisect.bisect_left(times, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(times, end + CAL_WINDOW_S)
        out.append(CAL_REF_S / statistics.median(d for _, d in cals[lo:hi]))
    return out
