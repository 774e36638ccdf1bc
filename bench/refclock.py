"""Wall time scaled to a fixed reference speed of the core.

The small shared machines this benchmark runs on change speed by up to
1.7x, for seconds to minutes at a time, most likely because another tenant
shares the physical core. The process is not descheduled (its CPU time
grows as fast as its wall time), so CPU time does not help, and whole runs
made minutes apart differed by a quarter in wall time.

RefClock measures that speed instead of ignoring it. Around each timed call
it runs a fixed calibration loop that does the same kinds of work as poselift
(small numpy arithmetic driven from Python, and BLAS matmuls, one thread).
A call's reference time is its wall time multiplied by REF_S over the median
of the calibrations made within WINDOW_S of the call: the time the call
would have taken had the core run the loop in REF_S. A change to poselift
moves the wall time and not the calibration, so it moves the reference time
by the same share. Reference times are resolved once the run has ended, so
that the calibrations after a call count too. The raw wall times are kept
beside them.

On a 2-core Intel Xeon at 2.1 GHz, the same mix of predict_sequence,
iso.refine and tcn.train calls (small and wide models) ran for 300 s in
ten 30 s windows. Across the windows, the mean raw time of each kind of
call spread by 0.14-0.18 of its median (first to third quartile) and its
mean reference time by 0.02-0.05. A second loop on megabyte-sized arrays
was tried beside this one and dropped: its time doubled in runs in which
poselift ran faster, and scaling by it made six pipeline runs spread more
than their raw times did.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# about the calibration loop's median time on a 2-core Intel Xeon at 2.1 GHz
# (Python 3.11.7, numpy 2.4.6 with scipy-openblas 0.3.31, one BLAS thread)
REF_S = 0.0080
# Calibrations this close to a call set its speed. A single pair just before
# and after a 5 s call misses a change of speed in between; in the same 300 s
# probe, cut into 6 s calls, the median of the calibrations within about 3 s
# spread half as much as that pair did.
WINDOW_S = 3.0
_FRESH_S = 0.05     # a calibration this recent still counts as "just before"


@dataclass(frozen=True)
class Timing:
    raw_s: float        # wall time, perf_counter
    start: float        # perf_counter at the start and the end of the timed span
    end: float


class RefClock:
    """Times calls, calibrating around each, and scales them to REF_S."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((160, 64))
        self._w = rng.standard_normal((64, 64)) * 0.1
        self._wide = rng.standard_normal((64, 256)) * 0.1
        self.stamps = []            # perf_counter when each calibration ended
        self.calibrations = []      # its time
        self.calibrate()

    def calibrate(self) -> None:
        """Run the calibration loop once and record its time."""
        x, w, wide = self._x, self._w, self._wide
        t = perf_counter()
        for _ in range(20):
            h = np.maximum(x @ w, 0.0)
            g = (h * 0.5 - x).T @ h
            z = np.tanh(h @ wide)
            s = float(g[0, 0] + z.sum())
            for v in range(48):     # allocates no object the garbage collector tracks
                s += v * v
        end = perf_counter()
        self.calibrations.append(end - t)
        self.stamps.append(end)

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs) and its Timing, with a calibration on each side."""
        if perf_counter() - self.stamps[-1] >= _FRESH_S:
            self.calibrate()
        start = perf_counter()
        out = fn(*args, **kwargs)
        end = perf_counter()
        self.calibrate()
        return out, Timing(end - start, start, end)

    def ref_s(self, timing: Timing) -> float:
        """The timing's wall time at the reference speed."""
        lo = bisect.bisect_left(self.stamps, timing.start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, timing.end + WINDOW_S)
        return timing.raw_s * REF_S / statistics.median(self.calibrations[lo:hi])
