"""
Host-speed normalisation of measured times.

The benchmark shares its host with other tenants, and a fixed amount of
CPython work there takes from 0.75x to 1.3x its usual time depending on
what runs beside it, in phases lasting seconds to minutes.  That drift is
larger than the regressions the benchmark must resolve, so every span
timed in the loop is scaled by REF_S / r, where r is the mean duration of
a fixed reference computation timed just before and just after the span.
On the reference host the scaled times read as wall times at its usual
speed; on a slower or busier host they read the same, because the
reference slows with the workload.  The unscaled times are reported next
to them.

Importing the package in a fresh interpreter does not slow down in step
with that computation (their correlation over 30 set-ups was 0.25), so the
import is scaled by its own reference instead: a fresh interpreter
importing the package's third-party dependencies and nothing of the
package.  The package adds about a tenth to that import, and over 14 pairs
the two correlated at 0.6; their ratio spread about half as much as the
import alone.
"""

import subprocess
import sys
from time import perf_counter

from scipy.optimize import brentq

# median duration of reference_seconds() on the reference host
# (x86-64 Xeon at 2.0 GHz, CPython 3.11, SciPy 1.17)
REF_S = 21e-3
# least wall time between two reference samples inside a timed loop
SAMPLE_INTERVAL_S = 0.25
# median duration of reference_import_seconds() on the reference host
REF_IMPORT_S = 0.7
REFERENCE_IMPORT = ("import numpy, scipy.optimize, scipy.integrate, "
                    "scipy.interpolate")


def reference_seconds():
    """Time a fixed computation shaped like the package's inner loops:
    scalar root solves whose objective is a Python float expression.  It
    lasts about 20 ms, nearer the length of the ops it scales than a
    shorter one: on a busy host back-to-back samples of a 4 ms version
    spread by 0.45 (interquartile range over median), of this one by 0.23
    to 0.49."""
    t0 = perf_counter()
    for k in range(1500):
        c = 1.0 + 0.01 * (k % 300)
        brentq(lambda t: t**1.5 - 2.0 / t - c, 1.0, 10.0, xtol=1e-13)
    return perf_counter() - t0


def reference_import_seconds(cwd):
    """Time a fresh interpreter importing the package's dependencies."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORT], cwd=cwd,
                   capture_output=True, timeout=120, check=True)
    return perf_counter() - t0


class SpeedTrack:
    """Reference samples taken between the units of a loop.

    `marks` holds (events recorded so far, reference duration); the events
    recorded between two marks are scaled by the mean of the two."""

    def __init__(self):
        self.marks = []
        self._last = None

    def sample(self, n_events):
        self.marks.append((n_events, reference_seconds()))
        self._last = perf_counter()

    def maybe_sample(self, n_events):
        if perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.sample(n_events)

    def factors(self, n_events):
        """Scale factor for each of the first n_events events."""
        out = []
        for (start, r0), (end, r1) in zip(self.marks, self.marks[1:]):
            out.extend([2.0 * REF_S / (r0 + r1)] * (end - start))
        return out[:n_events]

