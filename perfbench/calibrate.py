"""Machine-speed probe, and the clock that scales timed work by it.

The benchmark's host is shared, and the speed of one core drifts by a
fifth or more within seconds and for minutes at a time while the code stays
the same.  The probe is a fixed block of work that no change to tailasym
can alter.  The worker runs it between short slices of the timed work, on
the same core, and scales each slice by REFERENCE_S over the mean of the two
probes around it: a gated time reads in seconds on a machine where one
probe takes REFERENCE_S.  A change to the package moves the timed work and
not the probe, so it moves the metric; a slower or busier host moves both.
Probes taken seconds away from the work they scale do not track the drift,
which is why they are interleaved with slices of at most SLICE_S.

The probe mixes the kinds of work the workloads spend their time on: a
numpy argsort (the bootstrap's replicate sort), a csv.DictReader parse with
float conversion (load_csv), and many small numpy calls from an interpreter
loop (the per-call overhead of the kernels).
"""

import csv
import io
import statistics
import time

import numpy as np

#: Probe time, in seconds, at the reference speed: about the median probe
#: on a 2-vCPU Xeon VM (Python 3.11, one BLAS thread).
REFERENCE_S = 0.03
#: Longest stretch of timed work between two probes, where the work lets
#: the clock in (see worker.sliced).
SLICE_S = 0.25

_rng = np.random.default_rng(20260313)
_SORT = _rng.random(200_000)
_CSV = "t,x,y\n" + "".join(f"{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(_rng.random((2000, 2)).tolist()))
_SMALL = _rng.random(64)


def _work():
    order = np.argsort(_SORT)
    order = order[np.argsort(_SORT[::-1])]
    rows = [(float(r["x"]), float(r["y"])) for r in csv.DictReader(io.StringIO(_CSV))]
    acc = 0.0
    for i in range(3000):
        acc += float(np.dot(_SMALL, _SMALL[::-1])) + i
    return int(order[0]) + len(rows) + acc


def probe(blocks=1):
    """Median seconds of `blocks` runs of the fixed work, taken now."""
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Probes taken between slices of timed work, and the time of that work
    at the reference speed.

    Timed work is bracketed by probes: one right before it starts, one right
    after it ends, and any taken inside it by `maybe_probe`.  A stretch of
    work between two consecutive probes runs at REFERENCE_S over the mean of
    their durations; time spent in probes counts as no work.
    """

    def __init__(self, slice_s=SLICE_S):
        self.slice_s = slice_s
        self.probes = []  # (start, end) in time.perf_counter seconds

    def probe(self):
        start = time.perf_counter()
        _work()
        self.probes.append((start, time.perf_counter()))

    def maybe_probe(self):
        """Probe if the last probe ended at least slice_s ago."""
        if time.perf_counter() - self.probes[-1][1] >= self.slice_s:
            self.probe()

    def seconds(self, a, b):
        """(raw, scaled) seconds of work in [a, b], probe time left out.

        raw is wall time minus the probes inside [a, b]; scaled is the same
        work at the reference speed.  [a, b] must lie between the first
        probe and the last.
        """
        if not self.probes or a < self.probes[0][1] or b > self.probes[-1][0]:
            raise ValueError("timed work must lie between two probes")
        raw = scaled = 0.0
        for (s0, e0), (s1, e1) in zip(self.probes, self.probes[1:]):
            overlap = min(b, s1) - max(a, e0)
            if overlap > 0:
                raw += overlap
                scaled += overlap * REFERENCE_S / (((e0 - s0) + (e1 - s1)) / 2)
        return raw, scaled
