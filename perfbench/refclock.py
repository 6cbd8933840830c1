"""Reference seconds: wall time corrected for the host's drifting speed.

On a small shared host the same pure-Python loop can take 50 % longer
from one second to the next, and every phase of a workload drifts with
it.  A fixed reference kernel, which imports nothing from ``repro``,
therefore runs on a timer about every ``PERIOD_S`` throughout a run.
A stretch of time between two phase edges is worth

    (raw duration - time spent in samples) / median sample * NOMINAL_S

reference seconds, where the median is taken over the samples that ran
inside the stretch.  A stretch too short to hold ``MIN_SAMPLES`` samples
borrows the nearest samples around it.  A phase made of several
stretches is the sum of its stretches.  ``NOMINAL_S`` is fixed here,
once: it is roughly the kernel's median on a quiet 2-vCPU x86-64 cloud
VM, so a reference second is about a wall second on such a host.

Nothing in this module reads a clock on its own; the clock is injected,
so the arithmetic is tested against a scripted clock.
"""

from __future__ import annotations

import signal
import statistics
from typing import Callable, List, Sequence, Tuple

#: The reference kernel's duration, in seconds, that one sample counts as.
NOMINAL_S = 0.008
#: Timer period between samples.
PERIOD_S = 0.1
#: Fewer samples than this inside a phase: borrow the nearest ones.
MIN_SAMPLES = 3

Interval = Tuple[float, float]

_LANES = 256
_LOOPS = 40000
_VEC_ROUNDS = 800


def reference_kernel() -> int:
    """About 8 ms of fixed work: an integer loop plus 256-lane numpy ops.

    It allocates nothing that the cyclic garbage collector tracks, so a
    sample never triggers a collection inside the workload it measures.
    """
    import numpy as np

    acc = 0
    for i in range(_LOOPS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    lanes = np.arange(_LANES, dtype=np.int64)
    tmp = np.empty(_LANES, dtype=np.int64)
    for _ in range(_VEC_ROUNDS):
        np.multiply(lanes, 1664525, out=tmp)
        np.add(tmp, 1013904223, out=tmp)
        np.bitwise_and(tmp, 0xFFFFFFFF, out=lanes)
        np.right_shift(lanes, 3, out=tmp)
        np.bitwise_xor(lanes, tmp, out=lanes)
    return acc ^ int(lanes.sum())


class Sampler:
    """Runs the reference kernel on demand or on a timer; keeps every sample.

    ``samples`` holds ``(start, end)`` pairs on ``clock``'s time base.  A
    sample requested while one is running is skipped and counted, never
    nested: the timer signal can arrive while the kernel itself runs.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        kernel: Callable[[], object] = reference_kernel,
        period: float = PERIOD_S,
    ):
        self.clock = clock
        self.kernel = kernel
        self.period = period
        self.samples: List[Interval] = []
        self.skipped = 0
        self._busy = False
        self._previous_handler = None

    def sample(self) -> None:
        """Run the kernel once and record its interval (unless busy)."""
        if self._busy:
            self.skipped += 1
            return
        self._busy = True
        try:
            start = self.clock()
            self.kernel()
            self.samples.append((start, self.clock()))
        finally:
            self._busy = False

    def _on_timer(self, _signum, _frame) -> None:
        self.sample()

    def start(self) -> None:
        """Sample every ``period`` seconds of wall time (SIGALRM)."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def merge(intervals: Sequence[Interval]) -> List[Interval]:
    """The union of ``intervals`` as sorted, disjoint intervals."""
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def subtract(intervals: Sequence[Interval], holes: Sequence[Interval]) -> List[Interval]:
    """``intervals`` minus ``holes``, as sorted disjoint intervals."""
    out: List[Interval] = []
    holes = merge(holes)
    for start, end in merge(intervals):
        cursor = start
        for h_start, h_end in holes:
            if h_end <= cursor or h_start >= end:
                continue
            if h_start > cursor:
                out.append((cursor, h_start))
            cursor = max(cursor, h_end)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end))
    return out


def intersect(intervals: Sequence[Interval], others: Sequence[Interval]) -> List[Interval]:
    """The intersection of two interval sets, sorted and disjoint."""
    a = merge(intervals)
    b = merge(others)
    out: List[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def overlap(intervals: Sequence[Interval], others: Sequence[Interval]) -> float:
    """Total length of the intersection of two interval sets."""
    return span_length(intersect(intervals, others))


def span_length(intervals: Sequence[Interval]) -> float:
    return sum(end - start for start, end in merge(intervals))


def phase_samples(
    intervals: Sequence[Interval], samples: Sequence[Interval]
) -> List[Interval]:
    """The samples that speak for a phase's speed.

    Every sample lying wholly inside the phase; if that is fewer than
    ``MIN_SAMPLES``, the nearest samples in time make up the number.
    """
    phase = merge(intervals)
    if not phase or not samples:
        return []

    def distance(sample: Interval) -> float:
        s_start, s_end = sample
        best = float("inf")
        for start, end in phase:
            if s_start >= start and s_end <= end:
                return 0.0
            best = min(best, max(start - s_end, s_start - end, 0.0))
        return best

    ranked = sorted(samples, key=lambda sample: (distance(sample), sample))
    inside = [sample for sample in ranked if distance(sample) == 0.0]
    if len(inside) >= MIN_SAMPLES:
        return inside
    return ranked[: max(MIN_SAMPLES, len(inside))]


class PhaseTime:
    """One phase measured: raw wall seconds and reference seconds."""

    __slots__ = ("wall_s", "work_s", "reference_s", "median_sample_s")

    def __init__(self, wall_s, work_s, reference_s, median_sample_s):
        #: Raw duration, samples included.
        self.wall_s = wall_s
        #: Raw duration with the samples' time taken out.
        self.work_s = work_s
        self.reference_s = reference_s
        #: Median of every sample the phase was corrected with.
        self.median_sample_s = median_sample_s

    def speed_factor(self) -> float:
        """Median sample / nominal: above 1, the host ran slow."""
        return self.median_sample_s / NOMINAL_S


def phase_time(intervals: Sequence[Interval], samples: Sequence[Interval]) -> PhaseTime:
    """Reference seconds for a phase made of one or more disjoint stretches.

    Each stretch is corrected by the median of its own samples, and the
    phase is the sum of its stretches: a phase split by another (churn's
    run around its audits) or a whole cycle split at its phase edges
    then follows the host's speed stretch by stretch.
    """
    wall = work = reference = 0.0
    used: List[float] = []
    for interval in sorted(intervals):
        chosen = phase_samples([interval], samples)
        if not chosen:
            raise ValueError("no reference samples to time the phase with")
        durations = [end - start for start, end in chosen]
        stretch_work = span_length([interval]) - overlap([interval], samples)
        wall += span_length([interval])
        work += stretch_work
        reference += stretch_work / statistics.median(durations) * NOMINAL_S
        used.extend(durations)
    return PhaseTime(wall, work, reference, statistics.median(used))


def to_reference(
    intervals: Sequence[Interval], samples: Sequence[Interval], median_sample_s: float
) -> float:
    """Reference seconds of a (layer's) interval set at a known speed."""
    work = span_length(intervals) - overlap(intervals, samples)
    return work / median_sample_s * NOMINAL_S
