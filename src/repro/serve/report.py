"""The ``BENCH_serve.json`` payload: exact percentiles, honest totals.

Latency is measured in integer ticks (completion tick minus arrival
tick) and tallied into an exact ``{latency: count}`` histogram while the
engine runs, so percentiles are computed by nearest-rank over the *full*
population — no reservoir sampling, no interpolation, and two runs with
the same seed produce byte-identical payloads.  Wall-clock throughput
(sustained packets/sec) appears only when the CLI injected a clock
(RC103); without one the deterministic columns still fill in, which is
what the seeded-determinism test compares.
"""

from __future__ import annotations

import json
from typing import Dict, Optional


def percentile_from_counts(
    counts: Dict[int, int], fraction: float
) -> Optional[int]:
    """Nearest-rank percentile over an exact integer histogram.

    ``fraction`` is in ``(0, 1]`` (0.5 = p50); returns ``None`` for an
    empty histogram.  Nearest-rank means the smallest latency value
    whose cumulative count reaches ``ceil(fraction * total)`` — an
    actual observed latency, never an interpolated one.
    """
    if not counts:
        return None
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1], got %g" % fraction)
    total = sum(counts.values())
    rank = -(-int(fraction * total * 1000000) // 1000000)  # ceil, float-safe
    if rank < 1:
        rank = 1
    running = 0
    for latency in sorted(counts):
        running += counts[latency]
        if running >= rank:
            return latency
    return max(counts)


def latency_summary(counts: Dict[int, int]) -> Dict[str, object]:
    """The latency block of the payload: count/mean/max and the p-trio."""
    total = sum(counts.values())
    if not total:
        return {
            "unit": "ticks",
            "count": 0,
            "mean": None,
            "max": None,
            "p50": None,
            "p99": None,
            "p999": None,
        }
    weighted = sum(latency * count for latency, count in counts.items())
    return {
        "unit": "ticks",
        "count": total,
        "mean": weighted / total,
        "max": max(counts),
        "p50": percentile_from_counts(counts, 0.50),
        "p99": percentile_from_counts(counts, 0.99),
        "p999": percentile_from_counts(counts, 0.999),
    }


class BenchReport:
    """A finished run's payload, its verdict and its CLI footer; each
    front end's report says what passing means and what the footer
    shows."""

    __slots__ = ("payload",)

    def __init__(self, payload: Dict[str, object]):
        self.payload = payload

    def as_dict(self) -> Dict[str, object]:
        return self.payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.payload, indent=indent, sort_keys=True)

    def passed(self) -> bool:
        raise NotImplementedError

    def summary(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s(passed=%r)" % (type(self).__name__, self.passed())


class ServeReport(BenchReport):
    """The finished serving run: payload access plus the pass/fail verdict."""

    __slots__ = ()

    def passed(self) -> bool:
        """True iff the differential audit found zero disagreements."""
        audit = self.payload["audit"]
        return audit["disagreements"] == 0  # type: ignore[index]

    def summary(self) -> str:
        """A few human-oriented lines for the CLI footer."""
        totals = self.payload["totals"]
        latency = self.payload["latency"]
        audit = self.payload["audit"]
        cert = self.payload["certification"]
        pps = totals["sustained_pps"]  # type: ignore[index]
        lines = [
            "serve: %d shards (%s), %s backend"
            % (
                len(self.payload["shards"]),  # type: ignore[arg-type]
                self.payload["partition"],
                self.payload["backend"],
            ),
            "completed %d/%d requests in %d batches (%d shed)"
            % (
                totals["completed"],  # type: ignore[index]
                totals["offered"],  # type: ignore[index]
                totals["batches"],  # type: ignore[index]
                totals["shed"],  # type: ignore[index]
            ),
            "latency ticks p50=%s p99=%s p999=%s"
            % (latency["p50"], latency["p99"], latency["p999"]),  # type: ignore[index]
            "sustained %s pps"
            % ("%.0f" % pps if pps is not None else "n/a (no clock)"),
            "certified %d lanes; audit %d checked, %d disagreements"
            % (
                cert["lanes"],  # type: ignore[index]
                audit["checked"],  # type: ignore[index]
                audit["disagreements"],  # type: ignore[index]
            ),
        ]
        return "\n".join(lines)
