"""The ``BENCH_resilience.json`` payload: what the chaos actually cost.

One report carries two complete runs of the same seeded workload — a
fault-free baseline and the chaos run — plus a comparison block that
states the price of adversity directly: availability with and without
faults, the latency p-trio side by side, and the goodput ratio.  All
latency figures come from exact integer-tick histograms (the serve
plane's nearest-rank percentiles), so two reports from the same seed
and config are byte-identical; wall-clock throughput appears only when
the CLI injected a clock (RC103).

The verdict is strict: *both* runs must show zero wrong answers in the
full-population audit and a balanced conservation ledger.  Crashes,
hedge races, and degraded answers may move every latency and
availability number — they may never move a ``next_hop``.
"""

from __future__ import annotations

from repro.serve.report import BenchReport


class ResilienceReport(BenchReport):
    """The finished chaos benchmark: payload access plus the verdict."""

    __slots__ = ()

    def passed(self) -> bool:
        """True iff both runs audit clean and conserve every request."""
        for key in ("baseline", "chaos"):
            run = self.payload[key]
            audit = run["audit"]  # type: ignore[index]
            conservation = run["conservation"]  # type: ignore[index]
            if audit["wrong_answers"] != 0:
                return False
            if not conservation["ok"]:
                return False
        return True

    def summary(self) -> str:
        """A few human-oriented lines for the CLI footer."""
        config = self.payload["config"]
        chaos = self.payload["chaos"]
        totals = chaos["totals"]  # type: ignore[index]
        audit = chaos["audit"]  # type: ignore[index]
        comparison = self.payload["comparison"]
        cert = self.payload["certification"]
        pps = totals["sustained_pps"]
        availability = totals["availability"]
        lines = [
            "chaos: %d slices x %d replicas (%s), %s backend"
            % (
                config["shards"],  # type: ignore[index]
                config["replication"],  # type: ignore[index]
                config["partition"],  # type: ignore[index]
                self.payload["backend"],
            ),
            "served %d/%d (availability %s) with %d crashes, %d restarts"
            % (
                totals["served"],
                totals["offered"],
                "%.4f" % availability if availability is not None else "n/a",
                totals["crashes"],
                totals["restarts"],
            ),
            "recovery: %d retries, %d hedges, %d failovers, %d degraded, "
            "%d expired"
            % (
                totals["retries"],
                totals["hedges"],
                totals["failovers"],
                totals["degraded"],
                totals["deadline_expired"],
            ),
            "p99 ticks %s -> %s under faults (goodput ratio %s)"
            % (
                comparison["p99_without_faults"],  # type: ignore[index]
                comparison["p99_with_faults"],  # type: ignore[index]
                "%.3f" % comparison["goodput_ratio"]  # type: ignore[index]
                if comparison["goodput_ratio"] is not None  # type: ignore[index]
                else "n/a",
            ),
            "sustained %s pps"
            % ("%.0f" % pps if pps is not None else "n/a (no clock)"),
            "certified %d lanes (%d rebuilt); audit %d checked, "
            "%d wrong answers"
            % (
                cert["lanes"],  # type: ignore[index]
                cert["rebuilt_lanes"],  # type: ignore[index]
                audit["checked"],
                audit["wrong_answers"],
            ),
        ]
        return "\n".join(lines)
