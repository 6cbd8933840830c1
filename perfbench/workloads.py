"""The four benchmark workloads, driven through the exported engine APIs.

Each workload runs one *cycle* -- set-up, serving window (or churn run)
and audit -- and returns a :class:`Cycle`: the phase edges, the work
done, the correctness verdict and the exact counts that must repeat.
Phase edges come from the calls made here and from the clock injected
into ``ServeEngine.run`` / ``ChaosEngine.bench``, so an untraced cycle
needs no hooks in the program.

Why each workload exists, and which layer each should move, is written
down in ``WORKLOADS.md`` beside this file.  Shapes are the CLI defaults;
table size, request count and update count are sized so that one cycle
takes a few seconds on a 2-vCPU host and a run holds several cycles.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

Interval = Tuple[float, float]


class Marks:
    """Phase edges on one clock; each mark starts a phase that runs to the next."""

    def __init__(self, clock: Callable[[], float], tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.times: List[Tuple[str, float]] = []

    def mark(self, phase: str) -> float:
        now = self.clock()
        self.times.append((phase, now))
        if self.tracer is not None:
            self.tracer.phase = phase
        return now

    def engine_clock(self, *phases: str) -> Callable[[], float]:
        """A clock for an engine that marks ``phases`` in call order."""
        pending = list(phases)

        def clock() -> float:
            if not pending:
                raise RuntimeError("engine read the clock more often than expected")
            return self.mark(pending.pop(0))

        return clock

    def stretches(self) -> List[Interval]:
        """Every interval from one mark to the next."""
        return [(start, end) for (_p, start), (_n, end) in zip(self.times, self.times[1:])]

    def phases(self) -> Dict[str, List[Interval]]:
        """Intervals per phase name, plus ``total`` from first to last mark."""
        out: Dict[str, List[Interval]] = {}
        for (phase, _start), stretch in zip(self.times, self.stretches()):
            out.setdefault(phase, []).append(stretch)
        out["total"] = [(self.times[0][1], self.times[-1][1])]
        return out


class Cycle:
    """What one cycle did, how it was checked, and what it must repeat."""

    def __init__(self, marks: Marks):
        self.marks = marks
        #: Lookups served in the window, or route updates applied.
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Counts that must be identical in every cycle of a seed.
        self.exact: Dict[str, object] = {}
        #: Counts the engines report, for the per-layer metrics.
        self.counts: Dict[str, float] = {}
        #: Run after the cycle, outside timing and with hooks removed.
        self.finish: Optional[Callable[[], None]] = None


# -- serving ----------------------------------------------------------------


def _replay_memrefs(plan, ctables, values, lens) -> int:
    """Kernel memrefs of every request looked up once in its slice's table."""
    import numpy as np

    from repro.fastpath.kernels import lookup_batch
    from repro.serve.dispatch import route_batch

    owners = np.asarray(route_batch(plan, values))
    total = 0
    for slice_id, ctable in enumerate(ctables):
        mask = owners == slice_id
        if mask.any():
            memrefs = lookup_batch(ctable, values[mask], lens[mask])[3]
            total += int(np.asarray(memrefs).sum())
    return total


def _sized(config: Dict[str, object], scale: float) -> Dict[str, object]:
    """``config`` with its table size and request count scaled."""
    sized = dict(config)
    sized["table_size"] = max(50, int(config["table_size"] * scale))
    sized["requests"] = max(1000, int(config["requests"] * scale))
    return sized


def _compiled_bytes(shards) -> Tuple[int, int]:
    """(bytes of every shard's compiled trie and clue table, prefixes held)."""
    total = 0
    prefixes = 0
    for shard in shards:
        total += shard.ctrie.nbytes() + shard.ctable.nbytes()
        base = getattr(shard.ctrie, "base", None)
        if base is not None:
            total += base.nbytes()
        prefixes += len(shard.entries)
    return total, prefixes


class ServeWorkload:
    """``ServeEngine`` set-up, one replay, and its sampled oracle audit."""

    kind = "serve"

    def __init__(self, name: str, **config):
        self.name = name
        self.config = config

    def cycle(self, seed: int, marks: Marks, scale: float = 1.0) -> Cycle:
        from repro.fastpath import CertificationError
        from repro.serve import ServeConfig, ServeEngine

        cycle = Cycle(marks)
        marks.mark("setup")
        try:
            engine = ServeEngine(ServeConfig(seed=seed, **_sized(self.config, scale)))
        except CertificationError as error:
            marks.mark("end")
            cycle.errors.append("certification: %s" % error)
            return cycle
        report = engine.run(clock=marks.engine_clock("window", "audit"))
        marks.mark("end")
        payload = report.as_dict()
        totals = payload["totals"]
        audit = payload["audit"]
        disagreements = audit["disagreements"] + payload["certification"]["disagreements"]
        if disagreements or not report.passed():
            cycle.errors.append("audit: %d disagreements" % disagreements)
        if totals["completed"] + totals["shed"] != totals["offered"]:
            cycle.errors.append("serve: completed + shed != offered")
        cycle.ops = totals["completed"]
        cycle.attempted = totals["offered"]
        cycle.failed = totals["shed"] + disagreements
        nbytes, prefixes = _compiled_bytes(engine.shards)
        cycle.counts = {
            "batches": totals["batches"],
            "completed": totals["completed"],
            "shed": totals["shed"],
            "p99_ticks": payload["latency"]["p99"],
            "certified_lanes": engine.certified_lanes,
            "bytes_per_prefix": nbytes / prefixes,
        }
        cycle.exact = {
            "p99_ticks": payload["latency"]["p99"],
            "certified_lanes": engine.certified_lanes,
            "audit_checked": audit["checked"],
            "completed": totals["completed"],
            "batches": totals["batches"],
            "ticks": totals["ticks"],
        }

        def finish() -> None:
            workload = engine.loadgen.generate(engine.config.requests)
            memrefs = _replay_memrefs(
                engine.plan,
                [shard.ctable for shard in engine.shards],
                workload.values,
                workload.clue_lens,
            )
            cycle.exact["memrefs"] = memrefs
            cycle.counts["memrefs_per_packet"] = memrefs / len(workload)

        cycle.finish = finish
        return cycle


class ChaosWorkload:
    """``ChaosEngine`` set-up, then ``bench``: a fault-free and a faulted run."""

    kind = "chaos"

    def __init__(self, name: str, faults: Dict[str, int], **config):
        self.name = name
        self.faults = faults
        self.config = config

    def cycle(self, seed: int, marks: Marks, scale: float = 1.0) -> Cycle:
        from repro.fastpath import CertificationError
        from repro.resilience import ChaosEngine, ResilienceConfig

        cycle = Cycle(marks)
        marks.mark("setup")
        try:
            engine = ChaosEngine(ResilienceConfig(seed=seed, **_sized(self.config, scale)))
            plan = engine.default_plan(**self.faults)
            report = engine.bench(
                plan, clock=marks.engine_clock("baseline", "audit", "window", "audit")
            )
        except CertificationError as error:
            marks.mark("end")
            cycle.errors.append("certification: %s" % error)
            return cycle
        marks.mark("end")
        payload = report.as_dict()
        runs = (payload["baseline"], payload["chaos"])
        for label, run in zip(("baseline", "faulted"), runs):
            if run["audit"]["wrong_answers"]:
                cycle.errors.append(
                    "%s run: %d wrong answers" % (label, run["audit"]["wrong_answers"])
                )
            if not run["conservation"]["ok"]:
                cycle.errors.append("%s run: conservation violated" % label)
        if not report.passed():
            cycle.errors.append("chaos report did not pass")
        base, chaos = (run["totals"] for run in runs)
        cycle.ops = chaos["served"]
        cycle.attempted = base["offered"] + chaos["offered"]
        cycle.failed = sum(
            run["totals"]["shed"]
            + run["totals"]["deadline_expired"]
            + run["audit"]["wrong_answers"]
            for run in runs
        )
        audit = payload["chaos"]["audit"]
        nbytes, prefixes = _compiled_bytes(row[0] for row in engine.shards)
        cycle.counts = {
            "baseline_served": base["served"],
            "served": chaos["served"],
            "retries": chaos["retries"],
            "hedges": chaos["hedges"],
            "failovers": chaos["failovers"],
            "degraded": chaos["degraded"],
            "late": chaos["late_completions"],
            "rebuilt_lanes": chaos["rebuilt_lanes"],
            "audit_checked": audit["checked"],
            "audit_distinct": audit["distinct_verified"],
            "p99_ticks": payload["chaos"]["latency"]["p99"],
            "certified_lanes": engine.certified_lanes,
            "bytes_per_prefix": nbytes / prefixes,
        }
        cycle.exact = {
            "p99_ticks": payload["chaos"]["latency"]["p99"],
            "certified_lanes": engine.certified_lanes,
            "rebuilt_lanes": chaos["rebuilt_lanes"],
            "audit_checked": [run["audit"]["checked"] for run in runs],
            "served": [run["totals"]["served"] for run in runs],
            "retries": chaos["retries"],
            "hedges": chaos["hedges"],
            "batches": chaos["batches"],
        }

        def finish() -> None:
            workload = engine.workload()
            memrefs = _replay_memrefs(
                engine.rplan.plan,
                [row[0].ctable for row in engine.shards],
                workload.values,
                workload.clue_lens,
            )
            cycle.exact["memrefs"] = memrefs
            cycle.counts["memrefs_per_packet"] = memrefs / len(workload)

        cycle.finish = finish
        return cycle


# -- churn ------------------------------------------------------------------


class ChurnWorkload:
    """``build_churn_scenario`` + ``ChurnEngine.run`` + consistency audits.

    One cycle runs ``instances`` scenarios back to back.  Their meshes
    and prefix origins are fixed (scenario seeds ``0 .. instances-1``);
    the run seed draws each scenario's update stream and traffic.  Each
    scenario applies epochs (``ChurnEngine.run(1)``) until at least
    ``updates`` route updates are in, then settles and audits once.

    Both choices keep the rate a property of the code, not of one seed:
    update cost is mostly per update, and the bursty stream's update
    count over a fixed number of epochs swings by a quarter from seed to
    seed, as do the costs of one random five-router mesh.
    """

    kind = "churn"

    def __init__(self, name: str, instances: int, updates: int, traffic: int, **scenario):
        self.name = name
        self.instances = instances
        self.updates = updates
        self.traffic = traffic
        self.scenario = scenario

    def cycle(self, seed: int, marks: Marks, scale: float = 1.0) -> Cycle:
        from repro.churn import ChurnAuditError

        cycle = Cycle(marks)
        totals: Dict[str, int] = {}
        for k in range(self.instances):
            try:
                counts = self._instance(k, seed * self.instances + k, marks, scale)
            except ChurnAuditError as error:
                cycle.errors.append("churn audit: %s" % error)
                break
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
        marks.mark("end")
        if not cycle.errors and (totals["wrong_hops"] or totals["divergences"]):
            cycle.errors.append(
                "churn: %d wrong hops, %d divergences"
                % (totals["wrong_hops"], totals["divergences"])
            )
        if cycle.errors:
            return cycle
        cycle.ops = totals["updates"]
        cycle.attempted = totals["packets"] + totals["updates"]
        cycle.failed = totals["wrong_hops"] + totals["divergences"]
        cycle.counts = dict(totals, memrefs_per_packet=totals["accesses"] / totals["packets"])
        cycle.exact = totals
        return cycle

    def _instance(self, topology: int, seed: int, marks: Marks, scale: float) -> Dict[str, int]:
        from repro.churn import (
            ChurnEngine,
            ChurnProfile,
            ConsistencyAuditor,
            UpdateStream,
            build_churn_scenario,
        )

        scenario = dict(self.scenario)
        profile = ChurnProfile(**scenario.pop("profile"))
        scenario["per_node"] = max(5, int(scenario["per_node"] * scale))
        target = max(5, int(self.updates * scale))
        marks.mark("setup")
        network, stream = build_churn_scenario(seed=topology, profile=profile, **scenario)
        stream = UpdateStream(
            dict(stream.live),
            routers=sorted(network.routers),
            profile=profile,
            rng=random.Random(seed),
        )
        engine = ChurnEngine(network, stream, seed=seed)
        auditor = ConsistencyAuditor(every=1, hard=True)
        marks.mark("window")
        reports = []
        updates = 0
        while updates < target:
            if len(reports) > 10 * target:
                raise RuntimeError("update stream stalled after %d epochs" % len(reports))
            reports.append(engine.run(1, traffic_per_epoch=self.traffic))
            updates += reports[-1].updates_applied()
        marks.mark("audit")
        audit = auditor.audit(engine.pairs, engine.epoch)
        # Any amortisation verdict needs the whole run; wrong hops and
        # divergences are counted per epoch and in the final audit.
        return {
            "epochs": len(reports),
            "updates": updates,
            "packets": sum(report.packets() for report in reports),
            "accesses": sum(e.accesses for report in reports for e in report.epochs),
            "entries_rebuilt": sum(report.entries_rebuilt() for report in reports),
            "dirty_marked": sum(report.dirty_marked() for report in reports),
            "wrong_hops": sum(report.wrong_hops() for report in reports),
            "divergences": audit.divergence_count(),
            "audit_checked": audit.entries_checked(),
        }


#: Kept out on purpose: ``lint`` (ROADMAP item 3 is judged by findings and
#: the analyzer is not on the lookup path), ``control`` (its scenarios are
#: parked in the ROADMAP) and ``faults`` (no open ROADMAP item changes it).
WORKLOADS = {
    workload.name: workload
    for workload in (
        ServeWorkload(
            "serve-zipf",
            shards=4,
            partition="range",
            method="advance",
            policy="shed",
            layout="dense",
            zipf_alpha=1.1,
            universe=4096,
            rate=512.0,
            table_size=2000,
            requests=500000,
            audit_samples=2000,
        ),
        ServeWorkload(
            "serve-uniform-mb8",
            shards=4,
            partition="range",
            method="advance",
            policy="shed",
            layout="multibit8",
            zipf_alpha=0.0,
            universe=65536,
            rate=512.0,
            table_size=2000,
            requests=500000,
            audit_samples=2000,
        ),
        ChaosWorkload(
            "chaos-crash",
            faults={"crashes": 1, "slowdowns": 1, "drops": 1},
            shards=2,
            replication=2,
            partition="range",
            method="advance",
            policy="shed",
            zipf_alpha=1.1,
            universe=4096,
            rate=512.0,
            table_size=1500,
            requests=200000,
        ),
        ChurnWorkload(
            "churn-updates",
            instances=3,
            updates=70,
            traffic=25,
            routers=5,
            per_node=20,
            technique="patricia",
            profile={"burst_mean": 6.0, "locality": 0.6, "flap_fraction": 0.25},
        ),
    )
}
