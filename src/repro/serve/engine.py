"""Plain serving: the serving plane's one loop at one replica per slice.

:class:`ServeEngine` is :class:`repro.resilience.engine.ServingLoop`
as constructed — one replica per slice, no fault plan, no deadline and
zero service ticks — plus the ``BENCH_serve`` payload.  The loop's
set-up builds the §6 sender/receiver fixture at the configured scale
and partitions the receiver table and the clue universe across N
:class:`~repro.serve.shard.Shard` workers, each compiled and certified
before a single request is served; then it replays a seeded
:class:`~repro.serve.loadgen.ZipfLoadGenerator` workload: each tick
re-offers the blocked backlog (with its original arrival ticks),
routes and offers the tick's arrivals (shed policy drops a full
queue's overflow), and serves and commits every due batch with one
kernel call.

Time is an integer tick throughout — the simulation never reads a wall
clock (RC103); ``run`` accepts an *injected* clock purely to convert
the completed-request total into a sustained packets/sec figure, so the
same seed and config always produce the same report counts.

After the drain, the loop's audit decodes *every* served answer from
the shard that served it and checks it against the receiver's own
longest-prefix match, looked up in a trie-free range table — the
paper's never-wrong forwarding property, re-proved end to end on the
serving plane.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.addressing import IPV4_WIDTH
from repro.resilience.engine import Clock, ServingConfig, ServingLoop, check_choices
from repro.serve.report import ServeReport, latency_summary
from repro.serve.shard import Shard


class ServeConfig(ServingConfig):
    """Everything a serving run depends on: the shared knobs and the
    compiled layout the shards serve through.

    ``audit_samples`` is accepted and ignored: the audit checks every
    served answer.  The keyword stays only because the repo benchmark
    (``perfbench/``) still passes it, and goes with the next change to
    that benchmark (ROADMAP item 1).
    """

    __slots__ = ("layout",)

    def __init__(
        self,
        shards: int = 4,
        requests: int = 1000000,
        layout: str = "dense",
        audit_samples: int = 2000,
        **shared,
    ):
        super().__init__(shards, requests, **shared)
        check_choices(layout=layout)
        self.layout = layout


class ServeEngine(ServingLoop):
    """The sharded plane, built once, replaying seeded workloads."""

    def __init__(self, config: Optional[ServeConfig] = None, instruments=None):
        cfg = config if config is not None else ServeConfig()
        super().__init__(cfg, 1, instruments, layout=cfg.layout)
        self.plan = self.rplan.plan
        self.shards: List[Shard] = [row[0] for row in self.grid]

    # ------------------------------------------------------------------
    def run(self, clock: Clock = None) -> ServeReport:
        """Replay one full workload; returns the ``BENCH_serve`` report."""
        cfg = self.config
        state, elapsed = self.run_ticks(None, clock)
        workload = self.workload()
        offered = len(workload)
        completed = state.served
        checked, wrong, details = self.audit(state)
        payload: Dict[str, object] = {
            "bench": "serve",
            "config": cfg.as_dict(),
            "partition": cfg.partition,
            "seed": cfg.seed,
            "width": IPV4_WIDTH,
            "backend": "numpy",
            "workload": {
                "requests": offered,
                "arrival_ticks": workload.ticks,
                "burst_ticks": workload.burst_ticks,
            },
            "shards": [
                {
                    "shard_id": shard.shard_id,
                    "prefixes": len(shard.entries),
                    "clues": len(shard.clue_universe),
                    "requests": row[0].requests_run,
                    "batches": row[0].batches_run,
                    "shed": row[0].shed,
                    "certified_lanes": shard.certified_lanes,
                }
                for shard, row in zip(self.shards, state.workers)
            ],
            "totals": {
                "offered": offered,
                "completed": completed,
                "shed": state.shed,
                "batches": state.batches,
                "ticks": state.ticks_run,
                "elapsed_s": elapsed,
                "sustained_pps": (
                    completed / elapsed if elapsed else None
                ),
            },
            "latency": latency_summary(self.latency_counts(state)),
            # Every served answer, decoded against the shard that served it.
            "audit": {
                "checked": checked,
                "disagreements": wrong,
                "details": details,
            },
            "certification": {
                "lanes": self.certified_lanes,
                "disagreements": 0,
            },
        }
        return ServeReport(payload)
