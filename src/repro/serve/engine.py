"""The serving plane: shards + batchers + load generator, on the serving loop.

:class:`ServeEngine` builds the §6 sender/receiver fixture at the
configured scale, partitions the receiver table and the clue universe
across N :class:`~repro.serve.shard.Shard` workers (each compiled and
certified before a single request is served), then replays a seeded
:class:`~repro.serve.loadgen.ZipfLoadGenerator` workload through the
one serving tick loop, :class:`repro.resilience.engine.ServingLoop`,
with one replica per slice, no fault plan, no deadline and zero
service ticks: each tick re-offers the blocked backlog (with its
original arrival ticks), routes and offers the tick's arrivals (shed
policy drops a full queue's overflow), and serves and commits every
due batch with one kernel call.

Time is an integer tick throughout — the simulation never reads a wall
clock (RC103); ``run`` accepts an *injected* clock purely to convert
the completed-request total into a sustained packets/sec figure, so the
same seed and config always produce the same report counts.

After the drain, the loop's audit decodes *every* served answer from
the shard that served it and checks it against the receiver's own
longest-prefix match, looked up in a trie-free range table — the
paper's never-wrong forwarding property, re-proved end to end on the
serving plane.  The helpers both engines share (fixture, config check)
live here too; both build under :func:`repro.heap.settled_heap`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.addressing import IPV4_WIDTH
from repro.fastpath.layouts import LAYOUTS
from repro.heap import settled_heap
from repro.serve.batcher import BACKPRESSURE_POLICIES, BatchPolicy
from repro.serve.dispatch import PARTITION_MODES, ShardPlan
from repro.serve.loadgen import LoadProfile, ZipfLoadGenerator
from repro.serve.report import ServeReport, latency_summary
from repro.serve.shard import METHODS, Shard, build_shards
from repro.tablegen import NeighborProfile, derive_neighbor, generate_table
from repro.trie.binary_trie import BinaryTrie

Clock = Optional[Callable[[], float]]


def check_choices(
    policy: str, partition: str, method: str, layout: str = "dense"
) -> None:
    """Reject an unknown backpressure policy, partition, method or layout."""
    for name, value, allowed in (
        ("policy", policy, BACKPRESSURE_POLICIES),
        ("partition", partition, PARTITION_MODES),
        ("method", method, METHODS),
        ("layout", layout, LAYOUTS),
    ):
        if value not in allowed:
            raise ValueError(
                "%s must be one of %s, got %r" % (name, ", ".join(allowed), value)
            )


def build_fixture(config):
    """``(sender_entries, receiver_entries, sender_trie, loadgen)`` of
    the §6 fixture for a :class:`ServeConfig` or ``ResilienceConfig``."""
    sender_entries = generate_table(config.table_size, seed=config.seed)
    receiver_entries = derive_neighbor(
        sender_entries, NeighborProfile(), seed=config.seed + 1
    )
    sender_trie = BinaryTrie(IPV4_WIDTH)
    for prefix, next_hop in sender_entries:
        sender_trie.insert(prefix, next_hop)
    loadgen = ZipfLoadGenerator(
        sender_entries,
        LoadProfile(
            zipf_alpha=config.zipf_alpha,
            universe=config.universe,
            rate=config.rate,
        ),
        seed=config.seed + 2,
    )
    return sender_entries, receiver_entries, sender_trie, loadgen


class ServeConfig:
    """Everything a serving run depends on — echoed into the payload.

    ``audit_samples`` is accepted and ignored: the audit checks every
    served answer.  The keyword stays only because the repo benchmark
    (``perfbench/``) still passes it, and goes with the next change to
    that benchmark (ROADMAP item 1).
    """

    __slots__ = (
        "shards",
        "partition",
        "method",
        "policy",
        "table_size",
        "requests",
        "max_batch",
        "max_wait",
        "queue_capacity",
        "zipf_alpha",
        "universe",
        "rate",
        "seed",
        "layout",
    )

    def __init__(
        self,
        shards: int = 4,
        partition: str = "range",
        method: str = "advance",
        policy: str = "shed",
        table_size: int = 20000,
        requests: int = 1000000,
        max_batch: int = 256,
        max_wait: int = 4,
        queue_capacity: int = 4096,
        zipf_alpha: float = 1.1,
        universe: int = 4096,
        rate: float = 512.0,
        audit_samples: int = 2000,
        seed: int = 42,
        layout: str = "dense",
    ):
        if shards < 1:
            raise ValueError("need at least one shard, got %d" % shards)
        if requests < 1:
            raise ValueError("requests must be >= 1, got %d" % requests)
        if table_size < 1:
            raise ValueError("table_size must be >= 1, got %d" % table_size)
        check_choices(policy, partition, method, layout)
        # The batcher's and the load generator's own checks, run here so
        # a bad knob fails before any shard is built and certified.
        BatchPolicy(max_batch, max_wait, queue_capacity)
        LoadProfile(zipf_alpha, universe, rate)
        self.shards = shards
        self.partition = partition
        self.method = method
        self.policy = policy
        self.table_size = table_size
        self.requests = requests
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.queue_capacity = queue_capacity
        self.zipf_alpha = zipf_alpha
        self.universe = universe
        self.rate = rate
        self.seed = seed
        self.layout = layout

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}


class ServeEngine:
    """Builds the sharded plane once, then replays seeded workloads."""

    def __init__(self, config: Optional[ServeConfig] = None, instruments=None):
        # repro.resilience builds on this package, so the loop it owns
        # is imported when an engine is built, not when serve is.
        from repro.resilience.engine import ServingLoop
        from repro.resilience.replica import ReplicaPlan

        self.config = config if config is not None else ServeConfig()
        cfg = self.config
        self.instruments = instruments
        with settled_heap():
            self.sender_entries, self.receiver_entries, self.sender_trie, self.loadgen = (
                build_fixture(cfg)
            )
            self.plan = ShardPlan(cfg.shards, cfg.partition)
            # The certification gate lives inside each Shard constructor:
            # an uncertified slice raises CertificationError right here and
            # the engine never comes up.
            self.shards: List[Shard] = build_shards(
                self.plan,
                self.receiver_entries,
                self.sender_trie,
                method=cfg.method,
                seed=cfg.seed,
                instruments=instruments,
                layout=cfg.layout,
            )
        self.certified_lanes = sum(
            shard.certified_lanes for shard in self.shards
        )
        grid = [[shard] for shard in self.shards]
        self._loop = ServingLoop(
            cfg,
            ReplicaPlan(self.plan, 1),
            grid,
            self.loadgen,
            self.receiver_entries,
            instruments,
        )

    # ------------------------------------------------------------------
    def run(self, clock: Clock = None) -> ServeReport:
        """Replay one full workload; returns the ``BENCH_serve`` report."""
        cfg = self.config
        loop = self._loop
        state, elapsed = loop.run_ticks(None, clock)
        workload = loop.workload()
        offered = len(workload)
        completed = state.served
        checked, wrong, details = loop.audit(state)
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
            "latency": latency_summary(loop.latency_counts(state)),
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
