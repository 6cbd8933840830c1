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

After the drain, a differential audit draws a seeded sample of *served*
requests and decodes each recorded answer from the shard that served
it; it must equal both the full-table scalar clue lookup and the
receiver's own longest-prefix match — the paper's never-wrong
forwarding property, re-proved end to end on the serving plane.  The
helpers both engines share (fixture, scalar reference pair, config
check, collector pause) live here too.
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.core.advance import AdvanceMethod
from repro.core.lookup import ClueAssistedLookup
from repro.core.receiver import ReceiverState
from repro.core.simple import SimpleMethod
from repro.fastpath.layouts import LAYOUTS
from repro.lookup.regular import RegularTrieLookup
from repro.serve.batcher import BACKPRESSURE_POLICIES
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


@contextmanager
def settled_heap() -> Iterator[None]:
    """Run a build with the cyclic collector paused, then collect once.

    Left alone, the collector makes several full passes over a growing
    table graph, and where the last lands (in the build or in a later
    serving window) moves with the seed; this way it is the build's.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
            gc.collect()


def build_fixture(config):
    """``(sender_entries, receiver_entries, sender_trie, loadgen)`` of
    the §6 fixture for a :class:`ServeConfig` or ``ResilienceConfig``."""
    sender_entries = generate_table(
        config.table_size, seed=config.seed, width=config.width
    )
    receiver_entries = derive_neighbor(
        sender_entries, NeighborProfile(), seed=config.seed + 1
    )
    sender_trie = BinaryTrie(config.width)
    for prefix, next_hop in sender_entries:
        sender_trie.insert(prefix, next_hop)
    loadgen = ZipfLoadGenerator(
        sender_entries,
        sender_trie,
        LoadProfile(
            zipf_alpha=config.zipf_alpha,
            universe=config.universe,
            rate=config.rate,
        ),
        seed=config.seed + 2,
        width=config.width,
    )
    return sender_entries, receiver_entries, sender_trie, loadgen


def build_reference(receiver_entries, sender_trie, method: str, width: int):
    """``(reference, oracle)``: the full-table scalar clue lookup every
    shard is certified against, and the receiver's LPM.  One read-only
    trie is both: the audit's two checks differ in path, not table.
    """
    state = ReceiverState(receiver_entries, width)
    if method == "advance":
        builder = AdvanceMethod(sender_trie, state, "regular")
    else:
        builder = SimpleMethod(state, "regular")
    table = builder.build_table(list(sender_trie.prefixes()))
    oracle = RegularTrieLookup(receiver_entries, width)
    return ClueAssistedLookup(oracle, table), oracle


class ServeConfig:
    """Everything a serving run depends on — echoed into the payload."""

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
        "audit_samples",
        "seed",
        "width",
        "force_python",
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
        width: int = 32,
        force_python: bool = False,
        layout: str = "dense",
    ):
        if shards < 1:
            raise ValueError("need at least one shard, got %d" % shards)
        if requests < 1:
            raise ValueError("requests must be >= 1, got %d" % requests)
        if table_size < 1:
            raise ValueError("table_size must be >= 1, got %d" % table_size)
        if audit_samples < 0:
            raise ValueError("audit_samples must be >= 0")
        check_choices(policy, partition, method, layout)
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
        self.audit_samples = audit_samples
        self.seed = seed
        self.width = width
        self.force_python = force_python
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
            self.plan = ShardPlan(cfg.shards, cfg.partition, cfg.width)
            # The certification gate lives inside each Shard constructor:
            # an uncertified slice raises CertificationError right here and
            # the engine never comes up.
            self.shards: List[Shard] = build_shards(
                self.plan,
                self.receiver_entries,
                self.sender_trie,
                method=cfg.method,
                width=cfg.width,
                seed=cfg.seed,
                force_python=cfg.force_python,
                instruments=instruments,
                layout=cfg.layout,
            )
        self.certified_lanes = sum(
            shard.certified_lanes for shard in self.shards
        )
        grid = [[shard] for shard in self.shards]
        self._loop = ServingLoop(
            cfg, ReplicaPlan(self.plan, 1), grid, self.loadgen, instruments
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
        payload: Dict[str, object] = {
            "bench": "serve",
            "config": cfg.as_dict(),
            "partition": cfg.partition,
            "seed": cfg.seed,
            "width": cfg.width,
            "backend": "numpy" if loop._use_numpy else "python",
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
                    "requests": shard.requests,
                    "batches": shard.batches,
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
            "audit": self._audit_sample(state),
            "certification": {
                "lanes": self.certified_lanes,
                "disagreements": 0,
            },
        }
        return ServeReport(payload)

    def _audit_sample(self, state) -> Dict[str, object]:
        """Audit ``min(audit_samples, offered)`` served answers drawn by
        ``Random(seed + 3)``, with replacement; the reference pair is
        built here, after the serving window.
        """
        cfg = self.config
        loop = self._loop
        samples = min(cfg.audit_samples, len(state.status)) if state.served else 0
        if samples == 0:
            return {"checked": 0, "disagreements": 0, "details": []}
        rng = random.Random(cfg.seed + 3)
        ranks = [rng.randrange(state.served) for _ in range(samples)]
        picks = loop._gather(loop.served_indices(state), ranks)
        reference, oracle = build_reference(
            self.receiver_entries, self.sender_trie, cfg.method, cfg.width
        )
        checked, wrong, _distinct, details = loop.audit(
            state, picks, reference, oracle
        )
        return {"checked": checked, "disagreements": wrong, "details": details}
