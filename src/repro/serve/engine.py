"""The serving plane: shards + batchers + load generator, one tick loop.

:class:`ServeEngine` builds the §6 sender/receiver fixture at the
configured scale, partitions the receiver table and the clue universe
across N :class:`~repro.serve.shard.Shard` workers (each compiled and
certified before a single request is served), then replays a seeded
:class:`~repro.serve.loadgen.ZipfLoadGenerator` workload through the
dispatch → batch → kernel path:

    tick loop:
        re-offer blocked backlog (block policy keeps refused requests
            upstream with their original arrival tick);
        route this tick's arrivals to shards (vectorized) and offer
            them to the per-shard batchers (shed policy counts drops);
        release every due batch (full, or oldest-waited-max_wait) and
            serve it with one kernel call per batch;
        publish queue-depth gauges and shed counters.

Time is an integer tick throughout — the simulation never reads a wall
clock (RC103); ``run`` accepts an *injected* clock purely to convert
the completed-request total into a sustained packets/sec figure, so the
same seed and config always produce the same report counts.

After the drain, a differential audit replays a seeded sample of live
requests through the sharded path and insists the decoded
``(prefix, next_hop)`` equals both the full-table scalar clue lookup
and the receiver's own longest-prefix match — the paper's never-wrong
forwarding property, re-proved end to end on the serving plane.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.addressing import Address
from repro.core.advance import AdvanceMethod
from repro.core.lookup import ClueAssistedLookup
from repro.core.receiver import ReceiverState
from repro.core.simple import SimpleMethod
from repro.fastpath.backend import get_numpy, numpy_eligible
from repro.fastpath.kernels import (
    as_destination_array,
    as_length_array,
    lookup_batch,
)
from repro.fastpath.layouts import LAYOUTS
from repro.lookup.regular import RegularTrieLookup
from repro.serve.batcher import BatchPolicy, RequestBatcher
from repro.serve.dispatch import ShardPlan, route_batch
from repro.serve.loadgen import LoadProfile, Workload, ZipfLoadGenerator
from repro.serve.report import ServeReport, latency_summary, tally_waits
from repro.serve.shard import Shard, build_shards
from repro.tablegen import NeighborProfile, derive_neighbor, generate_table
from repro.trie.binary_trie import BinaryTrie

Clock = Optional[Callable[[], float]]


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
        if layout not in LAYOUTS:
            raise ValueError(
                "layout must be one of %s, got %r" % (", ".join(LAYOUTS), layout)
            )
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

    def batch_policy(self) -> BatchPolicy:
        return BatchPolicy(
            max_batch=self.max_batch,
            max_wait=self.max_wait,
            capacity=self.queue_capacity,
            policy=self.policy,
        )

    def load_profile(self) -> LoadProfile:
        return LoadProfile(
            zipf_alpha=self.zipf_alpha,
            universe=self.universe,
            rate=self.rate,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "shards": self.shards,
            "partition": self.partition,
            "method": self.method,
            "policy": self.policy,
            "table_size": self.table_size,
            "requests": self.requests,
            "max_batch": self.max_batch,
            "max_wait": self.max_wait,
            "queue_capacity": self.queue_capacity,
            "zipf_alpha": self.zipf_alpha,
            "universe": self.universe,
            "rate": self.rate,
            "audit_samples": self.audit_samples,
            "seed": self.seed,
            "width": self.width,
            "force_python": self.force_python,
            "layout": self.layout,
        }


class ServeEngine:
    """Builds the sharded plane once, then replays seeded workloads."""

    def __init__(self, config: Optional[ServeConfig] = None, instruments=None):
        self.config = config if config is not None else ServeConfig()
        cfg = self.config
        self.instruments = instruments
        self.sender_entries = generate_table(
            cfg.table_size, seed=cfg.seed, width=cfg.width
        )
        self.receiver_entries = derive_neighbor(
            self.sender_entries, NeighborProfile(), seed=cfg.seed + 1
        )
        self.sender_trie = BinaryTrie(cfg.width)
        for prefix, next_hop in self.sender_entries:
            self.sender_trie.insert(prefix, next_hop)
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
        self.loadgen = ZipfLoadGenerator(
            self.sender_entries,
            self.sender_trie,
            cfg.load_profile(),
            seed=cfg.seed + 2,
            width=cfg.width,
        )
        self._use_numpy = (
            get_numpy() is not None
            and not cfg.force_python
            and numpy_eligible(cfg.width)
        )

    # ------------------------------------------------------------------
    def run(self, clock: Clock = None) -> ServeReport:
        """Replay one full workload; returns the ``BENCH_serve`` report."""
        cfg = self.config
        workload = self.loadgen.generate(cfg.requests)
        values, lens, offsets = workload.values, workload.clue_lens, workload.offsets
        if not self._use_numpy and not isinstance(values, list):
            values = values.tolist()
            lens = lens.tolist()
            offsets = offsets.tolist()
        start = clock() if clock is not None else None
        shard_ids = route_batch(
            self.plan, values, force_python=not self._use_numpy
        )
        nshards = self.plan.shards
        batchers = [
            RequestBatcher(cfg.batch_policy()) for _ in range(nshards)
        ]
        # Ingress backlog for block policy: refused requests wait here
        # (with their original arrival tick) until the queue has room.
        backlog_v: List[List[int]] = [[] for _ in range(nshards)]
        backlog_l: List[List[int]] = [[] for _ in range(nshards)]
        backlog_t: List[List[int]] = [[] for _ in range(nshards)]
        shed_seen = [0] * nshards
        latency: Dict[int, int] = {}
        completed = 0
        batches = 0
        offered = len(values)
        arrival_ticks = workload.ticks
        # Drain bound: once arrivals stop, a non-empty queue flushes a
        # batch within max_wait ticks and a full queue releases at least
        # one max_batch per tick, so the loop provably terminates well
        # inside this cap; overrunning it means a batching bug.
        cap = arrival_ticks + cfg.max_wait + offered // cfg.max_batch + 16
        ticks_run = 0
        for now in range(cap):
            arriving = now < arrival_ticks
            if not arriving and self._idle(batchers, backlog_v):
                break
            ticks_run = now + 1
            for s in range(nshards):
                pending = backlog_v[s]
                if pending:
                    taken = batchers[s].offer(
                        pending, backlog_l[s], now, arrivals=backlog_t[s]
                    )
                    if taken:
                        del pending[:taken]
                        del backlog_l[s][:taken]
                        del backlog_t[s][:taken]
            if arriving:
                lo = int(offsets[now])
                hi = int(offsets[now + 1])
                if hi > lo:
                    self._dispatch(
                        batchers,
                        backlog_v,
                        backlog_l,
                        backlog_t,
                        shard_ids,
                        values,
                        lens,
                        lo,
                        hi,
                        now,
                    )
            for s in range(nshards):
                batcher = batchers[s]
                shard = self.shards[s]
                batch = batcher.take_batch(now)
                while batch is not None:
                    completed += self._process(shard, batch, now, latency)
                    batches += 1
                    batch = batcher.take_batch(now)
                metrics = shard.metrics
                if metrics is not None:
                    metrics.queue_depth.set(batcher.depth)
                    delta = batcher.shed - shed_seen[s]
                    if delta:
                        metrics.shed.inc(delta)
                        shed_seen[s] = batcher.shed
        else:
            raise RuntimeError(
                "serving loop failed to drain within %d ticks" % cap
            )
        elapsed = clock() - start if clock is not None else None
        shed_total = sum(batcher.shed for batcher in batchers)
        audit = self._audit(workload)
        payload: Dict[str, object] = {
            "bench": "serve",
            "config": cfg.as_dict(),
            "partition": cfg.partition,
            "seed": cfg.seed,
            "width": cfg.width,
            "backend": "numpy" if self._use_numpy else "python",
            "workload": {
                "requests": offered,
                "arrival_ticks": arrival_ticks,
                "burst_ticks": workload.burst_ticks,
            },
            "shards": [
                {
                    "shard_id": shard.shard_id,
                    "prefixes": len(shard.entries),
                    "clues": len(shard.clue_universe),
                    "requests": shard.requests,
                    "batches": shard.batches,
                    "shed": batcher.shed,
                    "certified_lanes": shard.certified_lanes,
                }
                for shard, batcher in zip(self.shards, batchers)
            ],
            "totals": {
                "offered": offered,
                "completed": completed,
                "shed": shed_total,
                "batches": batches,
                "ticks": ticks_run,
                "elapsed_s": elapsed,
                "sustained_pps": (
                    completed / elapsed if elapsed else None
                ),
            },
            "latency": latency_summary(latency),
            "audit": audit,
            "certification": {
                "lanes": self.certified_lanes,
                "disagreements": 0,
            },
        }
        return ServeReport(payload)

    # ------------------------------------------------------------------
    @staticmethod
    def _idle(batchers: List[RequestBatcher], backlog_v: List[list]) -> bool:
        for batcher in batchers:
            if len(batcher):
                return False
        for pending in backlog_v:
            if pending:
                return False
        return True

    def _dispatch(
        self,
        batchers,
        backlog_v,
        backlog_l,
        backlog_t,
        shard_ids,
        values,
        lens,
        lo: int,
        hi: int,
        now: int,
    ) -> None:
        """Split one tick's arrival slice by owning shard and offer it."""
        nshards = self.plan.shards
        if self._use_numpy:
            seg_ids = shard_ids[lo:hi]
            seg_vals = values[lo:hi]
            seg_lens = lens[lo:hi]
            for s in range(nshards):
                mask = seg_ids == s
                if not mask.any():
                    continue
                self._admit(
                    batchers[s],
                    backlog_v[s],
                    backlog_l[s],
                    backlog_t[s],
                    seg_vals[mask].tolist(),
                    seg_lens[mask].tolist(),
                    now,
                )
            return
        per_vals: List[List[int]] = [[] for _ in range(nshards)]
        per_lens: List[List[int]] = [[] for _ in range(nshards)]
        for index in range(lo, hi):
            s = shard_ids[index]
            per_vals[s].append(values[index])
            per_lens[s].append(lens[index])
        for s in range(nshards):
            if per_vals[s]:
                self._admit(
                    batchers[s],
                    backlog_v[s],
                    backlog_l[s],
                    backlog_t[s],
                    per_vals[s],
                    per_lens[s],
                    now,
                )

    @staticmethod
    def _admit(batcher, backlog_v, backlog_l, backlog_t, vals, lens_, now):
        """Offer new arrivals; under block policy, hold the refused tail."""
        taken = batcher.offer(vals, lens_, now)
        refused = len(vals) - taken
        if refused > 0 and batcher.policy.policy == "block":
            backlog_v.extend(vals[taken:])
            backlog_l.extend(lens_[taken:])
            backlog_t.extend([now] * refused)

    def _process(
        self, shard: Shard, batch, now: int, latency: Dict[int, int]
    ) -> int:
        """One kernel call for one coalesced batch; tallies exact latency."""
        vals, lens_, ticks_ = batch
        dsts = as_destination_array(vals, self.config.width)
        clue_lens = as_length_array(lens_, self.config.width)
        shard.process(dsts, clue_lens)
        tally_waits(latency, ticks_, now)
        return len(vals)

    # ------------------------------------------------------------------
    def _audit(self, workload: Workload) -> Dict[str, object]:
        """Differential audit: sharded path vs full-table scalar vs LPM.

        A seeded sample of the live workload is replayed through the
        *batched shard kernels* (grouped per shard, bypassing the
        telemetry counters so the audit does not inflate the serving
        numbers) and every decoded ``(prefix, next_hop)`` must equal
        both the full-table scalar clue lookup and the receiver's own
        longest-prefix match — never-wrong forwarding, end to end.
        """
        cfg = self.config
        total = len(workload)
        samples = min(cfg.audit_samples, total)
        if samples == 0:
            return {"checked": 0, "disagreements": 0, "details": []}
        rng = random.Random(cfg.seed + 3)
        state = ReceiverState(self.receiver_entries, cfg.width)
        if cfg.method == "advance":
            builder = AdvanceMethod(self.sender_trie, state, "regular")
        else:
            builder = SimpleMethod(state, "regular")
        table = builder.build_table(list(self.sender_trie.prefixes()))
        # One read-only trie serves as the clue lookup's base and as the
        # LPM oracle: the two checks differ in the path, not the table.
        oracle = RegularTrieLookup(self.receiver_entries, cfg.width)
        reference = ClueAssistedLookup(oracle, table)
        values, lens = workload.values, workload.clue_lens
        per_vals: List[List[int]] = [[] for _ in range(self.plan.shards)]
        per_lens: List[List[int]] = [[] for _ in range(self.plan.shards)]
        for _ in range(samples):
            index = rng.randrange(total)
            value = int(values[index])
            per_vals[self.plan.shard_of(value)].append(value)
            per_lens[self.plan.shard_of(value)].append(int(lens[index]))
        checked = 0
        disagreements = 0
        details: List[Dict[str, object]] = []
        for s, shard in enumerate(self.shards):
            if not per_vals[s]:
                continue
            dsts = as_destination_array(per_vals[s], cfg.width)
            clue_lens = as_length_array(per_lens[s], cfg.width)
            _methods, codes, _new, _refs = lookup_batch(
                shard.ctable, dsts, clue_lens, force_python=cfg.force_python
            )
            for lane in range(len(per_vals[s])):
                value = per_vals[s][lane]
                clen = per_lens[s][lane]
                address = Address(value, cfg.width)
                clue = address.prefix(clen) if clen >= 0 else None
                got = shard.decode(int(codes[lane]))
                ref = reference.lookup(address, clue)
                want = (ref.prefix, ref.next_hop)
                lpm = oracle.lookup(address)
                oracle_hop = lpm.next_hop
                checked += 1
                if got != want or got[1] != oracle_hop:
                    disagreements += 1
                    if len(details) < 5:
                        details.append(
                            {
                                "shard": s,
                                "destination": value,
                                "clue_len": clen,
                                "got": repr(got),
                                "scalar": repr(want),
                                "oracle_next_hop": repr(oracle_hop),
                            }
                        )
        return {
            "checked": checked,
            "disagreements": disagreements,
            "details": details,
        }
