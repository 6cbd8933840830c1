"""The chaos engine: fault-tolerant serving with a never-wrong audit.

:class:`ChaosEngine` is the resilience layer's counterpart of
:class:`repro.serve.engine.ServeEngine`: the same §6 sender/receiver
fixture, the same seeded Zipf/bursty workload, but every table slice is
built R times (:mod:`repro.resilience.replica`) and the tick loop
survives the shard-level fault vocabulary of
:class:`repro.faults.inject.ShardFaultPlan` — replica crashes with
off-hot-path rebuild + re-certification, slow-replica windows, and
whole-batch drops.

Per-request lifecycle (all ticks are the engine's integer clock; RC103
— no wall clocks anywhere in the plane):

* **dispatch** — the destination's slice and preferred replica come
  from one vectorized pass; candidates are tried in health-then-
  rotation order, spilling to the next replica when a queue is full
  (a *failover*) and shedding/backlogging only when every live replica
  refused;
* **deadline** — every request carries an ``arrival + deadline_ticks``
  budget; a request not served by then is *expired*, never silently
  lost;
* **retry** — a request lost to a crash or a dropped batch is
  re-dispatched with exponential backoff, at most ``max_retries``
  times;
* **hedge** — a request still pending ``hedge_ticks`` after its first
  dispatch is duplicated to a different replica; the first completion
  wins and late duplicates are counted, not double-served;
* **degrade** — when the retry budget is exhausted or no replica of the
  slice is dispatchable, the request is answered *immediately* from
  the full-table scalar :class:`~repro.core.lookup.ClueAssistedLookup`
  — the answer every shard is certified against, so the degraded path
  can change latency but never the result.

The end-of-run audit re-verifies ``(prefix, next_hop)`` for **every**
served request — including retried, hedged, and degraded ones, decoded
from the exact table epoch that served them — against the full-table
scalar lookup and the receiver's longest-prefix-match oracle, and a
conservation check proves ``offered = served + shed + expired`` with
nothing left pending.  Wrong answers must be zero: faults may cost
latency and availability, never correctness.
"""

from __future__ import annotations

import gc
from typing import Callable, Dict, List, Optional

from repro.addressing import Address
from repro.core.advance import AdvanceMethod
from repro.core.lookup import ClueAssistedLookup
from repro.core.receiver import ReceiverState
from repro.core.simple import SimpleMethod
from repro.fastpath.backend import get_numpy, numpy_eligible
from repro.fastpath.kernels import as_destination_array, as_length_array
from repro.faults.inject import (
    KIND_BATCH_DROP,
    KIND_SHARD_CRASH,
    KIND_SHARD_RESTART,
    KIND_SHARD_SLOW,
    ShardFaultPlan,
    shard_chaos_plan,
)
from repro.lookup.regular import RegularTrieLookup
from repro.resilience.health import ShardHealth, ShardHealthPolicy
from repro.resilience.replica import (
    MAX_REPLICATION,
    ReplicaPlan,
    build_replica_shard,
    build_replica_shards,
    replica_rotation,
)
from repro.resilience.report import ResilienceReport
from repro.serve.batcher import BatchPolicy, RequestBatcher
from repro.serve.loadgen import LoadProfile, ZipfLoadGenerator
from repro.serve.dispatch import ShardPlan, route_batch
from repro.serve.report import latency_summary
from repro.tablegen import NeighborProfile, derive_neighbor, generate_table
from repro.trie.binary_trie import BinaryTrie

Clock = Optional[Callable[[], float]]

#: Terminal request states (the conservation check's partition).
PENDING = 0
SERVED = 1
SHED = 2
EXPIRED = 3


class ResilienceConfig:
    """Everything a chaos run depends on — echoed into the payload."""

    __slots__ = (
        "shards",
        "replication",
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
        "width",
        "force_python",
        "deadline_ticks",
        "hedge_ticks",
        "max_retries",
        "retry_backoff",
        "service_ticks",
        "rebuild_ticks",
    )

    def __init__(
        self,
        shards: int = 2,
        replication: int = 2,
        partition: str = "range",
        method: str = "advance",
        policy: str = "shed",
        table_size: int = 20000,
        requests: int = 250000,
        max_batch: int = 256,
        max_wait: int = 4,
        queue_capacity: int = 4096,
        zipf_alpha: float = 1.1,
        universe: int = 4096,
        rate: float = 512.0,
        seed: int = 42,
        width: int = 32,
        force_python: bool = False,
        deadline_ticks: int = 32,
        hedge_ticks: int = 6,
        max_retries: int = 3,
        retry_backoff: int = 1,
        service_ticks: int = 1,
        rebuild_ticks: int = 8,
    ):
        if shards < 1:
            raise ValueError("need at least one shard, got %d" % shards)
        if not 1 <= replication <= MAX_REPLICATION:
            raise ValueError(
                "replication must be in [1, %d], got %d"
                % (MAX_REPLICATION, replication)
            )
        if requests < 1:
            raise ValueError("requests must be >= 1, got %d" % requests)
        if table_size < 1:
            raise ValueError("table_size must be >= 1, got %d" % table_size)
        if deadline_ticks < 1:
            raise ValueError("deadline_ticks must be >= 1")
        if hedge_ticks < 1:
            raise ValueError("hedge_ticks must be >= 1")
        if not 0 <= max_retries <= 64:
            raise ValueError("max_retries must be in [0, 64]")
        if retry_backoff < 1:
            raise ValueError("retry_backoff must be >= 1")
        if service_ticks < 1:
            raise ValueError("service_ticks must be >= 1")
        if rebuild_ticks < 1:
            raise ValueError("rebuild_ticks must be >= 1")
        self.shards = shards
        self.replication = replication
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
        self.width = width
        self.force_python = force_python
        self.deadline_ticks = deadline_ticks
        self.hedge_ticks = hedge_ticks
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.service_ticks = service_ticks
        self.rebuild_ticks = rebuild_ticks

    def batch_policy(self) -> BatchPolicy:
        """The per-worker queue policy.

        Worker batchers always run in ``block`` mode internally: a full
        queue must *refuse* the overflow so the dispatcher can spill it
        to the next replica — the engine applies the configured
        shed/block policy only after every candidate refused.
        """
        return BatchPolicy(
            max_batch=self.max_batch,
            max_wait=self.max_wait,
            capacity=self.queue_capacity,
            policy="block",
        )

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}


class _Flight:
    """One batch in service: commits at its scheduled completion tick."""

    __slots__ = ("worker", "table_index", "indices", "codes", "cancelled")

    def __init__(self, worker, table_index, indices, codes):
        self.worker = worker
        self.table_index = table_index
        self.indices = indices
        self.codes = codes
        self.cancelled = False


class _Worker:
    """Per-run mutable state of one replica worker."""

    __slots__ = (
        "slice_id",
        "replica",
        "shard",
        "table_index",
        "batcher",
        "health",
        "down",
        "rebuilding",
        "flights",
        "res_metrics",
        "requests_run",
        "batches_run",
    )

    def __init__(self, slice_id, replica, shard, table_index, batcher,
                 health, res_metrics):
        self.slice_id = slice_id
        self.replica = replica
        self.shard = shard
        self.table_index = table_index
        self.batcher = batcher
        self.health = health
        self.down = False
        self.rebuilding = False
        self.flights: List[_Flight] = []
        self.res_metrics = res_metrics
        self.requests_run = 0
        self.batches_run = 0


class _RunState:
    """Everything one chaos run mutates (fresh per ``run`` call)."""

    __slots__ = (
        "workers",
        "tables",
        "status",
        "attempts",
        "hedged",
        "last_replica",
        "result_src",
        "result_code",
        "completions",
        "retry_due",
        "hedge_due",
        "rebuild_due",
        "backlog",
        "degraded_cache",
        "latency",
        "served",
        "shed",
        "expired",
        "degraded",
        "retries",
        "hedges",
        "failovers",
        "late",
        "batches",
        "batch_drops",
        "crashes",
        "restarts",
        "rebuilt_lanes",
        "expire_cursor",
        "ticks_run",
    )

    def __init__(self, n: int):
        self.workers: List[List[_Worker]] = []
        self.tables: List[object] = []
        self.status = bytearray(n)
        self.attempts = bytearray(n)
        self.hedged = bytearray(n)
        self.last_replica = bytearray(n)
        self.result_src = [-1] * n
        self.result_code = [0] * n
        self.completions: Dict[int, List[_Flight]] = {}
        self.retry_due: Dict[int, List[int]] = {}
        self.hedge_due: Dict[int, List[int]] = {}
        self.rebuild_due: Dict[int, List[tuple]] = {}
        self.backlog: List[int] = []
        self.degraded_cache: Dict[tuple, tuple] = {}
        self.latency: Dict[int, int] = {}
        self.served = 0
        self.shed = 0
        self.expired = 0
        self.degraded = 0
        self.retries = 0
        self.hedges = 0
        self.failovers = 0
        self.late = 0
        self.batches = 0
        self.batch_drops = 0
        self.crashes = 0
        self.restarts = 0
        self.rebuilt_lanes = 0
        self.expire_cursor = 0
        self.ticks_run = 0


class ChaosEngine:
    """Builds the replicated plane once, then replays seeded chaos runs."""

    def __init__(
        self,
        config: Optional[ResilienceConfig] = None,
        instruments=None,
        health_policy: Optional[ShardHealthPolicy] = None,
    ):
        self.config = config if config is not None else ResilienceConfig()
        cfg = self.config
        self.instruments = instruments
        self.health_policy = (
            health_policy if health_policy is not None else ShardHealthPolicy()
        )
        self.sender_entries = generate_table(
            cfg.table_size, seed=cfg.seed, width=cfg.width
        )
        self.receiver_entries = derive_neighbor(
            self.sender_entries, NeighborProfile(), seed=cfg.seed + 1
        )
        self.sender_trie = BinaryTrie(cfg.width)
        for prefix, next_hop in self.sender_entries:
            self.sender_trie.insert(prefix, next_hop)
        self.rplan = ReplicaPlan(
            ShardPlan(cfg.shards, cfg.partition, cfg.width), cfg.replication
        )
        # Every replica slice is compiled and certified here, exactly
        # like a PR 6 shard — an uncertified replica never serves, and
        # the retained slices let crashes rebuild off the hot path.
        self.shards, self.entry_slices, self.clue_slices = (
            build_replica_shards(
                self.rplan,
                self.receiver_entries,
                self.sender_trie,
                method=cfg.method,
                width=cfg.width,
                seed=cfg.seed,
                force_python=cfg.force_python,
                instruments=instruments,
            )
        )
        self.certified_lanes = sum(
            shard.certified_lanes for row in self.shards for shard in row
        )
        # The degraded path and the audit both answer from the one
        # full-table scalar pair every shard was certified against.
        state = ReceiverState(self.receiver_entries, cfg.width)
        if cfg.method == "advance":
            builder = AdvanceMethod(self.sender_trie, state, "regular")
        else:
            builder = SimpleMethod(state, "regular")
        table = builder.build_table(list(self.sender_trie.prefixes()))
        # One read-only trie is both the scalar pair's base and the LPM
        # oracle: the audit's two checks differ in the path, not the table.
        self.oracle = RegularTrieLookup(self.receiver_entries, cfg.width)
        self.reference = ClueAssistedLookup(self.oracle, table)
        self.loadgen = ZipfLoadGenerator(
            self.sender_entries,
            self.sender_trie,
            LoadProfile(
                zipf_alpha=cfg.zipf_alpha,
                universe=cfg.universe,
                rate=cfg.rate,
            ),
            seed=cfg.seed + 2,
            width=cfg.width,
        )
        self._use_numpy = (
            get_numpy() is not None
            and not cfg.force_python
            and numpy_eligible(cfg.width)
        )
        self._workload = None
        self._prep = None
        self._deadline_counter = (
            instruments.serve_deadline_expired
            if instruments is not None
            else None
        )

    # ------------------------------------------------------------------
    def workload(self):
        """The materialized request stream (generated once, reused)."""
        if self._workload is None:
            self._workload = self.loadgen.generate(self.config.requests)
        return self._workload

    def _prepared(self):
        """Workload-derived arrays shared by every run (computed once).

        ``(values, lens, offsets, slice_ids, rotations, arrival)`` —
        the per-request slice id, preferred replica, and arrival tick,
        all from vectorized passes when numpy is available.
        """
        if self._prep is not None:
            return self._prep
        wl = self.workload()
        values, lens, offsets = wl.values, wl.clue_lens, wl.offsets
        if not self._use_numpy and not isinstance(values, list):
            values = values.tolist()
            lens = lens.tolist()
            offsets = offsets.tolist()
        slice_ids = route_batch(
            self.rplan.plan, values, force_python=not self._use_numpy
        )
        rotations = replica_rotation(
            self.rplan, values, force_python=not self._use_numpy
        )
        np = get_numpy()
        if self._use_numpy:
            arrival = np.repeat(
                np.arange(wl.ticks, dtype=np.int64), np.diff(offsets)
            ).tolist()
            slice_ids = slice_ids.tolist()
            rotations = rotations.tolist()
            values_list = values.tolist()
            lens_list = lens.tolist()
        else:
            arrival = []
            for tick in range(wl.ticks):
                arrival.extend(
                    [tick] * (int(offsets[tick + 1]) - int(offsets[tick]))
                )
            values_list = list(values)
            lens_list = list(lens)
            offsets = [int(value) for value in offsets]
        self._prep = (
            values_list,
            lens_list,
            [int(value) for value in offsets],
            slice_ids,
            rotations,
            arrival,
        )
        return self._prep

    def default_plan(
        self,
        crashes: int = 1,
        slowdowns: int = 1,
        drops: int = 1,
        duration: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> ShardFaultPlan:
        """A seeded chaos schedule sized to this engine's workload.

        The settle tail covers the crash rebuild plus the deadline
        budget, so every scheduled episode — including the restart and
        its re-certification — completes while the run is still live.
        """
        cfg = self.config
        ticks = self.workload().ticks
        if duration is None:
            duration = max(4, min(24, ticks // 6))
        settle = cfg.rebuild_ticks + cfg.deadline_ticks + cfg.max_wait + 8
        return shard_chaos_plan(
            cfg.shards,
            cfg.replication,
            ticks,
            crashes=crashes,
            slowdowns=slowdowns,
            drops=drops,
            seed=cfg.seed if seed is None else seed,
            duration=duration,
            settle=settle,
        )

    # ------------------------------------------------------------------
    def run(
        self, plan: Optional[ShardFaultPlan] = None, clock: Clock = None
    ) -> Dict[str, object]:
        """Replay the workload once (with or without faults); one payload.

        Fresh per-run state throughout — two runs of the same engine
        (the baseline/chaos pair :meth:`bench` reports) never share
        queues, health, or table epochs.
        """
        cfg = self.config
        values, lens, offsets, slice_ids, rotations, arrival = (
            self._prepared()
        )
        n = len(values)
        arrival_ticks = len(offsets) - 1
        state = _RunState(n)
        for row in self.shards:
            state.tables.extend(row)
        index = 0
        for s, row in enumerate(self.shards):
            workers_row = []
            for r, shard in enumerate(row):
                res_metrics = (
                    self.instruments.bind_resilience("%d.%d" % (s, r))
                    if self.instruments is not None
                    else None
                )
                workers_row.append(
                    _Worker(
                        s,
                        r,
                        shard,
                        index,
                        RequestBatcher(cfg.batch_policy()),
                        ShardHealth(self.health_policy),
                        res_metrics,
                    )
                )
                index += 1
            state.workers.append(workers_row)
        if plan is not None and self.instruments is not None:
            plan.telemetry = self.instruments
        self._values = values
        self._lens = lens
        self._arrival = arrival
        start = clock() if clock is not None else None
        horizon = (
            arrival_ticks
            + cfg.deadline_ticks
            + cfg.service_ticks
            + cfg.max_wait
            + 16
        )
        if plan is not None:
            horizon += sum(event.extra_ticks for event in plan.slowdowns)
            horizon = max(
                horizon,
                plan.last_event_tick()
                + cfg.rebuild_ticks
                + cfg.deadline_ticks
                + cfg.service_ticks
                + 16,
            )
        for now in range(horizon):
            arriving = now < arrival_ticks
            pending = n - state.served - state.shed - state.expired
            if not arriving and pending == 0 and not state.rebuild_due:
                break
            state.ticks_run = now + 1
            self._commit_completions(state, now)
            if plan is not None:
                self._apply_faults(state, plan, now)
            self._expire_deadlines(state, offsets, now, arrival_ticks)
            for i in state.retry_due.pop(now, ()):
                if state.status[i] == PENDING:
                    self._redispatch(state, i, now)
            if state.backlog:
                self._reoffer_backlog(state, now)
            if arriving:
                lo, hi = offsets[now], offsets[now + 1]
                if hi > lo:
                    self._dispatch_arrivals(
                        state, slice_ids, rotations, lo, hi, now
                    )
            for i in state.hedge_due.pop(now, ()):
                if state.status[i] == PENDING and not state.hedged[i]:
                    self._hedge(state, i, now)
            self._release_batches(state, plan, now)
            if self.instruments is not None:
                self._publish_gauges(state)
        else:
            raise RuntimeError(
                "chaos loop failed to drain within %d ticks" % horizon
            )
        elapsed = clock() - start if clock is not None else None
        return self._payload(state, plan, n, arrival_ticks, elapsed)

    def bench(
        self,
        plan: Optional[ShardFaultPlan] = None,
        clock: Clock = None,
    ) -> ResilienceReport:
        """Baseline run + fault run, one comparative report.

        ``plan=None`` builds :meth:`default_plan`; the baseline always
        runs fault-free so the payload can state exactly what the
        injected adversity cost in latency and availability.
        """
        cfg = self.config
        if plan is None:
            plan = self.default_plan()
        baseline = self.run(plan=None, clock=clock)
        chaos = self.run(plan=plan, clock=clock)
        base_lat = baseline["latency"]
        chaos_lat = chaos["latency"]
        base_totals = baseline["totals"]
        chaos_totals = chaos["totals"]
        base_goodput = base_totals["goodput_per_tick"]
        payload: Dict[str, object] = {
            "bench": "resilience",
            "config": cfg.as_dict(),
            "health_policy": self.health_policy.as_dict(),
            "seed": cfg.seed,
            "width": cfg.width,
            "backend": "numpy" if self._use_numpy else "python",
            "fault_plan": plan.describe(),
            "baseline": baseline,
            "chaos": chaos,
            "certification": {
                "lanes": self.certified_lanes,
                "rebuilt_lanes": chaos["totals"]["rebuilt_lanes"],
                "disagreements": 0,
            },
            "comparison": {
                "availability_without_faults": base_totals["availability"],
                "availability_with_faults": chaos_totals["availability"],
                "p50_without_faults": base_lat["p50"],
                "p50_with_faults": chaos_lat["p50"],
                "p99_without_faults": base_lat["p99"],
                "p99_with_faults": chaos_lat["p99"],
                "p999_without_faults": base_lat["p999"],
                "p999_with_faults": chaos_lat["p999"],
                "goodput_ratio": (
                    chaos_totals["goodput_per_tick"] / base_goodput
                    if base_goodput
                    else None
                ),
            },
        }
        return ResilienceReport(payload)

    # -- dispatch -------------------------------------------------------
    def _dispatch_arrivals(self, state, slice_ids, rotations, lo, hi, now):
        """Group one tick's arrivals by (slice, preferred replica)."""
        groups: Dict[tuple, List[int]] = {}
        for i in range(lo, hi):
            key = (slice_ids[i], rotations[i])
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [i]
            else:
                bucket.append(i)
        for (s, rotation) in sorted(groups):
            self._offer_group(state, s, rotation, groups[(s, rotation)], now)

    def _candidates(self, state, slice_id, rotation, now, exclude=-1):
        """Live workers of the slice in health-then-rotation order."""
        workers = state.workers[slice_id]
        replication = self.rplan.replication
        order = []
        for k in range(replication):
            r = (rotation + k) % replication
            if r == exclude:
                continue
            worker = workers[r]
            if worker.down:
                continue
            rank = worker.health.dispatch_rank(now)
            if rank is None:
                continue
            order.append((rank, k, worker))
        order.sort(key=lambda item: (item[0], item[1]))
        return [worker for _rank, _k, worker in order]

    def _offer_group(self, state, slice_id, rotation, idxs, now,
                     first_dispatch=True):
        """Offer a same-preference group, spilling across replicas."""
        cfg = self.config
        candidates = self._candidates(state, slice_id, rotation, now)
        if not candidates:
            # No replica of the slice is dispatchable at all: last
            # resort, answer from the full-table scalar path right now.
            for i in idxs:
                self._degrade(state, i, now)
            return
        remaining = idxs
        for worker in candidates:
            taken = worker.batcher.offer(remaining, remaining, now)
            if taken:
                accepted = remaining[:taken]
                for i in accepted:
                    state.last_replica[i] = worker.replica
                if worker.replica != rotation:
                    state.failovers += taken
                    if worker.res_metrics is not None:
                        worker.res_metrics.failovers.inc(taken)
                if (
                    first_dispatch
                    and self.rplan.replication > 1
                ):
                    state.hedge_due.setdefault(
                        now + cfg.hedge_ticks, []
                    ).extend(accepted)
                remaining = remaining[taken:]
            if not remaining:
                return
        # Every live replica refused the tail: the configured policy
        # decides between shedding and upstream backlog.
        if cfg.policy == "shed":
            primary = state.workers[slice_id][rotation]
            metrics = primary.shard.metrics
            if metrics is not None:
                metrics.shed.inc(len(remaining))
            for i in remaining:
                state.status[i] = SHED
            state.shed += len(remaining)
        else:
            state.backlog.extend(remaining)

    def _reoffer_backlog(self, state, now):
        """Re-offer blocked requests in arrival order (block policy)."""
        held = state.backlog
        state.backlog = []
        slice_ids = self._prep[3]
        rotations = self._prep[4]
        for i in held:
            if state.status[i] != PENDING:
                continue
            candidates = self._candidates(
                state, slice_ids[i], rotations[i], now
            )
            if not candidates:
                self._degrade(state, i, now)
                continue
            placed = False
            for worker in candidates:
                if worker.batcher.offer([i], [i], now):
                    state.last_replica[i] = worker.replica
                    if worker.replica != rotations[i]:
                        state.failovers += 1
                        if worker.res_metrics is not None:
                            worker.res_metrics.failovers.inc()
                    placed = True
                    break
            if not placed:
                state.backlog.append(i)

    def _redispatch(self, state, i, now):
        """Retry one request on the next live replica of its slice."""
        slice_ids = self._prep[3]
        rotations = self._prep[4]
        slice_id = slice_ids[i]
        rotation = rotations[i]
        candidates = self._candidates(
            state, slice_id, rotation, now, exclude=state.last_replica[i]
        )
        if not candidates:
            # The failed replica may be the only one back up by now.
            candidates = self._candidates(state, slice_id, rotation, now)
        if not candidates:
            self._degrade(state, i, now)
            return
        for worker in candidates:
            if worker.batcher.offer([i], [i], now):
                state.last_replica[i] = worker.replica
                if worker.replica != rotation:
                    state.failovers += 1
                    if worker.res_metrics is not None:
                        worker.res_metrics.failovers.inc()
                return
        if self.config.policy == "shed":
            state.status[i] = SHED
            state.shed += 1
        else:
            state.backlog.append(i)

    def _hedge(self, state, i, now):
        """Duplicate a still-pending request to a different replica."""
        if self.rplan.replication < 2:
            return
        arrival = self._arrival
        if now - arrival[i] >= self.config.deadline_ticks:
            return
        slice_ids = self._prep[3]
        rotations = self._prep[4]
        candidates = self._candidates(
            state,
            slice_ids[i],
            rotations[i],
            now,
            exclude=state.last_replica[i],
        )
        for worker in candidates:
            if worker.batcher.offer([i], [i], now):
                state.hedged[i] = 1
                state.hedges += 1
                if worker.res_metrics is not None:
                    worker.res_metrics.hedges.inc()
                return

    # -- failure recovery -----------------------------------------------
    def _requeue(self, state, idxs, now, worker):
        """Requests lost to a crash or dropped batch: retry or degrade."""
        cfg = self.config
        for i in idxs:
            if state.status[i] != PENDING:
                continue
            used = state.attempts[i]
            if used >= cfg.max_retries:
                self._degrade(state, i, now)
                continue
            state.attempts[i] = used + 1
            state.retries += 1
            if worker.res_metrics is not None:
                worker.res_metrics.retries.inc()
            delay = cfg.retry_backoff << used
            state.retry_due.setdefault(now + delay, []).append(i)

    def _degrade(self, state, i, now):
        """Serve one request from the full-table scalar path, now.

        The scalar :class:`ClueAssistedLookup` is the exact reference
        every shard was certified against, so a degraded answer is
        *definitionally* never wrong — the audit still re-checks it
        against the oracle like every other completion.
        """
        value = self._values[i]
        clen = self._lens[i]
        key = (value, clen)
        answer = state.degraded_cache.get(key)
        if answer is None:
            address = Address(value, self.config.width)
            clue = address.prefix(clen) if clen >= 0 else None
            result = self.reference.lookup(address, clue)
            answer = (result.prefix, result.next_hop)
            state.degraded_cache[key] = answer
        state.status[i] = SERVED
        state.result_src[i] = -1
        state.result_code[i] = 0
        state.served += 1
        state.degraded += 1
        waited = now - self._arrival[i]
        state.latency[waited] = state.latency.get(waited, 0) + 1

    def _apply_faults(self, state, plan, now):
        """Execute the plan's scheduled events landing on this tick."""
        cfg = self.config
        replication = self.rplan.replication
        slices = self.rplan.plan.shards
        for event in plan.crashes_at(now):
            if event.shard >= slices or event.replica >= replication:
                continue
            worker = state.workers[event.shard][event.replica]
            if worker.down:
                continue
            worker.down = True
            worker.rebuilding = False
            state.crashes += 1
            plan.count_event(KIND_SHARD_CRASH)
            worker.health.mark_down(now)
            # Everything queued on or in flight at the worker is lost;
            # the pending copies come back through the retry machinery.
            for batch in worker.batcher.drain_all(now):
                self._requeue(state, batch[0], now, worker)
            for flight in worker.flights:
                flight.cancelled = True
                self._requeue(state, flight.indices, now, worker)
            worker.flights = []
        for event in plan.restarts_at(now):
            if event.shard >= slices or event.replica >= replication:
                continue
            worker = state.workers[event.shard][event.replica]
            if not worker.down or worker.rebuilding:
                continue
            worker.rebuilding = True
            state.rebuild_due.setdefault(now + cfg.rebuild_ticks, []).append(
                (event.shard, event.replica)
            )
        for (s, r) in state.rebuild_due.pop(now, ()):
            worker = state.workers[s][r]
            # The rebuild runs the full PR 6 pipeline again — compile
            # plus certification — and the fresh table becomes a new
            # epoch so the audit decodes every answer against the exact
            # table that produced it.
            shard = self._rebuild_shard(s, r)
            state.tables.append(shard)
            worker.shard = shard
            worker.table_index = len(state.tables) - 1
            worker.down = False
            worker.rebuilding = False
            worker.health.rebuilt(now)
            state.restarts += 1
            state.rebuilt_lanes += shard.certified_lanes
            plan.count_event(KIND_SHARD_RESTART)

    def _rebuild_shard(self, s, r):
        """Rebuild replica ``r`` of slice ``s``, then settle the heap once.

        A rebuild allocates a whole table graph in the middle of a run.
        Left to its allocation counters, the cyclic collector's next
        full pass over the heap (tenths of a second at these table
        sizes) lands wherever the counters happen to cross: for some
        seeds inside the tick loop, for others after it.  The build
        runs with the collector paused and ends in one full collection,
        so that pass belongs to the rebuild on every seed.
        """
        cfg = self.config
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build_replica_shard(
                s,
                r,
                self.entry_slices[s],
                self.clue_slices[s],
                self.sender_trie,
                method=cfg.method,
                width=cfg.width,
                seed=cfg.seed,
                force_python=cfg.force_python,
                instruments=self.instruments,
            )
        finally:
            if enabled:
                gc.enable()
                gc.collect()

    def _expire_deadlines(self, state, offsets, now, arrival_ticks):
        """Expire pending requests whose deadline budget ran out."""
        boundary_tick = now - self.config.deadline_ticks
        if boundary_tick < 0:
            return
        if boundary_tick >= arrival_ticks:
            hi = len(state.status)
        else:
            hi = offsets[boundary_tick + 1]
        status = state.status
        cursor = state.expire_cursor
        counter = self._deadline_counter
        while cursor < hi:
            if status[cursor] == PENDING:
                status[cursor] = EXPIRED
                state.expired += 1
                if counter is not None:
                    counter.inc()
            cursor += 1
        state.expire_cursor = cursor

    # -- service --------------------------------------------------------
    def _commit_completions(self, state, now):
        """Commit every batch whose service time elapses this tick."""
        status = state.status
        latency = state.latency
        arrival = self._arrival
        result_src = state.result_src
        result_code = state.result_code
        for flight in state.completions.pop(now, ()):
            if flight.cancelled:
                continue
            worker = flight.worker
            try:
                worker.flights.remove(flight)
            except ValueError:
                pass
            worker.health.record_ok(now)
            codes = flight.codes
            table_index = flight.table_index
            for pos, i in enumerate(flight.indices):
                if status[i] == PENDING:
                    status[i] = SERVED
                    state.served += 1
                    result_src[i] = table_index
                    result_code[i] = int(codes[pos])
                    waited = now - arrival[i]
                    latency[waited] = latency.get(waited, 0) + 1
                else:
                    # A hedge/retry duplicate lost the race (or the
                    # request expired mid-flight): counted, not served.
                    state.late += 1

    def _release_batches(self, state, plan, now):
        """Release every due batch on every live worker (kernel calls)."""
        for row in state.workers:
            for worker in row:
                if worker.down:
                    continue
                batch = worker.batcher.take_batch(now)
                while batch is not None:
                    self._release_one(state, worker, batch[0], now, plan)
                    batch = worker.batcher.take_batch(now)

    def _release_one(self, state, worker, idxs, now, plan):
        """One coalesced batch through one kernel call (or a fault)."""
        cfg = self.config
        status = state.status
        live = [i for i in idxs if status[i] == PENDING]
        if not live:
            return
        state.batches += 1
        if plan is not None and plan.drops_batch(
            worker.slice_id, worker.replica, now
        ):
            plan.count_event(KIND_BATCH_DROP)
            state.batch_drops += 1
            worker.health.record_fault(now)
            self._requeue(state, live, now, worker)
            return
        extra = 0
        if plan is not None:
            extra = plan.slow_penalty(worker.slice_id, worker.replica, now)
            if extra:
                plan.count_event(KIND_SHARD_SLOW)
                worker.health.record_fault(now)
        values = self._values
        lens = self._lens
        dsts = as_destination_array(
            [values[i] for i in live], cfg.width
        )
        clue_lens = as_length_array([lens[i] for i in live], cfg.width)
        codes, _memrefs = worker.shard.process(dsts, clue_lens)
        worker.requests_run += len(live)
        worker.batches_run += 1
        flight = _Flight(worker, worker.table_index, live, codes)
        worker.flights.append(flight)
        state.completions.setdefault(
            now + cfg.service_ticks + extra, []
        ).append(flight)

    def _publish_gauges(self, state):
        for row in state.workers:
            for worker in row:
                metrics = worker.shard.metrics
                if metrics is not None:
                    metrics.queue_depth.set(worker.batcher.depth)
                if worker.res_metrics is not None:
                    worker.res_metrics.health_state.set(
                        worker.health.state_code()
                    )

    # -- reporting ------------------------------------------------------
    def _payload(self, state, plan, n, arrival_ticks, elapsed):
        audit = self._audit(state, n)
        served = state.served
        pending_end = n - served - state.shed - state.expired
        goodput = served / state.ticks_run if state.ticks_run else 0.0
        workload = self.workload()
        return {
            "workload": {
                "requests": n,
                "arrival_ticks": arrival_ticks,
                "burst_ticks": workload.burst_ticks,
            },
            "totals": {
                "offered": n,
                "served": served,
                "degraded": state.degraded,
                "shed": state.shed,
                "deadline_expired": state.expired,
                "late_completions": state.late,
                "retries": state.retries,
                "hedges": state.hedges,
                "failovers": state.failovers,
                "batches": state.batches,
                "batch_drops": state.batch_drops,
                "crashes": state.crashes,
                "restarts": state.restarts,
                "rebuilt_lanes": state.rebuilt_lanes,
                "ticks": state.ticks_run,
                "availability": served / n if n else None,
                "goodput_per_tick": goodput,
                "elapsed_s": elapsed,
                "sustained_pps": served / elapsed if elapsed else None,
            },
            "latency": latency_summary(state.latency),
            "workers": [
                {
                    "slice": worker.slice_id,
                    "replica": worker.replica,
                    "prefixes": len(worker.shard.entries),
                    "requests": worker.requests_run,
                    "batches": worker.batches_run,
                    "health": worker.health.state,
                    "quarantines": worker.health.quarantines,
                    "faults_seen": worker.health.faults_total,
                }
                for row in state.workers
                for worker in row
            ],
            "faults": (
                dict(plan.describe(), counts=dict(plan.counts))
                if plan is not None
                else None
            ),
            "audit": audit,
            "conservation": {
                "offered": n,
                "served": served,
                "shed": state.shed,
                "deadline_expired": state.expired,
                "pending_end": pending_end,
                "ok": (
                    pending_end == 0
                    and served + state.shed + state.expired == n
                ),
            },
        }

    def _audit(self, state, n):
        """Verify every served request against the scalar path + oracle.

        Answers are decoded from the exact table epoch that served them
        (``result_src`` indexes the per-run table registry, −1 = the
        degraded scalar path) and compared with the full-table scalar
        clue lookup *and* the receiver's longest-prefix match.  Distinct
        ``(epoch, code, destination, clue)`` combinations are verified
        once and the verdict reused — same rigor, linear cost.
        """
        cfg = self.config
        values = self._values
        lens = self._lens
        status = state.status
        result_src = state.result_src
        result_code = state.result_code
        tables = state.tables
        cache: Dict[tuple, bool] = {}
        checked = 0
        wrong = 0
        details: List[Dict[str, object]] = []
        for i in range(n):
            if status[i] != SERVED:
                continue
            value = values[i]
            clen = lens[i]
            src = result_src[i]
            code = result_code[i]
            key = (src, code, value, clen)
            verdict = cache.get(key)
            if verdict is None:
                address = Address(value, cfg.width)
                clue = address.prefix(clen) if clen >= 0 else None
                reference = self.reference.lookup(address, clue)
                want = (reference.prefix, reference.next_hop)
                if src >= 0:
                    got = tables[src].decode(code)
                else:
                    got = state.degraded_cache[(value, clen)]
                oracle_hop = self.oracle.lookup(address).next_hop
                verdict = got == want and got[1] == oracle_hop
                cache[key] = verdict
                if not verdict and len(details) < 5:
                    details.append(
                        {
                            "destination": value,
                            "clue_len": clen,
                            "table_epoch": src,
                            "got": repr(got),
                            "scalar": repr(want),
                            "oracle_next_hop": repr(oracle_hop),
                        }
                    )
            checked += 1
            if not verdict:
                wrong += 1
        return {
            "checked": checked,
            "wrong_answers": wrong,
            "distinct_verified": len(cache),
            "details": details,
        }
