"""The serving plane's core, and the chaos engine built on it.

Both front ends, :class:`repro.serve.engine.ServeEngine` and
:class:`ChaosEngine`, share everything here: one config core
(:class:`ServingConfig`, which each front end's config extends), one
set-up (:meth:`ServingLoop.__init__` builds the §6 fixture and the
certified plane through
:func:`~repro.resilience.replica.build_replica_shards`, under a
settled heap) and one tick loop (:class:`ServingLoop`).  As
constructed the loop is plain serving — no fault plan, no deadline,
zero service ticks — and ``ServeEngine`` runs it with one replica per
slice.  :class:`ChaosEngine` runs the same loop with every table slice
served by R replica workers and survives the shard-level fault
vocabulary of :class:`repro.faults.inject.ShardFaultPlan` — replica
crashes with off-hot-path rebuild + re-certification, slow-replica
windows, and whole-batch drops.

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
  the full-table scalar :class:`~repro.core.lookup.ClueAssistedLookup`,
  built on the first degraded request.  It answers the receiver's
  longest-prefix match, as every certified shard does, so the degraded
  path can change latency but never the result.

Per-request state is flat numpy arrays, so dispatch grouping, batch
release and commit, deadline expiry and the audit are array operations
over them.  Addresses are IPv4 (``IPV4_WIDTH``), which fits the int64
lanes.

:meth:`ServingLoop.audit` checks ``(prefix, next_hop)`` of **every**
served request — retried, hedged and degraded ones included, each
decoded from the exact table epoch that served it — against the
receiver's longest-prefix match, found by one ``searchsorted`` over a
trie-free :class:`~repro.lookup.binary_range.RangeTable` (the paper's
baseline [19]).  The chaos engine adds a conservation check proving
``offered = served + shed + expired`` with nothing left pending.  Wrong
answers must be zero: faults may cost latency and availability, never
correctness.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.addressing import IPV4_WIDTH, Address
from repro.fastpath.layouts import LAYOUTS
from repro.faults.inject import (
    KIND_BATCH_DROP,
    KIND_SHARD_CRASH,
    KIND_SHARD_RESTART,
    KIND_SHARD_SLOW,
    ShardFaultPlan,
    shard_chaos_plan,
)
from repro.heap import settled_heap
from repro.resilience.health import ShardHealth, ShardHealthPolicy
from repro.resilience.replica import (
    MAX_REPLICATION,
    ReplicaPlan,
    build_replica_shard,
    build_replica_shards,
    replica_rotation,
)
from repro.lookup.binary_range import RangeTable
from repro.resilience.report import ResilienceReport
from repro.serve.batcher import BACKPRESSURE_POLICIES, BatchPolicy, RequestBatcher
from repro.serve.dispatch import PARTITION_MODES, ShardPlan, route_batch
from repro.serve.loadgen import LoadProfile, ZipfLoadGenerator
from repro.serve.report import latency_summary
from repro.serve.shard import METHODS, scalar_clue_lookup
from repro.tablegen import NeighborProfile, derive_neighbor, generate_table
from repro.trie.binary_trie import BinaryTrie

Clock = Optional[Callable[[], float]]

#: Terminal request states (the conservation check's partition).
PENDING = 0
SERVED = 1
SHED = 2
EXPIRED = 3

#: Audit answer ids beside the receiver-entry ids (which count from 0):
#: no matching prefix, and an answer that is no receiver entry at all.
NO_ROUTE = -1
WRONG = -2

#: Served requests the audit checks per array pass (bounds its memory).
AUDIT_CHUNK = 65536


def build_reference(receiver_entries, sender_trie, method: str):
    """The degraded path's full-table scalar clue lookup.

    No shard is certified against it: each one certifies against its
    own slice's scalar clue lookup.  For a well-formed clue both answer
    the receiver's longest-prefix match, and the audit re-checks every
    degraded answer like any other.  Its table covers every prefix of
    ``sender_trie``.
    """
    return scalar_clue_lookup(receiver_entries, sender_trie, method)[1]


#: The knobs that name one of a fixed set of values, and those values.
CHOICES = {
    "policy": BACKPRESSURE_POLICIES,
    "partition": PARTITION_MODES,
    "method": METHODS,
    "layout": LAYOUTS,
}


def check_choices(**values: str) -> None:
    """Reject an unknown backpressure policy, partition, method or layout."""
    for name, value in values.items():
        allowed = CHOICES[name]
        if value not in allowed:
            raise ValueError(
                "%s must be one of %s, got %r" % (name, ", ".join(allowed), value)
            )


def build_fixture(config):
    """``(receiver_entries, sender_trie, loadgen)`` of the §6 fixture
    for a :class:`ServingConfig`."""
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
    return receiver_entries, sender_trie, loadgen


class ServingConfig:
    """The knobs every serving run depends on, checked once and echoed
    into the payload.

    Each front end's config extends it — ``ServeConfig`` with the
    compiled layout, :class:`ResilienceConfig` with the replication and
    the fault-handling ticks — checks its own knobs, and picks its own
    ``shards`` and ``requests`` defaults.  So a bad knob fails before
    any shard is built and certified.
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
    )

    def __init__(
        self,
        shards: int,
        requests: int,
        partition: str = "range",
        method: str = "advance",
        policy: str = "shed",
        table_size: int = 20000,
        max_batch: int = 256,
        max_wait: int = 4,
        queue_capacity: int = 4096,
        zipf_alpha: float = 1.1,
        universe: int = 4096,
        rate: float = 512.0,
        seed: int = 42,
    ):
        if shards < 1:
            raise ValueError("need at least one shard, got %d" % shards)
        if requests < 1:
            raise ValueError("requests must be >= 1, got %d" % requests)
        if table_size < 1:
            raise ValueError("table_size must be >= 1, got %d" % table_size)
        check_choices(policy=policy, partition=partition, method=method)
        # The batcher's and the load generator's own checks.
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

    def as_dict(self) -> Dict[str, object]:
        return {
            name: getattr(self, name)
            for cls in reversed(type(self).__mro__)
            for name in vars(cls).get("__slots__", ())
        }


class ResilienceConfig(ServingConfig):
    """Everything a chaos run depends on: the shared knobs, the
    replication, and the deadline, hedge, retry, service and rebuild
    ticks."""

    __slots__ = (
        "replication",
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
        requests: int = 250000,
        replication: int = 2,
        deadline_ticks: int = 32,
        hedge_ticks: int = 6,
        max_retries: int = 3,
        retry_backoff: int = 1,
        service_ticks: int = 1,
        rebuild_ticks: int = 8,
        **shared,
    ):
        super().__init__(shards, requests, **shared)
        if not 1 <= replication <= MAX_REPLICATION:
            raise ValueError(
                "replication must be in [1, %d], got %d"
                % (MAX_REPLICATION, replication)
            )
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
        self.replication = replication
        self.deadline_ticks = deadline_ticks
        self.hedge_ticks = hedge_ticks
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.service_ticks = service_ticks
        self.rebuild_ticks = rebuild_ticks


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
        "shed",
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
        #: Requests shed while this worker was their preferred replica.
        self.shed = 0


class _RunState:
    """Everything one run mutates; per-request columns are numpy arrays."""

    __slots__ = (
        "workers",
        "tables",
        "status",
        "attempts",
        "hedged",
        "last_replica",
        "result_src",
        "result_code",
        "done",
        "completions",
        "retry_due",
        "hedge_due",
        "rebuild_due",
        "backlog",
        "degraded_cache",
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
        "plain",
    )

    def __init__(self, n: int, slices: int, plain: bool):
        self.workers: List[List[_Worker]] = []
        self.tables: List[object] = []
        self.status = np.zeros(n, dtype=np.uint8)
        self.attempts = np.zeros(n, dtype=np.uint8)
        self.hedged = np.zeros(n, dtype=np.uint8)
        self.last_replica = np.zeros(n, dtype=np.uint8)
        #: Table epoch (index into ``tables``; −1 = the degraded path),
        #: result code and completion tick of each served request.
        self.result_src = np.full(n, -1, dtype=np.int32)
        self.result_code = np.zeros(n, dtype=np.int32)
        self.done = np.zeros(n, dtype=np.int32)
        self.completions: Dict[int, List[_Flight]] = {}
        self.retry_due: Dict[int, List[int]] = {}
        #: Request chunks to hedge-check per tick, in placement order.
        self.hedge_due: Dict[int, list] = {}
        self.rebuild_due: Dict[int, List[tuple]] = {}
        #: Per slice, the blocked request chunks, oldest first.
        self.backlog: List[list] = [[] for _ in range(slices)]
        self.degraded_cache: Dict[tuple, tuple] = {}
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
        #: One replica, no deadline, no faults: a placed request leaves
        #: its queue only by being served, so nothing needs re-checking.
        self.plain = plain


class ServingLoop:
    """The serving plane, built once, and its one tick loop.

    Construction is the set-up both front ends share: the §6 fixture of
    ``config`` (a :class:`ServingConfig`), then every table slice
    compiled in ``layout`` and certified once and shared by its
    ``replication`` workers, ``grid[s][r]`` being replica ``r`` of
    slice ``s`` — all under a settled heap.  An uncertified slice
    raises :class:`repro.fastpath.certify.CertificationError` and the
    plane never comes up; the retained slices let a crash rebuild off
    the hot path.  As constructed the loop is plain serving: no
    deadline, zero service ticks (a batch commits on its release tick),
    blocked requests keep their arrival stamp, no resilience series.
    :class:`ChaosEngine` changes all four.
    """

    _deadline: Optional[int] = None
    _service_ticks = 0
    _blocked_keep_arrival = True
    _bind_resilience = False

    def __init__(self, config, replication: int = 1, instruments=None,
                 health_policy=None, layout: str = "dense"):
        self.config = config
        self.instruments = instruments
        self.layout = layout
        with settled_heap():
            self.receiver_entries, self.sender_trie, self.loadgen = (
                build_fixture(config)
            )
            self.rplan = ReplicaPlan(
                ShardPlan(config.shards, config.partition), replication
            )
            self.grid, self.entry_slices, self.clue_slices = build_replica_shards(
                self.rplan,
                self.receiver_entries,
                self.sender_trie,
                method=config.method,
                seed=config.seed,
                instruments=instruments,
                layout=layout,
            )
        #: One certified build per slice: its replicas certify nothing.
        self.certified_lanes = sum(row[0].certified_lanes for row in self.grid)
        self.health_policy = (
            health_policy if health_policy is not None else ShardHealthPolicy()
        )
        self._reference = None
        self._workload = None
        self._offsets: List[int] = []
        self._oracle = None
        self._entry_ids: Dict[tuple, int] = {}

    @property
    def reference(self):
        """The degraded path's full-table scalar clue lookup, built on
        first read under a settled heap, as a crash rebuild is.

        Plain serving never degrades.  Latency counts ticks, so building
        it inside a serving window moves wall time only, and only in a
        run that degrades.
        """
        if self._reference is None:
            with settled_heap():
                self._reference = build_reference(
                    self.receiver_entries, self.sender_trie, self.config.method
                )
        return self._reference

    def _rebuild_shard(self, s, r):
        """Rebuild replica ``r`` of slice ``s`` under a settled heap."""
        cfg = self.config
        with settled_heap():
            return build_replica_shard(
                self.rplan,
                s,
                r,
                self.entry_slices[s],
                self.clue_slices[s],
                self.sender_trie,
                method=cfg.method,
                seed=cfg.seed,
                instruments=self.instruments,
                layout=self.layout,
            )

    # ------------------------------------------------------------------
    def workload(self):
        """The materialized request stream (generated once, reused)."""
        if self._workload is None:
            self._workload = self.loadgen.generate(self.config.requests)
        return self._workload

    def _prepare(self) -> None:
        """Per-request columns shared by every run (computed once), with
        each tick's arrivals sorted into routing groups."""
        if self._offsets:
            return
        wl = self.workload()
        values = wl.values
        self._offsets = wl.offsets.tolist()
        replication = self.rplan.replication
        self._arrival = np.repeat(
            np.arange(wl.ticks, dtype=np.int32), np.diff(wl.offsets)
        )
        groups = self.rplan.workers
        keys = self._arrival.astype(np.int64) * groups
        keys += route_batch(self.rplan.plan, values) * replication
        if replication > 1:
            keys += replica_rotation(self.rplan, values)
        self._order = np.argsort(keys, kind="stable").astype(np.int32)
        self._groups = np.bincount(
            keys, minlength=wl.ticks * groups
        ).reshape(wl.ticks, groups)
        self._values = values
        self._lens = wl.clue_lens

    def run_ticks(self, plan: Optional[ShardFaultPlan] = None, clock: Clock = None):
        """Replay the workload once, fresh state; ``(state, elapsed)``.
        ``clock`` is read exactly twice, before and after the loop."""
        cfg = self.config
        # A full worker queue refuses its overflow, so the dispatcher can
        # spill it to the next replica; the configured shed/block policy
        # applies only once every candidate refused.
        policy = BatchPolicy(cfg.max_batch, cfg.max_wait, cfg.queue_capacity)
        self._prepare()
        offsets = self._offsets
        n = len(self._values)
        arrival_ticks = len(offsets) - 1
        # Drain bound: a request ends within its deadline; with none, a
        # full queue releases a max_batch per tick.  Overrunning is a bug.
        budget = self._deadline
        if budget is None:
            budget = n // cfg.max_batch
        horizon = (
            arrival_ticks + budget + self._service_ticks + cfg.max_wait + 16
        )
        if plan is not None:
            horizon += sum(event.extra_ticks for event in plan.slowdowns)
            horizon = max(
                horizon,
                plan.last_event_tick()
                + cfg.rebuild_ticks
                + budget
                + self._service_ticks
                + 16,
            )
        plain = self._deadline is None and plan is None
        state = _RunState(
            n, self.rplan.slices, plain and self.rplan.replication == 1
        )
        bind = self._bind_resilience and self.instruments is not None
        for s, row in enumerate(self.grid):
            state.workers.append([
                _Worker(s, r, shard, len(state.tables) + r, RequestBatcher(policy),
                        ShardHealth(self.health_policy),
                        self.instruments.bind_resilience(self.rplan.label(s, r))
                        if bind else None)
                for r, shard in enumerate(row)
            ])
            state.tables.extend(row)
        if plan is not None and self.instruments is not None:
            plan.telemetry = self.instruments
        start = clock() if clock is not None else None
        for now in range(horizon):
            arriving = now < arrival_ticks
            pending = n - state.served - state.shed - state.expired
            if not arriving and pending == 0 and not state.rebuild_due:
                break
            state.ticks_run = now + 1
            self._commit_completions(state, now)
            if plan is not None:
                self._apply_faults(state, plan, now)
            if self._deadline is not None:
                self._expire_deadlines(state, now, arrival_ticks)
            for i in state.retry_due.pop(now, ()):
                if state.status[i] == PENDING:
                    self._redispatch(state, i, now)
            self._reoffer_backlog(state, now)
            if arriving:
                if offsets[now + 1] > offsets[now]:
                    self._dispatch_arrivals(state, offsets[now], now)
            for chunk in state.hedge_due.pop(now, ()):
                for i in self._pending(state, chunk):
                    if not state.hedged[i]:
                        self._hedge(state, int(i), now)
            self._release_batches(state, plan, now)
            if self.instruments is not None:
                self._publish_gauges(state)
        else:
            raise RuntimeError(
                "serving loop failed to drain within %d ticks" % horizon
            )
        elapsed = clock() - start if clock is not None else None
        return state, elapsed

    # -- dispatch -------------------------------------------------------
    def _dispatch_arrivals(self, state, start, now):
        """Offer one tick's arrivals, from request ``start`` on, in
        (slice, preferred replica) groups."""
        replication = self.rplan.replication
        for key, count in enumerate(self._groups[now].tolist()):
            if count:
                s, rotation = divmod(key, replication)
                group = self._order[start:start + count]
                self._offer_group(state, s, rotation, group, now)
                start += count

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

    def _place(self, state, slice_id, rotation, idxs, now, stamps=None,
               exclude=-1):
        """Offer ``idxs`` (queue ``stamps``, default now) to the live
        replicas in order; returns how many were placed (a prefix), or
        ``None`` when none was dispatchable and all were degraded.
        """
        candidates = self._candidates(state, slice_id, rotation, now, exclude)
        if not candidates and exclude >= 0:
            # The failed replica may be the only one back up by now.
            candidates = self._candidates(state, slice_id, rotation, now)
        if not candidates:
            # No replica of the slice is dispatchable at all: last
            # resort, answer from the full-table scalar path right now.
            for i in idxs:
                self._degrade(state, int(i), now)
            return None
        placed = 0
        for worker in candidates:
            rest = idxs[placed:]
            taken = worker.batcher.offer(
                rest, rest, now, None if stamps is None else stamps[placed:]
            )
            if taken:
                if self.rplan.replication > 1:
                    state.last_replica[idxs[placed:placed + taken]] = worker.replica
                if worker.replica != rotation:
                    state.failovers += taken
                    if worker.res_metrics is not None:
                        worker.res_metrics.serve_failovers.inc(taken)
                placed += taken
            if placed == len(idxs):
                break
        return placed

    def _offer_group(self, state, slice_id, rotation, idxs, now):
        """Place a same-preference arrival group; hedge what was placed."""
        placed = self._place(state, slice_id, rotation, idxs, now)
        if placed is None:
            return
        if placed and self.rplan.replication > 1:
            state.hedge_due.setdefault(
                now + self.config.hedge_ticks, []
            ).append(idxs[:placed])
        remaining = idxs[placed:]
        if not len(remaining):
            return
        # Every live replica refused the tail: the configured policy
        # decides between shedding and upstream backlog.
        if self.config.policy == "shed":
            primary = state.workers[slice_id][rotation]
            primary.shed += len(remaining)
            metrics = primary.shard.metrics
            if metrics is not None:
                metrics.serve_shed.inc(len(remaining))
            state.status[remaining] = SHED
            state.shed += len(remaining)
        else:
            # Queue-sized chunks: one re-offer fills at most a queue per
            # replica, so it only ever examines the front chunks.
            step = self.config.queue_capacity
            state.backlog[slice_id].extend(
                remaining[k:k + step] for k in range(0, len(remaining), step)
            )

    def _reoffer_backlog(self, state, now):
        """Re-offer blocked requests once per slice, oldest first.

        With one replica a held chunk is one group, else each request
        is.  A refusal means every candidate is full: the slice is done.
        """
        single = self.rplan.replication == 1
        for slice_id, held in enumerate(state.backlog):
            queue = state.workers[slice_id][0].batcher
            # Plain serving has one live worker: a full queue ends it.
            while held and not (state.plain and len(queue) == queue.policy.capacity):
                chunk = held[0] if state.plain else self._pending(state, held[0])
                step = max(1, len(chunk)) if single else 1
                for start in range(0, len(chunk), step):
                    run = chunk[start:start + step]
                    keep = self._blocked_keep_arrival
                    stamps = self._arrival[run] if keep else None
                    rotation = 0 if single else self._route(run[0])[1]
                    placed = self._place(state, slice_id, rotation, run, now, stamps)
                    if placed is not None and placed < len(run):
                        held[0] = chunk[start + placed:]
                        break
                else:
                    del held[0]
                    continue
                break

    def _route(self, i):
        """``(slice, preferred replica)`` of request ``i``: no per-request
        column keeps them, so the plans are asked."""
        value, rplan = int(self._values[i]), self.rplan
        rotation = rplan.rotation_of(value) if rplan.replication > 1 else 0
        return rplan.plan.shard_of(value), rotation

    def _pending(self, state, idxs):
        """The still-pending requests of ``idxs``, in order."""
        idxs = np.asarray(idxs, dtype=np.int64)
        return idxs[state.status[idxs] == PENDING]

    def _redispatch(self, state, i, now):
        """Retry one request on the next live replica of its slice."""
        slice_id, rotation = self._route(i)
        exclude = int(state.last_replica[i])
        if self._place(state, slice_id, rotation, [i], now, exclude=exclude) != 0:
            return
        if self.config.policy == "shed":
            state.status[i] = SHED
            state.shed += 1
        else:
            state.backlog[slice_id].append([i])

    def _hedge(self, state, i, now):
        """Duplicate a still-pending request to a different replica."""
        if now - self._arrival[i] >= self._deadline:
            return
        slice_id, rotation = self._route(i)
        candidates = self._candidates(
            state, slice_id, rotation, now, exclude=state.last_replica[i]
        )
        for worker in candidates:
            if worker.batcher.offer([i], [i], now):
                state.hedged[i] = 1
                state.hedges += 1
                if worker.res_metrics is not None:
                    worker.res_metrics.serve_hedges.inc()
                return

    # -- failure recovery -----------------------------------------------
    def _requeue(self, state, idxs, now, worker):
        """Requests lost to a crash or dropped batch: retry or degrade."""
        cfg = self.config
        for i in idxs.tolist():
            if state.status[i] != PENDING:
                continue
            used = int(state.attempts[i])
            if used >= cfg.max_retries:
                self._degrade(state, i, now)
                continue
            state.attempts[i] = used + 1
            state.retries += 1
            if worker.res_metrics is not None:
                worker.res_metrics.serve_retries.inc()
            delay = cfg.retry_backoff << used
            state.retry_due.setdefault(now + delay, []).append(i)

    def _degrade(self, state, i, now):
        """Serve one request from the full-table scalar path, now.

        The scalar :class:`ClueAssistedLookup` (:func:`build_reference`)
        holds the whole receiver table and the clue table over every
        sender prefix, so it answers the receiver's longest-prefix match
        as the request's slice would have; the audit re-checks the
        answer against the oracle like every other completion.
        """
        value = int(self._values[i])
        clen = int(self._lens[i])
        key = (value, clen)
        answer = state.degraded_cache.get(key)
        if answer is None:
            address = Address(value, IPV4_WIDTH)
            clue = address.prefix(clen) if clen >= 0 else None
            result = self.reference.lookup(address, clue)
            answer = (result.prefix, result.next_hop)
            state.degraded_cache[key] = answer
        state.status[i] = SERVED
        state.result_src[i] = -1
        state.result_code[i] = 0
        state.done[i] = now
        state.served += 1
        state.degraded += 1

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
            # The rebuild runs the full shard pipeline again — compile
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

    def _expire_deadlines(self, state, now, arrival_ticks):
        """Expire pending requests whose deadline budget ran out."""
        boundary_tick = now - self._deadline
        if boundary_tick < 0:
            return
        if boundary_tick >= arrival_ticks:
            hi = len(state.status)
        else:
            hi = self._offsets[boundary_tick + 1]
        cursor = state.expire_cursor
        state.expire_cursor = max(cursor, hi)
        stale = self._pending(state, np.arange(cursor, hi))
        state.status[stale] = EXPIRED
        state.expired += len(stale)
        if len(stale) and self.instruments is not None:
            self.instruments.serve_deadline_expired.inc(len(stale))

    # -- service --------------------------------------------------------
    def _commit_completions(self, state, now):
        """Commit every batch whose service time elapses this tick."""
        for flight in state.completions.pop(now, ()):
            if not flight.cancelled:
                flight.worker.flights.remove(flight)
                self._commit(state, flight, now)

    def _commit(self, state, flight, now):
        """Commit one batch: the first copy of a request is served, any
        later copy (or one that expired in flight) counts late.  A batch
        carrying a request twice commits request by request.
        """
        flight.worker.health.record_ok(now)
        idxs = flight.indices
        codes = flight.codes
        if not self._repeats(idxs):
            live = len(idxs)
            if not state.plain:
                pend = state.status[idxs] == PENDING
                live = int(np.count_nonzero(pend))
                if live < len(idxs):
                    idxs = idxs[pend]
                    codes = codes[pend]
            state.status[idxs] = SERVED
            state.result_src[idxs] = flight.table_index
            state.result_code[idxs] = codes
            state.done[idxs] = now
            state.late += len(flight.indices) - live
            state.served += live
            return
        status = state.status
        for pos, i in enumerate(idxs):
            if status[i] == PENDING:
                status[i] = SERVED
                state.served += 1
                state.result_src[i] = flight.table_index
                state.result_code[i] = int(codes[pos])
                state.done[i] = now
            else:
                state.late += 1

    def _repeats(self, idxs) -> bool:
        """True when a batch carries some request twice (replicas only)."""
        if self.rplan.replication < 2 or len(idxs) < 2:
            return False
        ordered = np.sort(idxs)
        return bool((ordered[1:] == ordered[:-1]).any())

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
        live = idxs if state.plain else self._pending(state, idxs)
        if not len(live):
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
        codes, _memrefs = worker.shard.process(self._values[live], self._lens[live])
        worker.requests_run += len(live)
        worker.batches_run += 1
        flight = _Flight(worker, worker.table_index, live, codes)
        due = now + self._service_ticks + extra
        if due == now:
            self._commit(state, flight, now)
        else:
            worker.flights.append(flight)
            state.completions.setdefault(due, []).append(flight)

    def _publish_gauges(self, state):
        for row in state.workers:
            for worker in row:
                metrics = worker.shard.metrics
                if metrics is not None:
                    metrics.serve_queue_depth.set(worker.batcher.depth)
                if worker.res_metrics is not None:
                    worker.res_metrics.shard_health_state.set(
                        worker.health.state_code()
                    )

    # -- results --------------------------------------------------------
    def latency_counts(self, state) -> Dict[int, int]:
        """Exact ``{ticks waited: requests}`` over every served request."""
        served = state.status == SERVED
        counts = np.bincount(state.done[served] - self._arrival[served])
        return {wait: int(counts[wait]) for wait in counts.nonzero()[0].tolist()}

    def audit(self, state):
        """Check every served answer against the receiver's LPM.

        Each answer, decoded from the table epoch that served it (−1 =
        the degraded path), must be the receiver's longest matching
        prefix with its next hop: :meth:`RangeTable.locate_batch` over
        the range segments of the receiver table finds it, one
        ``searchsorted`` per chunk.  Answers compare as
        receiver-entry ids, so a wrong prefix and a wrong next hop are
        both caught.  Returns ``(checked, wrong, details)``, with at
        most five detail rows.
        """
        ranges, segment_ids = self._ranges()
        # Per epoch, pool code + 1 -> answer id (slot 0 is code −1).
        maps = [
            [NO_ROUTE]
            + [self._answer_id(pair) for pair in zip(pool.prefixes, pool.next_hops)]
            for pool in (table.ctable.trie.pool for table in state.tables)
        ]
        sizes = np.array([len(codes) for codes in maps] + [0], dtype=np.int64)
        bases = np.concatenate(([0], np.cumsum(sizes[:-1])))
        flat = np.array([code for codes in maps for code in codes], dtype=np.int64)
        epochs = len(state.tables)
        checked = wrong = 0
        details: List[Dict[str, object]] = []
        for lo in range(0, len(state.status), AUDIT_CHUNK):
            idxs = lo + np.flatnonzero(state.status[lo:lo + AUDIT_CHUNK] == SERVED)
            src = state.result_src[idxs].astype(np.int64)
            slot = state.result_code[idxs].astype(np.int64) + 1
            # An epoch or code that points nowhere reads the empty map.
            epoch = np.where((src >= 0) & (src < epochs), src, epochs)
            valid = (slot >= 0) & (slot < sizes[epoch])
            got = np.full(len(idxs), WRONG, dtype=np.int64)
            got[valid] = flat[bases[epoch[valid]] + slot[valid]]
            for k in np.flatnonzero(src == -1).tolist():
                got[k] = self._answer_id(self._recorded(state, int(idxs[k])))
            segment = ranges.locate_batch(self._values[idxs])
            bad = np.flatnonzero(got != segment_ids[segment])
            checked += len(idxs)
            wrong += len(bad)
            for k in bad[:5 - len(details)].tolist():
                i = int(idxs[k])
                details.append(
                    {
                        "destination": int(self._values[i]),
                        "clue_len": int(self._lens[i]),
                        "table_epoch": int(state.result_src[i]),
                        "got": repr(self._recorded(state, i)),
                        "want": repr(ranges.answers[int(segment[k])]),
                    }
                )
        return checked, wrong, details

    def _ranges(self):
        """``(range table, answer id per segment)`` of the receiver
        table, built once per engine with no trie, so the audit shares
        no code with what it checks."""
        if self._oracle is None:
            table = RangeTable(self.receiver_entries, IPV4_WIDTH)
            for answer in table.answers:
                if answer[0] is not None:
                    self._entry_ids.setdefault(answer, len(self._entry_ids))
            self._oracle = (
                table,
                np.array([self._answer_id(a) for a in table.answers], dtype=np.int64),
            )
        return self._oracle

    def _answer_id(self, answer) -> int:
        """Id of a ``(prefix, next_hop)`` answer among the segments' own:
        ``NO_ROUTE`` for no prefix, ``WRONG`` for ``None`` or an answer
        no segment gives."""
        if answer is None:
            return WRONG
        if answer[0] is None:
            return NO_ROUTE
        return self._entry_ids.get(answer, WRONG)

    def _recorded(self, state, i):
        """The ``(prefix, next_hop)`` request ``i`` was answered with, or
        ``None`` when its epoch or result code points nowhere."""
        src = int(state.result_src[i])
        code = int(state.result_code[i])
        if src == -1:
            key = (int(self._values[i]), int(self._lens[i]))
            return state.degraded_cache.get(key)
        if not 0 <= src < len(state.tables):
            return None
        table = state.tables[src]
        if not -1 <= code < len(table.ctable.trie.pool):
            return None
        return table.decode(code)


class ChaosEngine(ServingLoop):
    """The loop with R replicas per slice, its config's deadline and
    service ticks, and fault plans: replays seeded chaos runs."""

    _blocked_keep_arrival = False
    _bind_resilience = True

    def __init__(
        self,
        config: Optional[ResilienceConfig] = None,
        instruments=None,
        health_policy: Optional[ShardHealthPolicy] = None,
    ):
        cfg = config if config is not None else ResilienceConfig()
        super().__init__(cfg, cfg.replication, instruments, health_policy)
        #: ``shards[s][r]``: replica ``r`` of slice ``s``.
        self.shards = self.grid
        self._deadline = cfg.deadline_ticks
        self._service_ticks = cfg.service_ticks

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
        """Replay the workload once (with or without faults); one payload."""
        state, elapsed = self.run_ticks(plan, clock)
        return self._payload(state, plan, elapsed)

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
            "width": IPV4_WIDTH,
            "backend": "numpy",
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

    # -- reporting ------------------------------------------------------
    def _payload(self, state, plan, elapsed):
        checked, wrong, details = self.audit(state)
        n = len(state.status)
        served = state.served
        pending_end = n - served - state.shed - state.expired
        goodput = served / state.ticks_run if state.ticks_run else 0.0
        workload = self.workload()
        return {
            "workload": {
                "requests": n,
                "arrival_ticks": workload.ticks,
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
            "latency": latency_summary(self.latency_counts(state)),
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
            # Every served answer, decoded against the epoch that served it.
            "audit": {
                "checked": checked,
                "wrong_answers": wrong,
                # Every answer is checked, so this equals ``checked``;
                # perfbench reads the key.
                "distinct_verified": checked,
                "details": details,
            },
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
