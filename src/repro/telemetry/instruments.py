"""The canonical metric set for distributed IP lookup.

The paper's whole evaluation counts four things: clue-table hits, final
decisions taken without any search, resumed (restricted) searches, and
full lookups — all denominated in memory references.  This module pins
those quantities down as named metrics, once, so the lookup hot path,
the netsim fabric, and the experiment harnesses all report through the
same series instead of each keeping private tallies.

:data:`CATALOGUE` declares every series exactly once: its name, kind,
labels, help text, histogram buckets, and the bound view that pre-binds
it.  :class:`LookupInstruments` registers the rows in table order (the
Prometheus export order) and exposes each one as a handle named after
the series without its ``_total`` suffix (:attr:`Series.handle`); each
bound view binds its own one-label rows to its owner under the same
names.  DESIGN.md §6 renders the table as prose, checked row for row by
the test suite.

Identities the series satisfy by construction (and the end-to-end tests
assert): ``clue_hits_total = fd_immediate_total + resumed_search_total``,
and every lookup lands in exactly one of hit / miss / full, so
``memory_accesses.count = clue_hits + clue_misses + full_lookups``.

Routers grab a :class:`RouterInstruments` via :meth:`LookupInstruments
.bind_router`; it caches bound (zero-allocation) children of every
per-router series, so the per-lookup cost is a handful of dict stores.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from repro.lookup.counters import (
    METHOD_CLUE_MISS,
    METHOD_FD_IMMEDIATE,
    METHOD_RESUMED,
)
from repro.lookup.hotpath import hot_path
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _BoundCounter,
    _BoundGauge,
    _BoundHistogram,
    get_registry,
)
from repro.telemetry.trace import Tracer

#: Depth of a resumed search in memory references (beyond the one
#: clue-table probe); restricted searches are shallow by design.
DEPTH_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)

#: Label value used for the clue table learned from packets whose
#: upstream is unknown (packets injected directly into a router).
DIRECT_UPSTREAM = "direct"

#: Per-pair rebuild backlog observed at each churn epoch boundary
#: (``clue_table_staleness``): deactivated records still awaiting their
#: deferred rebuild.  Zero means the pair is fully converged.
STALENESS_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Released batch sizes (``serve_batch_size``): powers of two up to the
#: kernel-sized default; a healthy batcher sits near ``max_batch``,
#: max-wait flushes of a trickling queue populate the low buckets.
BATCH_SIZE_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)

#: Length in ticks of control-plane disruption episodes
#: (``control_convergence_ticks``): from the tick convergence is first
#: lost to the tick the plane is quiescent and correct again.
CONVERGENCE_BUCKETS = (
    1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0,
)

#: Adjacency states whose transition counters are pre-bound per router
#: (the ``state`` label of ``control_adjacency_transitions_total``).
ADJACENCY_STATES = ("down", "init", "full")


class Series(NamedTuple):
    """One catalogue row: a series and the view that pre-binds it."""

    name: str
    #: ``"counter"``, ``"gauge"`` or ``"histogram"``.
    kind: str
    labels: Tuple[str, ...]
    #: The bound view whose owner fills the first label (``"router"``,
    #: ``"guard"``, ``"shard"``, ``"resilience"``, ``"control"``), or
    #: None for series recorded through :class:`LookupInstruments`.
    view: Optional[str]
    help: str
    #: Histogram bucket upper bounds; empty for counters and gauges.
    buckets: Tuple[float, ...] = ()

    @property
    def handle(self) -> str:
        """The attribute holding the series: its name minus ``_total``."""
        if self.name.endswith("_total"):
            return self.name[: -len("_total")]
        return self.name


#: Every series, in registration (and Prometheus export) order.
CATALOGUE: Tuple[Series, ...] = (
    # -- the paper's lookup accounting (repro.core, repro.netsim) --------
    Series("clue_hits_total", "counter", ("router",), "router",
           "Lookups resolved off a clue-table hit (FD or resumed search)"),
    Series("clue_misses_total", "counter", ("router",), "router",
           "Clue-carrying lookups whose clue table had no record"),
    Series("fd_immediate_total", "counter", ("router",), "router",
           "Clue hits short-circuited by the precomputed final decision"),
    Series("resumed_search_total", "counter", ("router",), "router",
           "Clue hits that ran the restricted resumed search"),
    Series("full_lookups_total", "counter", ("router",), "router",
           "Lookups answered by the base algorithm (no clue, or clue miss)"),
    Series("clue_entries_built_total", "counter", ("router", "method"), "router",
           "Clue-table records constructed, by building method"),
    Series("problematic_clues_total", "counter", ("router",), "router",
           "Built records for clues violating Claim 1 (non-empty Ptr)"),
    Series("memory_accesses", "histogram", ("router",), "router",
           "Memory references charged per lookup", DEFAULT_BUCKETS),
    Series("resumed_search_depth", "histogram", ("router",), "router",
           "References spent in the resumed search beyond the table probe",
           DEPTH_BUCKETS),
    Series("clue_table_size", "gauge", ("router", "upstream"), None,
           "Learned clue-table records per (router, upstream) pair"),
    Series("packets_forwarded_total", "counter", ("result",), None,
           "Packets forwarded end-to-end, by exit reason"),
    Series("traced_packets_total", "counter", (), None,
           "Packets selected by the trace sampler"),
    # -- churn (repro.churn) ---------------------------------------------
    Series("updates_applied_total", "counter", ("kind",), None,
           "Route updates applied to the fabric, by event kind"),
    Series("clues_rebuilt_total", "counter", ("router",), None,
           "Clue-table records rebuilt by incremental maintenance"),
    Series("epochs_converged_total", "counter", (), None,
           "Churn epochs that ended with every pair's backlog empty"),
    Series("clue_table_staleness", "histogram", (), None,
           "Per-pair deferred-rebuild backlog at each epoch boundary",
           STALENESS_BUCKETS),
    # -- faults and the guarded data path (repro.faults) -----------------
    Series("faults_injected_total", "counter", ("kind",), None,
           "Adversarial faults injected into the fabric, by kind"),
    Series("clue_guard_rejections_total", "counter", ("router", "reason"), "guard",
           "Clue consultations rejected by the guarded data path"),
    Series("neighbors_quarantined_total", "counter", ("router",), "guard",
           "Guard quarantine transitions (an upstream lost trust)"),
    Series("degraded_lookup_accesses", "histogram", ("router",), "guard",
           "Memory references of lookups the guard degraded to full",
           DEFAULT_BUCKETS),
    # -- the sharded serving plane (repro.serve) -------------------------
    Series("serve_requests_total", "counter", ("shard",), "shard",
           "Lookup requests served through the batched shard plane"),
    Series("serve_batches_total", "counter", ("shard",), "shard",
           "Coalesced batches released to the shard kernels"),
    Series("serve_shed_total", "counter", ("shard",), "shard",
           "Requests dropped by shed backpressure at a full shard queue"),
    Series("serve_queue_depth", "gauge", ("shard",), "shard",
           "Pending requests in a shard's batcher queue (end of tick)"),
    Series("serve_batch_size", "histogram", ("shard",), "shard",
           "Requests per released batch (max-size vs max-wait mix)",
           BATCH_SIZE_BUCKETS),
    # -- replicated serving (repro.resilience) ---------------------------
    Series("serve_retries_total", "counter", ("shard",), "resilience",
           "Requests re-dispatched after a crash or a dropped batch"),
    Series("serve_hedges_total", "counter", ("shard",), "resilience",
           "Requests duplicated to another replica after hedge_ticks"),
    Series("serve_failovers_total", "counter", ("shard",), "resilience",
           "Requests placed on a replica other than their preferred one"),
    Series("serve_deadline_expired_total", "counter", (), None,
           "Requests whose deadline budget ran out before completion"),
    Series("shard_health_state", "gauge", ("shard",), "resilience",
           "Health FSM state code per replica worker (end of tick)"),
    # -- the link-state control plane (repro.control) --------------------
    Series("control_lsas_flooded_total", "counter", ("router",), "control",
           "LSAs sent in LsUpdate messages (fresh floods + retransmissions)"),
    Series("control_spf_runs_total", "counter", ("router",), "control",
           "Shortest-path-first recomputations triggered by LSDB changes"),
    Series("control_adjacency_transitions_total", "counter", ("router", "state"),
           "control", "Neighbour state-machine transitions, by state entered"),
    Series("control_table_updates_total", "counter", ("router",), "control",
           "Prefix-level routing-table deltas the SPF feed applied"),
    Series("control_convergence_ticks", "histogram", (), None,
           "Ticks from losing control-plane convergence to regaining it",
           CONVERGENCE_BUCKETS),
)


def _bound_handles(view: str) -> Tuple[str, ...]:
    """The handles a view pre-binds: its rows whose one label is the owner.

    A two-label row of the view is bound per second-label value by the
    view itself; a histogram row gets its (zero) series here, because
    binding a histogram creates it.
    """
    return tuple(
        row.handle
        for row in CATALOGUE
        if row.view == view and len(row.labels) == 1
    )


class _BoundView:
    """A per-owner view with every one-label row of :attr:`view` bound.

    Recording through a view never calls ``labels(...)``: the children
    are cached at construction, so an increment is one dict store.
    """

    __slots__ = ("owner",)
    view = ""

    def __init__(self, instruments: "LookupInstruments", owner: str):
        self.owner = owner
        for handle in _bound_handles(self.view):
            setattr(self, handle, getattr(instruments, handle).labels(owner))

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self.owner)


class RouterInstruments(_BoundView):
    """Per-router bound view over the canonical series (the hot handle)."""

    view = "router"
    __slots__ = _bound_handles(view) + ("clue_entries_built",)
    clue_hits: _BoundCounter
    clue_misses: _BoundCounter
    fd_immediate: _BoundCounter
    resumed_search: _BoundCounter
    full_lookups: _BoundCounter
    problematic_clues: _BoundCounter
    memory_accesses: _BoundHistogram
    resumed_search_depth: _BoundHistogram

    def __init__(self, instruments: "LookupInstruments", owner: str):
        super().__init__(instruments, owner)
        self.clue_entries_built = {
            method: instruments.clue_entries_built.labels(owner, method)
            for method in ("simple", "advance")
        }

    @hot_path
    def record_lookup(self, method: Optional[str], accesses: int) -> None:
        """Attribute one lookup's cost to the right series."""
        self.memory_accesses.observe(accesses)
        if method == METHOD_FD_IMMEDIATE:
            self.clue_hits.inc()
            self.fd_immediate.inc()
        elif method == METHOD_RESUMED:
            self.clue_hits.inc()
            self.resumed_search.inc()
            # Depth = work beyond the single clue-table probe.
            self.resumed_search_depth.observe(accesses - 1)
        elif method == METHOD_CLUE_MISS:
            self.clue_misses.inc()
            self.full_lookups.inc()
        else:
            self.full_lookups.inc()

    def record_entry_built(self, method_name: str, problematic: bool) -> None:
        """Account one clue-table record construction (off the fast path)."""
        bound = self.clue_entries_built.get(method_name)
        if bound is not None:
            bound.inc()
        if problematic:
            self.problematic_clues.inc()


class GuardInstruments(_BoundView):
    """Per-router bound view of the guard series (the GuardedLookup sink).

    Matches the monitor protocol of :class:`repro.faults.guard
    .GuardedLookup`: ``record_rejection``, ``record_quarantine``,
    ``record_degraded``.  Rejection children are bound lazily per reason
    (the reason set is small and stable).
    """

    view = "guard"
    __slots__ = _bound_handles(view) + ("_instruments", "clue_guard_rejections")
    neighbors_quarantined: _BoundCounter
    degraded_lookup_accesses: _BoundHistogram

    def __init__(self, instruments: "LookupInstruments", owner: str):
        super().__init__(instruments, owner)
        self._instruments = instruments
        self.clue_guard_rejections: Dict[str, _BoundCounter] = {}

    def record_rejection(self, reason: str) -> None:
        bound = self.clue_guard_rejections.get(reason)
        if bound is None:
            bound = self._instruments.clue_guard_rejections.labels(
                self.owner, reason
            )
            self.clue_guard_rejections[reason] = bound
        bound.inc()

    def record_quarantine(self) -> None:
        self.neighbors_quarantined.inc()

    def record_degraded(self, accesses: int) -> None:
        self.degraded_lookup_accesses.observe(accesses)


class ShardInstruments(_BoundView):
    """Per-shard bound view of the serving-plane series (repro.serve).

    Every handle is pre-bound at shard construction so the batch path
    (``Shard.process``, the engine tick loop) records without a single
    ``labels(...)`` call — the same zero-allocation discipline as
    :class:`RouterInstruments`.
    """

    view = "shard"
    __slots__ = _bound_handles(view)
    serve_requests: _BoundCounter
    serve_batches: _BoundCounter
    serve_shed: _BoundCounter
    serve_queue_depth: _BoundGauge
    serve_batch_size: _BoundHistogram


class ResilienceInstruments(_BoundView):
    """Per-replica-worker bound view of the resilience series.

    One per replica worker of the chaos engine's replicated plane,
    labelled by :meth:`repro.resilience.replica.ReplicaPlan.label`,
    pre-bound at binding time so the retry/hedge/failover
    accounting in the tick loop never calls ``labels(...)`` — the same
    zero-allocation discipline as :class:`ShardInstruments`.
    """

    view = "resilience"
    __slots__ = _bound_handles(view)
    serve_retries: _BoundCounter
    serve_hedges: _BoundCounter
    serve_failovers: _BoundCounter
    shard_health_state: _BoundGauge


class ControlInstruments(_BoundView):
    """Per-router bound view of the control-plane series (repro.control).

    Every handle — including one transition counter per adjacency
    state — is pre-bound at process construction, so the per-tick
    protocol loop records without a single ``labels(...)`` call.
    """

    view = "control"
    __slots__ = _bound_handles(view) + ("control_adjacency_transitions",)
    control_lsas_flooded: _BoundCounter
    control_spf_runs: _BoundCounter
    control_table_updates: _BoundCounter

    def __init__(self, instruments: "LookupInstruments", owner: str):
        super().__init__(instruments, owner)
        self.control_adjacency_transitions = {
            state: instruments.control_adjacency_transitions.labels(
                owner, state
            )
            for state in ADJACENCY_STATES
        }

    def record_flood(self, count: int = 1) -> None:
        if count:
            self.control_lsas_flooded.inc(count)

    def record_spf(self) -> None:
        self.control_spf_runs.inc()

    def record_transition(self, state: str) -> None:
        self.control_adjacency_transitions[state].inc()

    def record_table_updates(self, count: int) -> None:
        if count:
            self.control_table_updates.inc(count)


class LookupInstruments:
    """The canonical metric set over one registry, plus an optional tracer.

    Each :data:`CATALOGUE` row is registered in ``__init__`` and held
    under its :attr:`Series.handle`; the annotations below declare those
    handles for type checkers.
    """

    clue_hits: Counter
    clue_misses: Counter
    fd_immediate: Counter
    resumed_search: Counter
    full_lookups: Counter
    clue_entries_built: Counter
    problematic_clues: Counter
    memory_accesses: Histogram
    resumed_search_depth: Histogram
    clue_table_size: Gauge
    packets_forwarded: Counter
    traced_packets: Counter
    updates_applied: Counter
    clues_rebuilt: Counter
    epochs_converged: Counter
    clue_table_staleness: Histogram
    faults_injected: Counter
    clue_guard_rejections: Counter
    neighbors_quarantined: Counter
    degraded_lookup_accesses: Histogram
    serve_requests: Counter
    serve_batches: Counter
    serve_shed: Counter
    serve_queue_depth: Gauge
    serve_batch_size: Histogram
    serve_retries: Counter
    serve_hedges: Counter
    serve_failovers: Counter
    serve_deadline_expired: Counter
    shard_health_state: Gauge
    control_lsas_flooded: Counter
    control_spf_runs: Counter
    control_adjacency_transitions: Counter
    control_table_updates: Counter
    control_convergence_ticks: Histogram

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.registry = registry if registry is not None else get_registry()
        #: Per-packet trace sampling; None disables tracing entirely.
        self.tracer = tracer
        reg = self.registry
        for row in CATALOGUE:
            metric: object
            if row.kind == "histogram":
                metric = reg.histogram(row.name, row.help, row.labels, row.buckets)
            elif row.kind == "gauge":
                metric = reg.gauge(row.name, row.help, row.labels)
            else:
                metric = reg.counter(row.name, row.help, row.labels)
            setattr(self, row.handle, metric)

    # -- binding --------------------------------------------------------
    def bind_router(self, owner: str) -> RouterInstruments:
        """A per-router view with every label key pre-bound."""
        return RouterInstruments(self, owner)

    # -- fabric-level recording -----------------------------------------
    def record_delivery(self, exit_reason: str) -> None:
        self.packets_forwarded.inc(labels=(exit_reason,))

    def begin_packet(self) -> bool:
        """Ask the tracer (if any) to decide sampling for a new packet."""
        if self.tracer is None:
            return False
        sampled = self.tracer.begin_packet()
        if sampled:
            self.traced_packets.inc()
        return sampled

    def set_clue_table_size(
        self, router: str, upstream: Optional[str], size: int
    ) -> None:
        label = upstream if upstream is not None else DIRECT_UPSTREAM
        self.clue_table_size.set(size, labels=(router, label))

    # -- fault/guard recording --------------------------------------------
    def record_fault(self, kind: str, count: int = 1) -> None:
        """Account ``count`` injected faults of one kind."""
        if count:
            self.faults_injected.inc(count, labels=(kind,))

    def bind_guard(self, router: str) -> "GuardInstruments":
        """A per-router guard monitor (the GuardedLookup telemetry sink)."""
        return GuardInstruments(self, router)

    # -- serving-plane recording ------------------------------------------
    def bind_shard(self, shard: str) -> ShardInstruments:
        """A per-shard serving-plane view with every label pre-bound."""
        return ShardInstruments(self, shard)

    def bind_resilience(self, shard: str) -> ResilienceInstruments:
        """A per-replica-worker resilience view with every label pre-bound."""
        return ResilienceInstruments(self, shard)

    # -- control-plane recording ------------------------------------------
    def bind_control(self, router: str) -> ControlInstruments:
        """A per-router control-plane view with every label pre-bound."""
        return ControlInstruments(self, router)

    def record_convergence_episode(self, ticks: int) -> None:
        """Account one completed control-plane disruption episode."""
        self.control_convergence_ticks.observe(ticks)

    # -- churn recording -------------------------------------------------
    def record_update(self, kind: str, count: int = 1) -> None:
        """Account ``count`` route updates of one kind (announce/withdraw)."""
        self.updates_applied.inc(count, labels=(kind,))

    def record_rebuilds(self, router: str, count: int) -> None:
        """Account clue records rebuilt at ``router`` by maintenance."""
        if count:
            self.clues_rebuilt.inc(count, labels=(router,))

    def record_epoch(self, converged: bool, backlogs: Sequence[int]) -> None:
        """Close one churn epoch: convergence flag + per-pair backlogs."""
        if converged:
            self.epochs_converged.inc()
        for backlog in backlogs:
            self.clue_table_staleness.observe(backlog)

    # -- convenience reads ----------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Registry-wide sums of the per-router counters (for reports)."""
        return {
            "clue_hits_total": self.clue_hits.total(),
            "clue_misses_total": self.clue_misses.total(),
            "fd_immediate_total": self.fd_immediate.total(),
            "resumed_search_total": self.resumed_search.total(),
            "full_lookups_total": self.full_lookups.total(),
            "problematic_clues_total": self.problematic_clues.total(),
            "packets_forwarded_total": self.packets_forwarded.total(),
            "lookups_total": self.memory_accesses.total_count(),
            "updates_applied_total": self.updates_applied.total(),
            "clues_rebuilt_total": self.clues_rebuilt.total(),
            "epochs_converged_total": self.epochs_converged.total(),
            "faults_injected_total": self.faults_injected.total(),
            "clue_guard_rejections_total": self.clue_guard_rejections.total(),
            "neighbors_quarantined_total": self.neighbors_quarantined.total(),
        }

    def reset(self) -> None:
        """Zero every series and (if present) the tracer."""
        self.registry.reset()
        if self.tracer is not None:
            self.tracer.reset()

    def __repr__(self) -> str:
        return "LookupInstruments(registry=%r, tracer=%r)" % (
            self.registry,
            self.tracer,
        )


#: Lazily created instruments over the process default registry.
_default_instruments: Optional[LookupInstruments] = None


def default_instruments() -> LookupInstruments:
    """The process-wide instruments (tracing disabled by default)."""
    global _default_instruments
    if (
        _default_instruments is None
        or _default_instruments.registry is not get_registry()
    ):
        _default_instruments = LookupInstruments(get_registry())
    return _default_instruments


def set_default_instruments(
    instruments: Optional[LookupInstruments],
) -> Optional[LookupInstruments]:
    """Swap the process-wide instruments; returns the previous value."""
    global _default_instruments
    previous = _default_instruments
    _default_instruments = instruments
    return previous
