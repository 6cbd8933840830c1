"""Seeded, composable adversarial fault injection.

A :class:`FaultPlan` composes independent injectors, each driven by its
own deterministically derived RNG stream (so enabling one fault never
perturbs another's schedule — the same discipline the robustness
experiments adopted for their sampling):

* **clue corruption in flight** — with probability ``flip_rate`` per
  link traversal, one random bit of the 5/7-bit clue field is flipped;
  with probability ``scramble_rate`` the whole field is resampled
  uniformly (the "uniform 5-bit corruption" model);
* **Byzantine neighbours** — named routers systematically lie about
  their BMP after resolving a packet (the clue they stamp is *not*
  what their own lookup found): truncated, extended, or uniformly
  random lies;
* **clue-table record corruption/drops** — between traffic rounds,
  learned records are corrupted in place (FD swapped for junk, Ptr
  clobbered, stored clue rewritten) or silently dropped;
* **topology faults** — scheduled link-down windows and router
  crash–restart events; a restarted router comes back with *cold* clue
  tables rebuilt lazily by the learning path.

Injectors mutate simulation state only; detection and recovery are the
guard's job (:mod:`repro.faults.guard`).  Every injection is counted
(``counts`` and, when a telemetry sink is attached, the
``faults_injected_total`` series), so experiments can report exactly
how much adversity a run absorbed.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.addressing import Prefix, clue_field_width

#: Injection kinds (the ``kind`` label of ``faults_injected_total``).
KIND_FLIP = "clue_bitflip"
KIND_SCRAMBLE = "clue_scramble"
KIND_BYZANTINE = "byzantine_clue"
KIND_RECORD = "record_corrupt"
KIND_DROP = "record_drop"
KIND_LINK_DOWN = "link_down"
KIND_CRASH = "router_crash"
KIND_RESTART = "router_restart"
KIND_SHARD_CRASH = "shard_crash"
KIND_SHARD_RESTART = "shard_restart"
KIND_SHARD_SLOW = "shard_slow"
KIND_BATCH_DROP = "batch_drop"

#: Byzantine lie modes.
LIE_RANDOM = "random"
LIE_SHORTER = "shorter"
LIE_LONGER = "longer"
LIE_MODES = (LIE_RANDOM, LIE_SHORTER, LIE_LONGER)

#: Record corruption modes, cycled through by the injector.
RECORD_MODES = ("fd", "ptr", "clue", "drop")


class LinkDownEvent:
    """Link (a, b) goes down at ``round_index`` for ``duration`` rounds."""

    __slots__ = ("round_index", "a", "b", "duration")

    def __init__(self, round_index: int, a: str, b: str, duration: int = 1):
        if round_index < 0 or duration < 1:
            raise ValueError("need round_index >= 0 and duration >= 1")
        self.round_index = round_index
        self.a = a
        self.b = b
        self.duration = duration

    def link(self) -> frozenset:
        return frozenset((self.a, self.b))

    def __repr__(self) -> str:
        return "LinkDownEvent(r%d, %s--%s, %d rounds)" % (
            self.round_index, self.a, self.b, self.duration,
        )


class CrashEvent:
    """Router crashes at ``round_index``, restarts ``duration`` rounds later."""

    __slots__ = ("round_index", "router", "duration")

    def __init__(self, round_index: int, router: str, duration: int = 1):
        if round_index < 0 or duration < 1:
            raise ValueError("need round_index >= 0 and duration >= 1")
        self.round_index = round_index
        self.router = router
        self.duration = duration

    def __repr__(self) -> str:
        return "CrashEvent(r%d, %s, %d rounds)" % (
            self.round_index, self.router, self.duration,
        )


def _derived_rng(seed: int, name: str) -> random.Random:
    """An independent, deterministic RNG stream for one injector."""
    return random.Random("faultplan:%d:%s" % (seed, name))


class FaultPlan:
    """A composed set of seeded fault injectors.

    ``byzantine`` maps router names to a lie mode from :data:`LIE_MODES`.
    ``record_rate`` is the per-round probability that each learned clue
    table suffers one corruption event; ``record_burst`` scales how many
    records each event touches.
    """

    def __init__(
        self,
        seed: int = 0,
        flip_rate: float = 0.0,
        scramble_rate: float = 0.0,
        byzantine: Optional[Dict[str, str]] = None,
        byzantine_rate: float = 1.0,
        record_rate: float = 0.0,
        record_burst: int = 1,
        link_downs: Iterable[LinkDownEvent] = (),
        crashes: Iterable[CrashEvent] = (),
    ):
        for name, rate in (
            ("flip_rate", flip_rate),
            ("scramble_rate", scramble_rate),
            ("byzantine_rate", byzantine_rate),
            ("record_rate", record_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("%s must be within [0, 1]" % name)
        if record_burst < 1:
            raise ValueError("record_burst must be positive")
        self.seed = seed
        self.flip_rate = flip_rate
        self.scramble_rate = scramble_rate
        self.byzantine = dict(byzantine or {})
        for router, mode in self.byzantine.items():
            if mode not in LIE_MODES:
                raise ValueError(
                    "unknown lie mode %r for router %r (expected one of %s)"
                    % (mode, router, ", ".join(LIE_MODES))
                )
        self.byzantine_rate = byzantine_rate
        self.record_rate = record_rate
        self.record_burst = record_burst
        self.link_downs = list(link_downs)
        self.crashes = list(crashes)
        #: Injections performed so far, by kind.
        self.counts: Dict[str, int] = {}
        #: Optional telemetry sink with a ``record_fault(kind)`` method
        #: (:class:`repro.telemetry.LookupInstruments`).
        self.telemetry = None
        self._link_rng = _derived_rng(seed, "link")
        self._byz_rng = _derived_rng(seed, "byzantine")
        self._record_rng = _derived_rng(seed, "record")
        self._record_mode = 0

    # ------------------------------------------------------------------
    def _count(self, kind: str, n: int = 1) -> None:
        if not n:
            return
        self.counts[kind] = self.counts.get(kind, 0) + n
        if self.telemetry is not None:
            self.telemetry.record_fault(kind, n)

    def total_injected(self) -> int:
        return sum(self.counts.values())

    def any_packet_faults(self) -> bool:
        """True if per-packet (link/Byzantine) injection is configured."""
        return bool(
            self.flip_rate or self.scramble_rate or self.byzantine
        )

    # -- per-packet injectors -------------------------------------------
    def perturb_on_link(self, packet) -> Optional[str]:
        """Corrupt the in-flight clue field; returns the kind injected."""
        length = packet.clue.length
        if length is None:
            return None
        width = packet.destination.width
        field_bits = clue_field_width(width)
        if self.scramble_rate and self._link_rng.random() < self.scramble_rate:
            packet.clue.length = min(
                self._link_rng.getrandbits(field_bits), width
            )
            packet.clue.index = None
            self._count(KIND_SCRAMBLE)
            return KIND_SCRAMBLE
        if self.flip_rate and self._link_rng.random() < self.flip_rate:
            flipped = length ^ (1 << self._link_rng.randrange(field_bits))
            packet.clue.length = min(flipped, width)
            packet.clue.index = None
            self._count(KIND_FLIP)
            return KIND_FLIP
        return None

    def lie_after_hop(self, router: str, packet) -> Optional[str]:
        """Apply a Byzantine router's lie to the clue it just stamped."""
        mode = self.byzantine.get(router)
        if mode is None or packet.clue.length is None:
            return None
        if self.byzantine_rate < 1.0 and (
            self._byz_rng.random() >= self.byzantine_rate
        ):
            return None
        truth = packet.clue.length
        width = packet.destination.width
        lie = self._lie(mode, truth, width)
        if lie == truth:
            return None
        packet.clue.length = lie
        packet.clue.index = None
        self._count(KIND_BYZANTINE)
        return KIND_BYZANTINE

    def _lie(self, mode: str, truth: int, width: int) -> int:
        if mode == LIE_SHORTER:
            return self._byz_rng.randrange(truth) if truth else truth
        if mode == LIE_LONGER:
            if truth >= width:
                return truth
            return self._byz_rng.randrange(truth + 1, width + 1)
        lie = self._byz_rng.randrange(width + 1)
        if lie == truth:  # systematic liars never tell the truth
            lie = (lie + 1) % (width + 1)
        return lie

    # -- record corruption ----------------------------------------------
    def corrupt_records(self, router) -> int:
        """Corrupt/drop records in one router's learned clue tables.

        ``router`` must expose ``learned_tables() -> {upstream:
        ClueTable}`` (see :meth:`repro.netsim.router.ClueRouter
        .learned_tables`).  Returns the number of records touched.
        """
        if not self.record_rate:
            return 0
        touched = 0
        for _upstream, table in sorted(
            router.learned_tables().items(), key=lambda item: str(item[0])
        ):
            if self._record_rng.random() >= self.record_rate:
                continue
            records = [entry for entry in table.entries() if entry.active]
            if not records:
                continue
            for _ in range(min(self.record_burst, len(records))):
                entry = records[self._record_rng.randrange(len(records))]
                touched += self._corrupt_one(table, entry)
        return touched

    def _corrupt_one(self, table, entry) -> int:
        mode = RECORD_MODES[self._record_mode % len(RECORD_MODES)]
        self._record_mode += 1
        if mode == "drop":
            table.remove(entry.clue)
            self._count(KIND_DROP)
            return 1
        if mode == "fd":
            width = entry.clue.width
            bits = self._record_rng.getrandbits(width)
            entry.fd_prefix = Prefix(bits, width, width)
            entry.fd_next_hop = "<corrupt>"
        elif mode == "ptr":
            entry.continuation = None
        else:  # "clue": the stored clue no longer matches its hash slot
            flipped = entry.clue.length ^ 1 if entry.clue.length else 1
            entry.clue = Prefix(
                self._record_rng.getrandbits(min(flipped, entry.clue.width)),
                min(flipped, entry.clue.width),
                entry.clue.width,
            )
        self._count(KIND_RECORD)
        return 1

    # -- topology events -------------------------------------------------
    def links_down_at(self, round_index: int) -> List[frozenset]:
        """Links that must be down during ``round_index``."""
        return [
            event.link()
            for event in self.link_downs
            if event.round_index
            <= round_index
            < event.round_index + event.duration
        ]

    def routers_down_at(self, round_index: int) -> List[str]:
        """Routers that must be down during ``round_index``."""
        return [
            event.router
            for event in self.crashes
            if event.round_index
            <= round_index
            < event.round_index + event.duration
        ]

    def restarts_at(self, round_index: int) -> List[str]:
        """Routers whose crash window ends exactly at ``round_index``."""
        return [
            event.router
            for event in self.crashes
            if event.round_index + event.duration == round_index
        ]

    def apply_schedule(self, network, index: int) -> Tuple[List[str], List[str], int]:
        """Execute the crashes, restarts and link-downs due at ``index``.

        Restarts go first, so a router whose next crash window opens as
        its last one closes goes down again; then crashes, in name
        order.  The links down at ``index`` replace
        ``network.down_links``.  Every executed event is counted.
        Returns the routers restarted, the routers crashed and the
        number of links newly down.
        """
        restarted = []
        for name in self.restarts_at(index):
            router = network.routers.get(name)
            if router is not None and not router.up:
                router.restart()
                restarted.append(name)
        crashed = []
        for name in sorted(set(self.routers_down_at(index))):
            router = network.routers.get(name)
            if router is not None and router.up:
                router.crash()
                crashed.append(name)
        links = set(self.links_down_at(index))
        failed = len(links - network.down_links)
        network.down_links = links
        self._count(KIND_RESTART, len(restarted))
        self._count(KIND_CRASH, len(crashed))
        self._count(KIND_LINK_DOWN, failed)
        return restarted, crashed, failed

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "flip_rate": self.flip_rate,
            "scramble_rate": self.scramble_rate,
            "byzantine": dict(self.byzantine),
            "byzantine_rate": self.byzantine_rate,
            "record_rate": self.record_rate,
            "record_burst": self.record_burst,
            "link_downs": len(self.link_downs),
            "crashes": len(self.crashes),
        }

    def __repr__(self) -> str:
        return "FaultPlan(seed=%d, %d injected)" % (
            self.seed,
            self.total_injected(),
        )


def flap_crash_plan(
    routers: List[str],
    links: List[Tuple[str, str]],
    ticks: int,
    *,
    flaps: int = 0,
    crashes: int = 0,
    seed: int = 0,
    duration: int = 10,
    settle: int = 16,
) -> FaultPlan:
    """A topology-only plan for perturbing the link-state control plane.

    Unlike :func:`random_topology_events` (which pairs arbitrary router
    names), flap events here are drawn from the *actual* ``links`` of
    the topology — flapping a non-existent link would not perturb an
    IGP at all.  ``duration`` should exceed the IGP's dead interval, or
    a flap ends before any adjacency notices; the default comfortably
    exceeds the default dead interval of 4 ticks.  Events are scheduled
    in ``[1, ticks - duration - settle)`` so the plane has a quiet tail
    to reconverge in before final oracle certification.
    """
    if duration < 1 or settle < 0:
        raise ValueError("need duration >= 1 and settle >= 0")
    rng = _derived_rng(seed, "control-topology")
    names = sorted(routers)
    edges = sorted(tuple(sorted(edge)) for edge in links)
    last_start = max(2, ticks - duration - settle)
    link_events: List[LinkDownEvent] = []
    crash_events: List[CrashEvent] = []
    if edges:
        for _ in range(flaps):
            tick = rng.randrange(1, last_start)
            a, b = edges[rng.randrange(len(edges))]
            link_events.append(LinkDownEvent(tick, a, b, duration))
    if names:
        for _ in range(crashes):
            tick = rng.randrange(1, last_start)
            router = names[rng.randrange(len(names))]
            crash_events.append(CrashEvent(tick, router, duration))
    return FaultPlan(seed=seed, link_downs=link_events, crashes=crash_events)


# ----------------------------------------------------------------------
# Shard-level faults (the serving plane, repro.resilience)
# ----------------------------------------------------------------------


class ReplicaCrashEvent:
    """Replica ``(shard, replica)`` crashes at ``tick``.

    The worker is down for ``duration`` ticks; at ``tick + duration``
    the chaos engine begins the off-hot-path rebuild that re-certifies
    the slice and re-admits the worker through probation.
    """

    __slots__ = ("tick", "shard", "replica", "duration")

    def __init__(self, tick: int, shard: int, replica: int, duration: int = 1):
        if tick < 0 or duration < 1:
            raise ValueError("need tick >= 0 and duration >= 1")
        if shard < 0 or replica < 0:
            raise ValueError("shard and replica indices must be >= 0")
        self.tick = tick
        self.shard = shard
        self.replica = replica
        self.duration = duration

    def __repr__(self) -> str:
        return "ReplicaCrashEvent(t%d, %d.%d, %d ticks)" % (
            self.tick, self.shard, self.replica, self.duration,
        )


class SlowReplicaEvent:
    """Replica ``(shard, replica)`` serves slowly in a tick window.

    Every batch the worker releases during ``[tick, tick + duration)``
    completes ``extra_ticks`` later than its nominal service time —
    the classic gray-failure mode that hedging exists for.
    """

    __slots__ = ("tick", "shard", "replica", "duration", "extra_ticks")

    def __init__(
        self,
        tick: int,
        shard: int,
        replica: int,
        duration: int = 1,
        extra_ticks: int = 1,
    ):
        if tick < 0 or duration < 1:
            raise ValueError("need tick >= 0 and duration >= 1")
        if shard < 0 or replica < 0:
            raise ValueError("shard and replica indices must be >= 0")
        if extra_ticks < 1:
            raise ValueError("extra_ticks must be >= 1")
        self.tick = tick
        self.shard = shard
        self.replica = replica
        self.duration = duration
        self.extra_ticks = extra_ticks

    def __repr__(self) -> str:
        return "SlowReplicaEvent(t%d, %d.%d, %d ticks, +%d)" % (
            self.tick, self.shard, self.replica, self.duration,
            self.extra_ticks,
        )


class BatchDropEvent:
    """Replica ``(shard, replica)`` drops released batches in a window.

    Batches the worker releases during ``[tick, tick + duration)`` are
    lost whole — the requests they carried must be retried (or served
    degraded) by the engine's recovery machinery.
    """

    __slots__ = ("tick", "shard", "replica", "duration")

    def __init__(self, tick: int, shard: int, replica: int, duration: int = 1):
        if tick < 0 or duration < 1:
            raise ValueError("need tick >= 0 and duration >= 1")
        if shard < 0 or replica < 0:
            raise ValueError("shard and replica indices must be >= 0")
        self.tick = tick
        self.shard = shard
        self.replica = replica
        self.duration = duration

    def __repr__(self) -> str:
        return "BatchDropEvent(t%d, %d.%d, %d ticks)" % (
            self.tick, self.shard, self.replica, self.duration,
        )


class ShardFaultPlan:
    """A deterministic schedule of shard-level serving-plane faults.

    The query methods are pure functions of the tick, so the chaos
    engine can replay the same plan twice (baseline run vs. fault run)
    and across processes with bit-identical outcomes.  Executed events
    are accounted through :meth:`count_event` — the plan declares, the
    engine executes and reports.
    """

    def __init__(
        self,
        seed: int = 0,
        crashes: Iterable[ReplicaCrashEvent] = (),
        slowdowns: Iterable[SlowReplicaEvent] = (),
        batch_drops: Iterable[BatchDropEvent] = (),
    ):
        self.seed = seed
        self.crashes = list(crashes)
        self.slowdowns = list(slowdowns)
        self.batch_drops = list(batch_drops)
        #: Injections executed so far, by kind.
        self.counts: Dict[str, int] = {}
        #: Optional telemetry sink with a ``record_fault(kind)`` method.
        self.telemetry = None

    # ------------------------------------------------------------------
    def count_event(self, kind: str, n: int = 1) -> None:
        """Account ``n`` injections the engine executed for this plan."""
        self.counts[kind] = self.counts.get(kind, 0) + n
        if self.telemetry is not None:
            self.telemetry.record_fault(kind, n)

    def total_injected(self) -> int:
        return sum(self.counts.values())

    # -- schedule queries ------------------------------------------------
    def crashes_at(self, tick: int) -> List[ReplicaCrashEvent]:
        """Crash events whose window opens exactly at ``tick``."""
        return [event for event in self.crashes if event.tick == tick]

    def restarts_at(self, tick: int) -> List[ReplicaCrashEvent]:
        """Crash events whose down window ends exactly at ``tick``."""
        return [
            event
            for event in self.crashes
            if event.tick + event.duration == tick
        ]

    def slow_penalty(self, shard: int, replica: int, tick: int) -> int:
        """Extra service ticks for a batch released by the worker now."""
        extra = 0
        for event in self.slowdowns:
            if (
                event.shard == shard
                and event.replica == replica
                and event.tick <= tick < event.tick + event.duration
            ):
                extra += event.extra_ticks
        return extra

    def drops_batch(self, shard: int, replica: int, tick: int) -> bool:
        """True if a batch the worker releases now is lost whole."""
        for event in self.batch_drops:
            if (
                event.shard == shard
                and event.replica == replica
                and event.tick <= tick < event.tick + event.duration
            ):
                return True
        return False

    def last_event_tick(self) -> int:
        """The last tick any scheduled window is still open (or 0)."""
        last = 0
        for event in self.crashes:
            last = max(last, event.tick + event.duration)
        for event in self.slowdowns:
            last = max(last, event.tick + event.duration)
        for event in self.batch_drops:
            last = max(last, event.tick + event.duration)
        return last

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "crashes": len(self.crashes),
            "slowdowns": len(self.slowdowns),
            "batch_drops": len(self.batch_drops),
            "last_event_tick": self.last_event_tick(),
        }

    def __repr__(self) -> str:
        return "ShardFaultPlan(seed=%d, %d events, %d injected)" % (
            self.seed,
            len(self.crashes) + len(self.slowdowns) + len(self.batch_drops),
            self.total_injected(),
        )


def shard_chaos_plan(
    shards: int,
    replicas: int,
    ticks: int,
    *,
    crashes: int = 1,
    slowdowns: int = 1,
    drops: int = 1,
    seed: int = 0,
    duration: int = 24,
    settle: int = 48,
    extra_ticks: int = 3,
) -> ShardFaultPlan:
    """A seeded shard-level chaos schedule (the ``flap_crash_plan`` shape).

    Events target a uniformly drawn ``(shard, replica)`` worker and are
    scheduled in ``[1, ticks - duration - settle)`` so every window
    opens while arrivals are still flowing and closes — including the
    crash's rebuild and the deadline tail — before the run drains.
    ``settle`` must therefore cover rebuild time plus the deadline
    budget; the chaos engine's default plan passes one that does.
    """
    if shards < 1 or replicas < 1:
        raise ValueError("need shards >= 1 and replicas >= 1")
    if duration < 1 or settle < 0:
        raise ValueError("need duration >= 1 and settle >= 0")
    rng = _derived_rng(seed, "shard-chaos")
    last_start = max(2, ticks - duration - settle)
    crash_events: List[ReplicaCrashEvent] = []
    slow_events: List[SlowReplicaEvent] = []
    drop_events: List[BatchDropEvent] = []
    for _ in range(crashes):
        tick = rng.randrange(1, last_start)
        shard = rng.randrange(shards)
        replica = rng.randrange(replicas)
        crash_events.append(ReplicaCrashEvent(tick, shard, replica, duration))
    for _ in range(slowdowns):
        tick = rng.randrange(1, last_start)
        shard = rng.randrange(shards)
        replica = rng.randrange(replicas)
        slow_events.append(
            SlowReplicaEvent(tick, shard, replica, duration, extra_ticks)
        )
    for _ in range(drops):
        tick = rng.randrange(1, last_start)
        shard = rng.randrange(shards)
        replica = rng.randrange(replicas)
        drop_events.append(BatchDropEvent(tick, shard, replica, duration))
    return ShardFaultPlan(
        seed=seed,
        crashes=crash_events,
        slowdowns=slow_events,
        batch_drops=drop_events,
    )


def random_topology_events(
    routers: List[str],
    rounds: int,
    crashes: int = 0,
    link_downs: int = 0,
    seed: int = 0,
    duration: int = 2,
) -> Tuple[List[CrashEvent], List[LinkDownEvent]]:
    """Derive a deterministic crash/link-down schedule for a scenario.

    Events are spread over the middle of the run (never round 0, so every
    router first learns some state worth losing) and never take down the
    same router twice at once.
    """
    rng = _derived_rng(seed, "topology-schedule")
    names = sorted(routers)
    crash_events: List[CrashEvent] = []
    link_events: List[LinkDownEvent] = []
    if rounds < 2 or len(names) < 2:
        return crash_events, link_events
    for _ in range(crashes):
        round_index = rng.randrange(1, max(2, rounds - duration))
        router = names[rng.randrange(len(names))]
        crash_events.append(CrashEvent(round_index, router, duration))
    for _ in range(link_downs):
        round_index = rng.randrange(1, max(2, rounds - duration))
        a = names[rng.randrange(len(names))]
        b = names[rng.randrange(len(names))]
        if a == b:
            b = names[(names.index(a) + 1) % len(names)]
        link_events.append(LinkDownEvent(round_index, a, b, duration))
    return crash_events, link_events
