"""Simulated routers: clue-aware and legacy.

A :class:`ClueRouter` implements the full distributed-IP-lookup data path:
it keeps one clue structure per upstream neighbour (Advance needs the
neighbour's table, obtained from the routing exchange via
:meth:`register_neighbor`; unknown neighbours fall back to the Simple
method learned on the fly), resolves each packet, stamps its own BMP as
the outgoing clue, and returns the next hop.

A :class:`LegacyRouter` ignores clues entirely — it performs the ordinary
full lookup — and models the two §5.3 behaviours: *relaying* the incoming
clue unchanged (the good citizen) or stripping it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.addressing import Prefix
from repro.core.advance import AdvanceMethod
from repro.core.clue import ClueEncodingError
from repro.core.learning import LearningClueLookup
from repro.core.receiver import ReceiverState
from repro.core.simple import SimpleMethod
from repro.lookup import BASELINES, LookupAlgorithm
from repro.lookup.counters import METHOD_FULL, MemoryCounter
from repro.lookup.hotpath import hot_path
from repro.netsim.packet import HopRecord, Packet
from repro.telemetry.instruments import LookupInstruments, default_instruments
from repro.trie.binary_trie import BinaryTrie

if TYPE_CHECKING:
    from repro.core.maintenance import MaintainedClueTable
    from repro.core.table import ClueTable
    from repro.faults.guard import GuardPolicy, NeighborHealth

Entries = Iterable[Tuple[Prefix, object]]


class Router:
    """Base class: a named node that processes packets.

    Every router reports through a :class:`LookupInstruments` — its own
    if one was passed, otherwise the process-wide default — and reuses a
    single :class:`MemoryCounter` across packets (allocating one per
    packet measurably slows the hot path; see DESIGN.md "Telemetry").
    """

    #: Every router owns its table and a base lookup over it.
    receiver: ReceiverState
    base: LookupAlgorithm

    def __init__(self, name: str, instruments: Optional[LookupInstruments] = None):
        self.name = name
        self._counter = MemoryCounter()
        #: Liveness flag driven by the fault engine's crash–restart
        #: events; a down router drops every packet handed to it.
        self.up = True
        self.set_instruments(
            instruments if instruments is not None else default_instruments()
        )

    def set_instruments(self, instruments: LookupInstruments) -> None:
        """Point this router at a (new) metric set, rebinding hot handles."""
        self.instruments = instruments
        self.metrics = instruments.bind_router(self.name)

    def process(self, packet: Packet, from_router: Optional[str] = None):
        """Resolve the packet; append a trace record; return the next hop."""
        raise NotImplementedError

    def apply_update(
        self,
        add: Entries = (),
        remove: Iterable[Prefix] = (),
    ) -> Tuple[List[Tuple[Prefix, object]], List[Prefix]]:
        """Apply a live route change to this router's own table.

        The receiver state and the base lookup structure are patched in
        place, so maintained pairs that share this router's tables — as
        sender or as receiver — observe the change for free.  Returns
        the ``(added, removed)`` entries actually applied.
        """
        added = list(add)
        removed = [
            prefix for prefix in remove if self.receiver.trie.contains(prefix)
        ]
        if added or removed:
            self.receiver.apply_update(added, removed)
            self.base.apply_update(added, removed, self.receiver.entries)
        return added, removed

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self.name)


class ClueRouter(Router):
    """A router running distributed IP lookup."""

    def __init__(
        self,
        name: str,
        entries: Entries,
        technique: str = "patricia",
        method: str = "advance",
        width: int = 32,
        emit_clues: bool = True,
        truncate_clues_to: Optional[int] = None,
        preprocess: bool = False,
        instruments: Optional[LookupInstruments] = None,
    ):
        super().__init__(name, instruments)
        if method not in ("simple", "advance"):
            raise ValueError("method must be 'simple' or 'advance'")
        self.receiver = ReceiverState(entries, width)
        self.technique = technique
        self.method = method
        self.emit_clues = emit_clues
        #: §5.3 privacy knob: never emit a clue longer than this.
        self.truncate_clues_to = truncate_clues_to
        #: §3.3.2 pre-processing: build a registered neighbour's whole clue
        #: table up front instead of learning it clue by clue.
        self.preprocess = preprocess
        self.base = BASELINES[technique](self.receiver.entries, width)
        self._simple = SimpleMethod(self.receiver, technique, telemetry=self.metrics)
        #: per-upstream clue lookup state, built lazily.
        self._lookups: Dict[Optional[str], LearningClueLookup] = {}
        #: upstream tables registered from the routing exchange, kept
        #: as registered until :meth:`_neighbor_trie` first reads one.
        self._neighbor_entries: Dict[str, Tuple[Tuple[Prefix, object], ...]] = {}
        #: upstream tries: built from a registered table on first read,
        #: or the sender's own trie installed by :meth:`attach_maintained`.
        self._neighbor_tries: Dict[str, BinaryTrie] = {}
        #: per-upstream incrementally maintained clue tables (churn mode);
        #: see :meth:`attach_maintained`.
        self._maintained: Dict[str, "MaintainedClueTable"] = {}
        #: When set (see :meth:`enable_guard`), lazily built per-upstream
        #: lookups are wrapped in the guarded, self-healing data path.
        self.guard_policy: Optional["GuardPolicy"] = None
        #: Per-upstream health scores.  Kept outside the lookups so
        #: quarantine state survives table drops (updates, restarts).
        self._health: Dict[Optional[str], "NeighborHealth"] = {}

    def set_instruments(self, instruments: LookupInstruments) -> None:
        """Rebind this router (and its entry builders) to a metric set."""
        super().set_instruments(instruments)
        # __init__ calls this before the builders exist; later rebinds
        # (e.g. Network.add_router) must repoint them too.
        simple = getattr(self, "_simple", None)
        if simple is not None:
            simple.telemetry = self.metrics
        for lookup in getattr(self, "_lookups", {}).values():
            lookup.builder.telemetry = self.metrics
            if getattr(lookup, "monitor", None) is not None:
                lookup.monitor = instruments.bind_guard(self.name)

    # ------------------------------------------------------------------
    def enable_guard(
        self, policy: Optional["GuardPolicy"] = None
    ) -> "GuardPolicy":
        """Turn on the guarded, self-healing data path (repro.faults).

        Lazily built per-upstream lookups are created as
        :class:`~repro.faults.guard.GuardedLookup` from now on; existing
        unguarded ones are dropped so they rebuild guarded.  Maintained
        churn attachments keep their incremental path — the churn engine
        owns their consistency story.
        """
        from repro.faults.guard import GuardPolicy

        self.guard_policy = policy if policy is not None else GuardPolicy()
        for upstream in list(self._lookups):
            if upstream not in self._maintained:
                del self._lookups[upstream]
        return self.guard_policy

    def crash(self) -> None:
        """Take the router down; the fabric drops packets handed to it."""
        self.up = False

    def restart(self) -> None:
        """Come back up with cold clue tables, rebuilt lazily.

        Every learned record is lost — a reboot loses its fast-memory
        clue tables — but neighbour health (quarantine state) survives:
        it models the control plane's memory of who misbehaved, not the
        data-plane cache.  Maintained attachments are re-installed
        against their live tables.
        """
        self.up = True
        self._lookups.clear()
        for upstream, maintained in list(self._maintained.items()):
            self.attach_maintained(upstream, maintained)

    def learned_tables(self) -> Dict[Optional[str], "ClueTable"]:
        """Live clue tables per upstream — the fault injector's target."""
        return {
            upstream: lookup.table
            for upstream, lookup in self._lookups.items()
        }

    def guard_reports(self) -> Dict[Optional[str], Dict[str, object]]:
        """Per-upstream guard statistics (empty unless the guard is on)."""
        reports: Dict[Optional[str], Dict[str, object]] = {}
        for upstream, lookup in self._lookups.items():
            health = getattr(lookup, "health", None)
            if health is None:
                continue
            reports[upstream] = {
                "health": health.as_dict(),
                "rejections": dict(lookup.rejections),
                "healed_records": lookup.healed_records,
                "hits": lookup.hits,
                "misses": lookup.misses,
            }
        return reports

    # ------------------------------------------------------------------
    def register_neighbor(self, neighbor: str, entries: Entries) -> None:
        """Learn an upstream's table (enables the Advance method for it).

        The entries are kept as registered, a snapshot that later
        changes to the neighbour's own table do not reach; the trie
        over them is built when a lookup for ``neighbor`` first needs
        it, so a table that :meth:`attach_maintained` replaces before
        then is never built.
        """
        self._neighbor_entries[neighbor] = tuple(entries)
        self._neighbor_tries.pop(neighbor, None)
        self._lookups.pop(neighbor, None)

    def neighbor_names(self) -> List[str]:
        """Upstreams with a known table, registered or attached.

        Registered names come first, in registration order, then the
        names only :meth:`attach_maintained` installed.
        """
        names = list(self._neighbor_entries)
        for name in self._neighbor_tries:
            if name not in self._neighbor_entries:
                names.append(name)
        return names

    def _neighbor_trie(self, neighbor: Optional[str]) -> Optional[BinaryTrie]:
        """``neighbor``'s trie, built from its registered table on first read."""
        if neighbor is None:
            return None
        trie = self._neighbor_tries.get(neighbor)
        if trie is None:
            entries = self._neighbor_entries.get(neighbor)
            if entries is not None:
                trie = BinaryTrie.from_prefixes(entries, self.receiver.width)
                self._neighbor_tries[neighbor] = trie
        return trie

    def attach_maintained(
        self, upstream: str, maintained: "MaintainedClueTable"
    ) -> LearningClueLookup:
        """Serve ``upstream``'s clues from an incrementally maintained table.

        The lookup's table *is* the maintained table, so deferred-rebuild
        deactivations take effect on the data path immediately (a
        deactivated record probes as a miss), and on-demand relearning
        repairs records through the maintained Advance builder — which
        sees the live sender trie and receiver state.  The sender's
        own trie stands in for ``upstream``'s registered table, so none
        is built from it.
        """
        self._maintained[upstream] = maintained
        self._neighbor_tries[upstream] = maintained.sender_trie
        maintained.method.telemetry = self.metrics
        lookup = LearningClueLookup(self.base, maintained.method)
        lookup.table = maintained.table
        self._lookups[upstream] = lookup
        return lookup

    def maintained_for(self, upstream: str) -> Optional["MaintainedClueTable"]:
        """The maintained clue table attached for ``upstream``, if any."""
        return self._maintained.get(upstream)

    def apply_update(
        self,
        add: Entries = (),
        remove: Iterable[Prefix] = (),
    ) -> Tuple[List[Tuple[Prefix, object]], List[Prefix]]:
        """:meth:`Router.apply_update`, then drop every learned clue
        table that is not incrementally maintained: it was built against
        the old table, and relearning is the only safe repair."""
        added, removed = super().apply_update(add, remove)
        if added or removed:
            for upstream in list(self._lookups):
                if upstream not in self._maintained:
                    del self._lookups[upstream]
        return added, removed

    def _lookup_for(self, from_router: Optional[str]) -> LearningClueLookup:
        lookup = self._lookups.get(from_router)
        if lookup is None:
            # The Simple method reads a neighbour's table only to preprocess.
            neighbor_trie = (
                self._neighbor_trie(from_router)
                if self.method == "advance" or self.preprocess
                else None
            )
            if self.method == "advance" and neighbor_trie is not None:
                builder = AdvanceMethod(
                    neighbor_trie,
                    self.receiver,
                    self.technique,
                    telemetry=self.metrics,
                )
            else:
                builder = self._simple
            if self.guard_policy is not None:
                from repro.faults.guard import GuardedLookup, NeighborHealth

                health = self._health.get(from_router)
                if health is None:
                    health = NeighborHealth(self.guard_policy)
                    self._health[from_router] = health
                lookup = GuardedLookup(
                    self.base,
                    builder,
                    self.guard_policy,
                    health=health,
                    monitor=self.instruments.bind_guard(self.name),
                )
                if self.preprocess and neighbor_trie is not None:
                    # Learn through the guard so each record is sealed.
                    for clue in neighbor_trie.prefixes():
                        lookup.learn(clue)
            else:
                lookup = LearningClueLookup(self.base, builder)
                if self.preprocess and neighbor_trie is not None:
                    for clue in neighbor_trie.prefixes():
                        lookup.table.insert(builder.build_entry(clue))
            self._lookups[from_router] = lookup
        return lookup

    @hot_path
    def process(self, packet: Packet, from_router: Optional[str] = None):
        """The distributed-IP-lookup data path for one packet."""
        counter = self._counter
        counter.reset()
        incoming = packet.clue.length
        lookup = self._lookup_for(from_router)
        try:
            clue = packet.clue_prefix()
        except ClueEncodingError:
            # An undecodable header field: proceed clueless, and let a
            # guarded path score the anomaly against the upstream.
            clue = None
            note = getattr(lookup, "note_malformed", None)
            if note is not None:
                note()
        result = lookup.lookup(packet.destination, clue, counter)
        accesses = counter.accesses
        method = counter.method
        hop = len(packet.trace)
        packet.trace.append(
            HopRecord(self.name, accesses, result.prefix, incoming, method)
        )
        if self.emit_clues and result.prefix is not None:
            packet.clue.length = result.prefix.length
            packet.clue.index = None
            if self.truncate_clues_to is not None:
                packet.clue.truncate(self.truncate_clues_to)
        elif self.emit_clues:
            packet.clue.clear()
        self.metrics.record_lookup(method, accesses)
        tracer = self.instruments.tracer
        if tracer is not None and tracer.active:
            tracer.record(
                self.name,
                hop,
                method if method is not None else METHOD_FULL,
                accesses,
                incoming,
                packet.clue.length,
            )
        return result.next_hop

    def clue_table_sizes(self) -> Dict[Optional[str], int]:
        """Learned clue-table sizes per upstream neighbour."""
        return {
            upstream: len(lookup.table)
            for upstream, lookup in self._lookups.items()
        }

    def sync_gauges(self) -> None:
        """Publish the learned clue-table sizes to the registry gauges."""
        for upstream, size in self.clue_table_sizes().items():
            self.instruments.set_clue_table_size(self.name, upstream, size)


class LegacyRouter(Router):
    """A router that has not deployed the scheme."""

    def __init__(
        self,
        name: str,
        entries: Entries,
        technique: str = "patricia",
        width: int = 32,
        relay_clues: bool = True,
        instruments: Optional[LookupInstruments] = None,
    ):
        super().__init__(name, instruments)
        self.receiver = ReceiverState(entries, width)
        self.technique = technique
        self.base = BASELINES[technique](self.receiver.entries, width)
        #: §5.3: a legacy router that leaves the options field alone still
        #: lets downstream clue routers benefit; one that rewrites the
        #: header strips the clue.
        self.relay_clues = relay_clues

    @hot_path
    def process(self, packet: Packet, from_router: Optional[str] = None):
        """Plain full lookup; the clue is relayed or stripped, never used."""
        counter = self._counter
        counter.reset()
        incoming = packet.clue.length
        result = self.base.lookup(packet.destination, counter)
        accesses = counter.accesses
        hop = len(packet.trace)
        packet.trace.append(
            HopRecord(self.name, accesses, result.prefix, incoming, METHOD_FULL)
        )
        if not self.relay_clues:
            packet.clue.clear()
        self.metrics.record_lookup(METHOD_FULL, accesses)
        tracer = self.instruments.tracer
        if tracer is not None and tracer.active:
            tracer.record(
                self.name, hop, METHOD_FULL, accesses, incoming,
                packet.clue.length,
            )
        return result.next_hop
