"""The forwarding fabric: routers wired by their tables' next hops.

Next hops in a simulated forwarding table are router names; a packet is
delivered when the resolving router returns itself (local route) or a
name not present in the network (an egress).  The network also knows how
to assemble itself from a finished path-vector computation, registering
every adjacency so Advance clue tables can be built, and how to build the
seeded mesh fabric the churn and fault engines run on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.addressing import Address, Prefix
from repro.heap import settled_heap
from repro.netsim.packet import Packet
from repro.netsim.router import ClueRouter, Router
from repro.routing.pathvector import PathVectorRouting
from repro.routing.topology import mesh_topology, originate_prefixes
from repro.telemetry.export import render_json, render_prometheus
from repro.telemetry.instruments import LookupInstruments, default_instruments
from repro.telemetry.registry import MetricsRegistry


class DeliveryReport:
    """Outcome of forwarding one packet."""

    __slots__ = ("packet", "delivered", "path", "exit_reason")

    def __init__(
        self,
        packet: Packet,
        delivered: bool,
        path: List[str],
        exit_reason: str,
    ):
        self.packet = packet
        self.delivered = delivered
        self.path = path
        self.exit_reason = exit_reason

    def total_accesses(self) -> int:
        """Memory references spent across all hops."""
        return self.packet.total_accesses()

    def __repr__(self) -> str:
        return "DeliveryReport(delivered=%s, path=%s)" % (
            self.delivered,
            "->".join(self.path),
        )


class Network:
    """A set of routers addressable by name.

    A network constructed with explicit ``instruments`` imposes them on
    every router added to it, so one registry observes the whole fabric;
    without them, routers keep whatever instruments they were built with
    (the process default, normally) and reports fall back to the default
    registry.
    """

    def __init__(self, instruments: Optional[LookupInstruments] = None) -> None:
        self.routers: Dict[str, Router] = {}
        self.instruments = instruments
        #: Links currently failed (frozensets of two router names); a
        #: packet whose next hop crosses a down link is dropped.
        self.down_links: Set[frozenset] = set()
        #: Active :class:`repro.faults.inject.FaultPlan`, if any.  Set
        #: by the fault engine; applied per link traversal and per hop.
        self.fault_plan = None

    def _effective_instruments(self) -> LookupInstruments:
        return (
            self.instruments
            if self.instruments is not None
            else default_instruments()
        )

    def add_router(self, router: Router) -> None:
        """Register a router; names must be unique."""
        if router.name in self.routers:
            raise ValueError("duplicate router name %r" % router.name)
        if self.instruments is not None:
            router.set_instruments(self.instruments)
        self.routers[router.name] = router

    def forward(
        self, packet: Packet, start: str, max_hops: Optional[int] = None
    ) -> DeliveryReport:
        """Forward the packet from ``start`` until delivery or failure."""
        if start not in self.routers:
            raise KeyError("unknown start router %r" % start)
        instruments = self._effective_instruments()
        instruments.begin_packet()
        limit = max_hops if max_hops is not None else packet.ttl
        current: Optional[str] = start
        previous: Optional[str] = None
        path: List[str] = []
        report: Optional[DeliveryReport] = None
        plan = self.fault_plan
        for _hop in range(limit):
            router = self.routers[current]
            if not router.up:
                report = DeliveryReport(packet, False, path, "router-down")
                break
            if previous is not None and plan is not None:
                # The packet just crossed the previous->current link;
                # in-flight clue corruption happens here.
                plan.perturb_on_link(packet)
            path.append(current)
            next_hop = router.process(packet, previous)
            if plan is not None:
                # A Byzantine router lies about the BMP it just stamped.
                plan.lie_after_hop(current, packet)
            if next_hop is None:
                report = DeliveryReport(packet, False, path, "no-route")
                break
            if next_hop == current:
                report = DeliveryReport(packet, True, path, "local")
                break
            if next_hop not in self.routers:
                report = DeliveryReport(packet, True, path, "egress")
                break
            if frozenset((current, next_hop)) in self.down_links:
                report = DeliveryReport(packet, False, path, "link-down")
                break
            previous, current = current, next_hop
        if report is None:
            report = DeliveryReport(packet, False, path, "ttl-exceeded")
        instruments.record_delivery(report.exit_reason)
        return report

    def send(
        self, destination: Address, start: str, max_hops: Optional[int] = None
    ) -> DeliveryReport:
        """Convenience: build a fresh packet for ``destination`` and forward."""
        return self.forward(Packet(destination), start, max_hops)

    def apply_update(self, router: str, add=(), remove=()):
        """Apply a live route change to one router's table.

        Delegates to :meth:`Router.apply_update`; the clue tables of
        *pairs* touching this router are maintained by the churn engine
        (see :mod:`repro.churn`), not here.
        """
        if router not in self.routers:
            raise KeyError("unknown router %r" % router)
        return self.routers[router].apply_update(add=add, remove=remove)

    def metrics_report(
        self, fmt: str = "json", refresh_gauges: bool = True
    ) -> str:
        """Render the fabric's registry (``fmt``: ``json`` or ``prom``).

        ``refresh_gauges`` first publishes every clue router's learned
        clue-table sizes, so the ``clue_table_size`` series reflect the
        state at report time rather than at the last sync.
        """
        instruments = self._effective_instruments()
        if refresh_gauges:
            for router in self.routers.values():
                sync = getattr(router, "sync_gauges", None)
                if sync is not None:
                    sync()
        if fmt == "json":
            return render_json(instruments.registry)
        if fmt == "prom":
            return render_prometheus(instruments.registry)
        raise ValueError("unknown metrics format %r (json or prom)" % fmt)

    @classmethod
    def from_pathvector(
        cls,
        routing: PathVectorRouting,
        technique: str = "patricia",
        method: str = "advance",
        width: int = 32,
        instruments: Optional[LookupInstruments] = None,
    ) -> "Network":
        """Build a clue-router network from a converged route computation.

        Every adjacency registers the neighbour's table, so the Advance
        method is available on every link — modelling pre-processing table
        construction from the routing exchange (§3.3.2).  A router builds
        the trie over a neighbour's table when a lookup for that neighbour
        first needs it; a churn feed (``TableDeltaFeed``) attaches the
        neighbour router's own trie before then, so it builds none.
        """
        tables = routing.all_tables()
        network = cls(instruments=instruments)
        for name, entries in tables.items():
            network.add_router(
                ClueRouter(name, entries, technique=technique, method=method, width=width)
            )
        for name in routing.graph.nodes:
            router = network.routers[name]
            for neighbor in routing.graph.neighbors(name):
                router.register_neighbor(neighbor, tables[neighbor])
        return network

    @classmethod
    def mesh(
        cls,
        routers: int,
        per_node: int,
        seed: int,
        technique: str = "patricia",
        nesting: float = 0.3,
    ) -> Tuple["Network", Dict[str, List[Prefix]]]:
        """A seeded mesh of clue routers over a private metrics registry.

        Each router has up to three neighbours and originates
        ``per_node`` prefixes; routes come from converged path-vector
        routing (see :meth:`from_pathvector`).  Returns the network and
        the origin assignment, router name to originated prefixes.

        The routers' tries and tables outlive the build, so it runs with
        the collector paused and ends in one pass over the young
        generations (:func:`~repro.heap.settled_heap`).  Left alone, a
        five-router mesh at ``per_node=20`` (about 23 000 objects) takes
        some 35 young passes that free nothing, and its promotions put
        the collector's next full pass inside the churn run that follows
        at some seeds and not at others.
        """
        if routers < 2:
            raise ValueError("a mesh fabric needs at least two routers")
        graph = mesh_topology(routers, degree=min(3, routers - 1), seed=seed)
        assignment = originate_prefixes(
            graph, per_node=per_node, seed=seed + 1, nesting=nesting
        )
        with settled_heap(generation=1):
            routing = PathVectorRouting(graph)
            routing.run()
            network = cls.from_pathvector(
                routing,
                technique=technique,
                instruments=LookupInstruments(MetricsRegistry()),
            )
        return network, assignment

    def __len__(self) -> int:
        return len(self.routers)

    def __contains__(self, name: str) -> bool:
        return name in self.routers
