"""The live route-update engine (§3.4 under traffic).

The engine owns one :class:`~repro.core.maintenance.MaintainedClueTable`
per *directed adjacency* of a clue-router network — the (sender,
receiver) pairs whose clue tables route changes can dirty — and drives
the fabric through *epochs*.  Each epoch:

1. pulls one burst from the :class:`~repro.churn.stream.UpdateStream`
   and applies it to every router's forwarding table (updates propagate
   network-wide, next hops pointing along shortest paths to the origin);
2. folds the burst into each affected pair with ``defer_rebuild=True``
   — steps 1 and 2 are the :class:`~repro.churn.feed.TableDeltaFeed`
   fold the control plane uses too: the dirty records are *deactivated*
   immediately (the routing update message carries enough information
   for that) while the expensive entry recomputation is queued;
3. forwards interleaved traffic through the audited step of
   :mod:`repro.netsim.invariant`.  A deactivated record probes as a
   miss, so packets in the staleness window degrade to full lookups —
   the §5.3 robustness semantics: never wrong-forwarding, only a
   degraded speedup.  Misses also repair records on demand through the
   live Advance builder (the paper's ``new-clue(c)`` procedure);
4. rebuilds queued records under the per-epoch ``rebuild_budget``.  An
   epoch whose backlog drains to zero everywhere is *converged*; bursts
   larger than the budget leave a backlog that later epochs inherit.

Epoch versioning is explicit: every :class:`EpochReport` carries the
epoch number, the dirty/rebuilt/backlog accounting, and the traffic
outcome, so convergence lag is measurable rather than anecdotal.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.core.maintenance import MaintainedClueTable
from repro.churn.audit import AuditReport, ConsistencyAuditor
from repro.churn.feed import TableDeltaFeed
from repro.churn.stream import ANNOUNCE, UpdateStream
from repro.netsim.invariant import Traffic, forward_audited, total_traffic
from repro.netsim.network import Network
from repro.netsim.router import ClueRouter


class EpochReport(Traffic):
    """What one epoch did: updates in, dirty marked, backlog, traffic."""

    __slots__ = (
        "epoch",
        "announces",
        "withdraws",
        "dirty_marked",
        "rebuilt",
        "pending_after",
        "converged",
    )

    def __init__(self, epoch: int):
        super().__init__()
        self.epoch = epoch
        self.announces = 0
        self.withdraws = 0
        self.dirty_marked = 0
        self.rebuilt = 0
        self.pending_after = 0
        self.converged = False

    def updates(self) -> int:
        return self.announces + self.withdraws

    def as_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "announces": self.announces,
            "withdraws": self.withdraws,
            "dirty_marked": self.dirty_marked,
            "rebuilt": self.rebuilt,
            "pending_after": self.pending_after,
            "converged": self.converged,
            "packets": self.packets,
            "delivered": self.delivered,
            "wrong_hops": self.wrong_hops,
            "avg_accesses": round(self.avg_accesses(), 4),
        }

    def __repr__(self) -> str:
        return "EpochReport(#%d, %d updates, %d rebuilt, pending=%d)" % (
            self.epoch,
            self.updates(),
            self.rebuilt,
            self.pending_after,
        )


class ChurnReport:
    """The whole run: per-epoch records, audits, and the §3.4 verdict."""

    def __init__(
        self,
        pairs: int,
        avg_table_entries: float,
    ):
        self.pairs = pairs
        self.avg_table_entries = avg_table_entries
        self.epochs: List[EpochReport] = []
        self.audits: List[AuditReport] = []

    # -- aggregates ------------------------------------------------------
    def traffic(self) -> Traffic:
        return total_traffic(self.epochs)

    def packets(self) -> int:
        return self.traffic().packets

    def wrong_hops(self) -> int:
        return self.traffic().wrong_hops

    def updates_applied(self) -> int:
        return sum(epoch.updates() for epoch in self.epochs)

    def entries_rebuilt(self) -> int:
        return sum(epoch.rebuilt for epoch in self.epochs)

    def dirty_marked(self) -> int:
        return sum(epoch.dirty_marked for epoch in self.epochs)

    def epochs_converged(self) -> int:
        return sum(1 for epoch in self.epochs if epoch.converged)

    def amortised_rebuilt_per_update(self) -> float:
        """Entries rebuilt per (update, pair) — the §3.4 quantity.

        Every update is folded into every pair, so the fair denominator
        is ``updates × pairs``; a from-scratch strategy would pay the
        whole table (``avg_table_entries``) in the same denominator.
        """
        updates = self.updates_applied() * max(self.pairs, 1)
        if not updates:
            return 0.0
        return self.entries_rebuilt() / updates

    def rebuild_advantage(self) -> float:
        """How much cheaper incremental maintenance is than full rebuilds."""
        per_update = self.amortised_rebuilt_per_update()
        if per_update <= 0:
            return float("inf") if self.avg_table_entries else 0.0
        return self.avg_table_entries / per_update

    def divergences(self) -> int:
        return sum(audit.divergence_count() for audit in self.audits)

    def claim(self) -> str:
        """The §3.4 statement, instantiated with this run's numbers."""
        return (
            "§3.4: incremental maintenance rebuilt %.2f clue entries per "
            "route update per pair, vs ~%.0f entries for a from-scratch "
            "rebuild — %.0fx cheaper; %d/%d audited entries diverged."
            % (
                self.amortised_rebuilt_per_update(),
                self.avg_table_entries,
                self.rebuild_advantage(),
                self.divergences(),
                sum(audit.entries_checked() for audit in self.audits),
            )
        )

    def passed(self) -> bool:
        """Zero divergence, zero wrong hops, and real amortisation."""
        return (
            self.divergences() == 0
            and self.wrong_hops() == 0
            and (
                not self.updates_applied()
                or self.amortised_rebuilt_per_update() < self.avg_table_entries
            )
        )

    def summary(self) -> Dict[str, object]:
        traffic = self.traffic()
        return {
            "pairs": self.pairs,
            "avg_table_entries": round(self.avg_table_entries, 2),
            "epochs": len(self.epochs),
            "epochs_converged": self.epochs_converged(),
            "updates_applied": self.updates_applied(),
            "dirty_marked": self.dirty_marked(),
            "entries_rebuilt": self.entries_rebuilt(),
            "amortised_rebuilt_per_update": round(
                self.amortised_rebuilt_per_update(), 4
            ),
            "rebuild_advantage": round(self.rebuild_advantage(), 1),
            "packets": traffic.packets,
            "avg_accesses_per_packet": round(traffic.avg_accesses(), 4),
            "wrong_hops": traffic.wrong_hops,
            "audits": len(self.audits),
            "audit_divergences": self.divergences(),
            "passed": self.passed(),
            "claim": self.claim(),
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "summary": self.summary(),
            "epochs": [epoch.as_dict() for epoch in self.epochs],
            "audits": [audit.as_dict() for audit in self.audits],
        }

    def __repr__(self) -> str:
        return "ChurnReport(%d epochs, %d updates, passed=%s)" % (
            len(self.epochs),
            self.updates_applied(),
            self.passed(),
        )


class ChurnEngine:
    """Applies an update stream live to a running clue-router network."""

    def __init__(
        self,
        network,
        stream: UpdateStream,
        *,
        technique: Optional[str] = None,
        rebuild_budget: Optional[int] = None,
        audit_every: int = 0,
        hard_audit: bool = True,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ):
        self.network = network
        self.stream = stream
        self.rng = rng if rng is not None else random.Random(seed)
        #: Fabric-wide cap on entries rebuilt per epoch (None = drain).
        self.rebuild_budget = rebuild_budget
        self.epoch = 0
        self.auditor = (
            ConsistencyAuditor(every=audit_every, hard=hard_audit)
            if audit_every > 0
            else None
        )
        #: Folds each burst into the routers and their pairs, exactly as
        #: it folds the control plane's SPF deltas.  ``technique``
        #: defaults to the first clue router's.
        self.feed = TableDeltaFeed(network, technique=technique)
        self.technique = self.feed.technique
        #: (sender, receiver) -> maintained clue table, one per directed
        #: adjacency; each pair *shares* both routers' own tables, so a
        #: route change mutates one structure per router that the data
        #: path and the maintenance machinery both observe.
        self.pairs: Dict[Tuple[str, str], MaintainedClueTable] = self.feed.pairs
        self._router_names = sorted(network.routers)
        self._graph = self._adjacency_graph()
        self._next_hop = self._shortest_next_hops()

    # ------------------------------------------------------------------
    def _adjacency_graph(self) -> nx.Graph:
        graph = nx.Graph()
        graph.add_nodes_from(self._router_names)
        for r_name, router in sorted(self.network.routers.items()):
            if isinstance(router, ClueRouter):
                for s_name in router.neighbor_names():
                    if s_name in self.network.routers:
                        graph.add_edge(s_name, r_name)
        return graph

    def _shortest_next_hops(self) -> Dict[str, Dict[str, str]]:
        """``hops[router][origin]`` = neighbour toward ``origin``."""
        hops: Dict[str, Dict[str, str]] = {}
        for name in self._router_names:
            paths = nx.single_source_shortest_path(self._graph, name)
            hops[name] = {
                target: (path[1] if len(path) > 1 else name)
                for target, path in paths.items()
            }
        return hops

    # ------------------------------------------------------------------
    def _apply_batch(self, batch, report: EpochReport) -> None:
        """Fold one burst into every router table and every pair."""
        instruments = self.network._effective_instruments()
        per_add: Dict[str, List[Tuple[object, object]]] = defaultdict(list)
        per_remove: Dict[str, List[object]] = defaultdict(list)
        for update in batch:
            if update.kind == ANNOUNCE:
                report.announces += 1
                for name in self._router_names:
                    hop = self._next_hop[name].get(update.origin)
                    if hop is None:
                        continue
                    per_add[name].append((update.prefix, hop))
            else:
                # Each router drops the prefixes it does not hold and
                # returns what it applied, which the pairs then fold.
                report.withdraws += 1
                for name in self._router_names:
                    per_remove[name].append(update.prefix)
            instruments.record_update(update.kind)
        report.dirty_marked += self.feed.apply(per_add, per_remove)

    # ------------------------------------------------------------------
    def run_epoch(self, traffic: int = 0) -> EpochReport:
        """One epoch: updates in, traffic through, backlog drained."""
        self.epoch += 1
        report = EpochReport(self.epoch)
        self._apply_batch(self.stream.next_batch(), report)
        forward_audited(
            self.network, report, traffic, self.rng, self.stream.sorted_live, self._router_names
        )
        report.rebuilt = self.feed.flush(self.rebuild_budget)
        backlogs = self.feed.backlogs()
        report.pending_after = sum(backlogs)
        report.converged = report.pending_after == 0
        self.network._effective_instruments().record_epoch(
            report.converged, backlogs
        )
        return report

    def run(self, epochs: int, traffic_per_epoch: int = 0) -> ChurnReport:
        """Drive ``epochs`` epochs; audit on schedule; return the report."""
        table_sizes = [len(m.table) for m in self.pairs.values()]
        report = ChurnReport(
            pairs=len(self.pairs),
            avg_table_entries=(
                sum(table_sizes) / len(table_sizes) if table_sizes else 0.0
            ),
        )
        for _ in range(epochs):
            epoch_report = self.run_epoch(traffic_per_epoch)
            report.epochs.append(epoch_report)
            if self.auditor is not None and self.auditor.due(self.epoch):
                audit = self.auditor.audit(self.pairs, self.epoch)
                report.audits.append(audit)
        return report

    def pending_total(self) -> int:
        """Fabric-wide rebuild backlog."""
        return self.feed.pending_total()

    def __repr__(self) -> str:
        return "ChurnEngine(%d pairs, epoch=%d, pending=%d)" % (
            len(self.pairs),
            self.epoch,
            self.pending_total(),
        )


def build_churn_scenario(
    routers: int = 5,
    per_node: int = 40,
    seed: int = 0,
    technique: str = "patricia",
    profile=None,
    nesting: float = 0.3,
):
    """A ready-to-churn (network, stream) pair — the CLI/experiment entry.

    Builds the :meth:`Network.mesh` fabric and wires an
    :class:`UpdateStream` whose origins are the originating routers —
    so announced prefixes propagate from a real node and the stream's
    live set starts equal to the routed table.
    """
    network, assignment = Network.mesh(routers, per_node, seed, technique, nesting)
    origins = {
        prefix: name
        for name, prefixes in sorted(assignment.items())
        for prefix in prefixes
    }
    stream = UpdateStream(
        origins,
        routers=sorted(network.routers),
        profile=profile,
        rng=random.Random(seed + 2),
    )
    return network, stream
