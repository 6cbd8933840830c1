"""Folding routing-table deltas into maintained clue tables.

Two consumers share this machinery:

* :class:`~repro.churn.engine.ChurnEngine` — synthetic announce /
  withdraw bursts from an :class:`~repro.churn.stream.UpdateStream`;
* :class:`~repro.control.engine.ControlEngine` — *real* deltas, the
  difference between consecutive SPF-computed routing tables of the
  :mod:`repro.control` link-state IGP.

Both reduce to the same two-phase fold: phase 1 applies each router's
adds/removes to its own forwarding table, patching its
:class:`~repro.core.receiver.ReceiverState` and base lookup in place;
phase 2 folds the deltas phase 1 actually applied into every affected
directed-adjacency :class:`~repro.core.maintenance.MaintainedClueTable`
with ``defer_rebuild=True``, leaving the expensive entry recomputation
to a budgeted :meth:`TableDeltaFeed.flush`.  Each pair shares both
routers' tables, so phase 2 touches only the pair's overlay and clue
records.  Because a :meth:`~repro.trie.binary_trie.BinaryTrie.insert` is
insert-or-update, a next-hop *change* travels as a plain add.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.maintenance import MaintainedClueTable
from repro.netsim.router import ClueRouter


def build_adjacency_pairs(
    network, technique: str
) -> Dict[Tuple[str, str], "MaintainedClueTable"]:
    """One maintained clue table per directed adjacency of ``network``.

    For every clue router and each of its upstream neighbours, builds a
    :class:`MaintainedClueTable` that *shares* the receiving router's own
    :class:`ReceiverState` and the sending router's own trie — a route
    change mutates one structure per router, which its data path and
    every pair it takes part in observe — and attaches it so learned
    lookups survive updates.  Returns ``{(sender, receiver):
    maintained}`` in deterministic order.
    """
    clue_routers = {
        name: router
        for name, router in network.routers.items()
        if isinstance(router, ClueRouter)
    }
    if not clue_routers:
        raise ValueError("a delta feed needs at least one ClueRouter")
    pairs: Dict[Tuple[str, str], MaintainedClueTable] = {}
    for r_name in sorted(clue_routers):
        router = clue_routers[r_name]
        for s_name in sorted(router.neighbor_names()):
            if s_name not in network.routers:
                continue
            sender = network.routers[s_name]
            maintained = MaintainedClueTable(
                sender.receiver.trie,
                router.receiver,
                technique=technique,
                width=router.receiver.width,
            )
            router.attach_maintained(s_name, maintained)
            pairs[(s_name, r_name)] = maintained
    return pairs


class TableDeltaFeed:
    """Applies per-router table deltas network-wide, clue tables included."""

    def __init__(self, network, technique: Optional[str] = None):
        self.network = network
        clue_routers = [
            router for router in network.routers.values() if isinstance(router, ClueRouter)
        ]
        if not clue_routers:
            raise ValueError("a delta feed needs at least one ClueRouter")
        self.technique = technique or clue_routers[0].technique
        self.pairs = build_adjacency_pairs(network, self.technique)
        self._router_names = sorted(network.routers)

    def apply(
        self,
        per_add: Mapping[str, Sequence[Tuple[object, object]]],
        per_remove: Mapping[str, Sequence[object]],
    ) -> int:
        """Fold one delta set into routers and pairs; returns dirty count.

        ``per_add`` maps router name to ``(prefix, next_hop)`` entries
        (inserts *and* next-hop changes), ``per_remove`` to withdrawn
        prefixes.  Routers absent from both mappings are untouched.
        """
        dirty_marked = 0
        # Phase 1: every router's own table and base structure, which the
        # pairs share.  Keep what was applied: a withdrawn prefix is
        # already gone from the shared tries by phase 2.
        applied = {}
        for name in self._router_names:
            add = per_add.get(name, ())
            remove = per_remove.get(name, ())
            if add or remove:
                applied[name] = self.network.routers[name].apply_update(
                    add=add, remove=remove
                )
        # Phase 2: every affected pair — dirty records are deactivated
        # now, their rebuild deferred to the budgeted flush.
        for (s_name, r_name), maintained in self.pairs.items():
            s_add, s_remove = applied.get(s_name, ((), ()))
            r_add, r_remove = applied.get(r_name, ((), ()))
            if not (s_add or s_remove or r_add or r_remove):
                continue
            dirty = maintained.apply_batch(
                sender_add=s_add,
                sender_remove=s_remove,
                receiver_add=r_add,
                receiver_remove=r_remove,
                defer_rebuild=True,
            )
            dirty_marked += len(dirty)
        return dirty_marked

    def flush(self, budget: Optional[int] = None) -> int:
        """Drain (up to ``budget``) every pair's rebuild backlog."""
        instruments = self.network._effective_instruments()
        remaining = budget
        rebuilt_total = 0
        for (_s_name, r_name), maintained in sorted(self.pairs.items()):
            if remaining is not None and remaining <= 0:
                break
            rebuilt = maintained.flush(limit=remaining)
            if rebuilt:
                rebuilt_total += rebuilt
                instruments.record_rebuilds(r_name, rebuilt)
            if remaining is not None:
                remaining -= rebuilt
        return rebuilt_total

    def pending_total(self) -> int:
        """Fabric-wide rebuild backlog."""
        return sum(m.pending_count() for m in self.pairs.values())

    def backlogs(self) -> List[int]:
        """Per-pair backlog, in sorted pair order (telemetry shape)."""
        return [
            maintained.pending_count()
            for _pair, maintained in sorted(self.pairs.items())
        ]

    def __repr__(self) -> str:
        return "TableDeltaFeed(%d pairs, pending=%d)" % (
            len(self.pairs),
            self.pending_total(),
        )
