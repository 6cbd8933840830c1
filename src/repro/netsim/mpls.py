"""MPLS / Tag-switching baseline and its clue integration (§5.1, Figure 8).

Topology-driven MPLS binds a label to a prefix (a FEC); packets matching
the FEC are switched in one label-table reference per hop.  The catch the
paper exploits: at an *aggregation point* — a router whose own table holds
prefixes extending the FEC — the label no longer determines the route, so
the router must run a full IP lookup to pick the outgoing label (Figure 8,
router R4).

The clue integration replaces that full lookup: every control-driven label
is associated with its FEC prefix, i.e. with a clue, so the aggregation
router can index its clue table by the label (no hash needed) and resolve
in ≈1 reference like everywhere else.

Also modelled: the label-distribution control cost (one binding message
per FEC per link), which the clue scheme simply does not have.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.addressing import Address, Prefix
from repro.core.advance import AdvanceMethod
from repro.core.entry import ClueEntry
from repro.core.lookup import resolve
from repro.core.receiver import ReceiverState
from repro.lookup import BASELINES
from repro.lookup.counters import MemoryCounter
from repro.tablegen.synthetic import Entry
from repro.trie.binary_trie import BinaryTrie


class LabelEntry:
    """One label-table record: swap and forward, or exit the LSP."""

    __slots__ = ("fec", "next_hop", "out_label")

    def __init__(self, fec: Prefix, next_hop: str, out_label: Optional[int]):
        self.fec = fec
        self.next_hop = next_hop
        #: None marks the end of the label-switched path (pop the label).
        self.out_label = out_label


class MplsRouter:
    """A label-switching router with an IP control plane."""

    def __init__(
        self,
        name: str,
        entries: Sequence[Entry],
        technique: str = "patricia",
        width: int = 32,
    ):
        self.name = name
        self.receiver = ReceiverState(entries, width)
        self.base = BASELINES[technique](self.receiver.entries, width)
        self.label_table: Dict[int, LabelEntry] = {}
        #: label → Advance clue machinery for the clue integration.
        self._clue_methods: Dict[int, AdvanceMethod] = {}
        self._clue_entries: Dict[int, ClueEntry] = {}

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def bind_label(
        self, label: int, fec: Prefix, next_hop: str, out_label: Optional[int]
    ) -> None:
        """Install a label binding (a received label-distribution message)."""
        self.label_table[label] = LabelEntry(fec, next_hop, out_label)

    def is_aggregation_point(self, label: int) -> bool:
        """True if this router's table extends the label's FEC (Figure 8)."""
        entry = self.label_table.get(label)
        if entry is None:
            return False
        return self.receiver.trie.has_marked_descendant(entry.fec)

    def enable_clue_for_label(
        self, label: int, upstream_entries: Sequence[Entry]
    ) -> None:
        """Precompute the clue record the label maps to (§5.1).

        ``upstream_entries`` is the table of the router at the other end of
        the label-switched hop (the clue sender the label stands for).
        """
        binding = self.label_table.get(label)
        if binding is None:
            raise KeyError("label %d is not bound" % label)
        method = AdvanceMethod(
            BinaryTrie.from_prefixes(upstream_entries, self.receiver.width),
            self.receiver,
            technique="binary",
        )
        self._clue_methods[label] = method
        self._clue_entries[label] = method.build_entry(binding.fec)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def switch(
        self, label: int, counter: MemoryCounter
    ) -> Tuple[Optional[str], Optional[int]]:
        """Pure label switching: one reference into the label table."""
        counter.touch()
        entry = self.label_table.get(label)
        if entry is None:
            return None, None
        return entry.next_hop, entry.out_label

    def ip_lookup(
        self, address: Address, counter: MemoryCounter
    ) -> Tuple[Optional[Prefix], Optional[str]]:
        """Full IP lookup (what plain MPLS does at an aggregation point)."""
        result = self.base.lookup(address, counter)
        return result.prefix, result.next_hop

    def clue_lookup(
        self, label: int, address: Address, counter: MemoryCounter
    ) -> Tuple[Optional[Prefix], Optional[str]]:
        """Clue-assisted resolution at an aggregation point (§5.1).

        The label itself indexes the clue record — no hash function — so
        the single charged reference is the record fetch; a problematic
        clue pays its (tiny) restricted search on top.
        """
        entry = self._clue_entries.get(label)
        if entry is None:
            return self.ip_lookup(address, counter)
        counter.touch()
        return resolve(entry, address, counter)


class AggregationScenario:
    """Figure 8: an LSP crossing an aggregation point.

    Routers ``R1 → R2 → R3 → R4``: R1 is the ingress (full IP lookup,
    pushes the label), R2/R3 switch labels, R4 aggregates — its table
    holds more-specifics of the FEC.
    """

    def __init__(
        self,
        fec: Prefix,
        specifics: Sequence[Entry],
        background: Sequence[Entry],
        technique: str = "patricia",
        width: int = 32,
    ):
        for prefix, _hop in specifics:
            if not fec.is_prefix_of(prefix) or prefix.length <= fec.length:
                raise ValueError(
                    "specific %s must strictly extend the FEC %s" % (prefix, fec)
                )
        self.fec = fec
        self.width = width
        names = ["R1", "R2", "R3", "R4"]
        upstream_table = sorted(
            list(background) + [(fec, "R4")],
            key=lambda item: (item[0].length, item[0].bits),
        )
        r4_table = sorted(
            list(background) + [(fec, "R4")] + list(specifics),
            key=lambda item: (item[0].length, item[0].bits),
        )
        self.routers: Dict[str, MplsRouter] = {}
        for name in names[:-1]:
            self.routers[name] = MplsRouter(name, upstream_table, technique, width)
        self.routers["R4"] = MplsRouter("R4", r4_table, technique, width)
        # Label distribution along the chain: 10 → 11 → 12, popped at R4.
        self.routers["R1"].bind_label(10, fec, "R2", 11)
        self.routers["R2"].bind_label(11, fec, "R3", 12)
        self.routers["R3"].bind_label(12, fec, "R4", 13)
        self.routers["R4"].bind_label(13, fec, "R4", None)
        self.routers["R4"].enable_clue_for_label(13, upstream_table)
        #: one binding message per FEC per link (LDP-style control cost).
        self.setup_messages = 3

    def measure(self, address: Address) -> Dict[str, List[int]]:
        """Per-hop references for the three schemes on one destination."""
        if not self.fec.matches(address):
            raise ValueError("destination %s is outside the FEC" % address)
        schemes: Dict[str, List[int]] = {"ip": [], "mpls": [], "mpls+clue": []}
        # Pure IP: a full lookup at every router.
        for name in ("R1", "R2", "R3", "R4"):
            counter = MemoryCounter()
            self.routers[name].ip_lookup(address, counter)
            schemes["ip"].append(counter.accesses)
        # Plain MPLS: ingress lookup, switching, full lookup at R4.
        for variant in ("mpls", "mpls+clue"):
            counter = MemoryCounter()
            self.routers["R1"].ip_lookup(address, counter)
            schemes[variant].append(counter.accesses)
            label = 11
            for name in ("R2", "R3"):
                counter = MemoryCounter()
                _hop, label = self.routers[name].switch(label, counter)
                schemes[variant].append(counter.accesses)
            counter = MemoryCounter()
            if variant == "mpls":
                self.routers["R4"].ip_lookup(address, counter)
            else:
                self.routers["R4"].clue_lookup(label, address, counter)
            schemes[variant].append(counter.accesses)
        return schemes

    def aggregation_cost(self, addresses: Sequence[Address]) -> Dict[str, float]:
        """Average R4 cost per scheme over many destinations."""
        totals = {"ip": 0, "mpls": 0, "mpls+clue": 0}
        for address in addresses:
            per_hop = self.measure(address)
            for scheme, series in per_hop.items():
                totals[scheme] += series[-1]
        count = len(addresses) or 1
        return {scheme: total / count for scheme, total in totals.items()}
