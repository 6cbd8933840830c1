"""The Advance method (§3.1.2).

Advance additionally inspects the *sender's* trie: Claim 1 proves that for
the vast majority of clues (95–99.5 % empirically) no longer match can
exist at the receiver, so the entry's Ptr is empty and the lookup costs
exactly the one clue-table reference.  Only clues violating Claim 1
("problematic" clues) carry a continuation — and even that continuation is
restricted to the potential set ``P(s, R1)`` of Condition C1 (or, for the
trie walks, stopped at the first vertex where Claim 1 holds, i.e. one
outside the overlay's ``problematic`` set).

Case analysis implemented here, mirroring §3.1.2:

* **Case 1** — the clue is not a vertex of the receiver's trie: FD = the
  least marked ancestor; Ptr empty.
* **Case 2** — Claim 1 holds: FD = the clue's BMP locally; Ptr empty.
* **Case 3** — Claim 1 violated: Ptr = a restricted continuation, FD kept
  as the fallback when the resumed search fails.

The continuation itself comes from :meth:`ReceiverState.continuation`,
which Simple shares: Advance hands it the potential set and the live
``problematic`` set where a trie walk may go on.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.addressing import Prefix
from repro.core.entry import ClueEntry
from repro.core.receiver import ReceiverState, check_technique
from repro.core.table import ClueTable
from repro.lookup.hotpath import cold_path
from repro.trie.binary_trie import BinaryTrie
from repro.trie.node import TrieNode
from repro.trie.overlay import TrieOverlay


class AdvanceMethod:
    """Builds Advance-method clue entries for one (sender, receiver) pair."""

    method_name = "advance"

    # Construction inspects whole tries and allocates freely; a router
    # only reaches it on the amortized build-on-miss path.
    @cold_path
    def __init__(
        self,
        sender_trie: BinaryTrie,
        receiver: ReceiverState,
        technique: str = "patricia",
        overlay: Optional[TrieOverlay] = None,
        telemetry=None,
    ):
        self.receiver = receiver
        self.technique = check_technique(technique)
        #: A caller may hand in a live (incrementally maintained) overlay;
        #: by default one is built from the current tries.
        self.overlay = (
            overlay
            if overlay is not None
            else TrieOverlay(sender_trie, receiver.trie)
        )
        #: Optional per-router telemetry view
        #: (:class:`repro.telemetry.RouterInstruments`).
        self.telemetry = telemetry

    @cold_path
    def build_entry(self, clue: Prefix) -> ClueEntry:
        """Pre-compute the clue's FD and (usually empty) Ptr.

        ``@cold_path``: built once per (sender, clue), cached in the
        clue table — a clue miss pays for it exactly once (§3.1.2's
        pre-processing, merely deferred to first use).
        """
        return self.entry(clue, *self.walk(clue))

    def walk(
        self, clue: Prefix
    ) -> Tuple[Optional[TrieNode], Optional[TrieNode], Optional[TrieNode]]:
        """One root→clue walk down both tries, in lockstep.

        Returns the sender vertex at ``clue`` (marked or not; None where
        the sender trie has no vertex there), the receiver vertex at
        ``clue`` (None likewise) and the receiver's deepest marked vertex
        on the path, the clue and the root included: the FD (case 1 when
        the receiver has no vertex at the clue, case 2 or 3 otherwise).
        """
        node: Optional[TrieNode] = self.overlay.sender.root
        twin: Optional[TrieNode] = self.receiver.trie.root
        fd = twin if twin.marked else None
        bits = clue.bits
        for shift in range(clue.length - 1, -1, -1):
            bit = (bits >> shift) & 1
            if twin is not None:
                twin = twin.children.get(bit)
                if twin is not None and twin.marked:
                    fd = twin
            if node is not None:
                node = node.children.get(bit)
            elif twin is None:
                break
        return node, twin, fd

    def entry(
        self,
        clue: Prefix,
        sender_node: Optional[TrieNode],
        node: Optional[TrieNode],
        fd: Optional[TrieNode],
    ) -> ClueEntry:
        """The record of ``clue`` from the vertices :meth:`walk` returns.

        Claim 1 is one membership test in the overlay's ``problematic``
        set; only a clue that fails it pays for a continuation.
        """
        continuation = None
        failing = self.overlay.problematic
        # An empty set (two routers holding the same prefixes) answers
        # without hashing the clue.
        problematic = bool(failing) and clue in failing
        if problematic:
            # The trie and Patricia walks hold the live set, which a
            # route change mutates in place, never rebinds (§4).
            continuation = self.receiver.continuation(
                self.technique, clue, node, self.potential_candidates, failing
            )
        if self.telemetry is not None:
            self.telemetry.record_entry_built(self.method_name, problematic)
        if fd is None:
            fd_prefix = fd_next_hop = None
        else:
            fd_prefix, fd_next_hop = fd.prefix, fd.next_hop
        return ClueEntry(
            clue,
            fd_prefix,
            fd_next_hop,
            continuation,
            style=self.method_name,
            sender_node=sender_node,
        )

    def build_table(self, clues: Optional[Iterable[Prefix]] = None) -> ClueTable:
        """Pre-processing construction over a clue universe.

        ``clues`` defaults to every prefix of the sender's table — every
        clue the sender could possibly emit.  That default is one
        pre-order pass over the sender trie in lockstep with the
        receiver trie, carrying down the receiver twin and the deepest
        marked receiver vertex at or above it, so no clue walks from the
        root; records land in the order :meth:`BinaryTrie.prefixes`
        yields.  Given clues are built in the order given, one
        :meth:`walk` each.
        """
        table = ClueTable()
        if clues is not None:
            for clue in clues:
                table.insert(self.build_entry(clue))
            return table
        entry = self.entry
        root = self.receiver.trie.root
        stack: List[Tuple[TrieNode, Optional[TrieNode], Optional[TrieNode]]] = [
            (self.overlay.sender.root, root, root if root.marked else None)
        ]
        while stack:
            node, twin, fd = stack.pop()
            if node.marked:
                table.insert(entry(node.prefix, node, twin, fd))
            twins = twin.children if twin is not None else {}
            for bit, child in node.children.items():
                other = twins.get(bit)
                if other is not None and other.marked:
                    stack.append((child, other, other))
                else:
                    stack.append((child, other, fd))
        return table

    def potential_candidates(
        self, clue: Prefix
    ) -> List[Tuple[Prefix, object]]:
        """``P(clue, R1)`` paired with the receiver's next hops."""
        return [
            (prefix, self.receiver.trie.next_hop_of(prefix))
            for prefix in self.overlay.potential_set(clue)
        ]

    def problematic_fraction(self) -> float:
        """Fraction of the sender's clues that violate Claim 1."""
        total = len(self.overlay.sender)
        if not total:
            return 0.0
        return len(self.overlay.problematic_clues()) / total

    def __repr__(self) -> str:
        return "AdvanceMethod(technique=%r)" % self.technique
