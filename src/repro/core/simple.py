"""The Simple method (§3.1.1).

Upon receiving clue ``s`` the router resumes the search only if the vertex
``s`` has descendants in its own trie; otherwise the entry's FD — the best
matching prefix of ``s`` locally, precomputed — already decides the packet.
Simple needs no knowledge of the *sender's* table, which is why it can be
built from the receiver's trie alone and learned fully on the fly.  Its
Ptr comes from :meth:`ReceiverState.continuation`, which Advance shares,
with every prefix below the clue as candidates and no stops.
"""

from __future__ import annotations

from typing import Iterable

from repro.addressing import Prefix
from repro.core.entry import ClueEntry
from repro.core.receiver import ReceiverState, check_technique
from repro.core.table import ClueTable


class SimpleMethod:
    """Builds Simple-method clue entries for one receiving router."""

    method_name = "simple"

    def __init__(
        self,
        receiver: ReceiverState,
        technique: str = "patricia",
        telemetry=None,
    ):
        self.receiver = receiver
        self.technique = check_technique(technique)
        #: Optional per-router telemetry view
        #: (:class:`repro.telemetry.RouterInstruments`); record-building
        #: is off the fast path, so the hook costs nothing when unset.
        self.telemetry = telemetry

    def build_entry(self, clue: Prefix) -> ClueEntry:
        """Pre-compute the clue's FD and (possibly empty) Ptr.

        The Ptr stays empty when the clue vertex is absent from the
        receiver's trie or has no descendants (§3.1.1); otherwise it
        resumes below the clue through everything there, with no stops.
        """
        receiver = self.receiver
        fd_prefix, fd_next_hop = receiver.fd_for_clue(clue)
        node = receiver.trie.find_node(clue)
        continuation = None
        if node is not None and node.children:
            continuation = receiver.continuation(self.technique, clue, node)
        if self.telemetry is not None:
            # Simple cannot see the sender's trie, so "problematic" is
            # unknowable; only Advance charges problematic_clues_total.
            self.telemetry.record_entry_built(self.method_name, False)
        return ClueEntry(
            clue, fd_prefix, fd_next_hop, continuation, style=self.method_name
        )

    def build_table(self, clues: Iterable[Prefix]) -> ClueTable:
        """Pre-processing construction (§3.3.2) over a clue universe."""
        table = ClueTable()
        for clue in clues:
            table.insert(self.build_entry(clue))
        return table

    def __repr__(self) -> str:
        return "SimpleMethod(technique=%r)" % self.technique
