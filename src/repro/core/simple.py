"""The Simple method (§3.1.1).

Upon receiving clue ``s`` the router resumes the search only if the vertex
``s`` has descendants in its own trie; otherwise the entry's FD — the best
matching prefix of ``s`` locally, precomputed — already decides the packet.
Simple needs no knowledge of the *sender's* table, which is why it can be
built from the receiver's trie alone and learned fully on the fly.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.addressing import Prefix
from repro.core.entry import ClueEntry
from repro.core.receiver import TECHNIQUES, ReceiverState
from repro.core.table import ClueTable
from repro.lookup.restricted import (
    Continuation,
    LengthContinuation,
    PatriciaContinuation,
    SetContinuation,
    TrieContinuation,
    locate_patricia_entry,
    subtree_candidates,
)


class SimpleMethod:
    """Builds Simple-method clue entries for one receiving router."""

    method_name = "simple"

    def __init__(
        self,
        receiver: ReceiverState,
        technique: str = "patricia",
        telemetry=None,
    ):
        if technique not in TECHNIQUES:
            raise ValueError(
                "unknown technique %r (expected one of %s)"
                % (technique, ", ".join(TECHNIQUES))
            )
        self.receiver = receiver
        self.technique = technique
        #: Optional per-router telemetry view
        #: (:class:`repro.telemetry.RouterInstruments`); record-building
        #: is off the fast path, so the hook costs nothing when unset.
        self.telemetry = telemetry

    def build_entry(self, clue: Prefix) -> ClueEntry:
        """Pre-compute the clue's FD and (possibly empty) Ptr."""
        fd_prefix, fd_next_hop = self.receiver.fd_for_clue(clue)
        continuation = self._continuation(clue)
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

    def _continuation(self, clue: Prefix) -> Optional[Continuation]:
        """The Ptr field: a resumed search below ``clue``, or empty.

        Simple leaves the pointer empty exactly when the clue vertex is
        absent from the receiver's trie or has no descendants (§3.1.1).
        """
        node = self.receiver.trie.find_node(clue)
        if node is None or not node.children:
            return None
        if self.technique == "regular":
            return TrieContinuation(node, self.receiver.width)
        if self.technique == "patricia":
            located = locate_patricia_entry(self.receiver.patricia, clue)
            if located is None:
                return None
            entry, is_clue_vertex = located
            return PatriciaContinuation(
                entry, is_clue_vertex, clue, self.receiver.width
            )
        if self.technique == "multibit":
            from repro.lookup.multibit import MultibitContinuation

            located = self.receiver.multibit.node_at(clue)
            if located is None:
                return None
            return MultibitContinuation(self.receiver.multibit, clue)
        candidates = subtree_candidates(self.receiver.trie, clue)
        if not candidates:
            return None
        if self.technique == "binary":
            return SetContinuation(candidates, self.receiver.width, branching=2)
        if self.technique == "6way":
            return SetContinuation(candidates, self.receiver.width, branching=6)
        return LengthContinuation(candidates, self.receiver.width)

    def __repr__(self) -> str:
        return "SimpleMethod(technique=%r)" % self.technique
