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
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.addressing import Prefix
from repro.core.entry import ClueEntry
from repro.core.receiver import TECHNIQUES, ReceiverState
from repro.core.table import ClueTable
from repro.lookup.hotpath import cold_path
from repro.lookup.restricted import (
    Continuation,
    LengthContinuation,
    PatriciaContinuation,
    SetContinuation,
    TrieContinuation,
    locate_patricia_entry,
)
from repro.trie.binary_trie import BinaryTrie
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
        if technique not in TECHNIQUES:
            raise ValueError(
                "unknown technique %r (expected one of %s)"
                % (technique, ", ".join(TECHNIQUES))
            )
        self.receiver = receiver
        self.technique = technique
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
        fd_prefix, fd_next_hop = self.receiver.fd_for_clue(clue)
        continuation = None
        problematic = self.overlay.is_problematic(clue)
        if problematic:
            continuation = self._continuation(clue)
        if self.telemetry is not None:
            self.telemetry.record_entry_built(self.method_name, problematic)
        return ClueEntry(
            clue,
            fd_prefix,
            fd_next_hop,
            continuation,
            style=self.method_name,
            sender_node=self.overlay.sender.find_node(clue),
        )

    def build_table(self, clues: Optional[Iterable[Prefix]] = None) -> ClueTable:
        """Pre-processing construction over a clue universe.

        ``clues`` defaults to every prefix of the sender's table — every
        clue the sender could possibly emit.
        """
        if clues is None:
            clues = self.overlay.sender.prefixes()
        table = ClueTable()
        for clue in clues:
            table.insert(self.build_entry(clue))
        return table

    def _continuation(self, clue: Prefix) -> Optional[Continuation]:
        """Case 3: a Claim 1-restricted resumed search below ``clue``.

        The trie and Patricia walks hold the overlay's live
        ``problematic`` set (§4), which a route change mutates in place,
        never rebinds, so they see every update.
        """
        if self.technique == "regular":
            node = self.receiver.trie.find_node(clue)
            if node is None:
                return None
            return TrieContinuation(
                node, self.receiver.width, self.overlay.problematic
            )
        if self.technique == "patricia":
            located = locate_patricia_entry(self.receiver.patricia, clue)
            if located is None:
                return None
            entry, is_clue_vertex = located
            return PatriciaContinuation(
                entry,
                is_clue_vertex,
                clue,
                self.receiver.width,
                self.overlay.problematic,
            )
        if self.technique == "multibit":
            from repro.lookup.multibit import MultibitContinuation

            located = self.receiver.multibit.node_at(clue)
            if located is None:
                return None
            return MultibitContinuation(self.receiver.multibit, clue)
        candidates = self.potential_candidates(clue)
        if not candidates:
            return None
        if self.technique == "binary":
            return SetContinuation(candidates, self.receiver.width, branching=2)
        if self.technique == "6way":
            return SetContinuation(candidates, self.receiver.width, branching=6)
        return LengthContinuation(candidates, self.receiver.width)

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
