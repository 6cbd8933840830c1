"""Sharing one clues table among several neighbours (§3.4).

A router with several upstream neighbours can keep one clue table per port
(the trivial case), or share memory with one of three schemes the paper
proposes:

* **Union table** — one table over the union of all neighbours' clues; an
  entry's Ptr may be empty only when Claim 1 holds with respect to *every*
  neighbour that could send the clue, and its continuation covers the
  union of the per-neighbour potential sets.
* **Bit map** — one table, plus a d-bit map per entry (d = number of
  neighbours): bit j says whether the clue is final when arriving from
  neighbour j.  If the clue implies the BMP for several neighbours it
  implies the *same* BMP for all of them, so one FD field suffices.
* **Sub-tables** — a common table for clues that behave identically for
  all neighbours, plus a small specific table per neighbour; a probe may
  need to consult both (two references in the worst case).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.addressing import Address, Prefix
from repro.core.advance import AdvanceMethod
from repro.core.entry import ClueEntry
from repro.core.lookup import resolve
from repro.core.receiver import ReceiverState
from repro.core.table import ClueTable
from repro.lookup.counters import LookupResult, MemoryCounter
from repro.lookup.restricted import SetContinuation
from repro.trie.binary_trie import BinaryTrie


class UnionClueTable:
    """One shared table; Claim 1 must hold w.r.t. every relevant sender."""

    def __init__(
        self,
        senders: Dict[str, BinaryTrie],
        receiver: ReceiverState,
        branching: int = 2,
    ):
        if not senders:
            raise ValueError("at least one sender is required")
        self.receiver = receiver
        self.methods = {
            name: AdvanceMethod(trie, receiver, technique="binary")
            for name, trie in senders.items()
        }
        self.table = ClueTable()
        self.branching = branching
        self._build()

    def _clue_universe(self) -> Set[Prefix]:
        universe: Set[Prefix] = set()
        for method in self.methods.values():
            universe.update(method.overlay.sender.prefixes())
        return universe

    def _senders_of(self, clue: Prefix) -> List[AdvanceMethod]:
        """The senders that could emit this clue (it is in their table)."""
        return [
            method
            for method in self.methods.values()
            if method.overlay.sender.contains(clue)
        ]

    def _build(self) -> None:
        for clue in self._clue_universe():
            fd_prefix, fd_next_hop = self.receiver.fd_for_clue(clue)
            relevant = self._senders_of(clue)
            problematic = [
                method
                for method in relevant
                if method.overlay.is_problematic(clue)
            ]
            continuation = None
            if problematic:
                merged: Dict[Prefix, object] = {}
                for method in problematic:
                    for prefix, hop in method.potential_candidates(clue):
                        merged[prefix] = hop
                if merged:
                    continuation = SetContinuation(
                        list(merged.items()),
                        self.receiver.width,
                        branching=self.branching,
                    )
            self.table.insert(
                ClueEntry(clue, fd_prefix, fd_next_hop, continuation)
            )

    def lookup(
        self,
        address: Address,
        clue: Prefix,
        counter: Optional[MemoryCounter] = None,
    ) -> LookupResult:
        """Probe the shared table (one reference) and resolve."""
        counter = counter if counter is not None else MemoryCounter()
        entry = self.table.probe(clue, counter)
        if entry is None:
            prefix, next_hop = self.receiver.best_match(address)
        else:
            prefix, next_hop = resolve(entry, address, counter)
        return LookupResult(prefix, next_hop, counter.accesses)


class BitmapClueTable:
    """One shared table with a per-neighbour "FD is final" bit map."""

    def __init__(self, senders: Dict[str, BinaryTrie], receiver: ReceiverState):
        if not senders:
            raise ValueError("at least one sender is required")
        self.receiver = receiver
        self.sender_order = sorted(senders)
        self.methods = {
            name: AdvanceMethod(trie, receiver, technique="binary")
            for name, trie in senders.items()
        }
        #: clue -> (entry, bitmap, per-sender records): the shared FD, and
        #: for each sender whose bit is clear the FD with its own Ptr.
        self._records: Dict[Prefix, Tuple[ClueEntry, Dict[str, bool], Dict[str, ClueEntry]]] = {}
        self._build()

    def _build(self) -> None:
        universe: Set[Prefix] = set()
        for method in self.methods.values():
            universe.update(method.overlay.sender.prefixes())
        for clue in universe:
            fd_prefix, fd_next_hop = self.receiver.fd_for_clue(clue)
            bitmap: Dict[str, bool] = {}
            pointers: Dict[str, ClueEntry] = {}
            for name in self.sender_order:
                method = self.methods[name]
                if not method.overlay.sender.contains(clue):
                    continue
                final = not method.overlay.is_problematic(clue)
                bitmap[name] = final
                if not final:
                    candidates = method.potential_candidates(clue)
                    if candidates:
                        pointers[name] = ClueEntry(
                            clue,
                            fd_prefix,
                            fd_next_hop,
                            SetContinuation(
                                candidates, self.receiver.width, branching=2
                            ),
                        )
                    else:
                        bitmap[name] = True
            entry = ClueEntry(clue, fd_prefix, fd_next_hop, None)
            self._records[clue] = (entry, bitmap, pointers)

    def bitmap_of(self, clue: Prefix) -> Optional[Dict[str, bool]]:
        """The per-neighbour bit map stored with a clue (None on miss)."""
        record = self._records.get(clue)
        return record[1] if record else None

    def lookup(
        self,
        address: Address,
        clue: Prefix,
        sender: str,
        counter: Optional[MemoryCounter] = None,
    ) -> LookupResult:
        """Probe once, test the sender's bit, and resolve accordingly."""
        counter = counter if counter is not None else MemoryCounter()
        counter.touch()
        record = self._records.get(clue)
        if record is None:
            prefix, next_hop = self.receiver.best_match(address)
        else:
            entry, bitmap, pointers = record
            if not bitmap.get(sender, True):
                entry = pointers[sender]
            prefix, next_hop = resolve(entry, address, counter)
        return LookupResult(prefix, next_hop, counter.accesses)

    def size(self) -> int:
        """Number of shared records."""
        return len(self._records)


class SubTablesClueTable:
    """A common table plus per-neighbour specific tables.

    A clue lands in the common table when every neighbour that can send it
    agrees: Claim 1 holds for all of them (the FD is shared by
    construction).  Clues needing per-neighbour treatment live in that
    neighbour's specific table.  A lookup probes the common table first
    (one reference) and the specific table only on a miss (a second
    reference).
    """

    def __init__(self, senders: Dict[str, BinaryTrie], receiver: ReceiverState):
        if not senders:
            raise ValueError("at least one sender is required")
        self.receiver = receiver
        self.methods = {
            name: AdvanceMethod(trie, receiver, technique="binary")
            for name, trie in senders.items()
        }
        self.common = ClueTable()
        self.specific: Dict[str, ClueTable] = {
            name: ClueTable() for name in senders
        }
        self._build()

    def _build(self) -> None:
        universe: Set[Prefix] = set()
        for method in self.methods.values():
            universe.update(method.overlay.sender.prefixes())
        for clue in universe:
            relevant = {
                name: method
                for name, method in self.methods.items()
                if method.overlay.sender.contains(clue)
            }
            all_final = all(
                not method.overlay.is_problematic(clue)
                for method in relevant.values()
            )
            if all_final:
                fd_prefix, fd_next_hop = self.receiver.fd_for_clue(clue)
                self.common.insert(ClueEntry(clue, fd_prefix, fd_next_hop))
            else:
                for name, method in relevant.items():
                    self.specific[name].insert(method.build_entry(clue))

    def lookup(
        self,
        address: Address,
        clue: Prefix,
        sender: str,
        counter: Optional[MemoryCounter] = None,
    ) -> LookupResult:
        """Common table first; the sender's specific table on a miss."""
        counter = counter if counter is not None else MemoryCounter()
        entry = self.common.probe(clue, counter)
        if entry is None:
            entry = self.specific[sender].probe(clue, counter)
        if entry is None:
            prefix, next_hop = self.receiver.best_match(address)
        else:
            prefix, next_hop = resolve(entry, address, counter)
        return LookupResult(prefix, next_hop, counter.accesses)

    def sizes(self) -> Dict[str, int]:
        """Entry counts: the common table and each specific table."""
        sizes = {"common": len(self.common)}
        for name, table in self.specific.items():
            sizes[name] = len(table)
        return sizes
