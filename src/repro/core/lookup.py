"""The distributed IP-lookup data path (Figure 5 of the paper).

``ClueAssistedLookup`` glues together a base lookup algorithm (used for
clue-less packets and unknown clues) and a clue table built by either the
Simple or the Advance method.  The per-packet procedure is exactly the
paper's pseudo-code:

    probe the clue table (one reference);
    if the record matches the clue: resolve(record);
    else (never saw this clue): full lookup, then learn the clue.

:func:`resolve` is the hit branch, written once for every clue structure
of the package (the learning and guarded lookups, §3.3's indexed table,
§3.4's shared tables and §5.1's label-indexed records): if Ptr is empty,
route by FD; else resume the search below the clue, and on failure route
by FD.  A lookup given a ``builder`` learns each unknown clue on its
first miss (§3.3.1's on-the-fly construction); without one, the table
is the pre-processed one (§3.3.2) and a miss only routes.

The lookup also reports the receiver's *own* BMP so the router can attach
a fresh clue to the outgoing packet — a clue is always what *this* router
learned, independent of the incoming clue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Tuple, Union

from repro.addressing import Address, Prefix
from repro.core.advance import AdvanceMethod
from repro.core.entry import ClueEntry
from repro.core.simple import SimpleMethod
from repro.core.table import ClueTable
from repro.lookup.base import LookupAlgorithm
from repro.lookup.hotpath import cold_path, hot_path
from repro.lookup.counters import (
    METHOD_CLUE_MISS,
    METHOD_FD_IMMEDIATE,
    METHOD_FULL,
    METHOD_RESUMED,
    LookupResult,
    MemoryCounter,
)

if TYPE_CHECKING:
    from repro.faults.guard import NeighborHealth

Builder = Union[SimpleMethod, AdvanceMethod]


@hot_path
def resolve(
    entry: ClueEntry, address: Address, counter: MemoryCounter
) -> Tuple[Optional[Prefix], Optional[object]]:
    """Figure 5's hit branch: the decision for a probed record.

    An empty Ptr makes the FD final (method ``fd_immediate``); otherwise
    the search resumes below the clue (``resumed_search``), and the FD
    answers when it finds nothing longer.  Stamps the method on
    ``counter`` and returns ``(prefix, next_hop)``.
    """
    continuation = entry.continuation
    if continuation is None:
        counter.method = METHOD_FD_IMMEDIATE
        return entry.fd_prefix, entry.fd_next_hop
    counter.method = METHOD_RESUMED
    match = continuation.search(address, counter)
    if match is None:
        return entry.fd_prefix, entry.fd_next_hop
    return match


class ClueAssistedLookup:
    """Per-packet lookup combining a clue table with a base algorithm.

    ``table`` defaults to an empty one, which ``builder`` fills clue by
    clue.  ``hits`` and ``misses`` count the clue-carrying packets that
    found, and did not find, an active record.
    """

    __slots__ = ("base", "table", "builder", "hits", "misses", "_scratch")

    #: What the guard (:class:`repro.faults.guard.GuardedLookup`) adds:
    #: a plain lookup scores no upstream and feeds no monitor.
    health: Optional["NeighborHealth"] = None
    monitor: Any = None

    def __init__(
        self,
        base: LookupAlgorithm,
        table: Optional[ClueTable] = None,
        builder: Optional[Builder] = None,
    ):
        self.base = base
        self.table = table if table is not None else ClueTable()
        self.builder = builder
        self.hits = 0
        self.misses = 0
        #: Reused result record for the clue-hit paths: allocating one
        #: per packet measurably slows the hot path, and a result is
        #: only guaranteed valid until the next lookup on this instance.
        self._scratch = LookupResult(None, None, 0)

    @hot_path
    def lookup(
        self,
        address: Address,
        clue: Optional[Prefix] = None,
        counter: Optional[MemoryCounter] = None,
    ) -> LookupResult:
        """Route one packet; charges every memory reference to ``counter``."""
        counter = counter if counter is not None else MemoryCounter()
        if clue is None or not clue.matches(address):
            # The 5-bit header encoding cannot express a non-prefix of the
            # destination; a disagreeing clue object can only come from a
            # buggy caller and is treated as no clue at all.
            return self._full(address, counter)
        entry = self.table.probe(clue, counter)
        if entry is None:
            return self._miss(clue, address, counter)
        self.hits += 1
        return self._fill(entry, address, counter)

    @hot_path
    def _full(
        self, address: Address, counter: MemoryCounter, method: str = METHOD_FULL
    ) -> LookupResult:
        counter.method = method
        result = self.base.lookup(address, counter)
        result.method = method
        return result

    @hot_path
    def _miss(
        self, clue: Prefix, address: Address, counter: MemoryCounter
    ) -> LookupResult:
        """Never saw this clue: route by a full lookup, then build the
        record off the fast path ("Call procedure new-clue(c)")."""
        self.misses += 1
        result = self._full(address, counter, METHOD_CLUE_MISS)
        if self.builder is not None:
            self.learn(clue)
        return result

    @hot_path
    def _fill(
        self, entry: ClueEntry, address: Address, counter: MemoryCounter
    ) -> LookupResult:
        """:func:`resolve` ``entry`` into the reused result record."""
        prefix, next_hop = resolve(entry, address, counter)
        scratch = self._scratch
        scratch.prefix = prefix
        scratch.next_hop = next_hop
        scratch.accesses = counter.accesses
        scratch.method = counter.method
        return scratch

    @cold_path
    def learn(self, clue: Prefix) -> ClueEntry:
        """(Re)build the record for ``clue`` through the builder."""
        if self.builder is None:
            raise ValueError("a pre-processed lookup has no builder to learn with")
        entry = self.builder.build_entry(clue)
        self.table.insert(entry)
        return entry

    def note_malformed(self) -> None:
        """An undecodable clue header: the packet proceeds clueless, and
        only the guard scores it against the upstream."""

    def hit_rate(self) -> float:
        """Fraction of clue-carrying packets that hit a record."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return "ClueAssistedLookup(base=%s, table=%r)" % (
            self.base.name,
            self.table,
        )
