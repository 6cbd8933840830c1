"""Common interface of all longest-prefix-match algorithms.

The paper compares five baselines — Regular (bit-by-bit trie), Patricia,
Binary (binary search over prefix ranges), 6-way (B-way branching search)
and Log W (binary search over prefix lengths) — and then combines each of
them with the Simple and Advance clue methods.  Every baseline implements
this interface: built from a forwarding table and patched by route
updates, it answers longest-prefix-match queries while charging memory
references to a :class:`~repro.lookup.counters.MemoryCounter`.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.addressing import Address, Prefix
from repro.lookup.counters import LookupResult, MemoryCounter

TableEntries = Iterable[Tuple[Prefix, object]]


def sorted_entries(entries: TableEntries) -> List[Tuple[Prefix, object]]:
    """Entries in the canonical (length, bits) build order, one per prefix.

    A repeated prefix keeps its last next hop, as a trie insert does.
    """
    return sorted(dict(entries).items(), key=lambda item: (item[0].length, item[0].bits))


class LookupAlgorithm(abc.ABC):
    """A longest-prefix-match algorithm over one forwarding table.

    A route change patches it in place through :meth:`apply_update`.
    """

    #: Human-readable algorithm name, as used in the paper's tables.
    name: str = "abstract"

    def __init__(self, entries: TableEntries, width: int = 32):
        self.width = width
        self._entries: List[Tuple[Prefix, object]] = sorted_entries(entries)
        self._check_width(prefix for prefix, _ in self._entries)
        self._build()

    def _check_width(self, prefixes: Iterable[Prefix]) -> None:
        for prefix in prefixes:
            if prefix.width != self.width:
                raise ValueError(
                    "prefix %s does not belong to width-%d family"
                    % (prefix, self.width)
                )

    @abc.abstractmethod
    def _build(self) -> None:
        """Construct the search structure from ``self._entries``."""

    def apply_update(
        self,
        added: Sequence[Tuple[Prefix, object]],
        removed: Sequence[Prefix],
        entries: List[Tuple[Prefix, object]],
    ) -> None:
        """Apply a route change: drop ``removed``, then insert ``added``.

        ``entries`` is the table after the change, in
        :func:`sorted_entries` order (a router's receiver state merges
        it, so one route update merges once); the structure adopts it
        and ends up answering exactly like a fresh build over it.  By
        default it *is* rebuilt from that table, because binary, 6-way,
        Log W and multibit have no cheap delete; the trie walks override
        :meth:`_patch` to edit in place.
        """
        self._check_width([prefix for prefix, _ in added] + list(removed))
        self._entries = entries
        self._patch(added, removed)

    def _patch(self, added, removed) -> None:
        """Bring the search structure up to date with ``self._entries``."""
        self._build()

    @abc.abstractmethod
    def lookup(
        self, address: Address, counter: Optional[MemoryCounter] = None
    ) -> LookupResult:
        """Longest prefix match of ``address``; charges ``counter``."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def table(self) -> List[Tuple[Prefix, object]]:
        """The (sorted) forwarding-table entries the structure was built from."""
        return list(self._entries)

    def size(self) -> int:
        """Number of forwarding-table entries."""
        return len(self._entries)

    def _result(
        self,
        prefix: Optional[Prefix],
        next_hop: Optional[object],
        counter: MemoryCounter,
    ) -> LookupResult:
        return LookupResult(prefix, next_hop, counter.accesses)

    def __repr__(self) -> str:
        return "%s(%d prefixes)" % (type(self).__name__, len(self._entries))


def reference_lookup(
    entries: TableEntries, address: Address
) -> Tuple[Optional[Prefix], Optional[object]]:
    """Brute-force longest prefix match, used as a test oracle."""
    best: Optional[Prefix] = None
    best_hop: Optional[object] = None
    for prefix, next_hop in entries:
        if prefix.matches(address):
            if best is None or prefix.length > best.length:
                best = prefix
                best_hop = next_hop
    return best, best_hop
