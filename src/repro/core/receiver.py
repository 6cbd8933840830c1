"""Receiver-side state shared by the Simple and Advance builders.

A router that receives clues keeps its ordinary forwarding structures
over its own table — a binary trie, plus the Patricia and multibit tries
the ``patricia`` and ``multibit`` continuation techniques resume in — and
the clue builders derive entries against them.  Building them once and
sharing them across methods mirrors a real router, where the clue
machinery sits next to whatever lookup structure is already deployed.
Only the binary trie is built up front: the other two are built from the
current entries on first read, since most states never read them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.addressing import Address, Prefix
from repro.lookup.base import TableEntries, sorted_entries
from repro.lookup.multibit import MultibitContinuation, MultibitTrie
from repro.lookup.restricted import (
    Continuation,
    LengthContinuation,
    PatriciaContinuation,
    SetContinuation,
    TrieContinuation,
    locate_patricia_entry,
    subtree_candidates,
)
from repro.trie.binary_trie import BinaryTrie
from repro.trie.node import TrieNode
from repro.trie.patricia import PatriciaTrie

#: Continuation techniques a clue entry may be built for (§4).
TECHNIQUES = ("regular", "patricia", "binary", "6way", "logw", "multibit")


def check_technique(technique: str) -> str:
    """``technique`` if it is one of :data:`TECHNIQUES`; else raise."""
    if technique not in TECHNIQUES:
        raise ValueError(
            "unknown technique %r (expected one of %s)"
            % (technique, ", ".join(TECHNIQUES))
        )
    return technique


def merge_entries(
    entries: Sequence[Tuple[Prefix, object]],
    added: TableEntries,
    removed: Iterable[Prefix],
) -> List[Tuple[Prefix, object]]:
    """``entries`` after a route change: removes first, then adds.

    ``entries`` is a :func:`sorted_entries` list; the merge is a new
    list, patched by bisection, so whoever else holds ``entries`` keeps
    it unchanged.  An added prefix already present takes its new next
    hop, so a next-hop change travels as a plain add.  A 1-tuple
    ``(prefix,)`` sorts just before every entry of ``prefix``.
    """
    merged = list(entries)
    for prefix in removed:
        at = bisect_left(merged, (prefix,))
        if at < len(merged) and merged[at][0] == prefix:
            del merged[at]
    for prefix, next_hop in added:
        at = bisect_left(merged, (prefix,))
        if at < len(merged) and merged[at][0] == prefix:
            merged[at] = (prefix, next_hop)
        else:
            merged.insert(at, (prefix, next_hop))
    return merged


class ReceiverState:
    """A receiving router's own forwarding table and derived structures."""

    def __init__(
        self,
        entries: Iterable[Tuple[Prefix, object]],
        width: int = 32,
    ):
        self.width = width
        self.entries: List[Tuple[Prefix, object]] = sorted_entries(entries)
        self.trie = BinaryTrie.from_prefixes(self.entries, width)
        self._patricia: Optional[PatriciaTrie] = None
        self._multibit: Optional[MultibitTrie] = None

    @property
    def patricia(self) -> PatriciaTrie:
        """The Patricia trie, built from the current entries on first
        read and patched in place by :meth:`apply_update` after that."""
        if self._patricia is None:
            self._patricia = PatriciaTrie.from_prefixes(self.entries, self.width)
        return self._patricia

    @property
    def multibit(self) -> MultibitTrie:
        """The stride-k multibit trie, built lazily on first use."""
        if self._multibit is None:
            trie = MultibitTrie(width=self.width)
            for prefix, next_hop in self.entries:
                trie.insert(prefix, next_hop)
            self._multibit = trie
        return self._multibit

    def best_match(
        self, address: Address
    ) -> Tuple[Optional[Prefix], Optional[object]]:
        """The receiver's true BMP for ``address`` (test oracle and FDs)."""
        node = self.trie.longest_match(address)
        if node is None:
            return None, None
        return node.prefix, node.next_hop

    def fd_for_clue(
        self, clue: Prefix
    ) -> Tuple[Optional[Prefix], Optional[object]]:
        """The FD field for ``clue``: its BMP in the receiver's trie.

        This is the paper's "least ancestor of s which is also a prefix";
        the walk works whether or not ``clue`` is a vertex of the trie
        (Advance method case 1 handles absent vertices the same way).
        """
        node = self.trie.least_marked_ancestor(clue)
        if node is None:
            return None, None
        return node.prefix, node.next_hop

    def continuation(
        self,
        technique: str,
        clue: Prefix,
        node: Optional[TrieNode],
        candidates: Optional[Callable[[Prefix], List[Tuple[Prefix, object]]]] = None,
        stops: Optional[Set[Prefix]] = None,
    ) -> Optional[Continuation]:
        """The Ptr field of ``clue``: a §4 resumed search below it, or
        None when ``technique`` has nowhere to resume.

        ``node`` is the trie's vertex at ``clue`` (None when absent),
        where a ``regular`` walk starts; ``patricia`` and ``multibit``
        locate their own start.  ``candidates(clue)`` is the prefix set
        the ``binary``, ``6way`` and ``logw`` searches cover (Advance's
        potential set); by default, every prefix below the clue
        (Simple's).  ``stops`` is the live set a trie or Patricia walk
        continues through (Advance's Claim 1 failures); None walks until
        the path runs out.
        """
        width = self.width
        if technique == "regular":
            return None if node is None else TrieContinuation(node, width, stops)
        if technique == "patricia":
            located = locate_patricia_entry(self.patricia, clue)
            if located is None:
                return None
            return PatriciaContinuation(located[0], located[1], clue, width, stops)
        if technique == "multibit":
            stride_trie = self.multibit
            start = stride_trie.node_at(clue)
            if start is None:
                return None
            return MultibitContinuation(stride_trie, clue, start)
        if candidates is None:
            found = subtree_candidates(self.trie, clue)
        else:
            found = candidates(clue)
        if not found:
            return None
        if technique == "logw":
            return LengthContinuation(found, width)
        return SetContinuation(
            found, width, branching=2 if technique == "binary" else 6
        )

    def apply_update(
        self,
        add: Iterable[Tuple[Prefix, object]] = (),
        remove: Iterable[Prefix] = (),
    ) -> None:
        """Apply a route change to every derived structure.

        The binary trie, and the Patricia trie once it has been built,
        update in place; the multibit trie (which has no cheap delete) is
        dropped and lazily rebuilt.
        """
        removed = list(remove)
        added = list(add)
        patricia = self._patricia
        for prefix in removed:
            self.trie.remove(prefix)
            if patricia is not None:
                patricia.remove(prefix)
        for prefix, next_hop in added:
            self.trie.insert(prefix, next_hop)
            if patricia is not None:
                patricia.insert(prefix, next_hop)
        self.entries = merge_entries(self.entries, added, removed)
        self._multibit = None

    def size(self) -> int:
        """Number of forwarding-table entries."""
        return len(self.entries)

    def __repr__(self) -> str:
        return "ReceiverState(%d prefixes, width=%d)" % (
            len(self.entries),
            self.width,
        )
