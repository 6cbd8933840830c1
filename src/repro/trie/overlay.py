"""Overlay of two routers' tries and the paper's Claim 1 machinery.

The Advance method (§3.1.2) pre-computes, for every clue ``s`` that router
R1 may send to router R2, whether a longer match than ``s`` can possibly
exist at R2.  The decision procedure is Claim 1:

    If on any path going down from ``s`` in R2's trie we encounter a prefix
    of R1 before (or at the same vertex as) the first prefix of R2, then no
    prefix of the destination longer than ``s`` can be found at R2.

Clues violating Claim 1 are *problematic* (Table 2 of the paper); only for
those must R2 ever resume the search.  The set of prefixes the resumed
search can still return is Condition C1 / Definition 1:

    P(s, R1) = { p marked in t2 : p strictly extends s and no vertex on the
                 path (s, p] is marked in t1 }

This module builds the union trie of the two routers' tries once, in one
iterative pass that also memoises Claim 1 per vertex, and answers Claim 1,
``P(s, R1)``, per-vertex stop booleans (for the Patricia adaptation of §4)
and Table 2/3 style statistics in linear passes.  Each merged vertex
shares the immutable prefix of a trie vertex it merges, so the tries must
be :class:`BinaryTrie` s, whose vertices carry the prefix their own path
spells; a path-compressed vertex would not.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.addressing import Prefix
from repro.trie.binary_trie import BinaryTrie
from repro.trie.node import TrieNode


class OverlayNode:
    """A vertex of the union of two tries."""

    __slots__ = ("prefix", "marked1", "marked2", "children", "unclaimed")

    def __init__(self, prefix: Prefix):
        self.prefix = prefix
        #: marked in the *sender*'s trie t1
        self.marked1 = False
        #: marked in the *receiver*'s trie t2
        self.marked2 = False
        self.children: Dict[int, "OverlayNode"] = {}
        #: True if a t2 prefix is reachable at-or-below this vertex without
        #: first crossing a t1 prefix (memoised bottom-up).
        self.unclaimed = False

    def subtree(self) -> Iterator["OverlayNode"]:
        """This vertex and all its descendants, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def __repr__(self) -> str:
        tags = ("1" if self.marked1 else "") + ("2" if self.marked2 else "")
        return "OverlayNode(%s%s)" % (
            self.prefix.bitstring() or "<root>",
            ":" + tags if tags else "",
        )


class TrieOverlay:
    """Union trie of a sender trie t1 and a receiver trie t2.

    Built in one pass (:meth:`_merge`) whose vertices share the tries'
    own prefixes; the ``unclaimed`` memo is filled over that pass in
    reverse, which visits every vertex after its children.  Route changes
    patch it in place (:meth:`set_receiver_mark`, :meth:`set_sender_mark`);
    vertices are created on demand and never removed.  The §4 stop
    booleans live in :attr:`stops`, built on first use and from then on
    kept current by every mark change.
    """

    def __init__(self, sender: BinaryTrie, receiver: BinaryTrie):
        if sender.width != receiver.width:
            raise ValueError("cannot overlay tries of different widths")
        self.width = sender.width
        self.sender = sender
        self.receiver = receiver
        self.root = self._merge(sender.root, receiver.root)
        self._stops: Optional[Dict[Prefix, bool]] = None

    @property
    def stops(self) -> Dict[Prefix, bool]:
        """The live per-vertex stop booleans (see :meth:`stop_booleans`).

        Built on first read — Tables 1-3 and the range and Log W
        techniques never pay for them — then patched in place.
        """
        if self._stops is None:
            self._stops = self.stop_booleans()
        return self._stops

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def _merge(root1: TrieNode, root2: TrieNode) -> OverlayNode:
        """The union of two tries below their roots, in one pass.

        Each merged vertex shares the prefix of a trie vertex it merges:
        a :class:`BinaryTrie` vertex carries the prefix its own path
        spells, and prefixes are immutable.  Children are inserted bit 0
        first, so :meth:`OverlayNode.subtree` lists them in the order a
        recursive merge would.  The pass visits every vertex before its
        children, so its reverse is a post-order, over which the
        ``unclaimed`` memo reads only finished children.
        """
        root = OverlayNode(root1.prefix)
        root.marked1 = root1.marked
        root.marked2 = root2.marked
        order: List[OverlayNode] = []
        stack: List[Tuple[OverlayNode, Optional[TrieNode], Optional[TrieNode]]] = [
            (root, root1, root2)
        ]
        while stack:
            merged, node1, node2 = stack.pop()
            order.append(merged)
            for bit in (0, 1):
                child1 = node1.children.get(bit) if node1 is not None else None
                child2 = node2.children.get(bit) if node2 is not None else None
                if child1 is None:
                    if child2 is None:
                        continue
                    child = OverlayNode(child2.prefix)
                    child.marked2 = child2.marked
                else:
                    child = OverlayNode(child1.prefix)
                    child.marked1 = child1.marked
                    child.marked2 = child2 is not None and child2.marked
                merged.children[bit] = child
                stack.append((child, child1, child2))
        for vertex in reversed(order):
            if vertex.marked1:
                continue
            if vertex.marked2:
                vertex.unclaimed = True
                continue
            for child in vertex.children.values():
                if child.unclaimed:
                    vertex.unclaimed = True
                    break
        return root

    # ------------------------------------------------------------------
    # incremental updates (route changes, §3.4)
    # ------------------------------------------------------------------
    def _find_or_create(self, prefix: Prefix) -> OverlayNode:
        node = self.root
        bits, length, width = prefix.bits, prefix.length, prefix.width
        derived = Prefix._derived
        for shift in range(length - 1, -1, -1):
            head = bits >> shift
            child = node.children.get(head & 1)
            if child is None:
                child = OverlayNode(derived(head, length - shift, width))
                node.children[head & 1] = child
                # A new leaf (unclaimed False) changes no other stop.
                if self._stops is not None:
                    self._stops[child.prefix] = True
            node = child
        return node

    def _reannotate_upwards(self, prefix: Prefix) -> None:
        """Recompute ``unclaimed`` from ``prefix`` up to the root.

        A mark change at a vertex can only alter the memoised predicate on
        the vertex itself and its ancestors; the walk stops early once a
        value is unchanged (the usual dominator argument).  A vertex's
        stop boolean reads only its children's memos, so each memo that
        flips re-derives its parent's stop, and no other stop can change.
        """
        path: List[OverlayNode] = [self.root]
        node = self.root
        bits = prefix.bits
        for shift in range(prefix.length - 1, -1, -1):
            node = node.children.get((bits >> shift) & 1)
            if node is None:
                break
            path.append(node)
        for depth in range(len(path) - 1, -1, -1):
            vertex = path[depth]
            if vertex.marked1:
                fresh = False
            elif vertex.marked2:
                fresh = True
            else:
                fresh = any(child.unclaimed for child in vertex.children.values())
            if fresh == vertex.unclaimed:
                if depth < len(path) - 1:
                    return
                continue
            vertex.unclaimed = fresh
            if self._stops is not None and depth:
                parent = path[depth - 1]
                self._stops[parent.prefix] = not any(
                    child.unclaimed for child in parent.children.values()
                )

    def set_receiver_mark(self, prefix: Prefix, marked: bool) -> None:
        """Record that the receiver gained/lost ``prefix`` (marked2)."""
        node = self._find_or_create(prefix)
        if node.marked2 == marked:
            return
        node.marked2 = marked
        self._reannotate_upwards(prefix)

    def set_sender_mark(self, prefix: Prefix, marked: bool) -> None:
        """Record that the sender gained/lost ``prefix`` (marked1)."""
        node = self._find_or_create(prefix)
        if node.marked1 == marked:
            return
        node.marked1 = marked
        # marked1 changes flip the subtree *cut*, not just the vertex, but
        # only the vertex's own memo and its ancestors' can change value —
        # the children's memos never read their ancestors.
        self._reannotate_upwards(prefix)

    # ------------------------------------------------------------------
    # vertex lookup
    # ------------------------------------------------------------------
    def find(self, prefix: Prefix) -> Optional[OverlayNode]:
        """The overlay vertex for ``prefix``, or None."""
        node = self.root
        bits = prefix.bits
        for shift in range(prefix.length - 1, -1, -1):
            node = node.children.get((bits >> shift) & 1)
            if node is None:
                return None
        return node

    # ------------------------------------------------------------------
    # Claim 1 and the potential set
    # ------------------------------------------------------------------
    def claim1_holds(self, clue: Prefix) -> bool:
        """True if Claim 1 guarantees no longer match exists below ``clue``.

        A clue absent from the overlay (hence from t2) trivially satisfies
        the claim: case 1 of the Advance method resolves it by the FD field
        alone.
        """
        node = self.find(clue)
        if node is None:
            return True
        return not any(child.unclaimed for child in node.children.values())

    def is_problematic(self, clue: Prefix) -> bool:
        """True if the clue violates Claim 1 (search must continue)."""
        return not self.claim1_holds(clue)

    def potential_set(self, clue: Prefix) -> List[Prefix]:
        """``P(clue, R1)`` — prefixes a resumed search could still return.

        Per Definition 1 these are the t2 prefixes strictly extending the
        clue with no t1 prefix anywhere on the path from the clue (the t2
        prefix itself included: had it been in t1 too, R1 would have found
        it instead of the clue).
        """
        top = self.find(clue)
        if top is None:
            return []
        found: List[Prefix] = []
        stack = [child for child in top.children.values()]
        while stack:
            node = stack.pop()
            if node.marked1:
                continue
            if node.marked2:
                found.append(node.prefix)
            stack.extend(node.children.values())
        found.sort(key=lambda p: (p.length, p.bits))
        return found

    def stop_booleans(self) -> Dict[Prefix, bool]:
        """Per-vertex "stop the search here" booleans (§4, Patricia).

        For every vertex of the overlay the boolean is True when Claim 1
        holds at that vertex, i.e. a walk arriving there can immediately
        settle for the best marked prefix seen so far.
        """
        stops: Dict[Prefix, bool] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            stop = True
            for child in node.children.values():
                if child.unclaimed:
                    stop = False
                    break
            stops[node.prefix] = stop
            stack.extend(node.children.values())
        return stops

    # ------------------------------------------------------------------
    # statistics (Tables 2 and 3)
    # ------------------------------------------------------------------
    def equal_prefixes(self) -> int:
        """Number of prefixes marked in both tries (Table 3)."""
        return sum(
            1 for node in self.root.subtree() if node.marked1 and node.marked2
        )

    def problematic_clues(self, clues: Optional[Iterator[Prefix]] = None) -> List[Prefix]:
        """Clues for which Claim 1 fails (Table 2).

        ``clues`` defaults to every prefix of the sender's trie, i.e. every
        clue R1 could possibly emit.
        """
        if clues is None:
            clues = self.sender.prefixes()
        return [clue for clue in clues if self.is_problematic(clue)]

    def statistics(self) -> Dict[str, int]:
        """Aggregate pair statistics used by Tables 1-3."""
        problematic = len(self.problematic_clues())
        return {
            "sender_prefixes": len(self.sender),
            "receiver_prefixes": len(self.receiver),
            "equal_prefixes": self.equal_prefixes(),
            "problematic_clues": problematic,
        }

    def __repr__(self) -> str:
        return "TrieOverlay(%d+%d prefixes)" % (
            len(self.sender),
            len(self.receiver),
        )
