"""Claim 1 of two routers' tries, as two sets of receiver-trie prefixes.

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

Claim 1 needs one fact per vertex, and it can fail only at a vertex of
the receiver's trie t2, so this module keeps just two sets of t2
prefixes, both mutated in place and never rebound:

* ``unclaimed`` — a t2 prefix lies at or below the vertex and is reached
  without crossing a t1 prefix (the vertex itself included);
* ``problematic`` — the vertex has an unclaimed child: Claim 1 fails
  there, and the §4 "stop here" boolean is False.

Claim 1 fails for few clues (0.5-5 % in Table 2), so both sets are
small; for two routers holding the same prefixes both are empty.  One
post-order pass over t2, in lockstep with the sender's trie t1, builds
them; a route change recomputes the root→prefix path only
(:meth:`TrieOverlay.refresh`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.addressing import Prefix
from repro.trie.binary_trie import BinaryTrie
from repro.trie.node import TrieNode


class TrieOverlay:
    """Claim 1 of a sender trie t1 over a receiver trie t2.

    :attr:`unclaimed` and :attr:`problematic` (module docstring) hold
    only vertices of t2.  Continuations and compiled stop masks hold
    :attr:`problematic` itself, so every :meth:`refresh` reaches them.
    """

    __slots__ = ("width", "sender", "receiver", "unclaimed", "problematic")

    def __init__(self, sender: BinaryTrie, receiver: BinaryTrie):
        if sender.width != receiver.width:
            raise ValueError("cannot overlay tries of different widths")
        self.width = sender.width
        self.sender = sender
        self.receiver = receiver
        self.unclaimed: Set[Prefix] = set()
        self.problematic: Set[Prefix] = set()
        self._annotate(receiver.root, sender.root)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _annotate(self, node: TrieNode, twin: Optional[TrieNode]) -> bool:
        """Fill both sets at and below the t2 vertex ``node``.

        ``twin`` is the t1 vertex of the same prefix, or None where t1
        has none, so a subtree only t1 has is never entered.  Returns the
        vertex's ``unclaimed`` memo, which its parent reads instead of
        probing the set.  The recursion is at most ``width + 1`` deep.
        """
        below = False
        if twin is None:
            for child in node.children.values():
                if self._annotate(child, None):
                    below = True
        else:
            twins = twin.children
            for bit, child in node.children.items():
                if self._annotate(child, twins.get(bit)):
                    below = True
        if below:
            self.problematic.add(node.prefix)
        if (below or node.marked) and (twin is None or not twin.marked):
            self.unclaimed.add(node.prefix)
            return True
        return False

    # ------------------------------------------------------------------
    # incremental updates (route changes, §3.4)
    # ------------------------------------------------------------------
    def refresh(self, prefix: Prefix) -> None:
        """Bring both sets up to date after a route change at ``prefix``.

        Call it once per changed prefix, on either side, after both
        tries are patched: it reads their current marks.  Only vertices
        on the root→prefix path can change, so it recomputes them
        bottom-up from the deepest one t2 still has, and stops at the
        first vertex whose memo is unchanged: a vertex's memo and its
        problematic flag read only its own marks and its children's
        memos, so nothing above it can change (the usual dominator
        argument).  When t2 pruned ``prefix`` while it was unclaimed,
        the pruned vertices below the path leave both sets: any pruned
        vertex still in a set lies above such a prefix.
        """
        unclaimed, problematic = self.unclaimed, self.problematic
        node: Optional[TrieNode] = self.receiver.root
        twin: Optional[TrieNode] = self.sender.root
        nodes: List[TrieNode] = []
        twins: List[Optional[TrieNode]] = []
        bits = prefix.bits
        shift = prefix.length
        while node is not None:
            nodes.append(node)
            twins.append(twin)
            if not shift:
                break
            shift -= 1
            bit = (bits >> shift) & 1
            node = node.children.get(bit)
            if twin is not None:
                twin = twin.children.get(bit)
        if node is None and prefix in unclaimed:
            derived = Prefix._derived
            for length in range(len(nodes), prefix.length + 1):
                gone = derived(bits >> (prefix.length - length), length, self.width)
                unclaimed.discard(gone)
                problematic.discard(gone)
        for depth in range(len(nodes) - 1, -1, -1):
            vertex, twin = nodes[depth], twins[depth]
            below = False
            for child in vertex.children.values():
                if child.prefix in unclaimed:
                    below = True
                    break
            key = vertex.prefix
            if below:
                problematic.add(key)
            else:
                problematic.discard(key)
            fresh = (below or vertex.marked) and (twin is None or not twin.marked)
            if fresh == (key in unclaimed):
                return
            if fresh:
                unclaimed.add(key)
            else:
                unclaimed.discard(key)

    # ------------------------------------------------------------------
    # Claim 1 and the potential set
    # ------------------------------------------------------------------
    def claim1_holds(self, clue: Prefix) -> bool:
        """True if Claim 1 guarantees no longer match exists below ``clue``.

        A clue absent from t2 trivially satisfies the claim: case 1 of
        the Advance method resolves it by the FD field alone.
        """
        return clue not in self.problematic

    def is_problematic(self, clue: Prefix) -> bool:
        """True if the clue violates Claim 1 (search must continue)."""
        return clue in self.problematic

    def potential_set(self, clue: Prefix) -> List[Prefix]:
        """``P(clue, R1)`` — prefixes a resumed search could still return.

        Per Definition 1 these are the t2 prefixes strictly extending the
        clue with no t1 prefix anywhere on the path from the clue (the t2
        prefix itself included: had it been in t1 too, R1 would have found
        it instead of the clue).  The walk enters unclaimed vertices only.
        """
        top = self.receiver.find_node(clue)
        if top is None:
            return []
        unclaimed = self.unclaimed
        found: List[Prefix] = []
        stack = [top]
        while stack:
            for child in stack.pop().children.values():
                if child.prefix in unclaimed:
                    if child.marked:
                        found.append(child.prefix)
                    stack.append(child)
        found.sort(key=lambda p: (p.length, p.bits))
        return found

    # ------------------------------------------------------------------
    # statistics (Tables 2 and 3)
    # ------------------------------------------------------------------
    def equal_prefixes(self) -> int:
        """Number of prefixes marked in both tries (Table 3)."""
        count = 0
        stack = [(self.receiver.root, self.sender.root)]
        while stack:
            node, twin = stack.pop()
            if node.marked and twin.marked:
                count += 1
            twins = twin.children
            for bit, child in node.children.items():
                other = twins.get(bit)
                if other is not None:
                    stack.append((child, other))
        return count

    def problematic_clues(self, clues: Optional[Iterator[Prefix]] = None) -> List[Prefix]:
        """Clues for which Claim 1 fails (Table 2).

        ``clues`` defaults to every prefix of the sender's trie, i.e. every
        clue R1 could possibly emit.
        """
        if clues is None:
            clues = self.sender.prefixes()
        return [clue for clue in clues if clue in self.problematic]

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
