"""Keeping clue tables correct under route changes (§3.4).

The paper suggests clue tables change rarely and recommends never
physically removing clues (mark them invalid so the hash stays stable).
This module supplies the other half of that story: when the sender's or
the receiver's forwarding table changes, which clue entries must be
recomputed, and how to do it without rebuilding the world.

The dependency structure is local: the entry of a clue ``s`` depends only
on receiver prefixes on the root→s path (the FD) and on both routers'
prefixes below ``s`` (Claim 1 / the continuation).  So a change at prefix
``p`` can only dirty the clues that are *comparable* with ``p`` — the
sender clues on p's root path plus those in p's subtree.  Once the
tries are patched, the overlay recomputes its two Claim 1 sets
(``unclaimed`` and ``problematic``, the latter also the §4 stop set)
along the root→p path only (see :meth:`TrieOverlay.refresh`), exactly
the dirty entries are rebuilt, and both routers' tables may be shared
rather than copied — so each route update writes each structure once.

Two application modes serve the churn engine (``repro.churn``):

* **immediate** — mutate, compute the dirty set, rebuild it on the spot
  (the historical behaviour of :meth:`apply_receiver_update` /
  :meth:`apply_sender_update`);
* **deferred** — mutate and *deactivate* the dirty entries now (cheap:
  the routing update message itself carries enough information to mark
  them invalid), then rebuild lazily via :meth:`flush`, possibly under a
  per-epoch budget.  A deactivated record probes as a miss, so the data
  path degrades to a full lookup but can never forward wrongly — the
  §5.3 robustness semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.addressing import Prefix
from repro.core.advance import AdvanceMethod
from repro.core.receiver import ReceiverState
from repro.core.table import ClueTable
from repro.trie.binary_trie import BinaryTrie
from repro.trie.overlay import TrieOverlay

Entry = Tuple[Prefix, object]


class MaintenanceStats:
    """Dirty-set accounting across the lifetime of a maintained table."""

    __slots__ = (
        "updates_applied",
        "batches_applied",
        "dirty_total",
        "max_dirty",
        "entries_rebuilt",
        "entries_deactivated",
        "flushes",
    )

    def __init__(self) -> None:
        self.updates_applied = 0
        self.batches_applied = 0
        self.dirty_total = 0
        self.max_dirty = 0
        self.entries_rebuilt = 0
        self.entries_deactivated = 0
        self.flushes = 0

    def record_batch(self, updates: int, dirty: int) -> None:
        self.updates_applied += updates
        self.batches_applied += 1
        self.dirty_total += dirty
        if dirty > self.max_dirty:
            self.max_dirty = dirty

    def dirty_per_update(self) -> float:
        """Average dirty-set contribution of one route update."""
        if not self.updates_applied:
            return 0.0
        return self.dirty_total / self.updates_applied

    def as_dict(self) -> Dict[str, float]:
        return {
            "updates_applied": self.updates_applied,
            "batches_applied": self.batches_applied,
            "dirty_total": self.dirty_total,
            "max_dirty": self.max_dirty,
            "dirty_per_update": round(self.dirty_per_update(), 4),
            "entries_rebuilt": self.entries_rebuilt,
            "entries_deactivated": self.entries_deactivated,
            "flushes": self.flushes,
        }

    def __repr__(self) -> str:
        return "MaintenanceStats(%d updates, %d dirty, %d rebuilt)" % (
            self.updates_applied,
            self.dirty_total,
            self.entries_rebuilt,
        )


class MaintainedClueTable:
    """An Advance clue table that tracks route changes incrementally.

    ``sender_entries`` is an entry iterable or the sending router's own
    :class:`BinaryTrie`; ``receiver_entries`` an entry iterable or the
    receiving router's own :class:`ReceiverState`.  Iterables get private
    copies.  The churn and control feeds share both tables, so a router
    writes each update once and every pair it takes part in sees it;
    :meth:`apply_batch` updates only the private structures.
    """

    def __init__(
        self,
        sender_entries,
        receiver_entries,
        technique: str = "binary",
        width: int = 32,
    ):
        self.width = width
        self._own_sender = not isinstance(sender_entries, BinaryTrie)
        self.sender_trie: BinaryTrie = sender_entries
        if self._own_sender:
            self.sender_trie = BinaryTrie.from_prefixes(sender_entries, width)
        self._own_receiver = not isinstance(receiver_entries, ReceiverState)
        self.receiver: ReceiverState = receiver_entries
        if self._own_receiver:
            self.receiver = ReceiverState(receiver_entries, width)
        self.overlay = TrieOverlay(self.sender_trie, self.receiver.trie)
        self.method = AdvanceMethod(
            self.sender_trie, self.receiver, technique, overlay=self.overlay
        )
        self.table = self.method.build_table()
        self.rebuilt_entries = 0
        self.stats = MaintenanceStats()
        #: Dirty clues whose rebuild was deferred (``defer_rebuild=True``);
        #: their records are already deactivated, so until :meth:`flush`
        #: (or an on-demand relearn) they probe as misses.
        self.pending: Set[Prefix] = set()

    # ------------------------------------------------------------------
    def _dirty_clues(self, changed: Iterable[Prefix]) -> Set[Prefix]:
        """Sender clues whose entries a change at these prefixes can affect.

        One root→p walk per changed prefix ``p``: the clues on the path
        (their subtree holds p) and, once it reaches p's vertex, the
        clues below it (p sits on their root path).
        """
        dirty: Set[Prefix] = set()
        root = self.sender_trie.root
        for prefix in changed:
            node = root
            if node.marked:
                dirty.add(node.prefix)
            bits = prefix.bits
            for shift in range(prefix.length - 1, -1, -1):
                node = node.children.get((bits >> shift) & 1)
                if node is None:
                    break
                if node.marked:
                    dirty.add(node.prefix)
            else:
                for vertex in node.descendants():
                    if vertex.marked:
                        dirty.add(vertex.prefix)
        return dirty

    def _rebuild_one(self, clue: Prefix) -> bool:
        """Recompute one clue's record; True if a fresh entry was built.

        One :meth:`AdvanceMethod.walk` serves both the "still a clue"
        test (a marked sender vertex) and the entry itself.
        """
        method = self.method
        sender_node, node, fd = method.walk(clue)
        if sender_node is not None and sender_node.marked:
            self.table.insert(method.entry(clue, sender_node, node, fd))
            self.rebuilt_entries += 1
            self.stats.entries_rebuilt += 1
            return True
        # §3.4: keep the record, mark it invalid — a later probe
        # treats it as a miss and the packet takes a full lookup.
        record = self.table.record(clue)
        if record is not None and record.active:
            record.deactivate()
            self.stats.entries_deactivated += 1
        return False

    def _rebuild(self, dirty: Set[Prefix]) -> None:
        for clue in sorted(dirty):
            self._rebuild_one(clue)

    def _deactivate(self, dirty: Set[Prefix]) -> int:
        """Mark every dirty record invalid (the cheap half of a change)."""
        deactivated = 0
        for clue in dirty:
            record = self.table.record(clue)
            if record is not None and record.active:
                record.deactivate()
                deactivated += 1
        self.stats.entries_deactivated += deactivated
        return deactivated

    # ------------------------------------------------------------------
    def apply_batch(
        self,
        sender_add: Iterable[Entry] = (),
        sender_remove: Iterable[Prefix] = (),
        receiver_add: Iterable[Entry] = (),
        receiver_remove: Iterable[Prefix] = (),
        defer_rebuild: bool = False,
    ) -> Set[Prefix]:
        """Apply one burst touching either side; returns the dirty clues.

        The whole burst is folded into a *single* dirty-set computation
        and rebuild, so overlapping updates (churn clusters under hot
        subtrees) pay for each dirtied clue once — the amortisation §3.4
        appeals to.  With ``defer_rebuild`` the dirty records are only
        deactivated and queued on :attr:`pending` for a later
        :meth:`flush`.  Within each side, removals apply before adds.
        """
        s_added = list(sender_add)
        s_removed = list(sender_remove)
        r_added = list(receiver_add)
        r_removed = list(receiver_remove)

        if self._own_receiver and (r_added or r_removed):
            self.receiver.apply_update(r_added, r_removed)
        if self._own_sender:
            for prefix in s_removed:
                self.sender_trie.remove(prefix)
            for prefix, next_hop in s_added:
                self.sender_trie.insert(prefix, next_hop)

        sender_changed = [prefix for prefix, _ in s_added] + s_removed
        # Both routers of a pair apply the same churn update, so one
        # prefix often changes on both sides: refresh and walk it once.
        changed = list(
            dict.fromkeys(
                [prefix for prefix, _ in r_added] + r_removed + sender_changed
            )
        )
        # Both tries are patched: each refresh reads their current marks.
        for prefix in changed:
            self.overlay.refresh(prefix)
        dirty = self._dirty_clues(changed)
        # Changed sender prefixes are themselves (new or dead) clues.
        dirty.update(sender_changed)

        updates = len(s_added) + len(s_removed) + len(r_added) + len(r_removed)
        self.stats.record_batch(updates, len(dirty))
        if defer_rebuild:
            self._deactivate(dirty)
            self.pending.update(dirty)
        else:
            self._rebuild(dirty)
        return dirty

    def flush(self, limit: Optional[int] = None) -> int:
        """Rebuild (up to ``limit``) pending records; returns the count.

        Records that became active again since they were queued were
        already repaired on demand by the learning data path (a miss on a
        deactivated record triggers ``new-clue(c)``); they are dropped
        from the queue without charging the budget.
        """
        if not self.pending:
            return 0
        self.stats.flushes += 1
        rebuilt = 0
        for clue in sorted(self.pending):
            if limit is not None and rebuilt >= limit:
                break
            record = self.table.record(clue)
            if record is not None and record.active:
                # Relearned on demand since deactivation: already fresh.
                self.pending.discard(clue)
                continue
            if self._rebuild_one(clue):
                rebuilt += 1
            self.pending.discard(clue)
        return rebuilt

    def pending_count(self) -> int:
        """Deferred dirty records still awaiting a rebuild."""
        return len(self.pending)

    # ------------------------------------------------------------------
    def apply_receiver_update(
        self,
        add: Iterable[Entry] = (),
        remove: Iterable[Prefix] = (),
    ) -> Set[Prefix]:
        """The receiver's own table changed; returns the rebuilt clues."""
        return self.apply_batch(receiver_add=add, receiver_remove=remove)

    def apply_sender_update(
        self,
        add: Iterable[Entry] = (),
        remove: Iterable[Prefix] = (),
    ) -> Set[Prefix]:
        """The sender's table changed (new/withdrawn clues)."""
        return self.apply_batch(sender_add=add, sender_remove=remove)

    # ------------------------------------------------------------------
    def reference_method(self) -> AdvanceMethod:
        """A from-scratch Advance builder over a fresh overlay."""
        return AdvanceMethod(self.sender_trie, self.receiver, self.method.technique)

    def reference_table(self) -> ClueTable:
        """A from-scratch rebuild (test oracle for the incremental path)."""
        return self.reference_method().build_table()

    def __repr__(self) -> str:
        return "MaintainedClueTable(%d entries, %d rebuilt, %d pending)" % (
            len(self.table),
            self.rebuilt_entries,
            len(self.pending),
        )
