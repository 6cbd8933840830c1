"""Consistency auditing for incrementally maintained clue tables.

The §3.4 maintenance machinery is only trustworthy if it provably
converges to what a from-scratch build would produce.  The auditor is
that proof obligation made executable: at checkpoint epochs it settles
each pair's backlog, rebuilds the pair's clue table from scratch with a
fresh Advance builder (:meth:`MaintainedClueTable.reference_method`), and
diffs the two record by record — FD field, Ptr emptiness, and record
presence for every clue in the sender's table, plus a sweep for active
records the incremental table should no longer have.  It also diffs
the live overlay's two Claim 1 sets against the fresh overlay's: a
vertex wrongly in or out of ``problematic`` flips its §4 stop and ends
a resumed walk early (or late), and a wrong ``unclaimed`` member
misleads the next route change's path refresh.  Any divergence is a
hard error by default: a wrong clue entry is a latent wrong forwarding
decision, not a performance bug.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.maintenance import MaintainedClueTable


class ChurnAuditError(RuntimeError):
    """An incremental clue table diverged from its from-scratch rebuild."""


class PairAudit:
    """One pair's checkpoint: backlog settled, tables diffed."""

    __slots__ = (
        "sender",
        "receiver",
        "pending_before",
        "rebuilt_to_settle",
        "entries_checked",
        "divergences",
    )

    def __init__(self, sender: str, receiver: str):
        self.sender = sender
        self.receiver = receiver
        self.pending_before = 0
        self.rebuilt_to_settle = 0
        self.entries_checked = 0
        #: Human-readable descriptions, one per diverging clue.
        self.divergences: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.divergences

    def as_dict(self) -> Dict[str, object]:
        return {
            "sender": self.sender,
            "receiver": self.receiver,
            "pending_before": self.pending_before,
            "rebuilt_to_settle": self.rebuilt_to_settle,
            "entries_checked": self.entries_checked,
            "divergences": list(self.divergences),
            "ok": self.ok,
        }

    def __repr__(self) -> str:
        return "PairAudit(%s->%s, checked=%d, ok=%s)" % (
            self.sender,
            self.receiver,
            self.entries_checked,
            self.ok,
        )


class AuditReport:
    """All pairs' checkpoints at one epoch."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.pairs: List[PairAudit] = []

    @property
    def ok(self) -> bool:
        return all(pair.ok for pair in self.pairs)

    def divergence_count(self) -> int:
        return sum(len(pair.divergences) for pair in self.pairs)

    def entries_checked(self) -> int:
        return sum(pair.entries_checked for pair in self.pairs)

    def rebuilt_to_settle(self) -> int:
        return sum(pair.rebuilt_to_settle for pair in self.pairs)

    def as_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "entries_checked": self.entries_checked(),
            "rebuilt_to_settle": self.rebuilt_to_settle(),
            "divergences": self.divergence_count(),
            "ok": self.ok,
            "pairs": [pair.as_dict() for pair in self.pairs],
        }

    def __repr__(self) -> str:
        return "AuditReport(epoch=%d, checked=%d, ok=%s)" % (
            self.epoch,
            self.entries_checked(),
            self.ok,
        )


def _diff_pair(audit: PairAudit, maintained: MaintainedClueTable) -> None:
    """Diff the settled incremental table against a from-scratch build."""
    method = maintained.reference_method()
    reference = method.build_table()
    incremental = maintained.table
    clues = sorted(maintained.sender_trie.prefixes())
    for clue in clues:
        audit.entries_checked += 1
        expected = reference.record(clue)
        actual = incremental.record(clue)
        if expected is None:
            # reference_table() builds every sender clue; a miss here
            # means the builder itself disagrees with the trie.
            audit.divergences.append("%s: reference build missing" % clue)
            continue
        if actual is None or not actual.active:
            audit.divergences.append(
                "%s: incremental record %s"
                % (clue, "missing" if actual is None else "inactive")
            )
            continue
        if actual.final_decision() != expected.final_decision():
            audit.divergences.append(
                "%s: FD %r != reference %r"
                % (clue, actual.final_decision(), expected.final_decision())
            )
        if actual.pointer_empty() != expected.pointer_empty():
            audit.divergences.append(
                "%s: Ptr %s != reference %s"
                % (
                    clue,
                    "empty" if actual.pointer_empty() else "set",
                    "empty" if expected.pointer_empty() else "set",
                )
            )
    # Withdrawn clues must never survive as *active* records (§3.4 keeps
    # them around, but only marked invalid).  The live trie's own
    # prefixes decide, not the reference build under audit.
    live_clues = set(clues)
    for record in incremental.entries():
        if record.active and record.clue not in live_clues:
            audit.divergences.append(
                "%s: active record for a clue no longer in the sender table"
                % record.clue
            )
    live, fresh = maintained.overlay, method.overlay
    for prefix in sorted(live.problematic ^ fresh.problematic):
        audit.divergences.append(
            "%s: stop %r != reference %r"
            % (prefix, prefix not in live.problematic, prefix not in fresh.problematic)
        )
    for prefix in sorted(live.unclaimed ^ fresh.unclaimed):
        audit.divergences.append(
            "%s: unclaimed %r != reference %r"
            % (prefix, prefix in live.unclaimed, prefix in fresh.unclaimed)
        )


class ConsistencyAuditor:
    """Checkpointing auditor over the engine's maintained pairs."""

    def __init__(self, every: int, hard: bool = True):
        if every < 1:
            raise ValueError("audit period must be at least 1 epoch")
        self.every = every
        #: Raise :class:`ChurnAuditError` on divergence instead of just
        #: reporting it.
        self.hard = hard
        self.runs = 0

    def due(self, epoch: int) -> bool:
        return epoch % self.every == 0

    def audit(
        self,
        pairs: Dict[Tuple[str, str], MaintainedClueTable],
        epoch: int,
    ) -> AuditReport:
        """Settle and diff every pair; raise on divergence when hard."""
        self.runs += 1
        report = AuditReport(epoch)
        for (sender, receiver) in sorted(pairs):
            maintained = pairs[(sender, receiver)]
            pair_audit = PairAudit(sender, receiver)
            pair_audit.pending_before = maintained.pending_count()
            # Settle: the audit compares *converged* states, so drain the
            # deferred-rebuild queue first (unbudgeted).
            pair_audit.rebuilt_to_settle = maintained.flush()
            _diff_pair(pair_audit, maintained)
            report.pairs.append(pair_audit)
        if self.hard and not report.ok:
            first = next(p for p in report.pairs if not p.ok)
            raise ChurnAuditError(
                "clue-table divergence at epoch %d (%s->%s): %s"
                % (epoch, first.sender, first.receiver, first.divergences[0])
            )
        return report

    def __repr__(self) -> str:
        return "ConsistencyAuditor(every=%d, hard=%s, runs=%d)" % (
            self.every,
            self.hard,
            self.runs,
        )
