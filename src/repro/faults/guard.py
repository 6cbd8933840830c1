"""The guarded, self-healing clue data path.

The paper's robustness claim (§1/§5.3) is that un-coordinated clues
"can not cause any confusion" — but it assumes the clue scheme's own
machinery is intact and that neighbours are merely *un-coordinated*,
not wrong.  This module hardens the data path against actively bad
input: clues bit-flipped in flight, Byzantine senders that lie about
their BMP, and corrupted clue-table records.

:class:`GuardedLookup` is the one clue lookup of
:mod:`repro.core.lookup`, learning through its builder, with screens in
front of the hit branch.  Three layers, all per-packet, cheap and
always on:

* **record seals** — every learned record is sealed with a lightweight
  integrity checksum when it is built; a probe whose record no longer
  matches its seal is treated as a miss, answered by the full local
  lookup, and the record is rebuilt on the spot (self-healing);
* **style-aware verification** — Simple-style records are provably
  oracle-correct for *any* clue that prefixes the destination (the
  formal core of the no-confusion claim), so they only need the prefix
  check.  Advance-style records are sound only when the clue is the
  sender's true BMP, so a hit walks the sender trie *below* the clue
  along the destination's bits: any marked vertex found there proves
  the clue was a lie, and the packet falls back to the full lookup.
  The walk is charged to the memory counter; in benign traffic it
  terminates after a step or two (the true BMP has no marked sender
  descendants on the destination's path, by definition);
* **neighbour health** — every anomaly attributable to the upstream
  (malformed clue, lying clue) feeds a sliding-window health score.
  When the mismatch rate crosses the policy threshold the neighbour is
  *quarantined*: its clues are not even probed, every packet takes the
  full lookup (exactly the clueless baseline cost), and after an
  exponentially backed-off cooldown the neighbour re-enters on
  *probation* — a few watched packets that either restore trust or
  double the next quarantine.

The hard invariant: a :class:`GuardedLookup` never returns an answer
different from the receiver's own full-lookup oracle.  Faults can only
degrade the *speedup* toward the clueless baseline, never correctness.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.addressing import Address, Prefix
from repro.core.entry import ClueEntry
from repro.core.lookup import Builder, ClueAssistedLookup
from repro.lookup.base import LookupAlgorithm
from repro.lookup.hotpath import cold_path, hot_path
from repro.lookup.counters import LookupResult, MemoryCounter

#: Guard rejection reasons (the ``reason`` label of
#: ``clue_guard_rejections_total``).
REJECT_MALFORMED = "malformed_clue"
REJECT_LYING = "lying_clue"
REJECT_RECORD = "corrupt_record"
REJECT_RESULT = "bad_result"
REJECT_QUARANTINED = "quarantined"

REJECT_REASONS = (
    REJECT_MALFORMED,
    REJECT_LYING,
    REJECT_RECORD,
    REJECT_RESULT,
    REJECT_QUARANTINED,
)

#: Health states a neighbour moves through.
TRUSTED = "trusted"
PROBATION = "probation"
QUARANTINED = "quarantined"


class GuardPolicy:
    """Tunable knobs of the guarded data path.

    The defaults quarantine an upstream after a quarter of a 32-packet
    window went bad (with at least 4 observed anomalies), sit out 64
    packets, then re-admit it on a 4-packet probation; every
    re-quarantine doubles the cooldown up to ``backoff_max``.
    """

    __slots__ = (
        "window",
        "quarantine_threshold",
        "min_samples",
        "backoff_base",
        "backoff_factor",
        "backoff_max",
        "probation_probes",
        "quarantine_enabled",
    )

    def __init__(
        self,
        window: int = 32,
        quarantine_threshold: float = 0.25,
        min_samples: int = 4,
        backoff_base: int = 64,
        backoff_factor: float = 2.0,
        backoff_max: int = 4096,
        probation_probes: int = 4,
        quarantine_enabled: bool = True,
    ):
        if window < 1:
            raise ValueError("window must be positive")
        if not 0.0 < quarantine_threshold <= 1.0:
            raise ValueError("quarantine_threshold must be in (0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be positive")
        if backoff_base < 1 or backoff_max < backoff_base:
            raise ValueError("need 1 <= backoff_base <= backoff_max")
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if probation_probes < 1:
            raise ValueError("probation_probes must be positive")
        self.window = window
        self.quarantine_threshold = quarantine_threshold
        self.min_samples = min_samples
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.probation_probes = probation_probes
        self.quarantine_enabled = quarantine_enabled

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            "GuardPolicy(window=%d, threshold=%.2f, backoff=%d..%d, "
            "quarantine=%s)"
            % (
                self.window,
                self.quarantine_threshold,
                self.backoff_base,
                self.backoff_max,
                self.quarantine_enabled,
            )
        )


class NeighborHealth:
    """Sliding-window mismatch tracking for one upstream neighbour."""

    __slots__ = (
        "policy",
        "state",
        "window",
        "anomalies_total",
        "clean_total",
        "quarantines",
        "cooldown_left",
        "probation_left",
        "next_backoff",
    )

    def __init__(self, policy: GuardPolicy):
        self.policy = policy
        self.state = TRUSTED
        self.window: Deque[int] = deque(maxlen=policy.window)
        self.anomalies_total = 0
        self.clean_total = 0
        self.quarantines = 0
        self.cooldown_left = 0
        self.probation_left = 0
        self.next_backoff = policy.backoff_base

    # ------------------------------------------------------------------
    def mismatch_rate(self) -> float:
        """Anomaly fraction over the sliding window."""
        if not self.window:
            return 0.0
        return sum(self.window) / len(self.window)

    def consult_allowed(self) -> bool:
        """May this packet consult the neighbour's clue table at all?

        Quarantined neighbours burn one packet of cooldown per call;
        when the cooldown expires the neighbour moves to probation and
        the *next* packet probes again.
        """
        if self.state != QUARANTINED:
            return True
        self.cooldown_left -= 1
        if self.cooldown_left <= 0:
            self.state = PROBATION
            self.probation_left = self.policy.probation_probes
        return False

    def record_clean(self) -> None:
        """One clue consultation passed every check."""
        self.clean_total += 1
        self.window.append(0)
        if self.state == PROBATION:
            self.probation_left -= 1
            if self.probation_left <= 0:
                self.state = TRUSTED
                self.window.clear()
                # A survived probation halves the next cooldown (floor at
                # the base), so transient faults do not scar forever.
                self.next_backoff = max(
                    self.policy.backoff_base, int(self.next_backoff / 2)
                )

    def record_anomaly(self) -> bool:
        """One upstream-attributable anomaly; True if quarantine fired."""
        self.anomalies_total += 1
        self.window.append(1)
        if not self.policy.quarantine_enabled:
            return False
        if self.state == PROBATION:
            self._quarantine()
            return True
        if (
            sum(self.window) >= self.policy.min_samples
            and self.mismatch_rate() >= self.policy.quarantine_threshold
        ):
            self._quarantine()
            return True
        return False

    def _quarantine(self) -> None:
        self.state = QUARANTINED
        self.quarantines += 1
        self.cooldown_left = self.next_backoff
        self.next_backoff = min(
            self.policy.backoff_max,
            int(self.next_backoff * self.policy.backoff_factor),
        )
        self.window.clear()

    def as_dict(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "mismatch_rate": round(self.mismatch_rate(), 4),
            "anomalies_total": self.anomalies_total,
            "clean_total": self.clean_total,
            "quarantines": self.quarantines,
            "cooldown_left": self.cooldown_left,
        }

    def __repr__(self) -> str:
        return "NeighborHealth(%s, %d anomalies, %d quarantines)" % (
            self.state,
            self.anomalies_total,
            self.quarantines,
        )


def _seal(entry: ClueEntry) -> int:
    """A lightweight integrity checksum over a record's routing fields.

    Identity of the continuation object is part of the seal: corruption
    that swaps or drops the Ptr is as dangerous as a wrong FD.
    """
    return hash(
        (
            entry.clue,
            entry.fd_prefix,
            entry.fd_next_hop,
            id(entry.continuation),
            entry.style,
        )
    )


class GuardedLookup(ClueAssistedLookup):
    """A validated, self-healing, learning clue lookup for one upstream.

    The one clue lookup of :mod:`repro.core.lookup`, given a builder,
    with screens in front of its hit branch: every answer is screened
    before it is trusted, and every anomaly is accounted against the
    upstream's :class:`NeighborHealth`.  The full lookup, the
    miss-and-learn path and the resolution of a trusted record are the
    plain lookup's own.
    """

    __slots__ = ("policy", "health", "monitor", "_seals", "rejections", "healed_records")

    health: NeighborHealth

    # Built once per upstream when a router first sees it — the
    # construction cost never recurs on the per-packet path.
    @cold_path
    def __init__(
        self,
        base: LookupAlgorithm,
        builder: Builder,
        policy: Optional[GuardPolicy] = None,
        health: Optional[NeighborHealth] = None,
        monitor=None,
    ):
        super().__init__(base, builder=builder)
        self.policy = policy if policy is not None else GuardPolicy()
        self.health = (
            health if health is not None else NeighborHealth(self.policy)
        )
        #: Optional :class:`GuardMonitor`-shaped sink (see
        #: :mod:`repro.faults.engine`): ``record_rejection(reason)``,
        #: ``record_quarantine()``, ``record_degraded(accesses)``.
        self.monitor = monitor
        self._seals: Dict[Prefix, int] = {}
        self.rejections: Dict[str, int] = {}
        self.healed_records = 0

    # ------------------------------------------------------------------
    def _reject(self, reason: str, neighbor_fault: bool) -> None:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        if self.monitor is not None:
            self.monitor.record_rejection(reason)
        if neighbor_fault and self.health.record_anomaly():
            if self.monitor is not None:
                self.monitor.record_quarantine()

    def _degraded(self, address: Address, counter: MemoryCounter) -> LookupResult:
        """A screened-out packet: the full lookup, reported as degraded."""
        result = self._full(address, counter)
        if self.monitor is not None:
            self.monitor.record_degraded(counter.accesses)
        return result

    def _heal(
        self, clue: Prefix, address: Address, counter: MemoryCounter
    ) -> LookupResult:
        """A corrupted record: answer degraded, then rebuild and reseal it."""
        result = self._degraded(address, counter)
        self.learn(clue)
        self.healed_records += 1
        return result

    @cold_path
    def learn(self, clue: Prefix) -> ClueEntry:
        """(Re)build and seal the record for ``clue`` off the fast path."""
        entry = super().learn(clue)
        self._seals[clue] = _seal(entry)
        return entry

    def note_malformed(self) -> None:
        """Score an undecodable clue header against the upstream.

        The router calls this when the 5-bit field itself cannot be
        decoded (:class:`~repro.core.clue.ClueEncodingError`), before
        the lookup runs — the packet then proceeds clueless.
        """
        self._reject(REJECT_MALFORMED, neighbor_fault=True)

    def _clue_is_senders_bmp(
        self, entry: ClueEntry, address: Address, counter: MemoryCounter
    ) -> bool:
        """Verify the Advance soundness premise: clue == sender BMP.

        True iff the sender's trie has no *marked* vertex strictly below
        the clue on the destination's path — in which case the clue
        really is the best match the sender could have found.  Each
        vertex touched below the clue is charged one memory reference.
        """
        node = entry.sender_node
        if node is None or not node.marked:
            # The clue is not a prefix of the sender's table at all: the
            # sender could never have emitted it as a BMP.
            return False
        clue = entry.clue
        depth = clue.length
        width = address.width
        while depth < width:
            node = node.children.get(address.bit(depth))
            if node is None:
                return True
            counter.touch()
            # Path compression can jump several bits; re-check the match
            # before trusting the vertex (a compressed edge may diverge
            # from the destination inside the skipped run).
            if not node.prefix.matches(address):
                return True
            if node.marked:
                return False
            depth = node.prefix.length
        return True

    # ------------------------------------------------------------------
    @hot_path
    def lookup(
        self,
        address: Address,
        clue: Optional[Prefix] = None,
        counter: Optional[MemoryCounter] = None,
    ) -> LookupResult:
        """Route one packet through the guarded data path."""
        counter = counter if counter is not None else MemoryCounter()
        if clue is None:
            return self._full(address, counter)
        if not self.health.consult_allowed():
            self._reject(REJECT_QUARANTINED, neighbor_fault=False)
            return self._degraded(address, counter)
        # Cheap validity screen on the clue itself: length bounds and
        # the clue-prefixes-destination requirement the 5-bit encoding
        # is supposed to enforce structurally.
        if (
            not 0 <= clue.length <= address.width
            or clue.width != address.width
            or not clue.matches(address)
        ):
            self._reject(REJECT_MALFORMED, neighbor_fault=True)
            return self._degraded(address, counter)
        entry = self.table.probe(clue, counter)
        if entry is None:
            # Never saw this clue (or its record was deactivated): the
            # paper's normal learning path, not an anomaly.
            return self._miss(clue, address, counter)
        # Integrity seal: a record that no longer matches the checksum
        # taken at build time was corrupted in memory.  Heal it.
        if self._seals.get(clue) != _seal(entry):
            self._reject(REJECT_RECORD, neighbor_fault=False)
            return self._heal(clue, address, counter)
        # Style-aware trust: Advance records assume the clue is the
        # sender's true BMP; verify that premise with a bounded walk.
        if entry.style == "advance" and not self._clue_is_senders_bmp(
            entry, address, counter
        ):
            self._reject(REJECT_LYING, neighbor_fault=True)
            return self._degraded(address, counter)
        self.hits += 1
        result = self._fill(entry, address, counter)
        if result.prefix is not None and not result.prefix.matches(address):
            # A decision that does not even cover the destination can
            # only come from a corrupted record that beat the seal.
            self._reject(REJECT_RESULT, neighbor_fault=False)
            return self._heal(clue, address, counter)
        self.health.record_clean()
        return result

    # ------------------------------------------------------------------
    def rejections_total(self) -> int:
        return sum(self.rejections.values())

    def __repr__(self) -> str:
        return "GuardedLookup(%d records, %d rejections, health=%s)" % (
            len(self.table),
            self.rejections_total(),
            self.health.state,
        )
