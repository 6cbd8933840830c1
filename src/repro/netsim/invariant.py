"""The never-wrong-forwarding invariant and the audited traffic step.

The paper's robustness claim reduces to one checkable statement: at
every hop, the BMP the router acted on equals what its *own* full
lookup would have found.  Degradation (misses, deactivated records,
quarantined neighbours, dropped packets) is allowed; a divergent
forwarding decision never is.  The churn, fault and control engines all
forward their traffic through :func:`forward_audited`, which asserts
this hop by hop and tallies each round in a :class:`Traffic` record;
each engine supplies only its RNG, its destination pool and its start
routers.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.addressing import Prefix
from repro.netsim.packet import Packet


class InvariantError(AssertionError):
    """A forwarding decision diverged from the oracle."""

    def __init__(self, where: str, violations):
        #: Where it happened, e.g. ``"round 3"`` or ``"tick 17"``.
        self.where = where
        self.violations = list(violations)
        detail = "; ".join(
            "%s found %s oracle %s" % violation
            for violation in self.violations[:3]
        )
        super().__init__(
            "never-wrong-forwarding violated in %s (%d hops): %s"
            % (where, len(self.violations), detail)
        )


class Traffic:
    """What one round's audited traffic did, or the sum of several rounds."""

    __slots__ = ("packets", "delivered", "wrong_hops", "accesses", "hops", "dropped")

    def __init__(self):
        self.packets = 0
        self.delivered = 0
        self.wrong_hops = 0
        #: memory references over every hop of every packet.
        self.accesses = 0
        #: hops forwarded, the per-lookup denominator of ``accesses``.
        self.hops = 0
        #: drop counts keyed by the delivery exit reason.
        self.dropped: Dict[str, int] = {}

    def avg_accesses(self) -> float:
        """Memory references per forwarded packet."""
        return self.accesses / self.packets if self.packets else 0.0


def total_traffic(records: Iterable[Traffic]) -> Traffic:
    """The traffic of ``records`` summed into one fresh record."""
    out = Traffic()
    for record in records:
        out.packets += record.packets
        out.delivered += record.delivered
        out.wrong_hops += record.wrong_hops
        out.accesses += record.accesses
        out.hops += record.hops
        for reason, count in record.dropped.items():
            out.dropped[reason] = out.dropped.get(reason, 0) + count
    return out


def forward_audited(
    network,
    tally: Traffic,
    count: int,
    rng: random.Random,
    pool: Sequence[Prefix],
    starts: Sequence[str],
    *,
    where: str = "",
    hard: bool = False,
) -> None:
    """Forward ``count`` seeded packets, audit every hop, tally the round.

    Each packet draws, in this order, a prefix of ``pool``, an address
    inside it and a start router of ``starts``, all from ``rng``.  A
    hop that violates the invariant is counted in ``tally.wrong_hops``;
    with ``hard`` it raises :class:`InvariantError` at ``where``
    instead of letting the round go on.  Nothing is drawn when
    ``count``, ``pool`` or ``starts`` is empty.
    """
    if count <= 0 or not pool or not starts:
        return
    for _ in range(count):
        prefix = pool[rng.randrange(len(pool))]
        destination = prefix.random_address(rng)
        start = starts[rng.randrange(len(starts))]
        delivery = network.forward(Packet(destination), start)
        tally.packets += 1
        tally.accesses += delivery.total_accesses()
        tally.hops += len(delivery.packet.trace)
        if delivery.delivered:
            tally.delivered += 1
        else:
            reason = delivery.exit_reason
            tally.dropped[reason] = tally.dropped.get(reason, 0) + 1
        violations = wrong_hop_details(network, delivery.packet)
        if violations:
            tally.wrong_hops += len(violations)
            if hard:
                raise InvariantError(where, violations)


def wrong_hop_details(network, packet: Packet) -> List[Tuple[str, str, str]]:
    """``(router, found, oracle)`` for every hop that violated the invariant.

    The oracle is the hop router's own ``ReceiverState.best_match`` —
    exactly the lookup a clueless deployment would have run.  Routers
    without a receiver state (e.g. exotic test doubles) are skipped.
    """
    violations: List[Tuple[str, str, str]] = []
    destination = packet.destination
    for hop in packet.trace:
        router = network.routers.get(hop.router)
        if router is None:
            continue
        receiver = getattr(router, "receiver", None)
        if receiver is None:
            continue
        oracle, _hop = receiver.best_match(destination)
        if hop.bmp != oracle:
            violations.append((hop.router, str(hop.bmp), str(oracle)))
    return violations
