"""The fault sweep: forwarding safety and cost under adversity.

Crosses fault intensity with guard policy over the same mesh fabric.
Each point attacks an identically seeded scenario with in-flight clue
corruption, Byzantine (systematically lying) neighbours, and clue-table
record corruption, then reports whether forwarding stayed oracle-correct
and what the adversity cost in memory references.

Three policies per fault rate:

* ``off`` — no guard at all: clue answers are trusted blindly.  Wrong
  hops appear as soon as faults do; this column is the *control* that
  shows the guard is necessary;
* ``guard`` — validity checks, Advance verification, and record seals,
  but no quarantine: every bad clue still costs a probe before the
  fallback;
* ``quarantine`` — the full policy: repeat offenders stop being
  consulted, so their packets drop straight to the clueless-baseline
  cost.

The acceptance shape: ``wrong_hops`` is zero everywhere except the
``off`` column; ``degradation`` climbs toward (never meaningfully past)
1.0 as the fault rate grows; and under the quarantine policy Byzantine
upstreams show ``quarantines > 0``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.sweeps import SweepPoint
from repro.faults import FaultEngine, GuardPolicy, build_fault_scenario

#: Guard policies crossed against every fault rate.
GUARD_POLICIES = ("off", "guard", "quarantine")


def _policy_for(name: str):
    if name == "off":
        return None
    if name == "guard":
        return GuardPolicy(quarantine_enabled=False)
    if name == "quarantine":
        return GuardPolicy()
    raise ValueError(
        "unknown guard policy %r (expected one of %s)"
        % (name, ", ".join(GUARD_POLICIES))
    )


def fault_sweep(
    fault_rates: Sequence[float],
    policies: Sequence[str] = GUARD_POLICIES,
    routers: int = 5,
    per_node: int = 40,
    rounds: int = 8,
    traffic_per_round: int = 100,
    byzantine_routers: int = 1,
    lie_mode: str = "shorter",
    seed: int = 0,
    technique: str = "patricia",
) -> List[SweepPoint]:
    """Sweep (fault rate) × (guard policy).

    ``fault_rates`` scales every probabilistic injector together: a rate
    ``f`` means clue flips and scrambles each fire at ``f`` per link
    traversal and each learned table suffers a corruption event at
    ``2 f`` per round.  Byzantine lying is systematic (every packet the
    named routers resolve), so the sweep exercises the quarantine path
    at every rate.  ``parameter`` is the ``(fault_rate, policy)`` pair.
    """
    points: List[SweepPoint] = []
    for rate in fault_rates:
        if not 0.0 <= rate <= 0.5:
            raise ValueError(
                "fault rates must be within [0, 0.5] (got %r)" % (rate,)
            )
        for policy_name in policies:
            policy = _policy_for(policy_name)
            network, plan = build_fault_scenario(
                routers=routers,
                per_node=per_node,
                seed=seed,
                technique=technique,
                flip_rate=rate,
                scramble_rate=rate / 2,
                byzantine_routers=byzantine_routers,
                lie_mode=lie_mode,
                record_rate=min(1.0, 2 * rate),
                rounds=rounds,
            )
            report = FaultEngine(
                network,
                plan,
                guard_policy=policy,
                seed=seed,
                # The sweep measures violations instead of raising, so
                # the "off" control column can show its wrong hops.
                hard_invariant=False,
            ).run(rounds, traffic_per_round)
            points.append(
                SweepPoint(
                    (rate, policy_name),
                    {
                        "packets": float(report.packets()),
                        "faults": float(report.total_injected()),
                        "wrong_hops": float(report.wrong_hops()),
                        "rejections": float(report.rejections_total()),
                        "quarantines": float(report.quarantines_total()),
                        "healed": float(report.healed_records_total()),
                        "refs_per_packet": report.traffic().avg_accesses(),
                        "baseline_refs": report.baseline_accesses,
                        "degradation": report.degradation_ratio(),
                    },
                )
            )
    return points
