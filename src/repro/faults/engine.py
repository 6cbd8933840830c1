"""The adversarial-traffic engine: faults in, invariants checked.

A :class:`FaultEngine` drives a clue-router fabric through *rounds* of
traffic while a :class:`~repro.faults.inject.FaultPlan` attacks it.
Each round:

1. executes the plan's scheduled topology events — routers crash (a
   crashed router drops every packet handed to it) and later restart
   with *cold* clue tables rebuilt lazily; links go down and come back;
2. corrupts learned clue-table records in place, per the plan;
3. forwards sampled traffic.  Per-packet injectors (clue bit-flips,
   uniform field scrambles, Byzantine lies) fire inside
   :meth:`Network.forward` via the plan the engine installs on the
   fabric for the duration of the run.

Every delivered packet is checked hop by hop against the
never-wrong-forwarding invariant by the audited traffic step of
:mod:`repro.netsim.invariant` — the step the churn and control engines
use too.  With the guard enabled the invariant is *hard* by default: a
single divergent hop raises
:class:`~repro.netsim.invariant.InvariantError` and fails the run.
With the guard off the engine records violations instead, which is
exactly how the experiment sweeps demonstrate that the guard is
necessary, not just prudent.

The report also prices the damage: a pre-run **clueless baseline**
(mean full-lookup cost over sampled traffic) anchors the
``degradation_ratio`` — how close fault-induced fallbacks pushed the
average lookup toward the no-clue world.  The acceptance criterion is
that it approaches 1.0 from below, never meaningfully exceeds it:
faults can cost the speedup, never more.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.addressing import Prefix
from repro.faults.guard import GuardPolicy
from repro.faults.inject import FaultPlan, _derived_rng, random_topology_events
from repro.lookup.counters import MemoryCounter
from repro.netsim.invariant import Traffic, forward_audited, total_traffic
from repro.netsim.network import Network
from repro.netsim.router import ClueRouter


class RoundReport(Traffic):
    """What one round absorbed: faults, drops, degradation."""

    __slots__ = ("round_index", "injected", "routers_down", "links_down")

    def __init__(self, round_index: int):
        super().__init__()
        self.round_index = round_index
        #: injections this round, by kind (delta of the plan's counts).
        self.injected: Dict[str, int] = {}
        self.routers_down: List[str] = []
        self.links_down = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "round": self.round_index,
            "packets": self.packets,
            "delivered": self.delivered,
            "dropped": dict(self.dropped),
            "wrong_hops": self.wrong_hops,
            "avg_accesses": round(self.avg_accesses(), 4),
            "injected": dict(self.injected),
            "routers_down": list(self.routers_down),
            "links_down": self.links_down,
        }

    def __repr__(self) -> str:
        return "RoundReport(#%d, %d packets, %d injected)" % (
            self.round_index,
            self.packets,
            sum(self.injected.values()),
        )


class FaultReport:
    """The whole adversarial run, with the robustness verdict."""

    def __init__(
        self,
        plan: Dict[str, object],
        guard_enabled: bool,
        policy: Optional[Dict[str, object]],
        baseline_accesses: float,
    ):
        self.plan = plan
        self.guard_enabled = guard_enabled
        self.policy = policy
        #: Mean full-lookup cost of the clueless deployment — the floor
        #: that degraded (fallback) lookups approach but never pass.
        self.baseline_accesses = baseline_accesses
        self.rounds: List[RoundReport] = []
        #: per-router guard statistics (see ClueRouter.guard_reports).
        self.guards: Dict[str, Dict] = {}

    # -- aggregates ------------------------------------------------------
    def traffic(self) -> Traffic:
        return total_traffic(self.rounds)

    def packets(self) -> int:
        return self.traffic().packets

    def wrong_hops(self) -> int:
        return self.traffic().wrong_hops

    def faults_injected(self) -> Dict[str, int]:
        """Injections over this report's rounds, by kind."""
        totals: Dict[str, int] = {}
        for round_report in self.rounds:
            for kind, count in round_report.injected.items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    def total_injected(self) -> int:
        return sum(self.faults_injected().values())

    def degradation_ratio(self) -> float:
        """Observed per-hop cost over the clueless baseline.

        Computed per *hop*, since the baseline is a per-lookup cost:
        1.0 means faults erased the clue advantage entirely; values
        below 1.0 mean the guard preserved part of the speedup.
        """
        traffic = self.traffic()
        if not traffic.hops or not self.baseline_accesses:
            return 0.0
        return (traffic.accesses / traffic.hops) / self.baseline_accesses

    def rejections_total(self) -> int:
        return sum(
            sum(report["rejections"].values())
            for reports in self.guards.values()
            for report in reports.values()
        )

    def quarantines_total(self) -> int:
        return sum(
            report["health"]["quarantines"]
            for reports in self.guards.values()
            for report in reports.values()
        )

    def healed_records_total(self) -> int:
        return sum(
            report["healed_records"]
            for reports in self.guards.values()
            for report in reports.values()
        )

    def invariant_ok(self) -> bool:
        return self.wrong_hops() == 0

    def passed(self) -> bool:
        """The robustness verdict this subsystem exists to check.

        With the guard on: zero wrong hops, full stop.  With it off the
        run is explicitly a demonstration, so only traffic actually
        flowing is required.
        """
        if self.guard_enabled:
            return self.invariant_ok() and self.packets() > 0
        return self.packets() > 0

    def claim(self) -> str:
        return (
            "faults: %d injections over %d packets; %d wrong hops "
            "(guard %s); %d rejections, %d quarantines, %d records "
            "healed; degradation %.3fx of clueless baseline."
            % (
                self.total_injected(),
                self.packets(),
                self.wrong_hops(),
                "on" if self.guard_enabled else "off",
                self.rejections_total(),
                self.quarantines_total(),
                self.healed_records_total(),
                self.degradation_ratio(),
            )
        )

    def summary(self) -> Dict[str, object]:
        traffic = self.traffic()
        return {
            "guard_enabled": self.guard_enabled,
            "rounds": len(self.rounds),
            "packets": traffic.packets,
            "delivered": traffic.delivered,
            "dropped": traffic.dropped,
            "wrong_hops": traffic.wrong_hops,
            "faults_injected": self.faults_injected(),
            "faults_total": self.total_injected(),
            "rejections_total": self.rejections_total(),
            "quarantines_total": self.quarantines_total(),
            "healed_records_total": self.healed_records_total(),
            "avg_accesses_per_packet": round(traffic.avg_accesses(), 4),
            "baseline_accesses": round(self.baseline_accesses, 4),
            "degradation_ratio": round(self.degradation_ratio(), 4),
            "invariant_ok": self.invariant_ok(),
            "passed": self.passed(),
            "claim": self.claim(),
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "plan": self.plan,
            "policy": self.policy,
            "summary": self.summary(),
            "rounds": [r.as_dict() for r in self.rounds],
            "guards": self.guards,
        }

    def __repr__(self) -> str:
        return "FaultReport(%d rounds, %d injected, passed=%s)" % (
            len(self.rounds),
            self.total_injected(),
            self.passed(),
        )


class FaultEngine:
    """Runs a network under a fault plan and audits every decision."""

    def __init__(
        self,
        network,
        plan: FaultPlan,
        *,
        guard_policy=None,
        seed: int = 0,
        hard_invariant: Optional[bool] = None,
        baseline_samples: int = 256,
    ):
        self.network = network
        self.plan = plan
        self._clue_routers: Dict[str, ClueRouter] = {
            name: router
            for name, router in network.routers.items()
            if isinstance(router, ClueRouter)
        }
        if not self._clue_routers:
            raise ValueError("fault injection needs at least one ClueRouter")
        if guard_policy is True:
            guard_policy = GuardPolicy()
        self.guard_policy: Optional[GuardPolicy] = guard_policy
        if guard_policy is not None:
            for router in self._clue_routers.values():
                router.enable_guard(guard_policy)
        #: Hard invariant by default exactly when the guard is on: the
        #: guarded path promises correctness; the unguarded one is run
        #: to *measure* how it breaks.
        self.hard_invariant = (
            hard_invariant
            if hard_invariant is not None
            else guard_policy is not None
        )
        self.rng = _derived_rng(seed, "traffic")
        self._router_names = sorted(network.routers)
        self._pool = self._destination_pool()
        self.round_index = 0
        self.baseline = self._measure_baseline(baseline_samples, seed)
        plan.telemetry = network._effective_instruments()

    # ------------------------------------------------------------------
    def _destination_pool(self) -> List[Prefix]:
        pool = set()
        for router in self._clue_routers.values():
            for prefix, _hop in router.receiver.entries:
                pool.add(prefix)
        if not pool:
            raise ValueError("no routed prefixes to draw traffic from")
        return sorted(pool)

    def _measure_baseline(self, samples: int, seed: int) -> float:
        """Mean clueless full-lookup cost over sampled traffic.

        Charged against each router's *base* structure directly, so the
        figure is untouched by clue tables, guards, or faults.
        """
        rng = _derived_rng(seed, "baseline")
        names = sorted(self._clue_routers)
        counter = MemoryCounter()
        total = 0
        n = max(1, samples)
        for _ in range(n):
            router = self._clue_routers[names[rng.randrange(len(names))]]
            prefix = self._pool[rng.randrange(len(self._pool))]
            destination = prefix.random_address(rng)
            counter.reset()
            router.base.lookup(destination, counter)
            total += counter.accesses
        return total / n

    # ------------------------------------------------------------------
    def run_round(self, traffic: int = 32) -> RoundReport:
        """One round: topology events, record corruption, traffic."""
        report = RoundReport(self.round_index)
        before = dict(self.plan.counts)
        self.plan.apply_schedule(self.network, self.round_index)
        report.routers_down = [
            name for name in self._router_names if not self.network.routers[name].up
        ]
        report.links_down = len(self.network.down_links)
        for name in sorted(self._clue_routers):
            router = self._clue_routers[name]
            if router.up:
                self.plan.corrupt_records(router)
        forward_audited(
            self.network, report, traffic, self.rng, self._pool, self._router_names,
            where="round %d" % self.round_index, hard=self.hard_invariant,
        )
        report.injected = {
            kind: count - before.get(kind, 0)
            for kind, count in self.plan.counts.items()
            if count != before.get(kind, 0)
        }
        self.round_index += 1
        return report

    def run(self, rounds: int, traffic_per_round: int = 32) -> FaultReport:
        """Drive ``rounds`` rounds under the plan; return the report."""
        report = FaultReport(
            plan=self.plan.describe(),
            guard_enabled=self.guard_policy is not None,
            policy=(
                self.guard_policy.as_dict()
                if self.guard_policy is not None
                else None
            ),
            baseline_accesses=self.baseline,
        )
        previous_plan = self.network.fault_plan
        self.network.fault_plan = self.plan
        try:
            for _ in range(rounds):
                report.rounds.append(self.run_round(traffic_per_round))
        finally:
            self.network.fault_plan = previous_plan
            self.network.down_links = set()
            for router in self.network.routers.values():
                if not router.up:
                    router.restart()
        for name in sorted(self._clue_routers):
            guards = self._clue_routers[name].guard_reports()
            if guards:
                report.guards[name] = {
                    str(upstream): stats for upstream, stats in guards.items()
                }
        return report

    def __repr__(self) -> str:
        return "FaultEngine(%d routers, round=%d, guard=%s)" % (
            len(self._clue_routers),
            self.round_index,
            self.guard_policy is not None,
        )


def build_fault_scenario(
    routers: int = 5,
    per_node: int = 40,
    seed: int = 0,
    technique: str = "patricia",
    *,
    flip_rate: float = 0.0,
    scramble_rate: float = 0.0,
    byzantine_routers: int = 0,
    lie_mode: str = "random",
    byzantine_rate: float = 1.0,
    record_rate: float = 0.0,
    record_burst: int = 1,
    crashes: int = 0,
    link_downs: int = 0,
    rounds: int = 8,
) -> Tuple[object, FaultPlan]:
    """A ready-to-attack (network, plan) pair — the CLI/experiment entry.

    The fabric is :meth:`Network.mesh`, the one churn runs on: every
    adjacency is registered, so the Advance method — the one a lying
    clue can actually endanger — is in play on every link.  Byzantine
    routers are the first ``byzantine_routers`` names in sorted order;
    crash and link-down schedules are derived from the seed and spread
    over ``rounds``.
    """
    network, _origins = Network.mesh(routers, per_node, seed, technique)
    names = sorted(network.routers)
    byzantine = {
        name: lie_mode for name in names[: max(0, byzantine_routers)]
    }
    crash_events, link_events = random_topology_events(
        names, rounds, crashes=crashes, link_downs=link_downs, seed=seed
    )
    plan = FaultPlan(
        seed=seed,
        flip_rate=flip_rate,
        scramble_rate=scramble_rate,
        byzantine=byzantine,
        byzantine_rate=byzantine_rate,
        record_rate=record_rate,
        record_burst=record_burst,
        link_downs=link_events,
        crashes=crash_events,
    )
    return network, plan
