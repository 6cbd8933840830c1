"""Convergence-under-load: the IGP drives the clue data path end-to-end.

The :class:`ControlEngine` couples three existing planes tick by tick:

* the **control plane** (:class:`~repro.control.plane.ControlPlane`) —
  hellos, flooding, SPF;
* the **fault plan** (:class:`~repro.faults.inject.FaultPlan`) — link
  flaps, cost changes, and crash–restart windows now perturb the *IGP*,
  which withdraws and re-announces routes itself, instead of mutating
  forwarding tables directly;
* the **data plane** (:class:`~repro.netsim.network.Network` of clue
  routers) — whose tables are updated *only* through the SPF-delta feed
  (:class:`~repro.churn.feed.TableDeltaFeed`), exactly the §3.4
  incremental-maintenance path the synthetic churn streams exercised.

The engine composes pieces the churn and fault engines use too.  Every
tick: the plan's :meth:`~repro.faults.inject.FaultPlan.apply_schedule`
crashes, restarts and fails links (mirrored onto the IGP) and the cost
schedule fires; the IGP advances one tick; each live router's SPF
routes are diffed against what its forwarding table last received and
the delta folds through the feed; the audited traffic step of
:mod:`repro.netsim.invariant` forwards seeded packets, checking every
hop against the never-wrong oracle; then the feed drains the budgeted
rebuild backlog.  A tick is
*converged* when the control plane is quiescent and correct and no
clue-table rebuild is pending; contiguous non-converged ticks form a
*disruption episode* whose length lands in the
``control_convergence_ticks`` histogram.

After the run, a brute-force all-pairs-shortest-path certifier (a
different algorithm from the production SPF — see
:mod:`repro.control.spf`) recomputes every live router's next-hop table
and the prefix routes it implies, and both the IGP's own tables and the
netsim forwarding tables must match bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.addressing import Prefix
from repro.churn.feed import TableDeltaFeed
from repro.churn.stream import ANNOUNCE, WITHDRAW
from repro.control.plane import ControlPlane
from repro.control.spf import (
    brute_force_distances,
    certify_next_hops,
)
from repro.netsim.invariant import Traffic, forward_audited, total_traffic


#: A scheduled link-cost change: (tick, router_a, router_b, new_cost).
CostChange = Tuple[int, str, str, int]


class TickReport(Traffic):
    """What one tick did: events, deltas, traffic, backlog."""

    __slots__ = (
        "tick",
        "converged",
        "events",
        "routers_down",
        "links_down",
        "announces",
        "withdraws",
        "dirty_marked",
        "rebuilt",
        "pending_after",
    )

    def __init__(self, tick: int):
        super().__init__()
        self.tick = tick
        self.converged = False
        self.events = 0
        self.routers_down = 0
        self.links_down = 0
        self.announces = 0
        self.withdraws = 0
        self.dirty_marked = 0
        self.rebuilt = 0
        self.pending_after = 0

    def updates(self) -> int:
        return self.announces + self.withdraws

    def as_dict(self) -> Dict[str, object]:
        return {
            "tick": self.tick,
            "converged": self.converged,
            "events": self.events,
            "routers_down": self.routers_down,
            "links_down": self.links_down,
            "announces": self.announces,
            "withdraws": self.withdraws,
            "dirty_marked": self.dirty_marked,
            "rebuilt": self.rebuilt,
            "pending_after": self.pending_after,
            "packets": self.packets,
            "delivered": self.delivered,
            "wrong_hops": self.wrong_hops,
            "accesses": self.accesses,
        }

    def __repr__(self) -> str:
        return "TickReport(#%d, converged=%s, %d updates, %d packets)" % (
            self.tick,
            self.converged,
            self.updates(),
            self.packets,
        )


class ClueWindow:
    """Clue-economics deltas accumulated over a set of ticks."""

    __slots__ = ("ticks", "built", "problematic", "hits", "misses", "full")

    def __init__(self):
        self.ticks = 0
        self.built = 0
        self.problematic = 0
        self.hits = 0
        self.misses = 0
        self.full = 0

    def add(self, deltas: Dict[str, int]) -> None:
        self.ticks += 1
        self.built += deltas["built"]
        self.problematic += deltas["problematic"]
        self.hits += deltas["hits"]
        self.misses += deltas["misses"]
        self.full += deltas["full"]

    def non_problematic_fraction(self) -> float:
        """Fraction of clue records built in this window obeying Claim 1.

        With nothing built the window is trivially clean (1.0) — the
        paper's 95–99.5 % claim concerns records that *were* built.
        """
        if not self.built:
            return 1.0
        return 1.0 - self.problematic / self.built

    def as_dict(self) -> Dict[str, object]:
        return {
            "ticks": self.ticks,
            "entries_built": self.built,
            "problematic": self.problematic,
            "non_problematic_fraction": round(
                self.non_problematic_fraction(), 6
            ),
            "clue_hits": self.hits,
            "clue_misses": self.misses,
            "full_lookups": self.full,
        }


class ControlReport:
    """The whole run: per-tick records, episodes, and the oracle verdict."""

    def __init__(self, routers: int, pairs: int):
        self.routers = routers
        self.pairs = pairs
        self.ticks: List[TickReport] = []
        #: Completed disruption episodes, as lengths in ticks.
        self.episodes: List[int] = []
        #: Length of a disruption still open when the run ended (0 = none).
        self.open_episode = 0
        self.mid_convergence = ClueWindow()
        self.converged_window = ClueWindow()
        #: ``(source, dest, found, expected)`` SPF-vs-oracle divergences.
        self.next_hop_divergences: List[Tuple[str, str, str, str]] = []
        #: ``(router, prefix, found, expected)`` routing-table divergences
        #: (checked against both the IGP's and the netsim router's table).
        self.table_divergences: List[Tuple[str, str, str, str]] = []
        self.lsas_flooded = 0
        self.spf_runs = 0
        self.events_applied: Dict[str, int] = {}

    # -- aggregates ------------------------------------------------------
    def traffic(self) -> Traffic:
        return total_traffic(self.ticks)

    def packets(self) -> int:
        return self.traffic().packets

    def wrong_hops(self) -> int:
        return self.traffic().wrong_hops

    def updates_applied(self) -> int:
        return sum(t.updates() for t in self.ticks)

    def entries_rebuilt(self) -> int:
        return sum(t.rebuilt for t in self.ticks)

    def ticks_converged(self) -> int:
        return sum(1 for t in self.ticks if t.converged)

    def final_converged(self) -> bool:
        return bool(self.ticks) and self.ticks[-1].converged

    def max_episode(self) -> int:
        longest = max(self.episodes) if self.episodes else 0
        return max(longest, self.open_episode)

    def divergences(self) -> int:
        return len(self.next_hop_divergences) + len(self.table_divergences)

    def passed(self) -> bool:
        """Zero wrong hops, zero oracle divergence, and a converged end."""
        return (
            self.wrong_hops() == 0
            and self.divergences() == 0
            and self.final_converged()
            and self.open_episode == 0
            and self.packets() > 0
        )

    def claim(self) -> str:
        if self.final_converged():
            outcome = "converged through %d disruption episodes" % len(
                self.episodes
            )
        else:
            outcome = (
                "did not converge: the run ended %d ticks into an open "
                "disruption episode, after %d closed ones"
                % (self.open_episode, len(self.episodes))
            )
        return (
            "control: %d routers %s "
            "(max %d ticks); %d SPF-fed table updates, %d clue entries "
            "rebuilt; mid-convergence clues %.2f%% non-problematic; "
            "%d/%d oracle divergences; %d wrong hops over %d packets."
            % (
                self.routers,
                outcome,
                self.max_episode(),
                self.updates_applied(),
                self.entries_rebuilt(),
                100.0 * self.mid_convergence.non_problematic_fraction(),
                len(self.next_hop_divergences),
                len(self.table_divergences),
                self.wrong_hops(),
                self.packets(),
            )
        )

    def summary(self) -> Dict[str, object]:
        traffic = self.traffic()
        return {
            "routers": self.routers,
            "pairs": self.pairs,
            "ticks": len(self.ticks),
            "ticks_converged": self.ticks_converged(),
            "episodes": len(self.episodes),
            "episode_lengths": list(self.episodes),
            "max_episode_ticks": self.max_episode(),
            "open_episode": self.open_episode,
            "final_converged": self.final_converged(),
            "events_applied": dict(sorted(self.events_applied.items())),
            "updates_applied": self.updates_applied(),
            "entries_rebuilt": self.entries_rebuilt(),
            "lsas_flooded": self.lsas_flooded,
            "spf_runs": self.spf_runs,
            "packets": traffic.packets,
            "delivered": traffic.delivered,
            "wrong_hops": traffic.wrong_hops,
            "next_hop_divergences": len(self.next_hop_divergences),
            "table_divergences": len(self.table_divergences),
            "passed": self.passed(),
            "claim": self.claim(),
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "summary": self.summary(),
            "mid_convergence": self.mid_convergence.as_dict(),
            "converged_window": self.converged_window.as_dict(),
            "ticks": [t.as_dict() for t in self.ticks],
            "divergence_samples": {
                "next_hop": [
                    list(item) for item in self.next_hop_divergences[:10]
                ],
                "table": [
                    list(item) for item in self.table_divergences[:10]
                ],
            },
        }

    def __repr__(self) -> str:
        return "ControlReport(%d ticks, %d episodes, passed=%s)" % (
            len(self.ticks),
            len(self.episodes),
            self.passed(),
        )


def _prefix_sort_key(item: Tuple[Prefix, object]) -> Tuple[int, int]:
    return (item[0].length, item[0].bits)


class ControlEngine:
    """Runs a clue-router network under a live link-state control plane."""

    def __init__(
        self,
        network,
        plane: ControlPlane,
        plan=None,
        *,
        cost_changes: Sequence[CostChange] = (),
        technique: Optional[str] = None,
        rebuild_budget: Optional[int] = None,
        seed: int = 0,
        hard_invariant: bool = True,
    ):
        self.network = network
        self.plane = plane
        self.plan = plan
        self.cost_changes = sorted(cost_changes)
        self.rebuild_budget = rebuild_budget
        self.hard_invariant = hard_invariant
        self.tick_index = 0
        self.feed = TableDeltaFeed(network, technique=technique)
        self._rng = random.Random("control:%d:traffic" % seed)
        instruments = network._effective_instruments()
        self._instruments = instruments
        self._control_views = {
            name: instruments.bind_control(name)
            for name in sorted(network.routers)
        }
        if plan is not None:
            plan.telemetry = instruments
        #: What each router's forwarding table currently holds, mirrored
        #: engine-side so SPF output can be diffed into deltas.
        self._applied: Dict[str, Dict[Prefix, str]] = {
            name: dict(router.receiver.entries)
            for name, router in sorted(network.routers.items())
        }
        #: Destination pool: every prefix any router originates.
        self._origin_prefixes: List[Prefix] = sorted(
            (
                prefix
                for name in plane.graph.nodes
                for prefix in plane.graph.nodes[name].get("originated", [])
            ),
            key=lambda prefix: (prefix.length, prefix.bits),
        )
        self._disrupted_for = 0

    # ------------------------------------------------------------------
    # the tick loop
    # ------------------------------------------------------------------

    def run(self, ticks: int, traffic_per_tick: int = 8) -> ControlReport:
        report = ControlReport(
            routers=len(self.network.routers), pairs=len(self.feed.pairs)
        )
        for _ in range(ticks):
            self.tick_index += 1
            tick_report = TickReport(self.tick_index)
            self._apply_topology(tick_report)
            self._apply_cost_changes(tick_report)
            self.plane.tick()
            self._apply_deltas(tick_report)
            tick_report.converged = (
                self.plane.converged() and self.feed.pending_total() == 0
            )
            self._track_episode(tick_report.converged, report)
            before = self._clue_totals()
            starts = [
                name for name, router in sorted(self.network.routers.items()) if router.up
            ]
            forward_audited(
                self.network, tick_report, traffic_per_tick, self._rng,
                self._origin_prefixes, starts,
                where="tick %d" % self.tick_index, hard=self.hard_invariant,
            )
            after = self._clue_totals()
            deltas = {
                key: after[key] - before[key] for key in after
            }
            window = (
                report.converged_window
                if tick_report.converged
                else report.mid_convergence
            )
            window.add(deltas)
            tick_report.rebuilt = self.feed.flush(self.rebuild_budget)
            tick_report.pending_after = self.feed.pending_total()
            report.ticks.append(tick_report)
        report.open_episode = self._disrupted_for
        self._finalise(report)
        return report

    def _apply_topology(self, tick_report: TickReport) -> None:
        """The plan's schedule on the fabric, mirrored onto the IGP."""
        if self.plan is not None:
            restarted, crashed, failed = self.plan.apply_schedule(
                self.network, self.tick_index
            )
            for name in restarted:
                self.plane.restart(name)
            for name in crashed:
                self.plane.crash(name)
            self.plane.set_down_links(self.network.down_links)
            tick_report.events += len(restarted) + len(crashed) + failed
        tick_report.routers_down = len(self.plane.down_routers)
        tick_report.links_down = len(self.plane.down_links)

    def _apply_cost_changes(self, tick_report: TickReport) -> None:
        for tick, a, b, cost in self.cost_changes:
            if tick == self.tick_index:
                self.plane.set_link_cost(a, b, cost)
                tick_report.events += 1

    def _apply_deltas(self, tick_report: TickReport) -> None:
        """Diff SPF routes against applied tables; fold through the feed."""
        desired = self.plane.routes()
        per_add: Dict[str, List[Tuple[Prefix, str]]] = {}
        per_remove: Dict[str, List[Prefix]] = {}
        for name in sorted(desired):
            routes = desired[name]
            mirror = self._applied[name]
            adds = sorted(
                (
                    (prefix, hop)
                    for prefix, hop in routes.items()
                    if mirror.get(prefix) != hop
                ),
                key=_prefix_sort_key,
            )
            removes = sorted(
                (prefix for prefix in mirror if prefix not in routes),
                key=lambda prefix: (prefix.length, prefix.bits),
            )
            if adds:
                per_add[name] = adds
            if removes:
                per_remove[name] = removes
            if adds or removes:
                self._applied[name] = dict(routes)
                self._control_views[name].record_table_updates(
                    len(adds) + len(removes)
                )
            tick_report.announces += len(adds)
            tick_report.withdraws += len(removes)
        if not (per_add or per_remove):
            return
        tick_report.dirty_marked += self.feed.apply(per_add, per_remove)
        if tick_report.announces:
            self._instruments.record_update(ANNOUNCE, tick_report.announces)
        if tick_report.withdraws:
            self._instruments.record_update(WITHDRAW, tick_report.withdraws)

    def _track_episode(self, converged: bool, report: ControlReport) -> None:
        if converged:
            if self._disrupted_for:
                report.episodes.append(self._disrupted_for)
                self._instruments.record_convergence_episode(
                    self._disrupted_for
                )
                self._disrupted_for = 0
        else:
            self._disrupted_for += 1

    def _clue_totals(self) -> Dict[str, int]:
        instruments = self._instruments
        return {
            "built": int(instruments.clue_entries_built.total()),
            "problematic": int(instruments.problematic_clues.total()),
            "hits": int(instruments.clue_hits.total()),
            "misses": int(instruments.clue_misses.total()),
            "full": int(instruments.full_lookups.total()),
        }

    # ------------------------------------------------------------------
    # post-run certification
    # ------------------------------------------------------------------

    def _finalise(self, report: ControlReport) -> None:
        report.lsas_flooded = sum(
            process.lsas_sent
            for process in self.plane.processes.values()
        )
        report.spf_runs = sum(
            process.spf_runs
            for process in self.plane.processes.values()
        )
        if self.plan is not None:
            report.events_applied = dict(self.plan.counts)
        self._certify(report)

    def _certify(self, report: ControlReport) -> None:
        """Brute-force oracle vs the IGP's and the data path's tables."""
        live = self.plane.live_topology()
        report.next_hop_divergences = certify_next_hops(
            live, self.plane.next_hop_tables()
        )
        dist_from = {
            name: brute_force_distances(live, name) for name in sorted(live)
        }
        origins = {
            name: tuple(self.plane.graph.nodes[name].get("originated", []))
            for name in sorted(self.plane.graph.nodes)
        }
        for source in sorted(live):
            expected: Dict[Prefix, str] = {}
            for origin in sorted(live):
                if origin == source:
                    hop = source
                elif origin in dist_from[source]:
                    total = dist_from[source][origin]
                    hop = ""
                    for neighbor in sorted(live[source]):
                        via = dist_from[neighbor].get(origin)
                        if (
                            via is not None
                            and live[source][neighbor] + via == total
                        ):
                            hop = neighbor
                            break
                    if not hop:
                        continue
                else:
                    continue
                for prefix in origins[origin]:
                    expected[prefix] = hop
            igp = self.plane.processes[source].routes
            fib = dict(self.network.routers[source].receiver.entries)
            for table_name, found in (("igp", igp), ("fib", fib)):
                for prefix in sorted(
                    set(expected) | set(found),
                    key=lambda p: (p.length, p.bits),
                ):
                    got = found.get(prefix, "")
                    want = expected.get(prefix, "")
                    if got != want:
                        report.table_divergences.append(
                            (
                                "%s:%s" % (source, table_name),
                                str(prefix),
                                str(got),
                                str(want),
                            )
                        )

    def __repr__(self) -> str:
        return "ControlEngine(%d routers, %d pairs, tick=%d)" % (
            len(self.network.routers),
            len(self.feed.pairs),
            self.tick_index,
        )


class ControlScenario:
    """A ready-to-run bundle: network, plane, fault plan, cost schedule."""

    __slots__ = (
        "network",
        "plane",
        "plan",
        "cost_changes",
        "warmup_ticks",
        "config",
    )

    def __init__(
        self, network, plane, plan, cost_changes, warmup_ticks, config
    ):
        self.network = network
        self.plane = plane
        self.plan = plan
        self.cost_changes = cost_changes
        self.warmup_ticks = warmup_ticks
        self.config = config

    def __repr__(self) -> str:
        return "ControlScenario(%d routers, warmup=%d)" % (
            len(self.network.routers),
            self.warmup_ticks,
        )


def build_control_scenario(
    routers: int = 12,
    per_node: int = 8,
    seed: int = 0,
    technique: str = "patricia",
    *,
    ticks: int = 120,
    flaps: int = 2,
    crashes: int = 1,
    cost_changes: int = 2,
    hello_interval: int = 1,
    dead_interval: int = 4,
    retransmit_interval: int = 2,
    fault_duration: Optional[int] = None,
    nesting: float = 0.3,
) -> ControlScenario:
    """A seeded convergence-under-load scenario, warmed to convergence.

    Builds a mesh with seeded link costs, runs the IGP to initial
    convergence (bounded; :class:`ControlConvergenceError` past the
    bound), instantiates the clue-router fabric *from the IGP's own
    converged tables*, registers every adjacency, and derives a
    flap/crash :class:`FaultPlan` plus a cost-change schedule sized to
    ``ticks`` with a quiet tail for final reconvergence.
    """
    from repro.faults.inject import flap_crash_plan
    from repro.netsim.network import Network
    from repro.netsim.router import ClueRouter
    from repro.routing.topology import mesh_topology, originate_prefixes
    from repro.telemetry.instruments import LookupInstruments
    from repro.telemetry.registry import MetricsRegistry

    if routers < 2:
        raise ValueError("a control scenario needs at least two routers")
    graph = mesh_topology(routers, degree=min(3, routers - 1), seed=seed)
    cost_rng = random.Random("control:%d:costs" % seed)
    for a, b in sorted(graph.edges):
        graph.edges[a, b]["cost"] = cost_rng.randrange(1, 5)
    originate_prefixes(graph, per_node=per_node, seed=seed + 1, nesting=nesting)
    instruments = LookupInstruments(MetricsRegistry())
    plane = ControlPlane(
        graph,
        hello_interval=hello_interval,
        dead_interval=dead_interval,
        retransmit_interval=retransmit_interval,
        instruments=instruments,
    )
    warmup = plane.run_until_converged(limit=20 + 6 * routers)
    network = Network(instruments=instruments)
    routes = plane.routes()
    for name in sorted(routes):
        entries = sorted(routes[name].items(), key=_prefix_sort_key)
        network.add_router(
            ClueRouter(name, entries, technique=technique)
        )
    for name in sorted(routes):
        router = network.routers[name]
        for neighbor in sorted(graph.neighbors(name)):
            router.register_neighbor(
                neighbor,
                sorted(routes[neighbor].items(), key=_prefix_sort_key),
            )
    duration = (
        fault_duration
        if fault_duration is not None
        else 2 * dead_interval + 2
    )
    plan = flap_crash_plan(
        sorted(graph.nodes),
        sorted(graph.edges),
        ticks,
        flaps=flaps,
        crashes=crashes,
        seed=seed,
        duration=duration,
    )
    change_rng = random.Random("control:%d:cost-changes" % seed)
    last_start = max(2, ticks - duration - 16)
    edges = sorted(graph.edges)
    schedule: List[CostChange] = []
    for _ in range(cost_changes):
        tick = change_rng.randrange(1, last_start)
        a, b = edges[change_rng.randrange(len(edges))]
        cost = change_rng.randrange(1, 5)
        if cost == graph.edges[a, b]["cost"]:
            cost = cost % 4 + 1
        schedule.append((tick, a, b, cost))
    config = {
        "routers": routers,
        "per_node": per_node,
        "seed": seed,
        "technique": technique,
        "ticks": ticks,
        "flaps": flaps,
        "crashes": crashes,
        "cost_changes": cost_changes,
        "hello_interval": hello_interval,
        "dead_interval": dead_interval,
        "retransmit_interval": retransmit_interval,
        "fault_duration": duration,
        "warmup_ticks": warmup,
    }
    return ControlScenario(
        network, plane, plan, sorted(schedule), warmup, config
    )
