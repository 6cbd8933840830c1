"""Fault injection and the adversarial-traffic engine."""

import pytest

from repro.faults import (
    CrashEvent,
    FaultEngine,
    FaultPlan,
    GuardPolicy,
    LinkDownEvent,
    build_fault_scenario,
    random_topology_events,
)
from repro.netsim import InvariantError
from repro.netsim.packet import Packet


class TestFaultPlanValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"flip_rate": -0.1},
            {"scramble_rate": 1.5},
            {"byzantine_rate": 2.0},
            {"record_rate": -1.0},
            {"record_burst": 0},
            {"byzantine": {"r0": "sideways"}},
        ],
    )
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            LinkDownEvent(-1, "a", "b")
        with pytest.raises(ValueError):
            CrashEvent(0, "a", duration=0)


class TestSchedules:
    def test_link_down_window(self):
        plan = FaultPlan(link_downs=[LinkDownEvent(2, "a", "b", duration=2)])
        assert plan.links_down_at(1) == []
        assert plan.links_down_at(2) == [frozenset(("a", "b"))]
        assert plan.links_down_at(3) == [frozenset(("a", "b"))]
        assert plan.links_down_at(4) == []

    def test_crash_and_restart_rounds(self):
        plan = FaultPlan(crashes=[CrashEvent(1, "r2", duration=2)])
        assert plan.routers_down_at(1) == ["r2"]
        assert plan.routers_down_at(2) == ["r2"]
        assert plan.restarts_at(3) == ["r2"]
        assert plan.routers_down_at(3) == []

    def test_apply_schedule_restarts_first_and_counts_each_event_once(self):
        network, _unused = build_fault_scenario(routers=4, per_node=10, seed=3)
        plan = FaultPlan(
            crashes=[
                CrashEvent(1, "r2", duration=1),
                CrashEvent(1, "r0", duration=2),
                CrashEvent(2, "r2", duration=1),
            ],
            link_downs=[LinkDownEvent(1, "r0", "r1", duration=2)],
        )
        assert plan.apply_schedule(network, 0) == ([], [], 0)
        assert plan.counts == {}
        assert plan.apply_schedule(network, 1) == ([], ["r0", "r2"], 1)
        # r2's second window opens as its first closes: restart, then crash.
        assert plan.apply_schedule(network, 2) == (["r2"], ["r2"], 0)
        assert network.down_links == {frozenset(("r0", "r1"))}
        assert plan.apply_schedule(network, 3) == (["r0", "r2"], [], 0)
        assert network.down_links == set()
        assert all(router.up for router in network.routers.values())
        assert plan.counts == {"router_crash": 3, "link_down": 1, "router_restart": 3}

    def test_random_topology_events_deterministic(self):
        names = ["r%d" % i for i in range(6)]
        first = random_topology_events(names, 10, crashes=2, link_downs=2, seed=9)
        second = random_topology_events(names, 10, crashes=2, link_downs=2, seed=9)
        assert repr(first) == repr(second)
        crashes, links = first
        assert all(event.round_index >= 1 for event in crashes)
        assert all(len(event.link()) == 2 for event in links)


class TestPerPacketInjectors:
    def test_perturb_is_deterministic_per_seed(self):
        from repro.addressing import Address

        def run(seed):
            plan = FaultPlan(seed=seed, flip_rate=0.5, scramble_rate=0.2)
            hits = []
            for i in range(50):
                packet = Packet(Address(i * 7919, 32))
                packet.clue.length = 8
                hits.append(plan.perturb_on_link(packet))
            return hits, dict(plan.counts)

        assert run(4) == run(4)
        hits, counts = run(4)
        assert sum(counts.values()) == sum(1 for h in hits if h)
        assert any(hits)

    def test_byzantine_lie_always_differs_from_truth(self):
        plan = FaultPlan(seed=1, byzantine={"liar": "random"})
        lied = 0
        for i in range(40):
            packet = Packet.__new__(Packet)
            # A minimal stand-in: only clue and destination are read.
            from repro.addressing import Address
            from repro.core.clue import ClueHeader

            packet.destination = Address(i * 99991, 32)
            packet.clue = ClueHeader(32)
            packet.clue.length = 12
            if plan.lie_after_hop("liar", packet) is not None:
                lied += 1
                assert packet.clue.length != 12
            assert plan.lie_after_hop("honest", packet) is None
        assert lied == 40

    def test_shorter_and_longer_modes_bound_the_lie(self):
        plan = FaultPlan(seed=2)
        for _ in range(50):
            assert plan._lie("shorter", 12, 32) < 12
            assert 12 < plan._lie("longer", 12, 32) <= 32
        assert plan._lie("shorter", 0, 32) == 0
        assert plan._lie("longer", 32, 32) == 32


class TestRecordCorruption:
    def test_corrupts_learned_records(self):
        network, _plan = build_fault_scenario(routers=3, per_node=15, seed=5)
        # Warm one router's table through benign traffic.
        report = FaultEngine(network, FaultPlan(seed=5)).run(2, 40)
        assert report.packets() == 80
        plan = FaultPlan(seed=6, record_rate=1.0, record_burst=3)
        touched = sum(
            plan.corrupt_records(router)
            for router in network.routers.values()
        )
        assert touched > 0
        assert set(plan.counts) <= {"record_corrupt", "record_drop"}


class TestFaultEngine:
    def test_needs_clue_routers(self):
        from repro.netsim.network import Network

        with pytest.raises(ValueError):
            FaultEngine(Network(), FaultPlan())

    def test_guarded_run_never_wrong(self):
        network, plan = build_fault_scenario(
            routers=5,
            per_node=25,
            seed=11,
            flip_rate=0.15,
            scramble_rate=0.05,
            byzantine_routers=2,
            lie_mode="shorter",
            record_rate=0.4,
            crashes=1,
            link_downs=1,
            rounds=6,
        )
        report = FaultEngine(network, plan, guard_policy=True).run(6, 60)
        assert report.wrong_hops() == 0
        assert report.invariant_ok()
        assert report.passed()
        assert report.total_injected() > 0
        assert report.rejections_total() > 0

    def test_unguarded_run_shows_wrong_hops(self):
        network, plan = build_fault_scenario(
            routers=5,
            per_node=25,
            seed=11,
            flip_rate=0.15,
            scramble_rate=0.05,
            byzantine_routers=2,
            lie_mode="shorter",
            record_rate=0.4,
            rounds=6,
        )
        report = FaultEngine(network, plan, guard_policy=None).run(6, 60)
        assert report.wrong_hops() > 0
        assert not report.invariant_ok()

    def test_hard_invariant_raises_on_violation(self):
        network, plan = build_fault_scenario(
            routers=5,
            per_node=25,
            seed=11,
            byzantine_routers=2,
            lie_mode="shorter",
            record_rate=0.4,
            rounds=6,
        )
        with pytest.raises(InvariantError):
            FaultEngine(
                network, plan, guard_policy=None, hard_invariant=True
            ).run(6, 60)

    def test_byzantine_sweep_quarantines_and_degrades_toward_baseline(self):
        network, plan = build_fault_scenario(
            routers=6,
            per_node=40,
            seed=7,
            byzantine_routers=2,
            lie_mode="shorter",
            rounds=12,
        )
        report = FaultEngine(network, plan, guard_policy=True).run(12, 150)
        assert report.wrong_hops() == 0
        assert report.quarantines_total() > 0
        # Degraded lookups approach the clueless baseline from below and
        # never meaningfully exceed it (small slack for probe overhead
        # paid before quarantine fires).
        assert report.degradation_ratio() <= 1.10
        quarantined_upstreams = {
            upstream
            for reports in report.guards.values()
            for upstream, stats in reports.items()
            if stats["health"]["quarantines"] > 0
        }
        # Only the actual liars get quarantined.
        assert quarantined_upstreams <= {"r0", "r1"}
        assert quarantined_upstreams

    def test_crash_restart_drops_then_recovers_with_cold_tables(self):
        network, _unused = build_fault_scenario(routers=4, per_node=20, seed=3)
        plan = FaultPlan(seed=3, crashes=[CrashEvent(1, "r0", duration=2)])
        engine = FaultEngine(network, plan, guard_policy=GuardPolicy(), seed=3)
        warm = engine.run_round(traffic=40)
        assert warm.routers_down == []
        router = network.routers["r0"]
        assert sum(len(t) for t in router.learned_tables().values()) > 0
        down = engine.run_round(traffic=40)
        assert down.routers_down == ["r0"]
        assert not router.up
        assert down.dropped.get("router-down", 0) > 0
        engine.run_round(traffic=40)  # still down
        back = engine.run_round(traffic=40)
        assert back.routers_down == []
        assert router.up
        assert plan.counts.get("router_restart") == 1

    def test_link_down_drops_crossing_packets(self):
        network, _unused = build_fault_scenario(routers=4, per_node=20, seed=3)
        links = [
            LinkDownEvent(0, a, b, duration=1)
            for a in sorted(network.routers)
            for b in sorted(network.routers)
            if a < b
        ]
        engine = FaultEngine(
            network, FaultPlan(seed=3, link_downs=links), seed=3
        )
        report = engine.run_round(traffic=40)
        # With every link down, any packet needing a second hop drops.
        assert report.dropped.get("link-down", 0) > 0

    @pytest.mark.parametrize("warm_up", ["run", "run_round"])
    def test_report_counts_only_its_own_rounds(self, warm_up):
        network, plan = build_fault_scenario(
            routers=5, per_node=20, seed=7, crashes=1, link_downs=1, rounds=6
        )
        engine = FaultEngine(network, plan, guard_policy=GuardPolicy(), seed=7)
        if warm_up == "run":
            engine.run(3, 40)
        else:
            for _ in range(3):
                engine.run_round(40)
        report = engine.run(3, 40)
        injected = {}
        for round_report in report.rounds:
            for kind, count in round_report.injected.items():
                injected[kind] = injected.get(kind, 0) + count
        assert report.summary()["faults_injected"] == injected
        accesses = sum(r.accesses for r in report.rounds)
        hops = sum(r.hops for r in report.rounds)
        assert report.degradation_ratio() == pytest.approx(
            accesses / hops / report.baseline_accesses
        )

    def test_run_restores_fabric_state(self):
        network, plan = build_fault_scenario(
            routers=4, per_node=20, seed=3, crashes=2, link_downs=2, rounds=4
        )
        FaultEngine(network, plan).run(4, 20)
        assert network.fault_plan is None
        assert network.down_links == set()
        assert all(router.up for router in network.routers.values())

    def test_report_serialises(self):
        network, plan = build_fault_scenario(
            routers=3, per_node=15, seed=2, byzantine_routers=1, rounds=3
        )
        report = FaultEngine(network, plan, guard_policy=True).run(3, 20)
        data = report.as_dict()
        assert data["summary"]["invariant_ok"] is True
        assert len(data["rounds"]) == 3
        import json

        json.dumps(data)


class TestFaultSweep:
    def test_sweep_shape(self):
        from repro.experiments import fault_sweep

        points = fault_sweep(
            [0.0, 0.15],
            routers=4,
            per_node=20,
            rounds=4,
            traffic_per_round=40,
            seed=11,
        )
        assert len(points) == 6
        by_key = {point.parameter: point.metrics for point in points}
        # Guarded columns never forward wrongly, at any fault rate.
        for (rate, policy), metrics in by_key.items():
            if policy != "off":
                assert metrics["wrong_hops"] == 0.0
        # The unguarded control shows the damage once faults flow.
        assert by_key[(0.15, "off")]["faults"] > 0

    def test_sweep_rejects_bad_rates_and_policies(self):
        from repro.experiments import fault_sweep
        from repro.experiments.faults import _policy_for

        with pytest.raises(ValueError):
            fault_sweep([0.9], routers=3, per_node=10, rounds=1)
        with pytest.raises(ValueError):
            _policy_for("maximum")
