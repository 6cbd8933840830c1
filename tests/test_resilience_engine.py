"""The chaos engine: failover, retries, hedging, deadlines, the audit."""

import json

import numpy as np
import pytest

from repro.faults import (
    ReplicaCrashEvent,
    ShardFaultPlan,
    SlowReplicaEvent,
    shard_chaos_plan,
)
from repro.resilience import (
    ChaosEngine,
    MAX_REPLICATION,
    ReplicaPlan,
    ResilienceConfig,
    replica_rotation,
)
from repro.serve import ServeConfig, ServeEngine, ShardPlan
from repro.telemetry import LookupInstruments, MetricsRegistry


def small_config(**overrides):
    defaults = dict(
        shards=2,
        replication=2,
        table_size=300,
        requests=8000,
        universe=256,
        rate=128.0,
        seed=7,
    )
    defaults.update(overrides)
    return ResilienceConfig(**defaults)


@pytest.fixture(scope="module")
def engine():
    return ChaosEngine(small_config())


class TestReplicaPlan:
    def test_candidates_are_a_rotation(self):
        rplan = ReplicaPlan(ShardPlan(4, "range"), 3)
        for value in (0, 1, 12345, 2**31):
            candidates = rplan.candidates(value)
            assert sorted(candidates) == [0, 1, 2]
            rotation = rplan.rotation_of(value)
            assert candidates[0] == rotation
            assert candidates == [
                (rotation + k) % 3 for k in range(3)
            ]

    def test_replication_bounds(self):
        plan = ShardPlan(2, "range")
        with pytest.raises(ValueError):
            ReplicaPlan(plan, 0)
        with pytest.raises(ValueError):
            ReplicaPlan(plan, MAX_REPLICATION + 1)
        assert ReplicaPlan(plan, 1).workers == 2
        assert ReplicaPlan(plan, 3).workers == 6

    def test_batch_rotation_matches_scalar(self):
        rplan = ReplicaPlan(ShardPlan(2, "range"), 3)
        values = [0, 1, 7, 255, 9999, 2**30, 2**32 - 1]
        expected = [rplan.rotation_of(value) for value in values]
        fast = replica_rotation(rplan, np.array(values, dtype=np.int64))
        assert fast.tolist() == expected


class TestBaselineRun:
    def test_fault_free_run_serves_everything(self, engine):
        run = engine.run()
        totals = run["totals"]
        assert totals["served"] == totals["offered"]
        assert totals["crashes"] == 0
        assert totals["degraded"] == 0
        assert totals["deadline_expired"] == 0
        assert run["audit"]["checked"] == totals["offered"]
        assert run["audit"]["wrong_answers"] == 0
        assert run["conservation"]["ok"]

    def test_every_worker_is_certified(self, engine):
        assert len(engine.shards) == 2
        assert all(len(row) == 2 for row in engine.shards)
        assert engine.certified_lanes > 0
        # Replicas of a slice hold identical slices of the table.
        for row in engine.shards:
            sizes = {len(shard.entries) for shard in row}
            assert len(sizes) == 1


class TestChaosRun:
    def test_crash_restart_episode_survives_audited(self, engine):
        plan = engine.default_plan(crashes=2, slowdowns=1, drops=1)
        run = engine.run(plan)
        totals = run["totals"]
        assert totals["crashes"] >= 1
        assert totals["restarts"] == totals["crashes"]
        assert totals["rebuilt_lanes"] > 0
        assert totals["retries"] > 0
        assert run["audit"]["wrong_answers"] == 0
        assert run["audit"]["checked"] == totals["served"]
        assert run["conservation"]["ok"]
        counts = run["faults"]["counts"]
        assert counts.get("shard_crash", 0) >= 1
        assert counts.get("shard_restart", 0) >= 1

    def test_bench_report_passes_and_compares(self, engine):
        report = engine.bench()
        assert report.passed()
        payload = report.as_dict()
        assert payload["bench"] == "resilience"
        comparison = payload["comparison"]
        assert comparison["availability_without_faults"] == 1.0
        assert payload["certification"]["rebuilt_lanes"] >= 0
        assert "chaos" in report.summary()

    def test_hedging_fires_under_slow_replicas(self):
        config = small_config(hedge_ticks=2)
        engine = ChaosEngine(config)
        plan = ShardFaultPlan(
            seed=1,
            slowdowns=[
                SlowReplicaEvent(2, s, 0, duration=30, extra_ticks=10)
                for s in range(2)
            ],
        )
        run = engine.run(plan)
        totals = run["totals"]
        assert totals["hedges"] > 0
        # Hedge duplicates that lost the race are counted, not served.
        assert totals["late_completions"] > 0
        assert totals["served"] == totals["offered"]
        assert run["audit"]["wrong_answers"] == 0
        assert run["conservation"]["ok"]

    def test_deadline_expiry_is_accounted(self):
        config = small_config(deadline_ticks=3, hedge_ticks=1)
        engine = ChaosEngine(config)
        plan = ShardFaultPlan(
            seed=1,
            slowdowns=[
                SlowReplicaEvent(1, s, r, duration=40, extra_ticks=30)
                for s in range(2)
                for r in range(2)
            ],
        )
        run = engine.run(plan)
        totals = run["totals"]
        assert totals["deadline_expired"] > 0
        assert run["conservation"]["ok"]
        assert run["audit"]["wrong_answers"] == 0

    def test_single_replica_crash_degrades_not_drops(self):
        config = small_config(replication=1)
        engine = ChaosEngine(config)
        plan = ShardFaultPlan(
            seed=1, crashes=[ReplicaCrashEvent(3, 0, 0, duration=10)]
        )
        run = engine.run(plan)
        totals = run["totals"]
        # With no second replica the scalar full-table path answers.
        assert totals["degraded"] > 0
        assert totals["served"] == totals["offered"]
        assert run["audit"]["wrong_answers"] == 0
        assert run["conservation"]["ok"]

    def test_failover_prefers_live_replica(self, engine):
        plan = ShardFaultPlan(
            seed=1, crashes=[ReplicaCrashEvent(3, 0, 0, duration=15)]
        )
        run = engine.run(plan)
        totals = run["totals"]
        assert totals["failovers"] > 0
        assert totals["served"] == totals["offered"]
        assert run["conservation"]["ok"]


class TestSharedBuilds:
    """Each slice is compiled and certified once; its replicas share the
    build, a crash rebuild makes a fresh one, and the degraded path's
    reference is built only when a request degrades."""

    def test_replicas_of_a_slice_share_one_certified_build(self):
        instruments = LookupInstruments(MetricsRegistry())
        engine = ChaosEngine(small_config(replication=3), instruments)
        for row in engine.shards:
            built = row[0]
            assert built.certified_lanes > 0
            for twin in row[1:]:
                assert twin.ctrie is built.ctrie
                assert twin.ctable is built.ctable
                assert twin.entries is built.entries
                assert twin.clue_universe is built.clue_universe
                assert twin.certified_lanes == 0
            assert len({id(shard.metrics) for shard in row}) == len(row)
        # Each replica records its own requests under its own label.
        run = engine.run()
        recorded = {
            labels[0]: value
            for labels, value in instruments.serve_requests.samples()
        }
        assert recorded == {
            "%d.%d" % (worker["slice"], worker["replica"]): worker["requests"]
            for worker in run["workers"]
        }
        assert all(recorded.values())

    def test_serve_and_chaos_build_one_plane(self):
        # Over the same shared knobs, plain serving and chaos at one
        # replica run one set-up: every slice compiles to equal arrays
        # and certifies the same lanes.
        shared = dict(shards=3, table_size=300, requests=2000, universe=128, seed=7)
        serve = ServeEngine(ServeConfig(**shared))
        chaos = ChaosEngine(ResilienceConfig(replication=1, **shared))
        assert len(serve.shards) == len(chaos.shards) == 3
        for plain, row in zip(serve.shards, chaos.shards):
            (twin,) = row
            for name in ("child", "node_result"):
                assert np.array_equal(
                    getattr(plain.ctrie, name), getattr(twin.ctrie, name)
                )
            for name in ("probe_keys", "rec_fd", "stop_masks"):
                assert np.array_equal(
                    getattr(plain.ctable, name), getattr(twin.ctable, name)
                )
            assert plain.certified_lanes == twin.certified_lanes > 0
        assert serve.certified_lanes == chaos.certified_lanes

    def test_certified_lanes_count_one_build_per_slice(self, engine):
        single = ChaosEngine(small_config(replication=1))
        assert engine.certified_lanes == single.certified_lanes
        assert engine.certified_lanes == sum(
            row[0].certified_lanes for row in engine.shards
        )

    def test_a_crash_rebuild_certifies_fresh_arrays(self, engine):
        plan = ShardFaultPlan(
            seed=1, crashes=[ReplicaCrashEvent(3, 0, 1, duration=10)]
        )
        state, _elapsed = engine.run_ticks(plan)
        built = engine.shards[0][0]
        rebuilt = state.workers[0][1].shard
        assert rebuilt is not engine.shards[0][1]
        assert rebuilt.ctable is not built.ctable
        assert rebuilt.ctrie is not built.ctrie
        assert np.array_equal(rebuilt.ctable.probe_keys, built.ctable.probe_keys)
        assert state.restarts == 1
        assert state.rebuilt_lanes == rebuilt.certified_lanes
        assert state.rebuilt_lanes == built.certified_lanes > 0

    def test_the_degraded_reference_is_built_on_first_read(self, monkeypatch):
        from repro.resilience import engine as engine_module

        calls = []
        build = engine_module.build_reference

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(engine_module, "build_reference", counted)
        engine = ChaosEngine(small_config(replication=1))
        assert engine.run()["totals"]["degraded"] == 0
        assert calls == []
        plan = ShardFaultPlan(
            seed=1, crashes=[ReplicaCrashEvent(3, 0, 0, duration=10)]
        )
        for _ in range(2):
            run = engine.run(plan)
            assert run["totals"]["degraded"] > 0
            assert run["audit"]["wrong_answers"] == 0
        assert len(calls) == 1


class TestDeterminism:
    def test_same_seed_bit_identical_bench(self):
        a = ChaosEngine(small_config(requests=5000)).bench()
        b = ChaosEngine(small_config(requests=5000)).bench()
        assert a.to_json() == b.to_json()

    def test_plan_factory_is_seeded(self):
        one = shard_chaos_plan(2, 2, 100, crashes=2, seed=9)
        two = shard_chaos_plan(2, 2, 100, crashes=2, seed=9)
        assert repr(one.crashes) == repr(two.crashes)
        other = shard_chaos_plan(2, 2, 100, crashes=2, seed=10)
        assert repr(one.crashes) != repr(other.crashes)


class TestTelemetry:
    def test_resilience_series_reconcile_with_report(self):
        instruments = LookupInstruments(MetricsRegistry())
        engine = ChaosEngine(small_config(requests=6000), instruments)
        plan = engine.default_plan(crashes=2, slowdowns=1, drops=1)
        run = engine.run(plan)
        totals = run["totals"]
        assert instruments.serve_retries.total() == totals["retries"]
        assert instruments.serve_hedges.total() == totals["hedges"]
        assert instruments.serve_failovers.total() == totals["failovers"]
        assert (
            instruments.serve_deadline_expired.total()
            == totals["deadline_expired"]
        )
        assert (
            instruments.faults_injected.total()
            == sum(run["faults"]["counts"].values())
        )

    def test_health_gauge_tracks_worker_states(self):
        # One label rule: "s.r" per worker, "s" when a slice has one replica.
        for replication, owners in (
            (2, {"0.0", "0.1", "1.0", "1.1"}),
            (1, {"0", "1"}),
        ):
            instruments = LookupInstruments(MetricsRegistry())
            engine = ChaosEngine(
                small_config(requests=6000, replication=replication), instruments
            )
            engine.run(engine.default_plan(crashes=1))
            samples = instruments.shard_health_state.samples()
            assert len(samples) == 2 * replication  # slices x replicas
            assert {labels[0] for labels, _value in samples} == owners

    def test_catalogue_declares_every_resilience_series(self):
        from repro.telemetry.instruments import CATALOGUE

        views = {row.name: row.view for row in CATALOGUE}
        for name in (
            "serve_retries_total",
            "serve_hedges_total",
            "serve_failovers_total",
            "shard_health_state",
        ):
            assert views[name] == "resilience"
        # Expiry is counted engine-wide, not per replica worker.
        assert views["serve_deadline_expired_total"] is None


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"requests": 0},
            {"table_size": 0},
            {"deadline_ticks": 0},
            {"hedge_ticks": 0},
            {"max_retries": -1},
            {"retry_backoff": 0},
            {"service_ticks": 0},
            {"rebuild_ticks": 0},
            {"replication": 0},
            {"replication": MAX_REPLICATION + 1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            small_config(**kwargs)

    @pytest.mark.parametrize("config", [ServeConfig, ResilienceConfig])
    @pytest.mark.parametrize("field", ["policy", "partition", "method"])
    def test_rejects_unknown_choice(self, config, field):
        # An unknown policy used to run as block policy in the chaos
        # engine, and every unknown value used to pass ServeConfig.
        with pytest.raises(ValueError, match=field):
            config(**{field: "bogus"})

    @pytest.mark.parametrize("config", [ServeConfig, ResilienceConfig])
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_batch": 0}, "max_batch"),
            ({"max_wait": -1}, "max_wait"),
            ({"queue_capacity": 8, "max_batch": 16}, "capacity"),
            ({"rate": 0}, "rate"),
            ({"universe": 0}, "universe"),
            ({"zipf_alpha": -1}, "zipf_alpha"),
        ],
    )
    def test_rejects_bad_batch_and_load_knobs(self, config, kwargs, message):
        # Each used to pass construction and fail only once run() built
        # the batchers, after every shard was built and certified.
        with pytest.raises(ValueError, match=message):
            config(**kwargs)

    def test_as_dict_round_trips(self):
        config = small_config()
        snapshot = config.as_dict()
        assert snapshot["replication"] == 2
        assert snapshot["deadline_ticks"] == 32
        rebuilt = ResilienceConfig(**snapshot)
        assert rebuilt.as_dict() == snapshot


class TestCli:
    def test_chaos_subcommand_emits_payload(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_resilience.json"
        code = main(
            [
                "chaos",
                "--table-size", "300",
                "--requests", "6000",
                "--universe", "256",
                "--rate", "128",
                "--seed", "7",
                "--output", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["bench"] == "resilience"
        assert payload["chaos"]["audit"]["wrong_answers"] == 0
        assert payload["chaos"]["conservation"]["ok"]
        assert payload["chaos"]["totals"]["sustained_pps"] is not None
        captured = capsys.readouterr()
        assert "chaos:" in captured.err
