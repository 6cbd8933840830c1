"""End-to-end tests for the sharded serving engine and its CLI.

The engine's contract: seeded runs replay bit-identically (the whole
``BENCH_serve.json`` payload, not just totals), the conservation law
``completed + shed == offered`` holds under both backpressure policies,
the audit checks every served answer and finds zero disagreements
between the sharded path and the receiver's longest-prefix match, a
second run of one engine reports the same payload as the first, the
``serve_*`` series match the payload, and the CLI exposes all of it
with the wall clock injected only at the very top (RC103).
"""

import json

import pytest

from repro.cli import main
from repro.resilience import SERVED
from repro.serve import ServeConfig, ServeEngine
from repro.telemetry import LookupInstruments, MetricsRegistry


def small_config(**overrides):
    base = dict(
        shards=3,
        table_size=400,
        requests=6000,
        universe=256,
        rate=256.0,
        seed=7,
    )
    base.update(overrides)
    return ServeConfig(**base)


@pytest.fixture(scope="module")
def small_report():
    return ServeEngine(small_config()).run().as_dict()


class TestEngineRun:
    def test_completes_every_request_without_pressure(self, small_report):
        totals = small_report["totals"]
        assert totals["offered"] == 6000
        assert totals["completed"] == 6000
        assert totals["shed"] == 0
        assert totals["batches"] > 0

    def test_latency_percentiles_are_exact_ticks(self, small_report):
        latency = small_report["latency"]
        assert latency["count"] == 6000
        assert latency["unit"] == "ticks"
        for key in ("p50", "p99", "p999"):
            assert isinstance(latency[key], int)
        assert 0 <= latency["p50"] <= latency["p99"] <= latency["p999"]
        assert latency["p999"] <= latency["max"]

    def test_audit_is_clean_and_certification_counted(self, small_report):
        # Every served answer is audited, not a sample.
        assert small_report["audit"]["checked"] == (
            small_report["totals"]["completed"]
        )
        assert small_report["audit"]["disagreements"] == 0
        assert small_report["certification"]["lanes"] > 0
        assert small_report["certification"]["disagreements"] == 0

    def test_every_shard_served_and_counts_reconcile(self, small_report):
        shards = small_report["shards"]
        assert len(shards) == 3
        assert all(shard["requests"] > 0 for shard in shards)
        assert (
            sum(shard["requests"] for shard in shards)
            == small_report["totals"]["completed"]
        )

    def test_no_clock_means_no_wall_figures(self, small_report):
        assert small_report["totals"]["elapsed_s"] is None
        assert small_report["totals"]["sustained_pps"] is None

    def test_injected_clock_fills_in_pps(self):
        ticks = iter(range(1000))
        # A fake monotonic clock: the engine must never read time itself.
        report = ServeEngine(small_config(requests=500)).run(
            clock=lambda: float(next(ticks))
        )
        totals = report.as_dict()["totals"]
        assert totals["elapsed_s"] is not None
        assert totals["sustained_pps"] is not None


class TestDeterminism:
    def test_same_seed_same_payload(self):
        first = ServeEngine(small_config()).run().as_dict()
        second = ServeEngine(small_config()).run().as_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_different_seed_different_workload(self, small_report):
        other = ServeEngine(small_config(seed=8)).run().as_dict()
        assert (
            other["latency"] != small_report["latency"]
            or other["totals"]["ticks"] != small_report["totals"]["ticks"]
        )


class TestBackpressurePolicies:
    def test_shed_conserves_and_counts(self):
        config = small_config(
            policy="shed",
            max_batch=16,
            queue_capacity=16,
            rate=2048.0,
        )
        totals = ServeEngine(config).run().as_dict()["totals"]
        assert totals["shed"] > 0
        assert totals["completed"] + totals["shed"] == totals["offered"]

    def test_block_never_drops(self):
        config = small_config(
            policy="block",
            max_batch=16,
            queue_capacity=32,
            rate=2048.0,
        )
        report = ServeEngine(config).run()
        totals = report.as_dict()["totals"]
        assert totals["shed"] == 0
        assert totals["completed"] == totals["offered"]
        assert report.passed()

    def test_blocking_shows_up_as_latency(self):
        relaxed = small_config(rate=512.0)
        squeezed = small_config(
            policy="block",
            max_batch=16,
            queue_capacity=16,
            rate=2048.0,
        )
        fast = ServeEngine(relaxed).run().as_dict()["latency"]
        slow = ServeEngine(squeezed).run().as_dict()["latency"]
        assert slow["p99"] > fast["p99"]


class TestPartitionModes:
    @pytest.mark.parametrize("partition", ["range", "hash"])
    @pytest.mark.parametrize("method", ["advance", "simple"])
    def test_modes_and_methods_audit_clean(self, partition, method):
        config = small_config(
            partition=partition,
            method=method,
            requests=2000,
        )
        report = ServeEngine(config).run()
        assert report.passed()
        assert report.as_dict()["totals"]["completed"] == 2000

    @pytest.mark.parametrize("layout", ["multibit4", "multibit8"])
    def test_multibit_layouts_audit_clean(self, layout):
        # Same workload, stride layout: every shard certifies both the
        # served layout and its dense base, and the live audit agrees
        # with the receiver's LPM on every served request.
        config = small_config(requests=2000, layout=layout)
        report = ServeEngine(config).run()
        assert report.passed()
        payload = report.as_dict()
        assert payload["config"]["layout"] == layout
        assert payload["totals"]["completed"] == 2000
        # The answers must match the dense run request for request.
        dense = ServeEngine(small_config(requests=2000)).run().as_dict()
        assert payload["audit"]["disagreements"] == 0
        assert dense["totals"]["completed"] == payload["totals"]["completed"]

    def test_rejects_unknown_layout(self):
        with pytest.raises(ValueError):
            small_config(layout="multibit16")


class TestServeCli:
    def test_cli_writes_payload_and_exits_zero(self, tmp_path, capsys):
        output = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "serve",
                "--shards", "2",
                "--table-size", "300",
                "--requests", "2000",
                "--universe", "128",
                "--output", str(output),
            ]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["bench"] == "serve"
        assert payload["audit"]["disagreements"] == 0
        assert payload["totals"]["sustained_pps"] is not None
        assert payload["latency"]["p999"] is not None
        err = capsys.readouterr().err
        assert "sustained" in err and "audit" in err

    def test_cli_quick_clamps_scale(self, tmp_path):
        output = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "serve",
                "--quick",
                "--requests", "3000",
                "--table-size", "300",
                "--universe", "128",
                "--output", str(output),
            ]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["config"]["table_size"] <= 2000
        assert payload["config"]["requests"] <= 120000

    def test_cli_rejects_bad_partition(self):
        with pytest.raises(SystemExit):
            main(["serve", "--partition", "modulo"])


BLOCK_PRESSURE = dict(policy="block", max_batch=16, queue_capacity=32, rate=2048.0)


class TestLatencyTally:
    def test_grouped_tally_equals_per_request_loop(self):
        # One bincount over completion minus arrival ticks, against a
        # per-request count of the same run.
        loop = ServeEngine(small_config(**BLOCK_PRESSURE))
        state, _elapsed = loop.run_ticks()
        looped = {}
        for i, status in enumerate(state.status):
            if status == SERVED:
                waited = int(state.done[i]) - int(loop._arrival[i])
                looped[waited] = looped.get(waited, 0) + 1
        assert loop.latency_counts(state) == looped

    def test_block_policy_multi_tick_batches_match_per_request(self):
        # A batch spanning several arrival ticks commits in one array
        # write; each request must still wait from its own arrival tick
        # to the tick its batch committed, counted here request by request.
        loop = ServeEngine(small_config(**BLOCK_PRESSURE))
        spans = []
        committed = {}
        original = loop._commit

        def spy(state, flight, now):
            spans.append(len(set(loop._arrival[flight.indices].tolist())))
            for i in flight.indices.tolist():
                committed.setdefault(i, now)
            return original(state, flight, now)

        loop._commit = spy
        state, _elapsed = loop.run_ticks()
        looped = {}
        for i, tick in committed.items():
            waited = tick - int(loop._arrival[i])
            looped[waited] = looped.get(waited, 0) + 1
        assert loop.latency_counts(state) == looped
        assert state.served == len(committed) == len(state.status)
        assert max(spans) > 1  # some batch really spans several ticks


class TestRepeatRuns:
    """A second run of one engine reports exactly what the first did."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"max_batch": 16, "queue_capacity": 16, "rate": 2048.0},
            {"partition": "hash", "method": "simple"},
        ],
        ids=["default", "shed-pressure", "hash-simple"],
    )
    def test_second_run_repeats_the_first(self, overrides):
        engine = ServeEngine(small_config(**overrides))
        first = engine.run().as_dict()
        second = engine.run().as_dict()
        # Per-shard request and batch counts are per run, like ``shed``.
        assert sum(row["requests"] for row in second["shards"]) == (
            second["totals"]["completed"]
        )
        assert first == second


class TestTelemetry:
    def test_serve_series_match_the_payload(self):
        instruments = LookupInstruments(MetricsRegistry())
        config = small_config(max_batch=16, queue_capacity=16, rate=2048.0)
        payload = ServeEngine(config, instruments).run().as_dict()
        assert payload["totals"]["shed"] > 0
        for row in payload["shards"]:
            label = (str(row["shard_id"]),)
            assert instruments.serve_requests.value(label) == row["requests"]
            assert instruments.serve_batches.value(label) == row["batches"]
            assert instruments.serve_shed.value(label) == row["shed"]
            assert instruments.serve_queue_depth.value(label) == 0
        # Plain serving binds no resilience series.
        for series in (
            instruments.serve_retries,
            instruments.serve_hedges,
            instruments.serve_failovers,
            instruments.serve_deadline_expired,
            instruments.shard_health_state,
        ):
            assert series.samples() == []
