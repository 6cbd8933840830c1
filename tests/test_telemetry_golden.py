"""Golden exports: every metric series the CLIs and engines render, byte for byte.

Each case runs one small seeded configuration and compares the text it
exports — the registry rendered as JSON or Prometheus — with the copy
stored in ``golden_telemetry.json`` beside this file.  The CLI cases run
in-process through :func:`repro.cli.main`; the serve and chaos cases
render a fresh registry after a seeded engine run, because neither CLI
exports its registry.

The same runs also pin the exports to the catalogue
(:data:`repro.telemetry.instruments.CATALOGUE`): every registry holds
exactly the table's series, in table order, each with its row's kind,
labels, help text and buckets — so no series is registered anywhere
but the table.

The stored texts are the reference, not the code under test.  After a
change that is *meant* to alter an export, rewrite them with
``PYTHONPATH=src python -m tests.test_telemetry_golden --write``.
"""

import contextlib
import functools
import io
import json
import os
import sys

import pytest

from repro import cli
from repro.resilience import ChaosEngine, ResilienceConfig
from repro.serve import ServeConfig, ServeEngine
from repro.telemetry import (
    LookupInstruments,
    MetricsRegistry,
    render_json,
    render_prometheus,
)
from repro.telemetry.instruments import CATALOGUE

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_telemetry.json")

ENGINE_CONFIG = dict(table_size=300, requests=3000, universe=128, seed=5)


def _cli(*argv):
    """stdout of one in-process ``repro-clue`` run (which must exit 0)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(list(argv))
    assert status == 0, "%s exited %d" % (" ".join(argv), status)
    return out.getvalue()


@functools.lru_cache(maxsize=None)
def _serve_registry():
    registry = MetricsRegistry()
    ServeEngine(ServeConfig(**ENGINE_CONFIG), LookupInstruments(registry)).run()
    return registry


@functools.lru_cache(maxsize=None)
def _chaos_registry():
    registry = MetricsRegistry()
    engine = ChaosEngine(
        ResilienceConfig(**ENGINE_CONFIG), instruments=LookupInstruments(registry)
    )
    engine.bench(engine.default_plan())
    return registry


CASES = {
    "telemetry-synthetic-json": lambda: _cli(
        "telemetry", "--synthetic", "--packets", "4", "--count", "150"
    ),
    "telemetry-synthetic-prom": lambda: _cli(
        "telemetry", "--synthetic", "--packets", "4", "--count", "150",
        "--format", "prom",
    ),
    "churn-prom": lambda: _cli("churn", "--seed", "3", "--epochs", "10", "--format", "prom"),
    "faults-prom": lambda: _cli("faults", "--seed", "7", "--rounds", "4", "--format", "prom"),
    "control-quick-prom": lambda: _cli("control", "--quick", "--format", "prom"),
    "serve-json": lambda: render_json(_serve_registry()),
    "serve-prom": lambda: render_prometheus(_serve_registry()),
    "chaos-json": lambda: render_json(_chaos_registry()),
    "chaos-prom": lambda: render_prometheus(_chaos_registry()),
}


@functools.lru_cache(maxsize=None)
def export(name):
    """One case's export text, computed once per session."""
    return CASES[name]()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(CASES))
def test_export_matches_golden(name, golden):
    got = export(name).splitlines()
    want = golden[name].splitlines()
    diff = [
        "line %d: %r != %r" % (number + 1, left, right)
        for number, (left, right) in enumerate(zip(got, want))
        if left != right
    ]
    assert not diff and len(got) == len(want), "%s differs (%d vs %d lines): %s" % (
        name, len(got), len(want), "; ".join(diff[:5])
    )


@pytest.mark.parametrize(
    "make", [_serve_registry, _chaos_registry], ids=["serve", "chaos"]
)
def test_registry_is_the_catalogue_in_table_order(make):
    registry = make()
    assert registry.names() == [row.name for row in CATALOGUE]
    for row in CATALOGUE:
        metric = registry.get(row.name)
        assert (metric.kind, metric.label_names, metric.help) == (
            row.kind, row.labels, row.help
        ), row.name
        assert getattr(metric, "buckets", ()) == row.buckets, row.name


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.endswith("-prom")))
def test_prometheus_headers_are_the_catalogue(name):
    want = []
    for row in CATALOGUE:
        want += ["# HELP %s %s" % (row.name, row.help), "# TYPE %s %s" % (row.name, row.kind)]
    assert [line for line in export(name).splitlines() if line.startswith("# ")] == want


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.endswith("-json")))
def test_json_metrics_are_the_catalogue_rows(name):
    metrics = json.loads(export(name))["metrics"]
    assert sorted(metrics) == sorted(row.name for row in CATALOGUE)
    for row in CATALOGUE:
        entry = metrics[row.name]
        assert (entry["type"], entry["labels"], entry["help"]) == (
            row.kind, list(row.labels), row.help
        ), row.name
        assert entry.get("buckets", []) == list(row.buckets), row.name


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(GOLDEN, "w") as handle:
        json.dump({name: export(name) for name in sorted(CASES)}, handle, indent=1, sort_keys=True)
        handle.write("\n")
