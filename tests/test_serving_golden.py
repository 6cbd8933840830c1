"""Golden payloads: seeded serve and chaos reports, pinned byte for byte.

Each case runs one small seeded configuration and compares its whole
payload with the copy stored in ``golden_serving.json`` beside this
file, after dropping the two wall-clock fields (``elapsed_s`` and
``sustained_pps``) at every depth.  The cases cover the paths a change
to the tick loop can silently move: shed and block backpressure, hash
partitioning with the Simple method, a multibit layout, the degraded
path, requests carried twice in one batch, deadline expiry and a
replicated block-policy backlog.

The stored payloads are the reference, not the code under test.  After
a change that is *meant* to alter a payload, rewrite them with
``PYTHONPATH=src python tests/test_serving_golden.py --write``.
"""

import json
import os
import sys

import pytest

from repro.faults import ReplicaCrashEvent, ShardFaultPlan, SlowReplicaEvent
from repro.resilience import ChaosEngine, ResilienceConfig
from repro.serve import ServeConfig, ServeEngine

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_serving.json")
WALL_CLOCK = ("elapsed_s", "sustained_pps")


def _serve(**overrides):
    config = dict(
        shards=3,
        table_size=400,
        requests=6000,
        universe=256,
        rate=256.0,
        seed=7,
    )
    config.update(overrides)
    return ServeEngine(ServeConfig(**config)).run().as_dict()


def _chaos(plan=None, **overrides):
    config = dict(
        shards=2,
        replication=2,
        table_size=300,
        requests=8000,
        universe=256,
        rate=128.0,
        seed=7,
    )
    config.update(overrides)
    engine = ChaosEngine(ResilienceConfig(**config))
    if callable(plan):
        plan = plan(engine)
    return engine.bench(plan).as_dict()


def _slow_everywhere(engine):
    return ShardFaultPlan(
        seed=1,
        slowdowns=[
            SlowReplicaEvent(1, s, r, duration=40, extra_ticks=30)
            for s in range(2)
            for r in range(2)
        ],
    )


CASES = {
    "serve-default": lambda: _serve(),
    "serve-shed-pressure": lambda: _serve(
        max_batch=16, queue_capacity=16, rate=2048.0
    ),
    "serve-block-pressure": lambda: _serve(
        policy="block", max_batch=16, queue_capacity=32, rate=2048.0
    ),
    "serve-hash-simple": lambda: _serve(partition="hash", method="simple"),
    "serve-multibit8": lambda: _serve(layout="multibit8"),
    "chaos-default-plan": lambda: _chaos(),
    "chaos-degraded": lambda: _chaos(
        ShardFaultPlan(seed=1, crashes=[ReplicaCrashEvent(3, 0, 0, duration=10)]),
        replication=1,
    ),
    "chaos-hedge-duplicates": lambda: _chaos(
        lambda engine: engine.default_plan(crashes=2, slowdowns=2, drops=3, seed=1),
        hedge_ticks=2,
    ),
    "chaos-deadline-expiry": lambda: _chaos(
        _slow_everywhere, deadline_ticks=3, hedge_ticks=1
    ),
    "chaos-block-r3": lambda: _chaos(
        lambda engine: engine.default_plan(crashes=2, slowdowns=2, drops=2, seed=3),
        replication=3,
        policy="block",
        queue_capacity=256,
        max_batch=64,
        rate=512.0,
    ),
}


def strip_wall_clock(value):
    """``value`` without the wall-clock fields, at every depth."""
    if isinstance(value, dict):
        return {
            key: strip_wall_clock(item)
            for key, item in value.items()
            if key not in WALL_CLOCK
        }
    if isinstance(value, list):
        return [strip_wall_clock(item) for item in value]
    return value


def differing_keys(got, want, path=""):
    """Dotted paths where two JSON values differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        out = []
        for key in sorted(set(got) | set(want), key=str):
            out.extend(
                differing_keys(got.get(key), want.get(key), "%s.%s" % (path, key))
            )
        return out
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        out = []
        for index, (left, right) in enumerate(zip(got, want)):
            out.extend(differing_keys(left, right, "%s[%d]" % (path, index)))
        return out
    return [] if got == want else [path or "."]


def payload(name):
    # A JSON round trip gives the stored form: tuples become lists.
    return json.loads(json.dumps(strip_wall_clock(CASES[name]())))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_matches_golden(name, golden):
    got = payload(name)
    want = golden[name]
    diff = differing_keys(got, want)
    assert not diff, "%s differs at %s" % (name, ", ".join(diff[:20]))


def test_differing_keys_names_the_paths():
    got = {"a": 1, "b": [1, {"c": 2}], "d": 3}
    want = {"a": 1, "b": [1, {"c": 4}], "e": 3}
    assert differing_keys(got, want) == [".b[1].c", ".d", ".e"]


def test_strip_wall_clock_reaches_every_depth():
    value = {"elapsed_s": 1.0, "runs": [{"totals": {"sustained_pps": 2, "served": 3}}]}
    assert strip_wall_clock(value) == {"runs": [{"totals": {"served": 3}}]}


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(GOLDEN, "w") as handle:
        json.dump({name: payload(name) for name in sorted(CASES)}, handle, indent=1, sort_keys=True)
        handle.write("\n")
