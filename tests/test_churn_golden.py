"""Golden payloads: seeded churn, control and faults reports, pinned byte for byte.

Each case runs one small seeded configuration of the audited fabric —
route updates folded into router tables, base lookups, overlays and
maintained clue tables, or faults injected into a guarded data path —
and compares its whole report with the copy stored in
``golden_churn.json`` beside this file.  No report carries a wall-clock
field.  The cases cover every technique the ``churn`` CLI accepts, a
budgeted rebuild that leaves a backlog across epochs, the SPF-fed delta
feed of ``control --quick`` at both trie techniques and under several
crashes in one tick, the ``faults`` engine at each guard policy, and a
small ``experiments.faults`` sweep.

The stored payloads are the reference, not the code under test.  After
a change that is *meant* to alter a payload, rewrite them with
``PYTHONPATH=src python -m tests.test_churn_golden --write``.
"""

import json
import os
import sys

import pytest

from repro.churn import ChurnEngine, ChurnProfile, build_churn_scenario
from repro.control import ControlEngine, build_control_scenario
from repro.experiments import fault_sweep
from repro.faults import FaultEngine, GuardPolicy, build_fault_scenario
from tests.test_serving_golden import differing_keys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_churn.json")


def _churn(technique, rebuild_budget=None):
    """``repro churn`` at a small size, as the CLI assembles it."""
    network, stream = build_churn_scenario(
        routers=4,
        per_node=15,
        seed=3,
        technique=technique,
        profile=ChurnProfile(burst_mean=6.0, locality=0.6, flap_fraction=0.25),
    )
    engine = ChurnEngine(
        network, stream, rebuild_budget=rebuild_budget, audit_every=4, seed=3
    )
    return engine.run(12, traffic_per_epoch=8).as_dict()


def _control(technique):
    """``repro control --quick`` (seed 0), as the CLI assembles it."""
    ticks = 80
    scenario = build_control_scenario(
        routers=12,
        per_node=6,
        seed=0,
        technique=technique,
        ticks=ticks,
        flaps=2,
        crashes=1,
        cost_changes=2,
        hello_interval=1,
        dead_interval=4,
        retransmit_interval=2,
    )
    report = ControlEngine(
        scenario.network,
        scenario.plane,
        scenario.plan,
        cost_changes=scenario.cost_changes,
        seed=0,
    ).run(ticks, 6)
    payload = {"scenario": scenario.config}
    payload.update(report.as_dict())
    return payload


def _control_multi_crash():
    """Four crashes over 60 ticks; at tick 17 two routers crash at once."""
    scenario = build_control_scenario(
        routers=8, per_node=3, seed=0, ticks=60, crashes=4, flaps=2
    )
    engine = ControlEngine(
        scenario.network,
        scenario.plane,
        scenario.plan,
        cost_changes=scenario.cost_changes,
        seed=0,
    )
    payload = {"scenario": scenario.config}
    payload.update(engine.run(60, 6).as_dict())
    return payload


def _faults(guard_policy):
    """``repro faults`` under every injector, a crash and a link-down."""
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
    engine = FaultEngine(
        network,
        plan,
        guard_policy=guard_policy,
        seed=11,
        hard_invariant=False if guard_policy is None else None,
    )
    return engine.run(6, 40).as_dict()


def _fault_sweep():
    points = fault_sweep(
        [0.0, 0.1], routers=4, per_node=15, rounds=4, traffic_per_round=20, seed=3
    )
    return [[point.parameter, point.metrics] for point in points]


CASES = {
    "churn-patricia": lambda: _churn("patricia"),
    "churn-regular": lambda: _churn("regular"),
    "churn-binary": lambda: _churn("binary"),
    "churn-6way": lambda: _churn("6way"),
    "churn-patricia-budget": lambda: _churn("patricia", rebuild_budget=3),
    "control-quick-patricia": lambda: _control("patricia"),
    "control-quick-regular": lambda: _control("regular"),
    "control-multi-crash": _control_multi_crash,
    "faults-quarantine": lambda: _faults(GuardPolicy()),
    "faults-guard": lambda: _faults(GuardPolicy(quarantine_enabled=False)),
    "faults-off": lambda: _faults(None),
    "fault-sweep": _fault_sweep,
}


def payload(name):
    # A JSON round trip gives the stored form: tuples become lists.
    return json.loads(json.dumps(CASES[name]()))


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


def test_budgeted_case_leaves_a_backlog(golden):
    # The budget case must carry a deferred backlog across epochs.
    epochs = golden["churn-patricia-budget"]["epochs"]
    assert any(epoch["pending_after"] for epoch in epochs)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(GOLDEN, "w") as handle:
        json.dump({name: payload(name) for name in sorted(CASES)}, handle, indent=1, sort_keys=True)
        handle.write("\n")
