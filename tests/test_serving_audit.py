"""The serving audit flags every way a recorded answer can be wrong.

Each case replays a small seeded serve or chaos run, checks that the
clean run audits to zero, then corrupts what the loop recorded for
served requests and calls :meth:`ServingLoop.audit`, which must count
exactly the requests the corruption touched:

* a result code that decodes to another receiver entry;
* a table epoch that decodes the code through another table;
* a degraded answer (the chaos run crashes its only replica of a
  slice, so some requests are answered from the full-table path);
* a next hop alone, under the right prefix;
* "no route" where the receiver has a route.

The audit compares whole answers, prefix and next hop, against the
receiver's longest-prefix match over every served request, so none of
these can hide behind a sample or a next-hop-only comparison.
"""

import numpy as np
import pytest

from repro.faults import ReplicaCrashEvent, ShardFaultPlan
from repro.resilience import SERVED, ChaosEngine, ResilienceConfig
from repro.serve import ServeConfig, ServeEngine


def _serve():
    config = ServeConfig(
        shards=3, table_size=400, requests=6000, universe=256, rate=256.0, seed=7
    )
    return ServeEngine(config), lambda: None


def _chaos():
    # The chaos-degraded golden's shape: one replica per slice, so the
    # crash leaves slice 0 with nothing to dispatch to.
    config = ResilienceConfig(
        shards=2,
        replication=1,
        table_size=300,
        requests=8000,
        universe=256,
        rate=128.0,
        seed=7,
    )
    return ChaosEngine(config), lambda: ShardFaultPlan(
        seed=1, crashes=[ReplicaCrashEvent(3, 0, 0, duration=10)]
    )


@pytest.fixture(scope="module")
def engines():
    return {"serve": _serve(), "chaos": _chaos()}


def _clean_run(engines, kind):
    """A fresh run that audits clean: ``(loop, state)``."""
    loop, plan = engines[kind]
    state, _elapsed = loop.run_ticks(plan())
    assert loop.audit(state) == (state.served, 0, [])
    return loop, state


@pytest.fixture(params=["serve", "chaos"])
def served(request, engines):
    return _clean_run(engines, request.param)


@pytest.fixture
def degraded_run(engines):
    return _clean_run(engines, "chaos")


def _first(state, mask):
    return int(np.flatnonzero((state.status == SERVED) & mask)[0])


def _routed(state):
    """The first served request a table epoch answered with a route."""
    return _first(state, (state.result_src >= 0) & (state.result_code >= 0))


def _answer(state, i):
    return state.tables[int(state.result_src[i])].decode(int(state.result_code[i]))


def test_a_corrupted_pool_code_is_wrong(served):
    loop, state = served
    i = _routed(state)
    right = _answer(state, i)
    pool = state.tables[int(state.result_src[i])].ctable.trie.pool
    state.result_code[i] = next(
        code
        for code in range(len(pool))
        if (pool.prefixes[code], pool.next_hops[code]) != right
    )
    checked, wrong, details = loop.audit(state)
    assert (checked, wrong) == (state.served, 1)
    assert details[0]["destination"] == int(loop._values[i])
    assert details[0]["want"] == repr(right)


def test_a_corrupted_epoch_is_wrong(served):
    loop, state = served
    i = _routed(state)
    right = _answer(state, i)
    code = int(state.result_code[i])
    state.result_src[i] = next(
        epoch
        for epoch, table in enumerate(state.tables)
        if code >= len(table.ctable.trie.pool) or table.decode(code) != right
    )
    assert loop.audit(state)[1] == 1


def test_a_wrong_next_hop_under_the_right_prefix_is_wrong(served):
    loop, state = served
    i = _routed(state)
    src, code = int(state.result_src[i]), int(state.result_code[i])
    touched = int(
        np.count_nonzero(
            (state.status == SERVED)
            & (state.result_src == src)
            & (state.result_code == code)
        )
    )
    pool = state.tables[src].ctable.trie.pool
    saved = pool.next_hops[code]
    pool.next_hops[code] = ("not", saved)
    try:
        checked, wrong, details = loop.audit(state)
    finally:
        pool.next_hops[code] = saved
    assert wrong == touched >= 1
    assert details[0]["got"] != details[0]["want"]


def test_no_route_where_a_route_exists_is_wrong(served):
    loop, state = served
    i = _routed(state)
    state.result_code[i] = -1
    assert loop.audit(state)[1] == 1


@pytest.mark.parametrize("corrupt", ["next-hop", "other-entry", "no-route"])
def test_a_corrupted_degraded_answer_is_wrong(degraded_run, corrupt):
    loop, state = degraded_run
    degraded = (state.status == SERVED) & (state.result_src == -1)
    i = _first(state, degraded)
    key = (int(loop._values[i]), int(loop._lens[i]))
    touched = int(
        np.count_nonzero(
            degraded & (loop._values == key[0]) & (loop._lens == key[1])
        )
    )
    prefix, next_hop = state.degraded_cache[key]
    assert prefix is not None
    other = next(entry for entry in loop.receiver_entries if entry[0] != prefix)
    state.degraded_cache[key] = {
        "next-hop": (prefix, ("not", next_hop)),
        "other-entry": other,
        "no-route": (None, None),
    }[corrupt]
    assert loop.audit(state)[1] == touched >= 1


def test_an_epoch_pointing_nowhere_is_wrong(served):
    loop, state = served
    i = _routed(state)
    state.result_src[i] = len(state.tables)
    assert loop.audit(state)[1] == 1
