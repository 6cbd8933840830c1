"""Property tests: conservation and ordering in the batched plane.

Two ledgers must balance no matter what traffic does:

* the batcher's — every offered request is accepted or refused, and
  every accepted request is either still queued or was released
  (``accepted = released + depth``), under any interleaving of offers,
  takes, and drains;
* the replica plan's — every destination's candidate list is a
  permutation of the replica set, so failover can always reach every
  copy of the slice.

Plus the blocked-backlog regression: under ``block`` policy the serving
loop re-offers refused requests *before* new arrivals each tick, so the
arrival ticks each shard's kernel sees never go backwards.
"""

from hypothesis import given, settings, strategies as st

from repro.resilience import ReplicaPlan
from repro.serve import BatchPolicy, RequestBatcher, ShardPlan
from repro.serve.engine import ServeConfig, ServeEngine

# One step of batcher traffic: how many requests arrive, then whether
# the consumer drains due batches this tick.
steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


@given(
    steps,
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=200, deadline=None)
def test_batcher_conserves_every_request(traffic, max_batch, max_wait):
    batcher = RequestBatcher(
        BatchPolicy(
            max_batch=max_batch,
            max_wait=max_wait,
            capacity=max(max_batch, 16),
        )
    )
    offered = 0
    refused = 0
    taken_out = 0
    for tick, (count, consume) in enumerate(traffic):
        values = list(range(count))
        accepted = batcher.offer(values, values, tick)
        offered += count
        assert 0 <= accepted <= count
        refused += count - accepted
        if consume:
            batch = batcher.take_batch(tick)
            while batch is not None:
                assert len(batch[0]) <= max_batch
                taken_out += len(batch[0])
                batch = batcher.take_batch(tick)
        # The ledger balances at every step, not just at the end.
        assert batcher.accepted == offered - refused
        assert batcher.accepted == batcher.released + batcher.depth
        assert taken_out == batcher.released
    for batch in batcher.drain_all(len(traffic)):
        taken_out += len(batch[0])
    assert batcher.depth == 0
    assert batcher.released == taken_out
    assert offered == batcher.released + refused


@given(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(("range", "hash")),
)
@settings(max_examples=250, deadline=None)
def test_replica_candidates_are_a_permutation(value, replication, mode):
    rplan = ReplicaPlan(ShardPlan(4, mode), replication)
    candidates = rplan.candidates(value)
    assert sorted(candidates) == list(range(replication))
    assert candidates[0] == rplan.rotation_of(value)


def test_blocked_backlog_preserves_arrival_order():
    """Block-policy re-offers keep per-shard arrival ticks monotone.

    A tiny queue forces constant refusals; the engine must still hand
    every shard's kernel its requests oldest-arrival-first, because the
    backlog is re-offered before the current tick's arrivals.
    """
    config = ServeConfig(
        shards=2,
        policy="block",
        table_size=200,
        requests=6000,
        max_batch=16,
        max_wait=2,
        queue_capacity=16,
        universe=256,
        rate=96.0,
        seed=11,
    )
    engine = ServeEngine(config)
    seen = {}
    original = engine._release_one

    def spy(state, worker, idxs, now, plan):
        arrivals = [int(engine._arrival[i]) for i in idxs]
        assert arrivals == sorted(arrivals)
        history = seen.setdefault(worker.slice_id, [])
        if history:
            assert arrivals[0] >= history[-1]
        history.extend(arrivals)
        return original(state, worker, idxs, now, plan)

    engine._release_one = spy
    report = engine.run()
    assert seen, "spy never saw a batch"
    totals = report.as_dict()["totals"]
    # Block policy never drops: everything offered completes.
    assert totals["completed"] == totals["offered"]
    assert totals["shed"] == 0
