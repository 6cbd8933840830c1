"""Unit tests for the serving plane's coalescing and backpressure edges.

The batcher is the piece of the serving plane that trades latency for
throughput, so its edge cases are where the report numbers would silently
go wrong: empty batches must never be released, an oversize burst must
come back as several full batches, and every refused request must be
reported back to the caller, which sheds or holds it —
``completed + shed == offered`` is the engine's conservation law and it
starts here.
"""

import pytest

from repro.serve import BatchPolicy, RequestBatcher
from repro.serve.dispatch import ShardPlan


class TestBatchPolicy:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait=-1)
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=64, capacity=32)

    def test_defaults_are_consistent(self):
        policy = BatchPolicy()
        assert policy.capacity >= policy.max_batch


class TestCoalescing:
    def test_empty_queue_never_yields_a_batch(self):
        batcher = RequestBatcher(BatchPolicy(max_batch=4, max_wait=0))
        assert batcher.take_batch(0) is None
        assert batcher.take_batch(100) is None

    def test_full_batch_releases_immediately(self):
        batcher = RequestBatcher(BatchPolicy(max_batch=4, max_wait=10))
        batcher.offer([1, 2, 3, 4], [8, 8, 8, 8], tick=0)
        values, lens, ticks = batcher.take_batch(0)
        assert values.tolist() == [1, 2, 3, 4]
        assert lens.tolist() == [8, 8, 8, 8]
        assert ticks.tolist() == [0, 0, 0, 0]
        assert batcher.take_batch(0) is None

    def test_partial_batch_waits_for_max_wait(self):
        batcher = RequestBatcher(BatchPolicy(max_batch=4, max_wait=3))
        batcher.offer([7], [-1], tick=10)
        assert batcher.take_batch(10) is None
        assert batcher.take_batch(12) is None
        values, lens, ticks = batcher.take_batch(13)
        assert (values.tolist(), lens.tolist(), ticks.tolist()) == ([7], [-1], [10])

    def test_max_wait_zero_flushes_every_tick(self):
        batcher = RequestBatcher(BatchPolicy(max_batch=100, max_wait=0))
        batcher.offer([1, 2], [0, 0], tick=5)
        values, _lens, _ticks = batcher.take_batch(5)
        assert values.tolist() == [1, 2]

    def test_oversize_burst_releases_back_to_back_full_batches(self):
        batcher = RequestBatcher(BatchPolicy(max_batch=3, max_wait=5, capacity=16))
        batcher.offer(list(range(10)), [0] * 10, tick=0)
        sizes = []
        batch = batcher.take_batch(0)
        while batch is not None:
            sizes.append(len(batch[0]))
            batch = batcher.take_batch(0)
        # Three full batches now; the last partial waits for max_wait.
        assert sizes == [3, 3, 3]
        assert batcher.depth == 1
        values, _lens, _ticks = batcher.take_batch(5)
        assert values.tolist() == [9]

    def test_fifo_order_preserved_across_offers(self):
        batcher = RequestBatcher(BatchPolicy(max_batch=4, max_wait=0))
        batcher.offer([1, 2], [0, 0], tick=0)
        batcher.offer([3, 4], [0, 0], tick=1)
        values, _lens, ticks = batcher.take_batch(1)
        assert values.tolist() == [1, 2, 3, 4]
        assert ticks.tolist() == [0, 0, 1, 1]


class TestBackpressure:
    def test_block_refuses_the_tail_instead(self):
        batcher = RequestBatcher(BatchPolicy(max_batch=2, capacity=4))
        taken = batcher.offer(list(range(7)), [0] * 7, tick=0)
        assert taken == 4
        assert batcher.depth == 4
        assert batcher.accepted == 4
        # No room at all: nothing taken.
        assert batcher.offer([99], [0], tick=1) == 0

    def test_blocked_retry_keeps_original_arrival_ticks(self):
        batcher = RequestBatcher(BatchPolicy(max_batch=8, max_wait=0))
        batcher.offer([5, 6], [0, 0], tick=9, arrivals=[2, 3])
        _values, _lens, ticks = batcher.take_batch(9)
        assert ticks.tolist() == [2, 3]

    def test_conservation_under_heavy_shed(self):
        batcher = RequestBatcher(BatchPolicy(max_batch=4, capacity=8))
        offered = 0
        completed = 0
        shed = 0
        for tick in range(50):
            offered += 20
            # A shedding caller drops exactly the refused tail.
            shed += 20 - batcher.offer(list(range(20)), [0] * 20, tick=tick)
            batch = batcher.take_batch(tick)
            while batch is not None:
                completed += len(batch[0])
                batch = batcher.take_batch(tick)
        completed += sum(len(b[0]) for b in batcher.drain_all(50))
        assert completed + shed == offered

    def test_drain_all_empties_in_maximal_batches(self):
        batcher = RequestBatcher(BatchPolicy(max_batch=3, capacity=16))
        batcher.offer(list(range(8)), [0] * 8, tick=0)
        batches = batcher.drain_all(1)
        assert [len(b[0]) for b in batches] == [3, 3, 2]
        assert batcher.depth == 0
        assert batcher.drain_all(2) == []


class TestShardPlanEdges:
    def test_single_shard_owns_everything(self):
        plan = ShardPlan(1, "range")
        assert plan.shard_of(0) == 0
        assert plan.shard_of((1 << 32) - 1) == 0
        assert plan.shard_range(0) == (0, 1 << 32)

    def test_range_shards_partition_the_space(self):
        for shards in (2, 3, 4, 5, 8):
            plan = ShardPlan(shards, "range")
            edges = [plan.shard_range(s) for s in range(shards)]
            assert edges[0][0] == 0
            assert edges[-1][1] == 1 << 32
            for (_, hi), (lo, _) in zip(edges, edges[1:]):
                assert hi == lo
            for s, (lo, hi) in enumerate(edges):
                assert lo < hi
                assert plan.shard_of(lo) == s
                assert plan.shard_of(hi - 1) == s

    def test_hash_mode_spreads_and_replicates(self):
        from repro.addressing import Prefix

        plan = ShardPlan(4, "hash")
        owners = {plan.shard_of(value) for value in range(4096)}
        assert owners == {0, 1, 2, 3}
        assert plan.prefix_shards(Prefix(1, 8, 32)) == [0, 1, 2, 3]

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan(0)
        with pytest.raises(ValueError):
            ShardPlan(4, "modulo")
