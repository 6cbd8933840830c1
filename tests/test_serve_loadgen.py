"""The load generator's clue stamps, and its seeded determinism.

Every request carries the clue a well-formed upstream stamps: the
sender's BMP length for its destination.  The generator stamps its
universe with one ``searchsorted`` over the sender table's range
segments; here the per-entry sender-trie walk it replaced is the
reference, for two seeds at the universe sizes the serving benchmarks
use.
"""

import numpy as np
import pytest

from repro.addressing import IPV4_WIDTH, Address
from repro.resilience.engine import build_fixture
from repro.serve import ServeConfig


def trie_stamps(sender_trie, values):
    """One sender-trie walk per value: its BMP length, −1 for no match."""
    stamps = []
    for value in values:
        bmp = sender_trie.best_prefix(Address(int(value), IPV4_WIDTH))
        stamps.append(bmp.length if bmp is not None else -1)
    return stamps


def fixture(seed, universe):
    """``(sender_trie, loadgen)`` of the serving fixture."""
    config = ServeConfig(table_size=2000, seed=seed, universe=universe)
    _receiver, sender_trie, loadgen = build_fixture(config)
    return sender_trie, loadgen


@pytest.mark.parametrize("universe", [4096, 65536])
@pytest.mark.parametrize("seed", [1, 977])
def test_stamps_equal_the_sender_trie_walk(seed, universe):
    sender_trie, loadgen = fixture(seed, universe)
    values = loadgen.universe_values
    assert values.dtype == np.int64 and len(values) == universe
    assert loadgen.universe_lens.dtype == np.int64
    assert loadgen.universe_lens.tolist() == trie_stamps(sender_trie, values)


def test_same_seed_same_workload():
    sender_trie, first = fixture(7, 4096)
    _trie, second = fixture(7, 4096)
    workload = first.generate(20000)
    for again in (first.generate(20000), second.generate(20000)):
        for name in ("values", "clue_lens", "offsets"):
            assert np.array_equal(getattr(workload, name), getattr(again, name))
        assert again.burst_ticks == workload.burst_ticks
    assert workload.offsets[-1] == len(workload) == 20000
    # Each request carries the stamp of its own destination.
    assert workload.clue_lens.tolist() == trie_stamps(
        sender_trie, workload.values
    )
