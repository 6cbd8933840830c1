"""Compilation layer: object graph → flat arrays (repro.fastpath.compile)."""

import numpy as np
import pytest

from repro.addressing import Prefix
from repro.core.advance import AdvanceMethod
from repro.core.entry import ClueEntry
from repro.core.lookup import ClueAssistedLookup
from repro.core.receiver import ReceiverState
from repro.core.simple import SimpleMethod
from repro.core.table import ClueTable
from repro.fastpath import (
    LAYOUTS,
    STRIDES,
    CompiledTrie,
    FastpathUnsupported,
    ResultPool,
    certify_clue,
    compile_clue_table,
    compile_layout,
    compile_trie,
)
from repro.lookup.regular import RegularTrieLookup
from repro.lookup.restricted import SetContinuation
from repro.tablegen import DEFAULT_IPV6_HISTOGRAM, generate_table
from repro.trie.binary_trie import BinaryTrie


def small_trie(width=32):
    trie = BinaryTrie(width)
    trie.insert(Prefix(0b1010, 4, width), "a")
    trie.insert(Prefix(0b10100110, 8, width), "b")
    trie.insert(Prefix(0b0, 1, width), "c")
    return trie


# ----------------------------------------------------------------------
# ResultPool
# ----------------------------------------------------------------------
def test_pool_interns_and_dedupes():
    pool = ResultPool()
    p = Prefix(0b101, 3, 32)
    first = pool.intern(p, "hop")
    again = pool.intern(p, "hop")
    other = pool.intern(p, "other-hop")
    assert first == again
    assert other != first
    assert pool.prefixes[first] == p
    assert pool.next_hops[other] == "other-hop"
    assert pool.lengths[first] == 3
    assert len(pool) == 2


def test_pool_accepts_unhashable_next_hops():
    pool = ResultPool()
    p = Prefix(1, 1, 32)
    payload = ["not", "hashable"]
    code = pool.intern(p, payload)
    assert pool.next_hops[code] is payload
    # Un-deduped, but still decodable.
    assert pool.intern(p, payload) != code


def test_pool_lengths_array_tracks_growth():
    pool = ResultPool()
    pool.intern(Prefix(0, 2, 32), "x")
    first = pool.lengths_array()
    assert list(first) == [2]
    pool.intern(Prefix(0, 7, 32), "y")
    assert list(pool.lengths_array()) == [2, 7]


# ----------------------------------------------------------------------
# CompiledTrie
# ----------------------------------------------------------------------
def test_compiled_trie_mirrors_structure():
    trie = small_trie()
    ctrie = compile_trie(trie)
    # Every trie vertex got a dense id; the root is id 0.
    assert ctrie.size == len(list(trie.nodes()))
    assert ctrie.node_index[trie.root.prefix] == 0
    # Child pointers land inside the table and reach every vertex.
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for bit in (0, 1):
            branch = int(ctrie.child[2 * node + bit])
            if branch >= 0:
                assert 0 <= branch < ctrie.size
                assert branch not in reached
                reached.add(branch)
                frontier.append(branch)
    assert reached == set(range(ctrie.size))
    # Marked vertices carry a pool code decoding to their payload.
    marked = 0
    for node in trie.nodes():
        code = int(ctrie.node_result[ctrie.node_index[node.prefix]])
        if node.marked:
            marked += 1
            assert ctrie.pool.prefixes[code] == node.prefix
            assert ctrie.pool.next_hops[code] == node.next_hop
        else:
            assert code == -1
    assert marked == 3


def test_compiled_trie_empty_and_root_result():
    empty = compile_trie(BinaryTrie(32))
    assert empty.size == 1
    assert empty.root_result == -1

    default_only = BinaryTrie(32)
    default_only.insert(Prefix(0, 0, 32), "default")
    ctrie = compile_trie(default_only)
    assert ctrie.root_result >= 0
    assert ctrie.pool.next_hops[ctrie.root_result] == "default"


def test_lane_dtype_follows_width():
    """Trie arrays are int64 at every width; probe keys are int64 at
    width 32 and object at width 128 — even for a table whose only clue
    has length 0, whose key fits int64 while the lanes' keys do not."""
    for width, key_dtype in ((32, np.int64), (128, object)):
        entries = [(Prefix(0, 0, width), "d"), (Prefix(1, 8, width), "w")]
        receiver = ReceiverState(entries, width)
        table = SimpleMethod(receiver, "regular").build_table(
            [Prefix(0, 0, width)]
        )
        ctable = compile_clue_table(table, receiver.trie)
        assert ctable.trie.child.dtype == np.int64
        assert ctable.trie.node_result.dtype == np.int64
        assert ctable.probe_keys.dtype == key_dtype
        scalar = ClueAssistedLookup(RegularTrieLookup(entries, width), table)
        destinations = [1 << (width - 8), 0, (1 << width) - 1]
        # Three full-lookup lanes, then three clue lanes.
        assert certify_clue(ctable, scalar, destinations, [0, 0, 0]) == 6


def test_shared_pool_between_trie_and_tables():
    trie = small_trie()
    receiver = ReceiverState(
        [(node.prefix, node.next_hop) for node in trie.nodes() if node.marked]
    )
    builder = SimpleMethod(receiver, "regular")
    table = builder.build_table(list(trie.prefixes()))
    ctrie = compile_trie(receiver.trie)
    ctable = compile_clue_table(table, ctrie)
    assert ctable.trie is ctrie
    # And compiling from the raw BinaryTrie works too.
    other = compile_clue_table(table, receiver.trie)
    assert isinstance(other.trie, CompiledTrie)


# ----------------------------------------------------------------------
# CompiledClueTable edge cases
# ----------------------------------------------------------------------
def test_inactive_entries_are_omitted():
    trie = small_trie()
    receiver = ReceiverState([(Prefix(0b1010, 4, 32), "a")])
    builder = SimpleMethod(receiver, "regular")
    table = builder.build_table(list(trie.prefixes()))
    live = compile_clue_table(table, receiver.trie)
    for entry in table.entries():
        entry.deactivate()
        break
    dead = compile_clue_table(table, receiver.trie)
    assert dead.records == live.records - 1


def test_foreign_continuation_is_unsupported():
    table = ClueTable()
    clue = Prefix(0b1, 1, 32)
    table.insert(
        ClueEntry(
            clue,
            None,
            None,
            continuation=SetContinuation([(Prefix(0b11, 2, 32), "s")], 32),
        )
    )
    with pytest.raises(FastpathUnsupported):
        compile_clue_table(table, BinaryTrie(32))


def test_clue_width_mismatch_is_unsupported():
    table = ClueTable()
    table.insert(ClueEntry(Prefix(0, 4, 128), Prefix(0, 0, 128), "d"))
    with pytest.raises(FastpathUnsupported):
        compile_clue_table(table, BinaryTrie(32))


def test_empty_table_compiles_to_zero_records():
    ctable = compile_clue_table(ClueTable(), BinaryTrie(32))
    assert ctable.records == 0
    assert len(ctable.probe_keys) == 0
    assert len(ctable.probe_recs) == 0


# ----------------------------------------------------------------------
# publication: every compiled array is read-only
# ----------------------------------------------------------------------
CLUE_TABLE_ARRAYS = (
    "probe_keys",
    "probe_recs",
    "rec_fd",
    "rec_cont_node",
    "rec_cont_depth",
    "rec_stop_row",
    "stop_masks",
)


def published_arrays(width, layout):
    """``(name, array)`` for every array a Simple and an Advance table
    publish over one compiled ``layout`` at ``width``, the pool's
    lengths before and after the tables intern into it included."""
    histogram = DEFAULT_IPV6_HISTOGRAM if width == 128 else None
    sender = generate_table(120, seed=7, histogram=histogram, width=width)
    receiver = ReceiverState(sender[::2] + sender[1::4], width)
    sender_trie = BinaryTrie.from_prefixes(sender, width)
    lay = compile_layout(receiver.trie, layout)
    base = getattr(lay, "base", lay)
    arrays = [("trie.child", base.child), ("trie.node_result", base.node_result)]
    if layout in STRIDES:
        arrays += [("layout.slots", lay.slots), ("layout.leaf_codes", lay.leaf_codes)]
    arrays.append(("pool.lengths (trie)", base.pool.lengths_array()))
    clues = list(sender_trie.prefixes())
    for name, builder in (
        ("simple", SimpleMethod(receiver, "regular")),
        ("advance", AdvanceMethod(sender_trie, receiver, "regular")),
    ):
        ctable = compile_clue_table(builder.build_table(clues), lay)
        assert ctable.records > 0
        arrays += [
            ("%s.%s" % (name, field), getattr(ctable, field))
            for field in CLUE_TABLE_ARRAYS
        ]
    # The tables interned their FDs, so this is a rebuilt array.
    arrays.append(("pool.lengths (tables)", base.pool.lengths_array()))
    return base, arrays


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("width", [32, 128])
def test_compiled_arrays_are_published_read_only(width, layout):
    base, arrays = published_arrays(width, layout)
    writeable = [name for name, array in arrays if array.flags.writeable]
    assert writeable == []
    for name, array in arrays:
        assert len(array) > 0, name
        view = array[:1]
        stores = (
            lambda: array.__setitem__(0, array[0]),
            lambda: view.__setitem__(0, view[0]),
            lambda: np.add(array, 0, out=array),
            lambda: np.copyto(array, array.copy()),
        )
        for store in stores:
            with pytest.raises(ValueError, match="read-only"):
                store()
    with pytest.raises(TypeError):
        base.node_index[Prefix(0, 0, width)] = 1
