"""Batch kernels vs the scalar object-graph path on crafted tables.

Every test runs the same crafted pair at width 32 and, with ``ipv6``,
at width 128, where the kernels run on object lanes of Python ints.
"""

import pytest

from repro.addressing import Address, Prefix
from repro.core.advance import AdvanceMethod
from repro.core.lookup import ClueAssistedLookup
from repro.core.receiver import ReceiverState
from repro.core.simple import SimpleMethod
from repro.fastpath import (
    CODE_CLUE_MISS,
    CODE_FD_IMMEDIATE,
    CODE_FULL,
    CODE_RESUMED,
    certification_batch,
    certify_clue,
    certify_full,
    compile_clue_table,
    compile_trie,
    as_destination_array,
    as_length_array,
    full_lookup_batch,
    lookup_batch,
)
from repro.lookup.regular import RegularTrieLookup
from repro.trie.binary_trie import BinaryTrie

IPV6 = [False, True]


def width_of(ipv6):
    return 128 if ipv6 else 32


def lead(bits, count, width):
    """The address whose leading ``count`` bits are ``bits``."""
    return bits << (width - count)


def at_width(spec, width):
    """``(bits, length, next hop)`` triples as table entries at ``width``."""
    return [(Prefix(bits, length, width), hop) for bits, length, hop in spec]


def build(sender_spec, receiver_spec, method, width):
    sender_entries = at_width(sender_spec, width)
    receiver_entries = at_width(receiver_spec, width)
    sender_trie = BinaryTrie(width)
    for prefix, hop in sender_entries:
        sender_trie.insert(prefix, hop)
    state = ReceiverState(receiver_entries, width)
    if method == "simple":
        builder = SimpleMethod(state, "regular")
    else:
        builder = AdvanceMethod(sender_trie, state, "regular")
    table = builder.build_table(list(sender_trie.prefixes()))
    base = RegularTrieLookup(receiver_entries, width)
    scalar = ClueAssistedLookup(
        RegularTrieLookup(receiver_entries, width), table
    )
    ctrie = compile_trie(state.trie)
    return sender_trie, base, scalar, ctrie, compile_clue_table(table, ctrie)


SENDER = [
    (0b0, 1, "s0"),
    (0b10, 2, "s1"),
    (0b1011, 4, "s2"),
    (0b10110001, 8, "s3"),
]
RECEIVER = [
    (0b10, 2, "r1"),
    (0b1011, 4, "r2"),
    (0b101100, 6, "r3"),
    (0b0, 1, "r0"),
]


@pytest.mark.parametrize("ipv6", IPV6)
@pytest.mark.parametrize("method", ["simple", "advance"])
def test_kernels_certify_on_crafted_pair(method, ipv6):
    width = width_of(ipv6)
    sender_trie, base, scalar, ctrie, ctable = build(
        SENDER, RECEIVER, method, width
    )
    dsts, lens = certification_batch(
        sender_trie,
        at_width(SENDER + RECEIVER, width),
        randoms_per_prefix=2,
    )
    assert certify_full(ctrie, base, dsts) > 0
    # The dense full-lookup kernel certifies in the same call.
    assert certify_clue(ctable, scalar, dsts, lens) == 2 * len(dsts)


@pytest.mark.parametrize("ipv6", IPV6)
def test_every_method_code_is_exercised(ipv6):
    width = width_of(ipv6)
    _trie, _base, _scalar, _ctrie, ctable = build(
        SENDER, RECEIVER, "advance", width
    )
    values = [
        lead(0b10110001, 8, width),  # deep sender BMP, resumed below the clue
        lead(0b10, 2, width),  # exact clue vertex hit
        lead(0b01, 2, width),  # clueless lane
        lead(0b11, 2, width),  # clue the table never built
    ]
    lens = [8, 2, -1, 1]
    methods, codes, new_clues, memrefs = lookup_batch(
        ctable, as_destination_array(values, width), as_length_array(lens)
    )
    seen = {int(code) for code in methods}
    assert CODE_FULL in seen
    assert {CODE_FD_IMMEDIATE, CODE_RESUMED} & seen
    # Lane 3 stamps a clue (length 1) that is not a sender prefix, so the
    # table probe misses and the lane pays probe + full lookup.
    assert int(methods[3]) == CODE_CLUE_MISS
    assert int(memrefs[3]) > int(memrefs[1])
    # New clues are the receiver BMP length or -1 when nothing matched.
    pool = ctable.trie.pool
    for lane in range(len(values)):
        code = int(codes[lane])
        expected = pool.prefixes[code].length if code >= 0 else -1
        assert int(new_clues[lane]) == expected


@pytest.mark.parametrize("ipv6", IPV6)
def test_default_route_only_receiver(ipv6):
    width = width_of(ipv6)
    receiver = [(0, 0, "default")]
    sender_trie, base, scalar, ctrie, ctable = build(
        SENDER, receiver, "simple", width
    )
    dsts, lens = certification_batch(
        sender_trie, at_width(SENDER + receiver, width)
    )
    certify_full(ctrie, base, dsts)
    certify_clue(ctable, scalar, dsts, lens)
    codes, memrefs = full_lookup_batch(
        ctrie, as_destination_array([0, (1 << width) - 1], width)
    )
    pool = ctrie.pool
    for lane in (0, 1):
        assert pool.next_hops[int(codes[lane])] == "default"
        assert int(memrefs[lane]) == 1  # the root is the whole walk


@pytest.mark.parametrize("ipv6", IPV6)
def test_empty_receiver_and_empty_clue_table(ipv6):
    width = width_of(ipv6)
    sender_trie, base, scalar, ctrie, ctable = build(SENDER, [], "simple", width)
    # Simple builds records pointing at the receiver trie; with no
    # receiver routes the compiled table still certifies (every lane is
    # a no-match full walk or an FD-of-None hit).
    dsts, lens = certification_batch(sender_trie, at_width(SENDER, width))
    certify_full(ctrie, base, dsts)
    certify_clue(ctable, scalar, dsts, lens)


@pytest.mark.parametrize("ipv6", IPV6)
def test_clue_zero_resolves_like_scalar(ipv6):
    width = width_of(ipv6)
    sender = [(0, 0, "origin")] + SENDER
    sender_trie, base, scalar, ctrie, ctable = build(
        sender, RECEIVER, "advance", width
    )
    values = [lead(0b1011, 4, width), lead(0b01, 2, width), 123456789]
    lens = [0, 0, 0]
    methods, codes, _new, memrefs = lookup_batch(
        ctable, as_destination_array(values, width), as_length_array(lens)
    )
    for lane, value in enumerate(values):
        from repro.lookup.counters import MemoryCounter

        counter = MemoryCounter()
        expected = scalar.lookup(
            Address(value, width), Address(value, width).prefix(0), counter
        )
        assert int(memrefs[lane]) == counter.accesses
        pool = ctable.trie.pool
        code = int(codes[lane])
        got = pool.next_hops[code] if code >= 0 else None
        assert got == expected.next_hop


@pytest.mark.parametrize("ipv6", IPV6)
def test_empty_batch(ipv6):
    width = width_of(ipv6)
    _trie, _base, _scalar, ctrie, ctable = build(
        SENDER, RECEIVER, "simple", width
    )
    codes, memrefs = full_lookup_batch(ctrie, as_destination_array([], width))
    assert len(codes) == 0 and len(memrefs) == 0
    methods, codes, new_clues, memrefs = lookup_batch(
        ctable, as_destination_array([], width), as_length_array([])
    )
    assert len(methods) == 0
