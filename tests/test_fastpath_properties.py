"""Hypothesis differential tests: batch kernels vs the scalar path.

Random sender/receiver pairs at width 32 or 128 — including empty
receivers, default-route-only tables, and nested prefixes of any length
up to the full width — are compiled and swept with random destinations
under clueless (−1), clue=0, the sender's true BMP, arbitrary
prefix-of-destination clue lengths, and the out-of-range lengths −2 and
width + 1.  Every lane must agree with the object-graph lookup on
(prefix, next hop, method, memrefs, new clue) — `certify_clue` raises on
the first disagreement — whether a batch resumes few enough lanes to
walk them one by one or enough to vectorize the walk.
"""

from hypothesis import given, settings, strategies as st

from repro.addressing import Address, Prefix
from repro.core.advance import AdvanceMethod
from repro.core.lookup import ClueAssistedLookup
from repro.core.receiver import ReceiverState
from repro.core.simple import SimpleMethod
from repro.fastpath import (
    CODE_RESUMED,
    as_destination_array,
    as_length_array,
    certify_clue,
    certify_full,
    compile_clue_table,
    compile_trie,
    lookup_batch,
)
from repro.fastpath.kernels import SCALAR_RESUME_LANES
from repro.lookup.regular import RegularTrieLookup
from repro.trie.binary_trie import BinaryTrie


def addresses(width):
    return st.integers(min_value=0, max_value=(1 << width) - 1)


def near(spine, width):
    """Addresses sharing a random number of leading bits with ``spine``."""
    return st.tuples(
        st.integers(min_value=0, max_value=width), addresses(width)
    ).map(lambda drawn: spine ^ (drawn[1] >> drawn[0]))


@st.composite
def prefixes_near(draw, width, spine):
    """A prefix of any length, leading ``spine`` about half the time so
    tables nest and clue records resume walks below their clue."""
    length = draw(st.integers(min_value=0, max_value=width))
    if draw(st.booleans()):
        bits = spine >> (width - length)
    else:
        bits = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    return Prefix(bits, length, width)


@st.composite
def random_pairs(draw):
    """(width, spine, sender entries, receiver entries): IPv4 or IPv6,
    possibly empty, possibly just a default route, usually overlapping so
    clues resolve both ways, with a few receiver-only prefixes that
    Advance records must resume walks to find."""
    width = draw(st.sampled_from([32, 128]))
    spine = draw(addresses(width))
    prefixes = draw(st.sets(prefixes_near(width, spine), min_size=1, max_size=12))
    sender = [(prefix, "s%d" % i) for i, prefix in enumerate(sorted(prefixes))]
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape == 0:
        receiver = []
    elif shape == 1:
        receiver = [(Prefix(0, 0, width), "default")]
    else:
        keep = draw(
            st.sets(st.integers(min_value=0, max_value=len(sender) - 1))
        )
        routes = {
            prefix: "r%d" % i
            for i, (prefix, _hop) in enumerate(sender)
            if i not in keep
        }
        for i, prefix in enumerate(
            draw(st.lists(prefixes_near(width, spine), max_size=3))
        ):
            routes[prefix] = "x%d" % i
        receiver = sorted(routes.items())
    return width, spine, sender, receiver


def address_lists(width, spine, max_size):
    return st.lists(
        st.one_of(addresses(width), near(spine, width)),
        min_size=1,
        max_size=max_size,
    )


def build(width, sender, receiver, method):
    sender_trie = BinaryTrie(width)
    for prefix, hop in sender:
        sender_trie.insert(prefix, hop)
    state = ReceiverState(receiver, width)
    if method == "simple":
        builder = SimpleMethod(state, "regular")
    else:
        builder = AdvanceMethod(sender_trie, state, "regular")
    table = builder.build_table(list(sender_trie.prefixes()))
    base = RegularTrieLookup(receiver, width)
    scalar = ClueAssistedLookup(RegularTrieLookup(receiver, width), table)
    ctrie = compile_trie(state.trie)
    return sender_trie, base, scalar, ctrie, compile_clue_table(table, ctrie)


def sweep(sender_trie, values, extra_lens):
    """Destinations × clue lengths: clueless, clue=0, true BMP, arbitrary,
    and the out-of-range lengths −2 and width + 1 on either side of the
    merged probe key's length field."""
    width = sender_trie.width
    destinations, lens = [], []
    for i, value in enumerate(values):
        bmp = sender_trie.best_prefix(Address(value, width))
        bmp_length = bmp.length if bmp else 0
        for length in (-1, 0, bmp_length, extra_lens[i], -2, width + 1):
            destinations.append(value)
            lens.append(length)
    return destinations, lens


@given(random_pairs(), st.data())
@settings(max_examples=60, deadline=None)
def test_regular_batch_matches_scalar(pair, data):
    width, spine, sender, receiver = pair
    values = data.draw(address_lists(width, spine, 8))
    sender_trie, base, _scalar, ctrie, _ctable = build(
        width, sender, receiver, "simple"
    )
    assert certify_full(ctrie, base, values) == len(values)


@given(random_pairs(), st.data(), st.sampled_from(["simple", "advance"]))
@settings(max_examples=120, deadline=None)
def test_clue_batch_matches_scalar(pair, data, method):
    width, spine, sender, receiver = pair
    values = data.draw(address_lists(width, spine, 6))
    extra_lens = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=width), min_size=6, max_size=6
        )
    )
    sender_trie, _base, scalar, _ctrie, ctable = build(
        width, sender, receiver, method
    )
    destinations, lens = sweep(sender_trie, values, extra_lens)
    # The dense full-lookup kernel certifies in the same call.
    assert certify_clue(ctable, scalar, destinations, lens) == 2 * len(destinations)
    methods = lookup_batch(
        ctable,
        as_destination_array(destinations, width),
        as_length_array(lens),
    )[0]
    if (methods == CODE_RESUMED).any():
        # Repeated, the sweep resumes more than SCALAR_RESUME_LANES lanes
        # and takes the vectorized walk, whichever walk it took alone.
        copies = SCALAR_RESUME_LANES + 1
        assert certify_clue(
            ctable, scalar, destinations * copies, lens * copies
        ) == 2 * len(destinations) * copies
