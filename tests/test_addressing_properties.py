"""Property-based tests for the addressing layer (hypothesis)."""

from hypothesis import given, strategies as st

from repro.addressing import (
    Address,
    Prefix,
    format_ipv4,
    format_ipv6,
    parse_ipv4,
    parse_ipv6,
)

addresses32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
addresses128 = st.integers(min_value=0, max_value=(1 << 128) - 1)


@st.composite
def prefixes(draw, width=32):
    length = draw(st.integers(min_value=0, max_value=width))
    bits = draw(st.integers(min_value=0, max_value=(1 << length) - 1)) if length else 0
    return Prefix(bits, length, width)


@given(addresses32)
def test_ipv4_format_parse_roundtrip(value):
    assert parse_ipv4(format_ipv4(value)) == value


@given(addresses128)
def test_ipv6_format_parse_roundtrip(value):
    assert parse_ipv6(format_ipv6(value)) == value


@given(prefixes())
def test_bitstring_roundtrip(prefix):
    assert Prefix.from_bitstring(prefix.bitstring()) == prefix


@given(prefixes(), st.integers(min_value=0, max_value=32))
def test_truncate_is_prefix(prefix, length):
    length = min(length, prefix.length)
    assert prefix.truncate(length).is_prefix_of(prefix)


@given(prefixes())
def test_child_parent_inverse(prefix):
    if prefix.length < prefix.width:
        for bit in (0, 1):
            assert prefix.child(bit).parent() == prefix


@st.composite
def prefix_pairs(draw):
    """Two prefixes of one width, 32 or 128.  The second extends a cut
    of the first, at any length, so common prefixes of every length
    are drawn, the empty one included."""
    width = draw(st.sampled_from((32, 128)))
    a = draw(prefixes(width))
    cut = a.truncate(draw(st.integers(min_value=0, max_value=a.length)))
    tail = draw(st.integers(min_value=0, max_value=width - cut.length))
    bits = draw(st.integers(min_value=0, max_value=(1 << tail) - 1))
    return a, Prefix((cut.bits << tail) | bits, cut.length + tail, width)


@given(prefix_pairs())
def test_common_with_is_symmetric(pair):
    a, b = pair
    assert a.common_with(b) == b.common_with(a)


@given(prefix_pairs())
def test_common_with_is_common(pair):
    a, b = pair
    common = a.common_with(b)
    assert common.is_prefix_of(a)
    assert common.is_prefix_of(b)


@given(prefix_pairs())
def test_common_with_is_longest(pair):
    a, b = pair
    common = a.common_with(b)
    if common.length < min(a.length, b.length):
        # The next bit must differ, otherwise common would be longer.
        assert a.bit(common.length) != b.bit(common.length)


@given(prefixes(), prefixes(), prefixes())
def test_is_prefix_of_transitive(a, b, c):
    if a.is_prefix_of(b) and b.is_prefix_of(c):
        assert a.is_prefix_of(c)


@given(prefixes(), addresses32)
def test_matches_iff_leading_bits_equal(prefix, value):
    address = Address(value, 32)
    assert prefix.matches(address) == (
        address.leading_bits(prefix.length) == prefix.bits
    )


@given(prefixes())
def test_address_range_covers_exactly(prefix):
    low, high = prefix.address_range()
    assert high - low + 1 == 1 << (prefix.width - prefix.length)
    assert prefix.matches(Address(low, prefix.width))
    assert prefix.matches(Address(high, prefix.width))
    if low > 0:
        assert not prefix.matches(Address(low - 1, prefix.width))
    if high < (1 << prefix.width) - 1:
        assert not prefix.matches(Address(high + 1, prefix.width))


@given(prefixes(), st.integers(min_value=0, max_value=31))
def test_address_prefix_agrees_with_matches(prefix, length):
    address = prefix.network_address()
    derived = address.prefix(min(length, prefix.length))
    assert derived.matches(address)


@given(st.lists(prefixes(), min_size=2, max_size=10))
def test_ordering_is_total(items):
    ordered = sorted(items)
    for first, second in zip(ordered, ordered[1:]):
        assert first <= second
