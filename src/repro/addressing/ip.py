"""IP addresses and prefixes as exact bit strings.

The whole reproduction manipulates destination addresses and routing-table
prefixes as *bit strings*: a prefix is the pair ``(bits, length)`` where
``bits`` holds the leading ``length`` bits of the address right-aligned in an
integer.  This representation makes trie construction, longest-prefix
matching and the paper's clue encoding (a 5-bit pointer giving the number of
leading destination bits that form the clue) direct and unambiguous.

Both IPv4 (width 32) and IPv6 (width 128) are supported; the family is
carried explicitly as ``width`` so that the same code exercises the paper's
IPv6 scalability argument (7 clue bits instead of 5).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.addressing.errors import (
    AddressParseError,
    PrefixLengthError,
    WidthMismatchError,
)

IPV4_WIDTH = 32
IPV6_WIDTH = 128

#: Number of header bits needed to encode a clue (a prefix length) for each
#: address family, per the paper's abstract: 5 bits for IPv4, 7 for IPv6.
CLUE_BITS = {IPV4_WIDTH: 5, IPV6_WIDTH: 7}


def _check_width(width: int) -> None:
    if width not in (IPV4_WIDTH, IPV6_WIDTH):
        raise WidthMismatchError(
            "width must be 32 (IPv4) or 128 (IPv6), got %r" % (width,)
        )


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad IPv4 text into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressParseError("IPv4 address needs 4 octets: %r" % (text,))
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressParseError("bad IPv4 octet %r in %r" % (part, text))
        octet = int(part)
        if octet > 255:
            raise AddressParseError("IPv4 octet out of range in %r" % (text,))
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format a 32-bit integer as dotted-quad text."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_ipv6(text: str) -> int:
    """Parse (possibly ``::``-compressed) IPv6 text into a 128-bit integer."""
    if text.count("::") > 1:
        raise AddressParseError("more than one '::' in %r" % (text,))
    if "::" in text:
        head, tail = text.split("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - len(head_groups) - len(tail_groups)
        if missing < 1:
            raise AddressParseError("invalid '::' compression in %r" % (text,))
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = text.split(":")
    if len(groups) != 8:
        raise AddressParseError("IPv6 address needs 8 groups: %r" % (text,))
    value = 0
    for group in groups:
        if not group or len(group) > 4:
            raise AddressParseError("bad IPv6 group %r in %r" % (group, text))
        try:
            word = int(group, 16)
        except ValueError:
            raise AddressParseError("bad IPv6 group %r in %r" % (group, text))
        value = (value << 16) | word
    return value


def format_ipv6(value: int) -> str:
    """Format a 128-bit integer as uncompressed lower-case IPv6 text."""
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -16, -16)]
    return ":".join("%x" % group for group in groups)


class Address:
    """A full destination address: ``width`` bits stored in an integer."""

    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int = IPV4_WIDTH):
        _check_width(width)
        if not 0 <= value < (1 << width):
            raise AddressParseError(
                "address value out of range for width %d" % width
            )
        self.value = value
        self.width = width

    @classmethod
    def parse(cls, text: str) -> "Address":
        """Parse IPv4 dotted-quad or IPv6 colon-hex text."""
        if ":" in text:
            return cls(parse_ipv6(text), IPV6_WIDTH)
        return cls(parse_ipv4(text), IPV4_WIDTH)

    def bit(self, index: int) -> int:
        """Bit ``index`` counted from the most significant bit (0-based)."""
        if not 0 <= index < self.width:
            raise IndexError("bit index %d out of range" % index)
        return (self.value >> (self.width - 1 - index)) & 1

    def leading_bits(self, length: int) -> int:
        """The ``length`` most significant bits, right-aligned."""
        if not 0 <= length <= self.width:
            raise PrefixLengthError("length %d out of range" % length)
        return self.value >> (self.width - length) if length else 0

    def prefix(self, length: int) -> "Prefix":
        """The length-``length`` prefix of this address."""
        return Prefix(self.leading_bits(length), length, self.width)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Address)
            and self.value == other.value
            and self.width == other.width
        )

    def __hash__(self) -> int:
        return hash((self.value, self.width))

    def __repr__(self) -> str:
        return "Address(%s)" % str(self)

    def __str__(self) -> str:
        if self.width == IPV4_WIDTH:
            return format_ipv4(self.value)
        return format_ipv6(self.value)


class Prefix:
    """An address prefix: the leading ``length`` bits of an address.

    ``bits`` holds those bits right-aligned, so the prefix ``10*`` (binary)
    is ``Prefix(0b10, 2)``.  Prefixes are immutable, hashable and totally
    ordered by ``(length, bits)`` which makes them usable as dict keys and
    sortable for the range-based search algorithms.
    """

    __slots__ = ("bits", "length", "width")

    def __init__(self, bits: int, length: int, width: int = IPV4_WIDTH):
        _check_width(width)
        if not 0 <= length <= width:
            raise PrefixLengthError(
                "prefix length %d out of [0, %d]" % (length, width)
            )
        if not 0 <= bits < (1 << length) if length else bits != 0:
            raise AddressParseError(
                "prefix bits 0x%x do not fit in %d bits" % (bits, length)
            )
        self.bits = bits
        self.length = length
        self.width = width

    @classmethod
    def _derived(cls, bits: int, length: int, width: int) -> "Prefix":
        """A prefix shifted out of one already valid, built unchecked.

        Callers pass the head bits of a valid prefix (a trie walk's
        vertex, a child, a parent, a truncation), which pass every check
        :meth:`__init__` makes by construction.  Skipping the width and
        range checks matters on trie walks, which create one prefix per
        new vertex; outside input still goes through :meth:`__init__`.
        """
        prefix = object.__new__(cls)
        prefix.bits = bits
        prefix.length = length
        prefix.width = width
        return prefix

    @classmethod
    def root(cls, width: int = IPV4_WIDTH) -> "Prefix":
        """The empty (default-route) prefix."""
        return cls(0, 0, width)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` (IPv4) or ``h:h::/len`` (IPv6) text."""
        if "/" not in text:
            raise AddressParseError("prefix needs '/length': %r" % (text,))
        addr_text, _, len_text = text.partition("/")
        if not len_text.isdigit():
            raise AddressParseError("bad prefix length in %r" % (text,))
        length = int(len_text)
        address = Address.parse(addr_text)
        if length > address.width:
            raise PrefixLengthError(
                "prefix length %d exceeds width %d" % (length, address.width)
            )
        trailing = address.value & ((1 << (address.width - length)) - 1)
        if trailing:
            raise AddressParseError(
                "host bits set below /%d in %r" % (length, text)
            )
        return cls(address.leading_bits(length), length, address.width)

    @classmethod
    def from_bitstring(cls, text: str, width: int = IPV4_WIDTH) -> "Prefix":
        """Build a prefix from a literal bit string like ``"1011"``."""
        if text and set(text) - {"0", "1"}:
            raise AddressParseError("bit string must be 0/1: %r" % (text,))
        bits = int(text, 2) if text else 0
        return cls(bits, len(text), width)

    @classmethod
    def from_address(
        cls, address: Address, length: int
    ) -> "Prefix":
        """The length-``length`` prefix of ``address``."""
        return address.prefix(length)

    def bit(self, index: int) -> int:
        """Bit ``index`` of the prefix, 0-based from its first bit."""
        if not 0 <= index < self.length:
            raise IndexError("bit index %d out of range" % index)
        return (self.bits >> (self.length - 1 - index)) & 1

    def bitstring(self) -> str:
        """The prefix as a literal bit string (empty for the root)."""
        if not self.length:
            return ""
        return format(self.bits, "0%db" % self.length)

    def child(self, bit: int) -> "Prefix":
        """The prefix extended by one bit."""
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if self.length >= self.width:
            raise PrefixLengthError("cannot extend a full-width prefix")
        return Prefix._derived((self.bits << 1) | bit, self.length + 1, self.width)

    def parent(self) -> "Prefix":
        """The prefix shortened by one bit."""
        if not self.length:
            raise PrefixLengthError("the root prefix has no parent")
        return Prefix._derived(self.bits >> 1, self.length - 1, self.width)

    def truncate(self, length: int) -> "Prefix":
        """The leading-``length``-bit prefix of this prefix."""
        if not 0 <= length <= self.length:
            raise PrefixLengthError(
                "cannot truncate /%d to /%d" % (self.length, length)
            )
        return Prefix._derived(
            self.bits >> (self.length - length), length, self.width
        )

    def is_prefix_of(self, other: "Prefix") -> bool:
        """True if ``other`` extends (or equals) this prefix."""
        if self.width != other.width:
            raise WidthMismatchError("mixed address families")
        if self.length > other.length:
            return False
        return other.bits >> (other.length - self.length) == self.bits

    def matches(self, address: Address) -> bool:
        """True if ``address`` starts with this prefix."""
        if self.width != address.width:
            raise WidthMismatchError("mixed address families")
        return address.leading_bits(self.length) == self.bits

    def common_with(self, other: "Prefix") -> "Prefix":
        """Longest common prefix of two prefixes.

        Both are cut to the shorter length; the highest set bit of their
        XOR is the first bit where they differ.
        """
        if self.width != other.width:
            raise WidthMismatchError("mixed address families")
        limit = min(self.length, other.length)
        differ = (self.bits >> (self.length - limit)) ^ (
            other.bits >> (other.length - limit)
        )
        return self.truncate(limit - differ.bit_length())

    def network_address(self) -> Address:
        """The lowest address covered by the prefix."""
        return Address(self.bits << (self.width - self.length), self.width)

    def broadcast_address(self) -> Address:
        """The highest address covered by the prefix."""
        low = self.bits << (self.width - self.length)
        return Address(low | ((1 << (self.width - self.length)) - 1), self.width)

    def address_range(self) -> Tuple[int, int]:
        """Inclusive integer range ``[low, high]`` covered by the prefix."""
        low = self.bits << (self.width - self.length)
        high = low | ((1 << (self.width - self.length)) - 1)
        return low, high

    def ancestors(self) -> Iterator["Prefix"]:
        """All strict ancestors, from the immediate parent up to the root."""
        current = self
        while current.length:
            current = current.parent()
            yield current

    def first_address(self) -> Address:
        """Alias of :meth:`network_address` (readability in tests)."""
        return self.network_address()

    def random_address(self, rng) -> Address:
        """A uniform random address covered by this prefix."""
        host_bits = self.width - self.length
        host = rng.getrandbits(host_bits) if host_bits else 0
        return Address((self.bits << host_bits) | host, self.width)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Prefix)
            and self.bits == other.bits
            and self.length == other.length
            and self.width == other.width
        )

    def __hash__(self) -> int:
        return hash((self.bits, self.length, self.width))

    def __lt__(self, other: "Prefix") -> bool:
        if self.width != other.width:
            raise WidthMismatchError("mixed address families")
        return (self.length, self.bits) < (other.length, other.bits)

    def __le__(self, other: "Prefix") -> bool:
        return self == other or self < other

    def __repr__(self) -> str:
        return "Prefix(%s)" % str(self)

    def __str__(self) -> str:
        if self.width == IPV4_WIDTH:
            return "%s/%d" % (
                format_ipv4(self.bits << (self.width - self.length)),
                self.length,
            )
        return "%s/%d" % (
            format_ipv6(self.bits << (self.width - self.length)),
            self.length,
        )


def longest_common_prefix(a: Prefix, b: Prefix) -> Prefix:
    """Module-level convenience wrapper around :meth:`Prefix.common_with`."""
    return a.common_with(b)


def clue_field_width(width: int) -> int:
    """Header bits needed to carry a clue for an address family.

    Per the paper, a clue is just the number of leading destination-address
    bits that form the sender's BMP, so 5 bits suffice for IPv4 (lengths
    0..32) and 7 for IPv6 (lengths 0..128).
    """
    _check_width(width)
    return CLUE_BITS[width]


def sort_key(prefix: Prefix) -> Tuple[int, int]:
    """Sort key ordering prefixes by (length, bits)."""
    return prefix.length, prefix.bits
