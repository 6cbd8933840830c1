"""Differential certification: compiled kernels vs the object graph.

A compiled table is only trustworthy if the batch kernels agree with the
existing scalar lookups on *everything* a packet can carry: prefix,
next hop, method classification, and the exact memory-reference count.
This module runs both paths over a deterministic destination sweep and
raises :class:`CertificationError` on the first disagreement — the
bench refuses to report numbers for an uncertified table, and the
differential test suite drives the same functions with hypothesis.

Any layout implementing the compiled-trie protocol certifies here, not
just the dense :class:`CompiledTrie`.  For stride layouts
(`repro.fastpath.layouts.CompiledMultibitTrie`) the memory-reference
comparison is skipped — stride descent legitimately changes the count;
that is the optimisation — while prefix, next hop, method and new clue
stay bit-identical requirements.  A stride layout certifies together
with the dense base it carries, memrefs included there, since its clue
resume walks descend that base.  Certification runs the same kernels
at every width, IPv4 and IPv6 alike.

The full-lookup reference is the scalar object-graph walk, taken once
per distinct destination of a call and shared by every lane and every
layout certified in it: the sweep below visits each destination three
times and the full-lookup kernel ignores the clue.  :func:`certify_clue`
certifies a clue table's full-lookup kernels and its clue kernel in one
call, so a clueless clue lane is compared against the same walk; only
a lane carrying a clue runs the scalar clue lookup.  The reference
lives only as long as the call, so a base patched between calls is
walked afresh.  Kernel lanes are never deduplicated; each one is
compared.

The sweep covers, for every prefix of the deployed tables (senders and
receivers alike, capped for very large tables): the network address,
the broadcast address, and seeded random hosts — each visited clueless,
with the clue=0 edge (the root as BMP), and with the sender's true BMP
length (what a well-formed upstream actually stamps).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.addressing import Address
from repro.fastpath.backend import CODE_TO_METHOD
from repro.fastpath.compile import CompiledClueTable
from repro.fastpath.kernels import (
    as_destination_array,
    as_length_array,
    full_lookup_batch,
    lookup_batch,
)
from repro.lookup.counters import METHOD_FULL, MemoryCounter


class CertificationError(ValueError):
    """A compiled kernel disagreed with the object-graph lookup."""


def certification_batch(
    sender_trie,
    entries: Iterable[Tuple[object, object]],
    seed: int = 0,
    max_prefixes: int = 512,
    randoms_per_prefix: int = 1,
) -> Tuple[List[int], List[int]]:
    """Deterministic ``(destinations, clue_lengths)`` sweep.

    ``entries`` seeds the destination set (pass receiver plus sender
    entries for full edge coverage); ``sender_trie`` supplies each
    destination's true BMP length and the address width.  Every
    destination appears three times: clueless (−1), clue length 0, and
    the sender-BMP length.
    """
    width = sender_trie.width
    rng = random.Random(seed)
    prefixes = []
    seen = set()
    for prefix, _next_hop in entries:
        if prefix in seen:
            continue
        seen.add(prefix)
        prefixes.append(prefix)
        if len(prefixes) >= max_prefixes:
            break
    destinations: List[int] = []
    clue_lens: List[int] = []
    for prefix in prefixes:
        host_bits = width - prefix.length
        network = prefix.bits << host_bits
        candidates = [network, network | ((1 << host_bits) - 1)]
        for _ in range(randoms_per_prefix):
            candidates.append(prefix.random_address(rng).value)
        for value in candidates:
            bmp = sender_trie.best_prefix(Address(value, width))
            bmp_length = bmp.length if bmp is not None else 0
            for clue_length in (-1, 0, bmp_length):
                destinations.append(value)
                clue_lens.append(clue_length)
    return destinations, clue_lens


def certify_full(ctrie, base, destinations: Sequence[int]) -> int:
    """Certify the clueless kernel against ``base.lookup``; count checked.

    ``ctrie`` is any compiled layout.  A stride layout is certified
    together with the dense ``base`` trie it carries, which its clue
    resume walks descend, so it counts two lanes per destination (the
    base's lanes numbered after the layout's).  The scalar reference is
    walked once per distinct destination and every lane of every layout
    is compared against it; reference counts are compared only for the
    dense layout, whose cost model matches the object graph step for
    step.
    """
    values = [int(value) for value in destinations]
    dsts = as_destination_array(destinations, ctrie.width)
    expected = _reference_walks(base, values, ctrie.width)
    return _certify_full_lanes(ctrie, dsts, values, expected)


def certify_clue(
    ctable: CompiledClueTable,
    scalar,
    destinations: Sequence[int],
    clue_lens: Sequence[int],
) -> int:
    """Certify a compiled clue table, both of its kernels; count checked.

    ``scalar`` is a ``ClueAssistedLookup`` that must wrap the *same*
    table and a regular base over the same receiver entries, and must
    not learn (pass a preprocessed table; learning would mutate the
    table mid-sweep).  ``scalar.base`` is walked once per distinct
    destination.  The full-lookup kernel of ``ctable.layout`` (and of
    the dense ``ctable.trie`` it carries, for a stride layout) is
    certified against that walk exactly as :func:`certify_full` does,
    and so is every clueless lane of the clue kernel; a lane carrying a
    clue is compared against ``scalar.lookup``.  The clue kernel's lanes
    are numbered after the full-lookup lanes.  Reference counts are
    compared only when the table's full-lookup layout is the dense trie
    itself.
    """
    check_memrefs = ctable.layout is ctable.trie
    width = ctable.width
    values = [int(value) for value in destinations]
    dsts = as_destination_array(destinations, width)
    expected = _reference_walks(scalar.base, values, width)
    first = _certify_full_lanes(ctable.layout, dsts, values, expected)
    lens = as_length_array(clue_lens)
    methods, codes, new_clues, memrefs = lookup_batch(ctable, dsts, lens)
    pool = ctable.trie.pool
    for lane, (value, length, method, code, refs, new_clue) in enumerate(
        zip(
            values,
            lens.tolist(),
            methods.tolist(),
            codes.tolist(),
            memrefs.tolist(),
            new_clues.tolist(),
        ),
        first,
    ):
        if 0 <= length <= width:
            counter = MemoryCounter()
            address = Address(value, width)
            result = scalar.lookup(address, address.prefix(length), counter)
            prefix, next_hop = result.prefix, result.next_hop
            want_method, accesses = result.method, result.accesses
        else:
            prefix, next_hop, accesses = expected[value]
            want_method = METHOD_FULL
        got_prefix = pool.prefixes[code] if code >= 0 else None
        got_hop = pool.next_hops[code] if code >= 0 else None
        _require(
            lane,
            value,
            length,
            (
                got_prefix,
                got_hop,
                CODE_TO_METHOD[method],
                refs if check_memrefs else None,
            ),
            (prefix, next_hop, want_method, accesses if check_memrefs else None),
        )
        want_clue = prefix.length if prefix is not None else -1
        if new_clue != want_clue:
            raise CertificationError(
                "lane %d dst=%#010x clue_len=%s: new clue %d != %d"
                % (lane, value, length, new_clue, want_clue)
            )
    return first + len(values)


def _reference_walks(base, values: List[int], width: int) -> Dict[int, Tuple]:
    """``(prefix, next_hop, accesses)`` of one ``base.lookup`` walk per
    distinct destination of ``values``."""
    expected: Dict[int, Tuple] = {}
    for value in values:
        if value not in expected:
            counter = MemoryCounter()
            result = base.lookup(Address(value, width), counter)
            expected[value] = (result.prefix, result.next_hop, result.accesses)
    return expected


def _certify_full_lanes(ctrie, dsts, values: List[int], expected) -> int:
    """Compare the full-lookup kernel of ``ctrie`` (and of the dense base
    a stride layout carries) on ``dsts`` with the walks ``expected``,
    lane by lane; returns the number of lanes compared."""
    layouts = [ctrie]
    if getattr(ctrie, "stride", 0):
        layouts.append(ctrie.base)
    first = 0
    for layout in layouts:
        check_memrefs = getattr(layout, "stride", 0) == 0
        codes, memrefs = full_lookup_batch(layout, dsts)
        pool = layout.pool
        for lane, (value, code, refs) in enumerate(
            zip(values, codes.tolist(), memrefs.tolist()), first
        ):
            prefix, next_hop, accesses = expected[value]
            got_prefix = pool.prefixes[code] if code >= 0 else None
            got_hop = pool.next_hops[code] if code >= 0 else None
            _require(
                lane,
                value,
                None,
                (got_prefix, got_hop, METHOD_FULL, refs if check_memrefs else None),
                (prefix, next_hop, METHOD_FULL, accesses if check_memrefs else None),
            )
        first += len(values)
    return first


def _require(
    lane: int,
    value: int,
    clue_length: Optional[int],
    got: Tuple,
    expected: Tuple,
) -> None:
    if got != expected:
        raise CertificationError(
            "lane %d dst=%#010x clue_len=%s: compiled %r != scalar %r"
            % (lane, value, clue_length, got, expected)
        )
