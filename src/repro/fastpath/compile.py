"""Freeze clue tables and binary tries into flat, contiguous arrays.

The object-graph structures (`trie.binary_trie.BinaryTrie`,
`core.table.ClueTable`) chase one Python pointer per "memory reference"
of the paper's cost model.  This module compiles a *built* pair into the
struct-of-arrays layout the batch kernels iterate over:

``CompiledTrie`` — one dense integer id per trie vertex (pre-order,
root = 0), ``child[2 * node + bit]`` holding the child id or -1, and
``node_result[node]`` holding a result-pool code for marked vertices
(-1 otherwise).  Descending one bit is a single gather instead of two
dict probes.

``CompiledClueTable`` — one sorted key array over every clue length,
keyed ``(clue_len << (width + 1)) | bits`` so keys of different lengths
never collide, and its parallel record-id array: a whole batch resolves
its clue probes with one binary search (numpy ``searchsorted``),
whatever mix of clue lengths it carries.  Parallel record arrays hold
the FD code, the Ptr continuation vertex and its depth, and per-record
rows into a packed Claim-1 stop bitmask (one bit per trie vertex, set
where no longer match can exist below: every vertex outside the Advance
overlay's ``problematic`` set).

Every array is numpy.  Trie ids, record columns and result codes are
int64 at every width; the probe keys take the lane dtype of the width
(:func:`lane_dtype`): int64 at width 32, and Python ints in an object
array at width 128, where a key does not fit a 64-bit lane.

Results are interned in a shared ``ResultPool`` so a lane's outcome is
one int32 code; the pool decodes it back to ``(prefix, next_hop)`` and
supplies the new clue length.  Only *active* table records compile —
an inactive record probes as a miss in the object graph, so omitting it
preserves semantics exactly.

Only the "regular" technique (``TrieContinuation`` Ptr fields) is
compilable; anything else raises ``FastpathUnsupported`` and the caller
stays on the scalar path.
"""

from __future__ import annotations

import sys
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.addressing import IPV4_WIDTH, Prefix
from repro.lookup.restricted import TrieContinuation
from repro.trie.binary_trie import BinaryTrie


def lane_dtype(width: int):
    """The dtype of address lanes and probe keys at ``width``.

    int64 at width 32.  At width 128 an address does not fit a 64-bit
    lane, so lanes are object arrays of Python ints and run through the
    same numpy kernels.  The dtype is chosen by width, never inferred
    from the values: a width-128 table whose keys happen to fit int64
    would otherwise overflow once a lane's key is shifted.
    """
    return np.int64 if width <= IPV4_WIDTH else object


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, flagged read-only as its compiler publishes it.

    Kernels only read compiled arrays, and tables, their shared result
    pool and the replicas of a slice all hold the same arrays, so a
    store into one would change every holder's answers.  numpy rejects
    it with ``ValueError``, whatever view or ``out=`` argument it takes.
    """
    array.setflags(write=False)
    return array


class FastpathUnsupported(ValueError):
    """The structure cannot be frozen into flat arrays (wrong technique,
    foreign continuation type, or a continuation pointing outside the
    compiled trie); callers fall back to the object-graph path."""


class ResultPool:
    """Interned ``(prefix, next_hop)`` outcomes shared by trie and table.

    A lane's result is a small int code; decoding is a list index.  The
    pool also exposes the prefix lengths as an array so the kernels can
    derive the outgoing clue of a whole batch with one gather.
    """

    __slots__ = ("prefixes", "next_hops", "lengths", "_index", "_frozen")

    def __init__(self) -> None:
        self.prefixes: List[Prefix] = []
        self.next_hops: List[object] = []
        self.lengths: List[int] = []
        self._index: Dict[object, int] = {}
        self._frozen = None

    def intern(self, prefix: Prefix, next_hop: object) -> int:
        """The code for ``(prefix, next_hop)``, allocating on first use."""
        try:
            key: Optional[Tuple[Prefix, object]] = (prefix, next_hop)
            code = self._index.get(key)
        except TypeError:  # unhashable next hop payload: store un-deduped
            key = None
            code = None
        if code is None:
            code = len(self.prefixes)
            self.prefixes.append(prefix)
            self.next_hops.append(next_hop)
            self.lengths.append(prefix.length)
            if key is not None:
                self._index[key] = code
        return code

    def lengths_array(self):
        """Prefix lengths by code, as an int64 array.

        Rebuilt lazily: the pool keeps growing while a ``CompiledTrie``
        and one or more ``CompiledClueTable``s intern into it.  Each
        rebuilt array is published read-only.
        """
        if self._frozen is None or len(self._frozen) != len(self.lengths):
            self._frozen = read_only(np.asarray(self.lengths, dtype=np.int64))
        return self._frozen

    def nbytes(self) -> int:
        """Data-plane footprint: one int64 length per interned code.

        The prefix/next-hop decode side is control-plane bookkeeping
        (Python objects a hardware table would not hold); the kernels
        only ever gather the lengths array, so that is what counts.
        """
        return len(self.lengths) * 8

    def __len__(self) -> int:
        return len(self.prefixes)


class CompiledTrie:
    """A ``BinaryTrie`` frozen into flat child / result arrays.

    ``child`` and ``node_result`` are read-only; ``node_index`` (vertex
    prefix → id) is a read-only mapping.
    """

    __slots__ = (
        "width",
        "size",
        "child",
        "node_result",
        "node_index",
        "root_result",
        "pool",
    )

    def __init__(self, trie: BinaryTrie, pool: Optional[ResultPool] = None):
        self.width = trie.width
        self.pool = pool if pool is not None else ResultPool()
        nodes = []
        index: Dict[Prefix, int] = {}
        stack = [trie.root]
        while stack:
            node = stack.pop()
            index[node.prefix] = len(nodes)
            nodes.append(node)
            one = node.children.get(1)
            if one is not None:
                stack.append(one)
            zero = node.children.get(0)
            if zero is not None:
                stack.append(zero)
        child = [-1] * (2 * len(nodes))
        result = [-1] * len(nodes)
        for position, node in enumerate(nodes):
            for bit in (0, 1):
                branch = node.children.get(bit)
                if branch is not None:
                    child[2 * position + bit] = index[branch.prefix]
            if node.marked:
                result[position] = self.pool.intern(node.prefix, node.next_hop)
        self.size = len(nodes)
        self.node_index: Mapping[Prefix, int] = MappingProxyType(index)
        self.root_result = result[0]
        self.child = read_only(np.asarray(child, dtype=np.int64))
        self.node_result = read_only(np.asarray(result, dtype=np.int64))

    def nbytes(self) -> int:
        """Data-plane footprint of the flat arrays, in bytes.

        ``child`` plus ``node_result``, both int64; the ``node_index``
        decode mapping is compile-time-only and excluded.
        """
        return (len(self.child) + len(self.node_result)) * 8


class CompiledClueTable:
    """A ``ClueTable`` frozen for the regular-technique batch kernels.

    ``trie`` may be the dense :class:`CompiledTrie` or any layout
    wrapping one (a ``CompiledMultibitTrie`` exposes it as ``.base``).
    The clue-probe arrays and the continuation/stop machinery always
    address the dense binary arrays — Claim-1 stop bits are a
    per-binary-vertex notion — while :attr:`layout` records which
    layout the *full-lookup* side of the kernels should descend.
    Each distinct ``problematic`` set the continuations hold becomes
    one :attr:`stop_masks` row, whose bit is set on every compiled
    vertex outside that set.  Every probe, record and stop array is
    read-only.
    """

    __slots__ = (
        "trie",
        "layout",
        "width",
        "records",
        "probe_keys",
        "probe_recs",
        "rec_fd",
        "rec_cont_node",
        "rec_cont_depth",
        "rec_stop_row",
        "stop_masks",
        "has_stops",
    )

    def __init__(self, table, trie):
        self.layout = trie
        trie = getattr(trie, "base", trie)
        self.trie = trie
        self.width = trie.width
        pool = trie.pool
        key_shift = trie.width + 1
        keys: List[int] = []
        rec_fd: List[int] = []
        rec_cont_node: List[int] = []
        rec_cont_depth: List[int] = []
        rec_stop_row: List[int] = []
        stop_sets: List[Optional[Set[Prefix]]] = [None]
        row_of: Dict[int, int] = {}
        for entry in table.entries():
            if not entry.active:
                continue  # probes identically to an absent record
            clue = entry.clue
            if clue.width != trie.width:
                raise FastpathUnsupported(
                    "clue width %d does not match trie width %d"
                    % (clue.width, trie.width)
                )
            record = len(rec_fd)
            keys.append((clue.length << key_shift) | clue.bits)
            if entry.fd_prefix is not None:
                rec_fd.append(pool.intern(entry.fd_prefix, entry.fd_next_hop))
            else:
                rec_fd.append(-1)
            continuation = entry.continuation
            if continuation is None:
                rec_cont_node.append(-1)
                rec_cont_depth.append(0)
                rec_stop_row.append(0)
                continue
            if type(continuation) is not TrieContinuation:
                raise FastpathUnsupported(
                    "only regular-technique TrieContinuation records "
                    "compile; found %s" % type(continuation).__name__
                )
            start_id = trie.node_index.get(continuation.start.prefix)
            if start_id is None:
                raise FastpathUnsupported(
                    "continuation start %r is not a vertex of the "
                    "compiled trie" % (continuation.start.prefix,)
                )
            rec_cont_node.append(start_id)
            rec_cont_depth.append(continuation.start.prefix.length)
            problematic = continuation.problematic
            if problematic is None:
                rec_stop_row.append(0)
            else:
                row = row_of.get(id(problematic))
                if row is None:
                    row = len(stop_sets)
                    stop_sets.append(problematic)
                    row_of[id(problematic)] = row
                rec_stop_row.append(row)
        self.records = len(rec_fd)
        self.has_stops = len(stop_sets) > 1
        # A row's stop bits: every compiled vertex where Claim 1 holds,
        # i.e. all of them minus the problematic ones.  packbits pads
        # past ``trie.size`` with 0, and row 0 (no stops) stays all-zero.
        stop_masks = np.zeros(
            (len(stop_sets), (trie.size + 7) // 8), dtype=np.uint8
        )
        node_index = trie.node_index
        for row, problematic in enumerate(stop_sets[1:], 1):
            stops = np.ones(trie.size, dtype=bool)
            stops[[node_index[p] for p in problematic if p in node_index]] = False
            stop_masks[row] = np.packbits(stops, bitorder="little")
        # Record ids are allocation order, so the sort permutation of the
        # keys *is* the parallel record array.
        unsorted = np.asarray(keys, dtype=lane_dtype(trie.width))
        probe_recs = np.argsort(unsorted, kind="stable")
        self.probe_keys = read_only(unsorted[probe_recs])
        self.probe_recs = read_only(probe_recs)
        self.rec_fd = read_only(np.asarray(rec_fd, dtype=np.int64))
        self.rec_cont_node = read_only(np.asarray(rec_cont_node, dtype=np.int64))
        self.rec_cont_depth = read_only(np.asarray(rec_cont_depth, dtype=np.int64))
        self.rec_stop_row = read_only(np.asarray(rec_stop_row, dtype=np.int64))
        self.stop_masks = read_only(stop_masks)

    def nbytes(self) -> int:
        """Data-plane footprint of the probe and record arrays, in bytes.

        The merged sorted keys and their record ids, the four parallel
        int64 record columns and the packed stop bitmask rows.  A
        width-128 key lives in an object array, so it costs its 8-byte
        pointer plus the Python int it points to.  Excludes the trie
        layout — report that separately via the layout's own
        ``nbytes()``.
        """
        keys = self.probe_keys
        total = keys.nbytes + self.probe_recs.nbytes + 4 * self.records * 8
        if keys.dtype == object:
            total += sum(sys.getsizeof(key) for key in keys)
        return total + self.stop_masks.nbytes


def compile_trie(trie: BinaryTrie, pool: Optional[ResultPool] = None) -> CompiledTrie:
    """Freeze a built ``BinaryTrie`` into a :class:`CompiledTrie`."""
    return CompiledTrie(trie, pool)


def compile_clue_table(table, trie) -> CompiledClueTable:
    """Freeze a built ``ClueTable`` against its receiver trie.

    ``trie`` may be the receiver's ``BinaryTrie``, an already-compiled
    :class:`CompiledTrie` (sharing one across tables shares the result
    pool and the flat trie arrays), or any compiled layout wrapping one
    (e.g. :class:`repro.fastpath.layouts.CompiledMultibitTrie`), in
    which case the batch kernels run their full-lookup descents through
    that layout.
    """
    if isinstance(trie, BinaryTrie):
        trie = CompiledTrie(trie)
    return CompiledClueTable(table, trie)
