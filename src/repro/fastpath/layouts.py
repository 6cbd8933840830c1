"""Entropy-bounded, cache-aware compiled trie layouts.

The dense :class:`~repro.fastpath.compile.CompiledTrie` spends one gather
per *bit* of descent and a full int64 per child slot.  Following Rétvári
et al. (*Compressing IP Forwarding Tables: Towards Entropy Bounds*,
arXiv:1402.1194) and Yegorov (*Cache-aware data structures for packet
forwarding tables*, arXiv:1804.09254), this module compiles the same
binary trie into a **multibit fixed-stride layout** that consumes *k*
address bits per gather:

``CompiledMultibitTrie`` — stride nodes of ``2**stride`` slots laid out
in one flat array, **leaf-pushed** so every slot resolves in a single
probe: a slot either continues to a child stride node (value ``>= 0``,
the child id) or terminates with the best-matching result of the whole
absent subtree folded into it (value ``< 0``).  The tables are
level-compressed in the sense that only *populated* stride nodes are
materialized — an empty or leaf-pushed subtree costs exactly one slot,
never a 2**stride expansion.

The result side is a **frequency-ranked packed pool**: terminal slots do
not carry raw int64 result-pool codes but small indices into a per-table
``leaf_codes`` array, assigned in descending frequency order so the hot
next hops get the smallest indices.  The per-table index bit-width
(``leaf_bits``) is chosen from the empirical next-hop distribution, and
the slot array itself is stored in the narrowest integer dtype that
holds both the child ids and the packed indices — this is where the
bytes-per-prefix approach toward the entropy bound comes from.

Memory-reference accounting for the stride kernels counts **one
reference per stride-node probe** (the ``leaf_codes`` pool is a few
hundred bytes and deliberately modelled as cache-resident — the entire
point of packing it).  A full lookup therefore terminates within
``ceil(width / stride)`` references instead of up to ``width + 1``.
Clue-table *resume* walks (Advance Ptr continuations with their per-bit
Claim-1 stop masks) stay on the dense binary arrays of the underlying
:class:`CompiledTrie` — stop bits are a per-binary-vertex notion — so a
multibit layout always carries its ``base`` dense trie alongside.

Every layout certifies bit-identical against the scalar object-graph
path on prefix, next hop, method and new clue; memrefs are *reported*
per layout, not required equal — stride descent legitimately changes
the count (that is the optimisation).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fastpath.compile import CompiledTrie, ResultPool, read_only
from repro.trie.binary_trie import BinaryTrie

#: The compiled layout family, as spelled on every ``--layout`` knob.
LAYOUTS = ("dense", "multibit4", "multibit8")

#: Address bits consumed per gather, per non-dense layout name.
STRIDES: Dict[str, int] = {"multibit4": 4, "multibit8": 8}


def _bits_for(count: int) -> int:
    """Bits needed to index ``count`` distinct values (min 1)."""
    return max(1, (max(count - 1, 0)).bit_length())


def _slot_dtype_bytes(lo: int, hi: int) -> int:
    """Bytes of the narrowest signed integer field holding [lo, hi]."""
    for nbytes in (1, 2, 4, 8):
        half = 1 << (8 * nbytes - 1)
        if -half <= lo and hi < half:
            return nbytes
    return 8


class CompiledMultibitTrie:
    """A fixed-stride, leaf-pushed view over a compiled binary trie.

    Built *from* a :class:`CompiledTrie` (the dense arrays are the
    structural source of truth and stay available as :attr:`base` for
    clue-table resume walks).  Implements the compiled-trie protocol the
    kernels and the certifier dispatch on: ``width``, ``pool``,
    ``stride`` plus the stride arrays below.

    * ``slots[node * fanout + chunk]`` — ``>= 0``: child stride-node id;
      ``< 0``: terminal, packed leaf index ``-(value + 1)``.
    * ``leaf_codes[packed]`` — result-pool code (``-1`` = no match),
      frequency-ranked so index 0 is the most common outcome.
    * ``level_shifts`` — per-level ``(shift, mask)`` pairs; the walk is
      bounded by ``len(level_shifts) == ceil(width / stride)`` probes.

    ``slots`` and ``leaf_codes`` are read-only; ``level_shifts`` is a
    tuple.
    """

    __slots__ = (
        "base",
        "pool",
        "width",
        "stride",
        "fanout",
        "size",
        "kind",
        "slots",
        "leaf_codes",
        "level_shifts",
        "leaf_bits",
        "slot_bits",
        "slot_bytes",
        "leaf_slots",
        "root_result",
    )

    def __init__(self, base: CompiledTrie, stride: int):
        if stride < 1:
            raise ValueError("stride must be at least 1, got %d" % stride)
        self.base = base
        self.pool: ResultPool = base.pool
        self.width = base.width
        self.stride = stride
        self.fanout = 1 << stride
        self.kind = "multibit%d" % stride
        self.root_result = base.root_result
        self.level_shifts = self._level_shifts(base.width, stride)
        segments, leaf_counts = self._expand(base, stride)
        self.size = len(segments)
        self._pack(segments, leaf_counts)

    # ------------------------------------------------------------------
    @staticmethod
    def _level_shifts(width: int, stride: int) -> Tuple[Tuple[int, int], ...]:
        shifts: List[Tuple[int, int]] = []
        depth = 0
        while depth < width:
            step = min(stride, width - depth)
            shifts.append((width - depth - step, (1 << step) - 1))
            depth += step
        return tuple(shifts)

    def _expand(self, base: CompiledTrie, stride: int):
        """Leaf-pushed stride expansion of the binary child arrays.

        BFS over stride boundaries: each stride node expands the binary
        subtree below its vertex for up to ``stride`` levels, folding
        dead branches into terminal slots carrying the best marked
        result seen on the path so far (that *is* leaf pushing — the
        answer travels down into the slot, so no backtracking and no
        best-so-far bookkeeping remain at lookup time).
        """
        child = base.child
        node_result = base.node_result
        width = base.width
        fanout = self.fanout
        # Parallel per-stride-node records: binary vertex, inherited
        # best (including the vertex's own mark), and start depth.
        m_vertex: List[int] = [0]
        m_best: List[int] = [base.root_result]
        m_depth: List[int] = [0]
        segments: List[List] = []
        leaf_counts: Dict[int, int] = {}
        index = 0
        while index < len(m_vertex):
            vertex = m_vertex[index]
            inherited = m_best[index]
            depth = m_depth[index]
            index += 1
            step = min(stride, width - depth)
            seg: List = [None] * fanout
            stack: List[Tuple[int, int, int, int]] = [(vertex, 0, 0, inherited)]
            while stack:
                node, level, path, best = stack.pop()
                if level == step:
                    descends = (
                        int(child[2 * node]) >= 0
                        or int(child[2 * node + 1]) >= 0
                    )
                    if descends and depth + step < width:
                        m_vertex.append(node)
                        m_best.append(best)
                        m_depth.append(depth + step)
                        seg[path] = ("c", len(m_vertex) - 1)
                    else:
                        seg[path] = best
                        leaf_counts[best] = leaf_counts.get(best, 0) + 1
                    continue
                span = 1 << (step - level - 1)
                for bit in (0, 1):
                    branch = int(child[2 * node + bit])
                    prefix_path = (path << 1) | bit
                    if branch < 0:
                        # The whole absent subtree leaf-pushes to one
                        # terminal run carrying the best so far.
                        low = prefix_path << (step - level - 1)
                        seg[low:low + span] = [best] * span
                        leaf_counts[best] = leaf_counts.get(best, 0) + span
                    else:
                        code = int(node_result[branch])
                        stack.append(
                            (
                                branch,
                                level + 1,
                                prefix_path,
                                code if code >= 0 else best,
                            )
                        )
            segments.append(seg)
        return segments, leaf_counts

    def _pack(self, segments: List[List], leaf_counts: Dict[int, int]) -> None:
        """Frequency-rank the leaf pool and pack the flat slot array."""
        ranked = sorted(leaf_counts.items(), key=lambda item: (-item[1], item[0]))
        packed_of = {code: rank for rank, (code, _count) in enumerate(ranked)}
        if not packed_of:  # width == 0 cannot happen, but stay total
            packed_of = {-1: 0}
        leaf_codes = sorted(packed_of, key=packed_of.get)
        slots: List[int] = []
        for seg in segments:
            for entry in seg:
                if entry is None:
                    # Padding past a partial final level: never probed.
                    slots.append(-1)
                elif type(entry) is tuple:
                    slots.append(entry[1])
                else:
                    slots.append(-(packed_of[entry] + 1))
        self.leaf_slots = sum(leaf_counts.values())
        self.leaf_bits = _bits_for(len(leaf_codes))
        hi = max(self.size - 1, 0)
        self.slot_bits = max(_bits_for(self.size), self.leaf_bits) + 1
        self.slot_bytes = _slot_dtype_bytes(-len(leaf_codes), hi)
        dtype = {1: np.int8, 2: np.int16, 4: np.int32, 8: np.int64}[
            self.slot_bytes
        ]
        self.slots = read_only(np.asarray(slots, dtype=dtype))
        self.leaf_codes = read_only(np.asarray(leaf_codes, dtype=np.int64))

    # ------------------------------------------------------------------
    def leaf_entropy_bits(self) -> float:
        """Empirical entropy (bits/leaf slot) of the packed leaf pool.

        The information-theoretic floor for storing this layout's
        leaf-pushed result function: ``leaf_slots * leaf_entropy_bits``
        bits is what an ideal entropy coder would need for the result
        side at this stride granularity (Rétvári et al. §III).
        """
        import math

        counts: Dict[int, int] = {}
        for value in self.slots.tolist():
            if value < 0:
                counts[value] = counts.get(value, 0) + 1
        total = sum(counts.values())
        if total <= 1:
            return 0.0
        entropy = 0.0
        for count in counts.values():
            share = count / total
            entropy -= share * math.log2(share)
        return entropy

    def nbytes(self) -> int:
        """Data-plane footprint of the stride arrays, in bytes.

        Counts the slot array at its chosen narrow width plus the packed
        leaf pool (one int64 code per distinct outcome).  The dense
        ``base`` arrays are accounted separately — a clue table that
        resumes continuations still holds them; a pure full-lookup
        deployment would not.
        """
        return len(self.slots) * self.slot_bytes + len(self.leaf_codes) * 8

    def __repr__(self) -> str:
        return "CompiledMultibitTrie(stride=%d, nodes=%d, leaf_bits=%d)" % (
            self.stride,
            self.size,
            self.leaf_bits,
        )


def layout_stride(layout) -> int:
    """The stride of a compiled layout object (0 for the dense trie)."""
    return getattr(layout, "stride", 0)


def compile_layout(trie, layout: str = "dense", pool: Optional[ResultPool] = None):
    """Compile ``trie`` into the named layout.

    ``trie`` may be a built :class:`BinaryTrie` or an already-compiled
    :class:`CompiledTrie` (reused as the base, sharing its result pool).
    Returns a :class:`CompiledTrie` for ``"dense"`` or a
    :class:`CompiledMultibitTrie` for ``"multibit4"``/``"multibit8"``.
    """
    if isinstance(trie, BinaryTrie):
        base = CompiledTrie(trie, pool)
    elif isinstance(trie, CompiledTrie):
        base = trie
    else:
        raise TypeError(
            "expected BinaryTrie or CompiledTrie, got %s" % type(trie).__name__
        )
    if layout == "dense":
        return base
    stride = STRIDES.get(layout)
    if stride is None:
        raise ValueError(
            "unknown layout %r; expected one of %s" % (layout, (LAYOUTS,))
        )
    return CompiledMultibitTrie(base, stride)
