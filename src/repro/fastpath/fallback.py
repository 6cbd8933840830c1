"""Pure-Python batch kernels: semantics-identical twins of the numpy path.

These run whenever numpy is absent, when the caller forces them (the
differential tests do), and always for width-128 tables whose addresses
do not fit an int64 lane.  They iterate per packet — the point is
portability and a second implementation to certify against, not speed —
so they are deliberately *not* marked ``@hot_path`` — the per-element
loops that RC111 bans from vectorized kernels are the whole method here
— and *are* marked ``@cold_path``, so the hot-path rule (RC101) treats
the kernel dispatch into them as a sanctioned boundary: their per-batch
result lists are amortized across every lane of the batch.  The numpy
kernel also calls `resume_walks` itself for a batch that resumes only a
few lanes, where walking them one by one is cheaper than its per-level
array operations.

Cost-model parity with the object graph (and with the numpy kernels):

* full lookup — 1 reference for the root plus 1 per successful descent;
* clue probe — exactly 1 reference, hit or miss;
* a miss (or absent/out-of-range clue) adds a full lookup on top;
* a hit with empty Ptr is final at 1 reference (FD immediate);
* a hit with a Ptr resumes below the clue vertex, 1 reference per
  vertex actually visited, honouring the record's Claim-1 stop bits.

Under a multibit layout (`repro.fastpath.layouts`) the full-lookup side
costs one reference per *stride node* probed instead — bounded by
``ceil(width / stride)`` — while the probe and resume accounting above
is unchanged; answers stay bit-identical either way.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.fastpath.backend import (
    CODE_CLUE_MISS,
    CODE_FD_IMMEDIATE,
    CODE_FULL,
    CODE_RESUMED,
)
from repro.fastpath.compile import CompiledClueTable, CompiledTrie
from repro.fastpath.layouts import CompiledMultibitTrie
from repro.lookup.hotpath import cold_path


def _descend_multibit(mtrie, dst):
    """Stride walk for one packet: (code, refs).

    Mirrors the numpy stride kernel: one reference per stride-node
    probe, terminal slots carry the leaf-pushed answer, the packed
    ``leaf_codes`` pool decodes for free (cache-resident by design).
    """
    slots = mtrie.slots
    fanout = mtrie.fanout
    leaf_codes = mtrie.leaf_codes
    node = 0
    refs = 0
    for shift, mask in mtrie.level_shifts:
        chunk = (dst >> shift) & mask
        value = int(slots[node * fanout + chunk])
        refs += 1
        if value < 0:
            return int(leaf_codes[-(value + 1)]), refs
        node = value
    # Unreachable by construction (the final level is all-terminal),
    # but stay total: report no match at the full probe budget.
    return -1, refs


def _full_one(layout, dst):
    """One clueless lookup through whichever layout compiled: (code, refs)."""
    if type(layout) is CompiledMultibitTrie:
        return _descend_multibit(layout, dst)
    best, refs = _descend(layout, dst, 0, 0, 0, None)
    if best < 0:
        best = layout.root_result
    return best, refs + 1  # the root itself is always touched


def _descend(ctrie, dst, node, depth, row, masks):
    """Restricted walk from ``node`` at ``depth``: (best code, refs).

    Mirrors ``TrieContinuation.search``: the start vertex itself is
    neither charged nor eligible as a match; each successful step costs
    one reference, updates the best marked code, then checks the stop
    bit of the vertex just entered.
    """
    child = ctrie.child
    node_result = ctrie.node_result
    width = ctrie.width
    best = -1
    refs = 0
    for index in range(depth, width):
        bit = (dst >> (width - 1 - index)) & 1
        branch = int(child[2 * node + bit])
        if branch < 0:
            break
        node = branch
        refs += 1
        code = int(node_result[branch])
        if code >= 0:
            best = code
        if masks is not None and (masks[row][branch >> 3] >> (branch & 7)) & 1:
            break
    return best, refs


@cold_path
def resume_walks(
    ctrie,
    dsts: Sequence[int],
    nodes: Sequence[int],
    depths: Sequence[int],
    rows: Sequence[int],
    masks,
    fds: Sequence[int],
) -> Tuple[List[int], List[int]]:
    """Resumed walks lane by lane: (codes, refs), one per lane.

    The numpy kernel hands over resumed sets too small to pay for its
    per-operation cost (``kernels.SCALAR_RESUME_LANES``).  A lane keeps
    its FD code from ``fds`` when its walk enters no marked vertex.
    """
    codes: List[int] = []
    refs: List[int] = []
    for dst, node, depth, row, fd in zip(dsts, nodes, depths, rows, fds):
        best, steps = _descend(ctrie, dst, node, depth, row, masks)
        codes.append(best if best >= 0 else fd)
        refs.append(steps)
    return codes, refs


@cold_path
def full_lookup_batch(
    ctrie, dsts: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Clueless lookups over a batch, any layout: (codes, memrefs)."""
    codes: List[int] = []
    memrefs: List[int] = []
    for dst in dsts:
        best, refs = _full_one(ctrie, int(dst))
        codes.append(best)
        memrefs.append(refs)
    return codes, memrefs


@cold_path
def clue_lookup_batch(
    ctable: CompiledClueTable, dsts: Sequence[int], clue_lens: Sequence[int]
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Clue-assisted lookup over a batch.

    Returns ``(methods, codes, new_clues, memrefs)``; ``clue_lens[i]``
    is the arriving clue length or -1 for a clueless packet, and the
    clue value is by construction the destination's own prefix of that
    length (what a well-formed upstream stamps).
    """
    ctrie = ctable.trie
    layout = ctable.layout
    width = ctable.width
    probe = ctable.probe_index
    pool_lengths = ctable.trie.pool.lengths
    masks = ctable.stop_masks if ctable.has_stops else None
    methods: List[int] = []
    codes: List[int] = []
    new_clues: List[int] = []
    memrefs: List[int] = []
    for dst, length in zip(dsts, clue_lens):
        dst = int(dst)
        length = int(length)
        if length < 0 or length > width:
            best, refs = _full_one(layout, dst)
            method = CODE_FULL
        else:
            record = probe.get((length, dst >> (width - length) if length else 0), -1)
            if record < 0:
                best, refs = _full_one(layout, dst)
                method = CODE_CLUE_MISS
                refs += 1  # the failed probe on top of the full walk
            else:
                start = int(ctable.rec_cont_node[record])
                fd = int(ctable.rec_fd[record])
                if start < 0:
                    method = CODE_FD_IMMEDIATE
                    best = fd
                    refs = 1
                else:
                    method = CODE_RESUMED
                    best, refs = _descend(
                        ctrie,
                        dst,
                        start,
                        int(ctable.rec_cont_depth[record]),
                        int(ctable.rec_stop_row[record]),
                        masks,
                    )
                    if best < 0:
                        best = fd
                    refs += 1  # the probe that found the record
        methods.append(method)
        codes.append(best)
        new_clues.append(pool_lengths[best] if best >= 0 else -1)
        memrefs.append(refs)
    return methods, codes, new_clues, memrefs
