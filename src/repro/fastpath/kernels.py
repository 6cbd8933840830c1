"""Vectorized batch lookup kernels over the compiled flat arrays.

The clue probe of a whole batch is one ``searchsorted`` over the
table's merged key array (`repro.fastpath.compile`): each lane's key is
its clue length and leading bits packed into one integer, so lanes of
every clue length resolve in the same call, and a batch of FD hits —
the paper's one-reference case — costs a fixed handful of array
operations however many lengths it mixes.  Walks below the probe
(resumed Ptr continuations, full lookups) take one numpy gather per
trie level instead of two dict probes per packet: each round moves
every lane one level down from wherever it stands, so a batch pays for
its longest walk rather than for the spread of its start depths, and
boolean masks retire lanes whose walk ended (no child, or an Advance
Claim-1 stop bit).  A batch that resumes only a few lanes walks them
one by one instead (`resume_walks`), since numpy's cost per array
operation does not shrink with the lane count.  The dense
kernels reproduce the object-graph memory-reference accounting *bit
for bit* — `repro.fastpath.certify` enforces that — so the paper's
counters stay exact while the wall-clock cost collapses.

The stride kernels (`repro.fastpath.layouts.CompiledMultibitTrie`)
consume *k* address bits per gather instead of one: answers stay
bit-identical (prefix, next hop, method, new clue — certified the same
way) while memrefs/packet drop to at most ``ceil(width / stride)`` on
the full-lookup side; the certifier compares those counts per layout
instead of requiring equality.  Clue-table resume walks always descend
the dense binary arrays — Claim-1 stop bits are per binary vertex.

The same kernels run at every width.  At width 32 a lane is an int64;
at width 128 it is a Python int in an object array (`lane_dtype`), on
which numpy's shifts, ``|``, ``searchsorted``, ``take`` and ``equal``
work unchanged.  Only the bits and stride chunks a walk extracts are
cast back to int64 before they index the trie arrays, a no-op at
width 32.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.fastpath.backend import (
    CODE_CLUE_MISS,
    CODE_FD_IMMEDIATE,
    CODE_FULL,
    CODE_RESUMED,
)
from repro.fastpath.compile import CompiledClueTable, lane_dtype
from repro.fastpath.layouts import CompiledMultibitTrie
from repro.lookup.hotpath import cold_path, hot_path


#: Resumed sets up to this size walk lane by lane (`resume_walks`).  The
#: vectorized walk costs ~25 numpy operations per trie level, about a
#: microsecond each however few lanes they carry; one lane's scalar walk
#: costs a few microseconds.  Serving batches resume one to three lanes;
#: a whole-workload replay, hundreds.
SCALAR_RESUME_LANES = 16


def as_destination_array(values, width: int = 32):
    """Pack destination address values for the kernels.

    The array has the lane dtype of ``width`` (:func:`lane_dtype`).  An
    ndarray already of that dtype passes through untouched — the serve
    loadgen materializes flat arrays up front, and re-boxing every
    element through a Python list each batch was pure hot-path overhead.
    At width 32 a list of plain ints converts in one ``np.array`` call;
    a list holding ``Address`` objects (alone or mixed with ints), and
    every list at width 128, is unwrapped element by element, so object
    lanes hold Python ints only.
    """
    dtype = lane_dtype(width)
    if isinstance(values, np.ndarray) or dtype == np.int64:
        try:
            return np.asarray(values, dtype=dtype)
        except TypeError:  # Address objects, or a mix: unwrap each one
            pass
    return np.array(
        [int(getattr(value, "value", value)) for value in values], dtype=dtype
    )


def as_length_array(lengths):
    """Pack clue lengths (−1 = clueless) as int64, at every width.

    Like :func:`as_destination_array`, an int64 ndarray is returned
    as-is and a list converts in one call.
    """
    return np.asarray(lengths, dtype=np.int64)


def _descend(ctrie, dst, node, depth, row, masks):
    """One lane's restricted walk from ``node`` at ``depth``: (best, refs).

    Mirrors ``TrieContinuation.search`` and :func:`_descend_lanes`: the
    start vertex itself is neither charged nor eligible as a match; each
    successful step costs one reference, updates the best marked code,
    then checks the stop bit of the vertex just entered.
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

    :func:`lookup_batch` hands over resumed sets too small to pay for
    the vectorized walk's per-operation cost (:data:`SCALAR_RESUME_LANES`).
    A lane keeps its FD code from ``fds`` when its walk enters no marked
    vertex.  Marked ``@cold_path``: the per-lane loop is the method here,
    and the hot-path rule treats the call as a sanctioned boundary.
    """
    codes: List[int] = []
    refs: List[int] = []
    for dst, node, depth, row, fd in zip(dsts, nodes, depths, rows, fds):
        best, steps = _descend(ctrie, dst, node, depth, row, masks)
        codes.append(best if best >= 0 else fd)
        refs.append(steps)
    return codes, refs


@hot_path
def _descend_lanes(ctrie, dsts, cur, depths, stop_masks, rows, best):
    """Restricted descent for every lane: (best codes, refs).

    Every lane steps down from its own start depth, one level per
    round, so a batch costs as many rounds as its longest walk, not the
    span from its shallowest start to its deepest stop (resumed lanes
    start at their records' continuation depths, far apart).  A lane
    retires when its next child is absent or (with ``stop_masks``) when
    the vertex it just entered carries its record's Claim-1 stop bit.
    Per the scalar semantics the start vertex itself is never charged
    nor matched; every *entered* vertex costs one reference, may update
    the best marked code, and only then is its stop bit consulted.
    ``best`` holds each lane's answer for a walk that enters no marked
    vertex (the caller's fallback code).
    """
    width = ctrie.width
    child = ctrie.child
    node_result = ctrie.node_result
    lanes = dsts.shape[0]
    refs = np.zeros(lanes, dtype=np.int64)
    alive = np.ones(lanes, dtype=bool)
    # Each lane's next address bit; past the last one the clamp reads
    # bit 0, and a full-length vertex has no child, so the lane retires.
    shift = np.subtract(width - 1, depths)
    for _ in range(width + 1):
        if not alive.any():
            break
        bits = np.right_shift(dsts, np.maximum(shift, 0)) & 1
        bits = bits.astype(np.int64, copy=False)
        branch = child[2 * cur + bits]
        alive &= branch >= 0
        cur = np.where(alive, branch, cur)
        refs += alive
        codes = node_result[cur]
        best = np.where(alive & (codes >= 0), codes, best)
        if stop_masks is not None:
            stop_bytes = stop_masks[rows, cur >> 3]
            alive &= (stop_bytes >> (cur & 7)) & 1 == 0
        shift -= 1
    return best, refs


@hot_path
def _full_lookup_dense(ctrie, dsts):
    """Clueless Regular baseline, batched: (codes, memrefs)."""
    lanes = dsts.shape[0]
    cur = np.zeros(lanes, dtype=np.int64)
    depths = np.zeros(lanes, dtype=np.int64)
    root = np.full(lanes, ctrie.root_result, dtype=np.int64)
    best, refs = _descend_lanes(ctrie, dsts, cur, depths, None, None, root)
    return best, refs + 1  # the root itself is always touched


@hot_path
def _full_lookup_multibit(mtrie, dsts):
    """Leaf-pushed stride descent for every lane: (codes, memrefs).

    One gather per stride level, all lanes in lockstep; a lane retires
    the moment it hits a terminal slot — the leaf-pushed answer is *in*
    the slot, so there is no best-so-far bookkeeping and the walk is
    bounded by ``ceil(width / stride)`` probes.  Each stride-node probe
    costs one memory reference; the packed ``leaf_codes`` pool is
    modelled as cache-resident (that is the point of packing it) and
    decodes for free.
    """
    lanes = dsts.shape[0]
    fanout = mtrie.fanout
    slots = mtrie.slots
    cur = np.zeros(lanes, dtype=np.int64)
    out = np.zeros(lanes, dtype=np.int64)
    refs = np.zeros(lanes, dtype=np.int64)
    alive = np.ones(lanes, dtype=bool)
    for shift, mask in mtrie.level_shifts:
        if not alive.any():
            break
        chunk = ((dsts >> shift) & mask).astype(np.int64, copy=False)
        value = slots[cur * fanout + chunk].astype(np.int64)
        refs = refs + alive
        terminal = alive & (value < 0)
        out = np.where(terminal, -(value + 1), out)
        alive = alive & ~terminal
        cur = np.where(alive, value, cur)
    if lanes:
        codes = mtrie.leaf_codes[out]
    else:
        codes = np.zeros(0, dtype=np.int64)
    return codes, refs


@hot_path
def _probe(ctable, dsts, clue_lens, carrying):
    """One merged-key clue probe for every lane: (hit mask, record ids).

    A lane's key is ``(clue_len << (width + 1)) | leading bits`` — the
    keying ``probe_keys`` is sorted by — so one ``searchsorted``
    resolves every clue length in the batch.  Lanes without a usable
    clue get an in-range shift and are masked out by ``carrying``; the
    record id of a lane that did not hit is in range but meaningless.
    Lane-sized temporaries are reused in place, so a large replay batch
    costs three scratch arrays, not one per step.  The key scratch
    arrays take the keys' dtype; the record ids go into the int64
    ``position`` array, which numpy cannot cast into an object array.
    """
    width = ctable.width
    keys = ctable.probe_keys
    wanted = np.maximum(clue_lens, 0, dtype=keys.dtype)
    np.minimum(wanted, width, out=wanted)
    shift = np.subtract(width, wanted)
    np.left_shift(wanted, width + 1, out=wanted)
    np.right_shift(dsts, shift, out=shift)
    np.bitwise_or(wanted, shift, out=wanted)
    position = keys.searchsorted(wanted)
    found = keys.take(position, mode="clip", out=shift)
    hit = np.equal(found, wanted)
    hit &= carrying
    record = ctable.probe_recs.take(position, mode="clip", out=position)
    return hit, record


@hot_path
def full_lookup_batch(ctrie, dsts):
    """Batched clueless lookups: ``(codes, memrefs)``.

    ``ctrie`` is any compiled layout — the dense :class:`CompiledTrie`
    or a :class:`CompiledMultibitTrie`; ``dsts`` comes from
    :func:`as_destination_array`; codes decode through ``ctrie.pool``.
    """
    if type(ctrie) is CompiledMultibitTrie:
        return _full_lookup_multibit(ctrie, dsts)
    return _full_lookup_dense(ctrie, dsts)


@hot_path
def lookup_batch(ctable: CompiledClueTable, dsts, clue_lens):
    """Batched clue-assisted lookups over a compiled table.

    Returns ``(methods, codes, new_clues, memrefs)`` — method codes from
    `repro.fastpath.backend`, result codes into ``ctable.trie.pool``,
    the outgoing clue length per lane (−1 for no match), and the exact
    object-graph memory-reference count per lane.  ``dsts`` and
    ``clue_lens`` come from :func:`as_destination_array` and
    :func:`as_length_array`.
    """
    ctrie = ctable.trie
    width = ctable.width
    lanes = dsts.shape[0]
    carrying = (clue_lens >= 0) & (clue_lens <= width)
    methods = np.where(
        carrying, np.int64(CODE_CLUE_MISS), np.int64(CODE_FULL)
    )
    codes = np.full(lanes, -1, dtype=np.int64)
    memrefs = carrying.astype(np.int64)  # every probe costs one reference
    if ctable.records:
        hit, record = _probe(ctable, dsts, clue_lens, carrying)
        fd = ctable.rec_fd[record]
        cont = ctable.rec_cont_node[record]
        resumed = cont >= 0
        resumed &= hit
        np.copyto(methods, np.int64(CODE_FD_IMMEDIATE), where=hit)
        np.copyto(codes, fd, where=hit)
        if resumed.any():
            methods[resumed] = CODE_RESUMED
            recs = record[resumed]
            masks = ctable.stop_masks if ctable.has_stops else None
            if recs.shape[0] > SCALAR_RESUME_LANES:
                best, refs = _descend_lanes(
                    ctrie,
                    dsts[resumed],
                    cont[resumed],
                    ctable.rec_cont_depth[recs],
                    masks,
                    ctable.rec_stop_row[recs] if masks is not None else None,
                    codes[resumed],  # the FD code, unless the walk matches
                )
            else:
                best, refs = resume_walks(
                    ctrie,
                    dsts[resumed].tolist(),
                    cont[resumed].tolist(),
                    ctable.rec_cont_depth[recs].tolist(),
                    ctable.rec_stop_row[recs].tolist(),
                    masks,
                    codes[resumed].tolist(),
                )
            codes[resumed] = best
            memrefs[resumed] += refs
        full_path = ~hit
    else:
        full_path = np.ones(lanes, dtype=bool)
    if full_path.any():
        full_codes, full_refs = full_lookup_batch(
            ctable.layout, dsts[full_path]
        )
        codes[full_path] = full_codes
        memrefs[full_path] += full_refs
    lengths = ctrie.pool.lengths_array()
    if len(lengths):
        new_clues = np.where(
            codes >= 0, lengths[np.maximum(codes, 0)], np.int64(-1)
        )
    else:  # empty pool: nothing ever matches, so no lane carries a clue
        new_clues = np.full(lanes, -1, dtype=np.int64)
    return methods, codes, new_clues, memrefs

