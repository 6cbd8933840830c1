"""Worker shards: a compiled-and-certified slice of the lookup tables.

Each :class:`Shard` owns the receiver-table prefixes whose address
ranges overlap its destination range (see
:meth:`repro.serve.dispatch.ShardPlan.prefix_shards` — prefixes shorter
than the shard grid are replicated, everything else lands on exactly
one shard) and a clue table built over the sender prefixes overlapping
the same range.  Because every prefix that can match a destination owned
by the shard is present in the slice, the shard-local lookup returns the
same ``(prefix, next_hop)`` decision as the receiver's full-table
longest-prefix match — the serving loop's audit re-checks that for every
served answer, decoded through the compiled pool.

Building reuses the existing machinery, and builds each structure
once.  The slice becomes a ``ReceiverState``.  The Advance builder
overlays a trie of the shard's clue slice: Claim 1 looks only below a
clue (§3.1.2), so the slice decides every verdict the whole sender trie
would.  The Simple builder reads no sender trie.
``repro.fastpath.compile`` freezes the table and the state's trie into
flat arrays.  Then the certification gate: one ``certify_clue`` call,
covering the full-lookup layout and the clue kernel alike, must pass
against the slice's scalar clue lookup over a deterministic sweep
before the shard is allowed to serve a single request.  That scalar
lookup walks the state's own trie and is a local of construction; only
the compiled arrays outlive it.  ``ClueEntry.sender_node`` points into
the slice trie, which nothing on a shard reads.  An uncertified shard
raises; the serving plane never starts.  :meth:`Shard.replica` hands
the certified arrays to another worker without building them again.

:func:`partition_slices` cuts the tables into slices, and
:func:`repro.resilience.replica.build_replica_shards`, the one shard
builder of both serving front ends, builds one shard per slice.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.addressing import IPV4_WIDTH
from repro.core.advance import AdvanceMethod
from repro.core.lookup import ClueAssistedLookup
from repro.core.receiver import ReceiverState
from repro.core.simple import SimpleMethod
from repro.fastpath.certify import certification_batch, certify_clue
from repro.fastpath.compile import compile_clue_table
from repro.fastpath.kernels import lookup_batch
from repro.fastpath.layouts import LAYOUTS, compile_layout
from repro.lookup.hotpath import hot_path
from repro.lookup.regular import RegularTrieLookup
from repro.serve.dispatch import ShardPlan
from repro.trie.binary_trie import BinaryTrie

METHODS = ("simple", "advance")


class Shard:
    """One worker: a certified compiled table slice and its metrics view."""

    __slots__ = (
        "shard_id",
        "entries",
        "clue_universe",
        "ctrie",
        "ctable",
        "certified_lanes",
        "layout",
        "metrics",
    )

    def __init__(
        self,
        shard_id: int,
        entries: List[Tuple[object, object]],
        clue_universe: List[object],
        sender_trie,
        method: str = "advance",
        seed: int = 0,
        metrics=None,
        layout: str = "dense",
    ):
        if method not in METHODS:
            raise ValueError("method must be one of %s" % (METHODS,))
        if layout not in LAYOUTS:
            raise ValueError(
                "layout must be one of %s, got %r" % (", ".join(LAYOUTS), layout)
            )
        self.shard_id = shard_id
        self.entries = list(entries)
        self.clue_universe = list(clue_universe)
        self.layout = layout
        #: Pre-bound per-shard instrument view (``ShardInstruments``);
        #: ``None`` keeps the shard usable without telemetry.
        self.metrics = metrics
        state = ReceiverState(self.entries, IPV4_WIDTH)
        if method == "advance":
            # A trie of the clue slice decides every Claim-1 verdict and
            # stop bit the whole sender trie would (module docstring).
            clue_trie = BinaryTrie.from_prefixes(
                ((clue, None) for clue in self.clue_universe), IPV4_WIDTH
            )
            builder = AdvanceMethod(clue_trie, state, "regular")
        else:
            builder = SimpleMethod(state, "regular")
        table = builder.build_table(self.clue_universe)
        #: The compiled full-lookup layout this shard serves through.
        self.ctrie = compile_layout(state.trie, layout)
        self.ctable = compile_clue_table(table, self.ctrie)
        scalar = ClueAssistedLookup(
            RegularTrieLookup.over_trie(state.trie, state.entries), table
        )
        self.certified_lanes = self._certify(scalar, sender_trie, seed)

    def _certify(self, scalar, sender_trie, seed: int) -> int:
        """The gate: kernels must agree with the slice's scalar clue
        lookup ``scalar``, exactly.

        The sweep draws each destination's sender BMP from the whole
        ``sender_trie``: a replicated short receiver prefix puts
        destinations outside the shard's range into it.  Raises
        :class:`repro.fastpath.certify.CertificationError` on the first
        divergence; the engine refuses to build a serving plane around a
        shard that did not pass.
        """
        sweep = list(self.entries)
        sweep.extend((clue, None) for clue in self.clue_universe)
        if not sweep:
            return 0
        dsts, lens = certification_batch(sender_trie, sweep, seed=seed)
        # One call certifies the full-lookup layout (a stride layout with
        # the dense base its resume walks descend) and the clue kernel.
        return certify_clue(self.ctable, scalar, dsts, lens)

    def replica(self, metrics=None) -> "Shard":
        """Another worker serving this shard's certified arrays.

        It shares the compiled ``ctrie``/``ctable`` and the slices,
        which nothing writes after they are built, and keeps its own
        metrics view.  It certified nothing itself, so its
        ``certified_lanes`` is 0.
        """
        twin = Shard.__new__(Shard)
        for name in Shard.__slots__:
            setattr(twin, name, getattr(self, name))
        twin.metrics = metrics
        twin.certified_lanes = 0
        return twin

    @hot_path
    def process(self, dsts, clue_lens):
        """Serve one coalesced batch: result codes + memref counts.

        ``dsts``/``clue_lens`` come packed from the batcher
        (``as_destination_array`` layout); the returned codes decode
        through ``self.ctable.trie.pool``.  One kernel invocation per
        batch — no per-request Python.
        """
        methods, codes, new_clues, memrefs = lookup_batch(
            self.ctable, dsts, clue_lens
        )
        lanes = len(dsts)
        metrics = self.metrics
        if metrics is not None:
            metrics.serve_requests.inc(lanes)
            metrics.serve_batches.inc()
            metrics.serve_batch_size.observe(lanes)
        return codes, memrefs

    def decode(self, code: int) -> Tuple[Optional[object], Optional[object]]:
        """``(prefix, next_hop)`` for one result code (audit/report path)."""
        pool = self.ctable.trie.pool
        if code < 0:
            return None, None
        return pool.prefixes[code], pool.next_hops[code]

    def __repr__(self) -> str:
        return "Shard(id=%d, prefixes=%d, clues=%d)" % (
            self.shard_id,
            len(self.entries),
            len(self.clue_universe),
        )


def partition_slices(
    plan: ShardPlan, receiver_entries, sender_trie
) -> Tuple[List[List[Tuple[object, object]]], List[List[object]]]:
    """Receiver-entry and clue-universe slices per shard of ``plan``.

    Each receiver entry and sender prefix (the clue universe) goes on
    every shard its address range overlaps: the one replication rule.
    """
    entry_slices: List[List[Tuple[object, object]]] = [
        [] for _ in range(plan.shards)
    ]
    for prefix, next_hop in receiver_entries:
        for shard in plan.prefix_shards(prefix):
            entry_slices[shard].append((prefix, next_hop))
    clue_slices: List[List[object]] = [[] for _ in range(plan.shards)]
    for clue in sender_trie.prefixes():
        for shard in plan.prefix_shards(clue):
            clue_slices[shard].append(clue)
    return entry_slices, clue_slices
