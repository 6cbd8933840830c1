"""Per-layer metrics of a traced cycle, named after the ``repro`` packages.

Every layer time is self time: the layer's spans minus the spans nested
directly in them (found through each span's parent) and minus garbage
collections, which are the ``runtime`` layer's.  Each instant of a
traced cycle therefore counts for one layer only, so the work of one
layer never shows in another's time.  Times have the reference samples
taken out and are converted to reference seconds at the cycle's median
sample.  ``*.engine_self_s`` is the window minus every hooked span and
collection inside it.  Counts the engines already report come from
their payloads (``Cycle.counts``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from refclock import Interval, intersect, merge, subtract, to_reference
from tracer import END, NAME, PARENT, START, Hook, Tracer

CERTIFY = "fastpath.certify"
KERNEL = "fastpath.kernel"


def _tally_kernel(tracer: Tracer, result) -> None:
    """Method mix and memrefs from the arrays ``lookup_batch`` returns.

    Only lanes served in the window count, not the lanes of a
    certification run inside it (chaos rebuilds and re-certifies there).
    """
    if tracer.phase != "window" or tracer.inside(CERTIFY):
        return
    import numpy as np

    from repro.fastpath.backend import CODE_FD_IMMEDIATE, CODE_FULL, CODE_RESUMED

    methods, _codes, _new_clues, memrefs = result
    mix = np.bincount(np.asarray(methods, dtype=np.int64), minlength=4)
    tracer.add("kernel.calls")
    tracer.add("kernel.lanes", int(mix.sum()))
    tracer.add("kernel.fd", int(mix[CODE_FD_IMMEDIATE]))
    tracer.add("kernel.resumed", int(mix[CODE_RESUMED]))
    tracer.add("kernel.full", int(mix[CODE_FULL]))
    tracer.add("kernel.memrefs", int(np.asarray(memrefs).sum()))


def _tally_records(tracer: Tracer, table) -> None:
    tracer.add("core.clue_records", len(table))


def _tally_insert(tracer: Tracer, _node) -> None:
    tracer.add("trie.inserts")


HOOKS: List[Hook] = [
    Hook("tablegen", "repro.tablegen.synthetic:generate_table"),
    Hook("tablegen", "repro.tablegen.neighbors:derive_neighbor"),
    Hook("routing", "repro.routing.topology:mesh_topology"),
    Hook("routing", "repro.routing.topology:originate_prefixes"),
    Hook("routing", "repro.routing.pathvector:PathVectorRouting.run"),
    Hook("trie.insert", "repro.trie.binary_trie:BinaryTrie.insert", _tally_insert),
    Hook("core.receiver_state", "repro.core.receiver:ReceiverState.__init__"),
    Hook("core.clue_table", "repro.core.advance:AdvanceMethod.build_table", _tally_records),
    Hook("core.clue_table", "repro.core.simple:SimpleMethod.build_table", _tally_records),
    Hook("core.maintenance.apply", "repro.core.maintenance:MaintainedClueTable.apply_batch"),
    Hook("core.maintenance.flush", "repro.core.maintenance:MaintainedClueTable.flush"),
    Hook("lookup.regular_build", "repro.lookup.regular:RegularTrieLookup.__init__"),
    Hook("fastpath.compile", "repro.fastpath.layouts:compile_layout"),
    Hook("fastpath.compile", "repro.fastpath.compile:compile_clue_table"),
    Hook(CERTIFY, "repro.fastpath.certify:certification_batch"),
    Hook(CERTIFY, "repro.fastpath.certify:certify_full"),
    Hook(CERTIFY, "repro.fastpath.certify:certify_clue"),
    Hook(KERNEL, "repro.fastpath.kernels:lookup_batch", _tally_kernel),
    Hook("serve.batcher", "repro.serve.batcher:RequestBatcher.offer"),
    Hook("serve.batcher", "repro.serve.batcher:RequestBatcher.take_batch"),
    Hook("serve.dispatch", "repro.serve.dispatch:route_batch"),
    Hook("serve.loadgen", "repro.serve.loadgen:ZipfLoadGenerator.__init__"),
    Hook("serve.loadgen", "repro.serve.loadgen:ZipfLoadGenerator.generate"),
    # One layer: set-up builds every replica through ``build_replica_shard``,
    # and the window's rebuilds call it again.
    Hook("resilience.replica_build", "repro.resilience.replica:build_replica_shards"),
    Hook("resilience.replica_build", "repro.resilience.replica:build_replica_shard"),
    Hook("netsim.apply_update", "repro.netsim.router:Router.apply_update"),
    Hook("netsim.forward", "repro.netsim.network:Network.forward"),
    Hook("churn.audit", "repro.churn.audit:ConsistencyAuditor.audit"),
]

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("runtime.setup_gc_s", "s", "lower"),
    ("runtime.window_gc_s", "s", "lower"),
    ("runtime.audit_gc_s", "s", "lower"),
    ("runtime.gc_collections", "count", "lower"),
    ("tablegen.s", "s", "lower"),
    ("routing.s", "s", "lower"),
    ("trie.insert_s", "s", "lower"),
    ("trie.inserts", "count", "lower"),
    ("core.receiver_state_s", "s", "lower"),
    ("core.clue_table_s", "s", "lower"),
    ("core.clue_records", "count", "lower"),
    ("core.maintenance.apply_s", "s", "lower"),
    ("core.maintenance.flush_s", "s", "lower"),
    ("core.maintenance.entries_rebuilt", "count", "lower"),
    ("core.maintenance.dirty_marked", "count", "lower"),
    ("lookup.regular_build_s", "s", "lower"),
    ("fastpath.compile_s", "s", "lower"),
    ("fastpath.certify_s", "s", "lower"),
    ("fastpath.certified_lanes", "count", "higher"),
    ("fastpath.bytes_per_prefix", "B", "lower"),
    ("fastpath.kernel_s", "s", "lower"),
    ("fastpath.kernel_calls", "count", "lower"),
    ("fastpath.ns_per_lane", "ns", "lower"),
    ("fastpath.fd_share", "ratio", "higher"),
    ("fastpath.resumed_share", "ratio", "lower"),
    ("fastpath.full_share", "ratio", "lower"),
    ("fastpath.memrefs_per_lane", "refs", "lower"),
    ("serve.loadgen_s", "s", "lower"),
    ("serve.dispatch_s", "s", "lower"),
    ("serve.batcher_s", "s", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.lanes_per_batch", "count", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.p99_ticks", "ticks", "lower"),
    ("serve.engine_self_s", "s", "lower"),
    ("serve.audit_reference_s", "s", "lower"),
    ("resilience.replica_build_s", "s", "lower"),
    ("resilience.rebuild_s", "s", "lower"),
    ("resilience.rebuilt_lanes", "count", "higher"),
    ("resilience.retries", "count", "lower"),
    ("resilience.hedges", "count", "lower"),
    ("resilience.failovers", "count", "lower"),
    ("resilience.degraded", "count", "lower"),
    ("resilience.late_share", "ratio", "lower"),
    ("resilience.p99_ticks", "ticks", "lower"),
    ("resilience.engine_self_s", "s", "lower"),
    ("resilience.baseline_lookups_per_s", "1/s", "higher"),
    ("resilience.audit_distinct_share", "ratio", "lower"),
    ("netsim.apply_update_s", "s", "lower"),
    ("netsim.forward_s", "s", "lower"),
    ("netsim.packets", "count", "higher"),
    ("churn.updates", "count", "higher"),
    ("churn.engine_self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unhooked_hooks", "count", "lower"),
]

#: Hook names whose spans the serve audit spends rebuilding its reference.
_AUDIT_REFERENCE = ("core.receiver_state", "core.clue_table", "lookup.regular_build")


def self_times(spans: Sequence[list], gc_pauses: Sequence[Interval]) -> Dict[str, List[Interval]]:
    """Each layer's self time, as disjoint intervals.

    A span's self time is its interval minus its children's, so every
    instant belongs to the innermost open span; collections are cut out
    of every layer.  A kernel call with a certification span among its
    ancestors counts as certification.
    """
    owners: List[str] = []
    certifying: List[bool] = []
    children: Dict[int, List[Interval]] = {}
    for record in spans:
        name, parent = record[NAME], record[PARENT]
        under = parent >= 0 and certifying[parent]
        if name == KERNEL and under:
            name = CERTIFY
        owners.append(name)
        certifying.append(under or name == CERTIFY)
        if parent >= 0:
            children.setdefault(parent, []).append((record[START], record[END]))
    layers: Dict[str, List[Interval]] = {}
    for index, record in enumerate(spans):
        own = subtract([(record[START], record[END])], children.get(index, []))
        layers.setdefault(owners[index], []).extend(own)
    return {name: subtract(own, gc_pauses) for name, own in layers.items()}


def layer_metrics(
    kind: str,
    cycle,
    tracer: Tracer,
    samples: Sequence[Interval],
    median_sample_s: float,
    baseline_lookups_per_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced cycle except ``trace.*``.

    ``kind`` is ``"serve"``, ``"chaos"`` or ``"churn"``; a metric of a
    layer the workload does not run reads 0.
    """
    phases = cycle.marks.phases()
    gc_pauses = merge(tracer.gc_pauses)
    layers = self_times(tracer.spans, gc_pauses)

    def ref(intervals) -> float:
        return to_reference(intervals, samples, median_sample_s)

    def layer_s(name: str, within: str = "total") -> float:
        return ref(intersect(layers.get(name, []), phases.get(within, [])))

    tallies = tracer.tallies
    counts = cycle.counts
    (total_start, total_end), = phases["total"]
    window = phases.get("window", [])
    every_span = [(record[START], record[END]) for record in tracer.spans]
    self_window = ref(subtract(window, every_span + gc_pauses))
    # Inclusive on purpose: how much of audit_s the reference rebuild
    # takes, with the trie inserts and collections it causes.
    audit_reference = ref(
        intersect(
            [(r[START], r[END]) for r in tracer.spans if r[NAME] in _AUDIT_REFERENCE],
            phases.get("audit", []),
        )
    )
    lanes = tallies.get("kernel.lanes", 0)
    kernel_s = layer_s(KERNEL, within="window")

    def share(key: str) -> float:
        return tallies.get(key, 0) / lanes if lanes else 0.0

    metrics = {
        "runtime.setup_gc_s": ref(intersect(gc_pauses, phases.get("setup", []))),
        "runtime.window_gc_s": ref(intersect(gc_pauses, window)),
        "runtime.audit_gc_s": ref(intersect(gc_pauses, phases.get("audit", []))),
        "runtime.gc_collections": sum(
            1 for start, _end in tracer.gc_pauses if total_start <= start < total_end
        ),
        "tablegen.s": layer_s("tablegen"),
        "routing.s": layer_s("routing"),
        "trie.insert_s": layer_s("trie.insert"),
        "trie.inserts": tallies.get("trie.inserts", 0),
        "core.receiver_state_s": layer_s("core.receiver_state"),
        "core.clue_table_s": layer_s("core.clue_table"),
        "core.clue_records": tallies.get("core.clue_records", 0),
        "core.maintenance.apply_s": layer_s("core.maintenance.apply"),
        "core.maintenance.flush_s": layer_s("core.maintenance.flush"),
        "core.maintenance.entries_rebuilt": counts.get("entries_rebuilt", 0),
        "core.maintenance.dirty_marked": counts.get("dirty_marked", 0),
        "lookup.regular_build_s": layer_s("lookup.regular_build"),
        "fastpath.compile_s": layer_s("fastpath.compile"),
        "fastpath.certify_s": layer_s(CERTIFY),
        "fastpath.certified_lanes": counts.get("certified_lanes", 0),
        "fastpath.bytes_per_prefix": counts.get("bytes_per_prefix", 0.0),
        "fastpath.kernel_s": kernel_s,
        "fastpath.kernel_calls": tallies.get("kernel.calls", 0),
        "fastpath.ns_per_lane": kernel_s / lanes * 1e9 if lanes else 0.0,
        "fastpath.fd_share": share("kernel.fd"),
        "fastpath.resumed_share": share("kernel.resumed"),
        "fastpath.full_share": share("kernel.full"),
        "fastpath.memrefs_per_lane": share("kernel.memrefs"),
        "serve.loadgen_s": layer_s("serve.loadgen"),
        "serve.dispatch_s": layer_s("serve.dispatch"),
        "serve.batcher_s": layer_s("serve.batcher"),
        "serve.batches": 0,
        "serve.lanes_per_batch": 0.0,
        "serve.shed": 0,
        "serve.p99_ticks": 0,
        "serve.engine_self_s": 0.0,
        "serve.audit_reference_s": 0.0,
        "resilience.replica_build_s": layer_s("resilience.replica_build", within="setup"),
        "resilience.rebuild_s": layer_s("resilience.replica_build", within="window"),
        "resilience.rebuilt_lanes": 0,
        "resilience.retries": 0,
        "resilience.hedges": 0,
        "resilience.failovers": 0,
        "resilience.degraded": 0,
        "resilience.late_share": 0.0,
        "resilience.p99_ticks": 0,
        "resilience.engine_self_s": 0.0,
        "resilience.baseline_lookups_per_s": 0.0,
        "resilience.audit_distinct_share": 0.0,
        "netsim.apply_update_s": layer_s("netsim.apply_update"),
        "netsim.forward_s": layer_s("netsim.forward"),
        "netsim.packets": counts.get("packets", 0),
        "churn.updates": counts.get("updates", 0),
        "churn.engine_self_s": 0.0,
    }
    if kind == "serve":
        metrics.update(
            {
                "serve.batches": counts["batches"],
                "serve.lanes_per_batch": counts["completed"] / counts["batches"],
                "serve.shed": counts["shed"],
                "serve.p99_ticks": counts["p99_ticks"],
                "serve.engine_self_s": self_window,
                "serve.audit_reference_s": audit_reference,
            }
        )
    elif kind == "chaos":
        served = counts["served"]
        metrics.update(
            {
                "resilience.rebuilt_lanes": counts["rebuilt_lanes"],
                "resilience.retries": counts["retries"],
                "resilience.hedges": counts["hedges"],
                "resilience.failovers": counts["failovers"],
                "resilience.degraded": counts["degraded"],
                "resilience.late_share": counts["late"] / served,
                "resilience.p99_ticks": counts["p99_ticks"],
                "resilience.engine_self_s": self_window,
                "resilience.baseline_lookups_per_s": baseline_lookups_per_s,
                "resilience.audit_distinct_share": (
                    counts["audit_distinct"] / counts["audit_checked"]
                ),
            }
        )
    else:
        metrics["churn.engine_self_s"] = self_window
    return metrics
