"""RC115 — frozen compiled-array immutability.

``CompiledTrie``, ``CompiledClueTable`` and ``CompiledMultibitTrie``
are the regular technique's frozen artifacts: ``fastpath/compile.py``
and ``fastpath/layouts.py`` lay their arrays out once, and every batch
kernel then reads them lock-free and bounds-check-min.
A store into one of those arrays after compilation is never a local
bug — aliased ndarray views mean a single ``table.rec_fd[i] = x``
silently corrupts every router sharing the pool, and nothing crashes
until a lookup returns a wrong next hop (the class of failure the
never-wrong-forwarding oracles exist to catch).

The rule resolves every subscript / in-place store's base object
through the call graph's type tables and flags stores into the frozen
array fields anywhere outside the compiler itself.  Rebinding a whole
field (``self.child = np.asarray(...)``) stays legal — that is how
compile-time construction and sanctioned rebuilds (recompilation on
churn) work; it is *element* mutation of a published array that can
never be right outside :data:`SANCTIONED_SUFFIXES`.

Because the flagged function is usually a helper, the finding names
the call-graph roots that can reach it — the blast radius a reviewer
actually cares about.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List

from repro.analyzer.engine import Finding, Project, Rule, register

#: Files allowed to write compiled array elements: the compilers.
SANCTIONED_SUFFIXES = ("fastpath/compile.py", "fastpath/layouts.py")

#: Frozen array fields per compiled class (qname → fields).
FROZEN_FIELDS: Dict[str, FrozenSet[str]] = {
    "repro.fastpath.compile.CompiledTrie": frozenset(
        {"child", "node_result", "node_index"}
    ),
    "repro.fastpath.compile.CompiledClueTable": frozenset(
        {
            "probe_keys",
            "probe_recs",
            "rec_fd",
            "rec_cont_node",
            "rec_cont_depth",
            "rec_stop_row",
            "stop_masks",
        }
    ),
    "repro.fastpath.layouts.CompiledMultibitTrie": frozenset(
        {"slots", "leaf_codes", "level_shifts"}
    ),
}


def _sanctioned(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(normalized.endswith(s) for s in SANCTIONED_SUFFIXES)


@register
class FrozenArrayRule(Rule):
    code = "RC115"
    name = "frozen-array-mutation"
    rationale = (
        "compiled tries and clue tables are shared, aliased, and read "
        "lock-free by every batch kernel; element stores outside the "
        "compiler corrupt routers that never touched the writer"
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph()
        findings: List[Finding] = []
        for qname in sorted(graph.functions):
            node = graph.functions[qname]
            if _sanctioned(node.path):
                continue
            for event in node.facts("stores"):
                if "store" not in event["kind"]:
                    continue  # plain rebind: legal rebuild idiom
                klass = graph.resolve_base_type(node, event["base"])
                if klass is None:
                    continue
                frozen = FROZEN_FIELDS.get(klass)
                if frozen is None or event["field"] not in frozen:
                    continue
                roots = [
                    root for root in graph.roots_of(qname) if root != qname
                ]
                reach = (
                    "; reachable from %s" % ", ".join(roots[:3])
                    if roots
                    else ""
                )
                findings.append(
                    Finding(
                        self.code,
                        node.path,
                        event["line"],
                        event["col"],
                        "%r performs a %s into frozen %s.%s outside "
                        "fastpath/compile.py%s — compiled arrays are "
                        "immutable once published; rebuild via "
                        "compile_trie/compile_clue_table instead"
                        % (
                            qname,
                            event["kind"],
                            klass.rpartition(".")[2],
                            event["field"],
                            reach,
                        ),
                        self.name,
                    )
                )
        return findings
