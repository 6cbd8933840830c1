"""Resolve module summaries into a whole-program call graph.

Resolution rules (deliberately lightweight — see DESIGN.md §9 for the
imprecision budget):

* plain names resolve through the module's own functions/classes, then
  its import table (``from a.b import f`` binds ``f → a.b.f``);
* dotted chains resolve their first segment through the import table
  and the rest through the module/class index (``dispatch.probe_one``
  → ``repro.serve.dispatch.probe_one``); relative imports are anchored
  at the summarizing module's package;
* ``self.m()`` / ``cls.m()`` resolve within the enclosing class, then
  depth-first through its statically named bases;
* ``obj.m()`` resolves when ``obj``'s type is locally evident — an
  annotated parameter, ``obj = SomeClass(...)``, or a ``self.attr``
  assigned one of those in any method of the class;
* calls to a class resolve to its ``__init__`` when one is defined.

Anything else (callbacks, dict-of-functions dispatch, ``getattr``) is
left unresolved: the graph under-approximates, so closure rules can
miss but never hallucinate an edge.  Reachability keeps first-seen
parent pointers, so every finding can print the concrete entry→sink
call path that makes it actionable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analyzer.graph.summary import (
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
)


class FunctionNode:
    """One function/method in the whole-program graph."""

    __slots__ = ("qname", "path", "module", "summary")

    def __init__(
        self, qname: str, path: str, module: str, summary: FunctionSummary
    ):
        self.qname = qname
        self.path = path
        self.module = module
        self.summary = summary

    @property
    def is_hot_path(self) -> bool:
        return self.summary.is_hot_path

    @property
    def is_cold_path(self) -> bool:
        return self.summary.is_cold_path

    @property
    def name(self) -> str:
        return self.summary.name

    @property
    def cls(self) -> Optional[str]:
        return self.summary.cls

    @property
    def line(self) -> int:
        return self.summary.line

    def facts(self, family: str) -> List:
        return self.summary.facts.get(family, [])

    def __repr__(self) -> str:
        return "FunctionNode(%s)" % self.qname


class CallEdge:
    """One resolved call site: caller → callee at ``path:line``."""

    __slots__ = ("caller", "callee", "path", "line", "col", "in_loop")

    def __init__(
        self,
        caller: str,
        callee: str,
        path: str,
        line: int,
        col: int,
        in_loop: bool,
    ):
        self.caller = caller
        self.callee = callee
        self.path = path
        self.line = line
        self.col = col
        self.in_loop = in_loop

    def __repr__(self) -> str:
        return "CallEdge(%s -> %s @%s:%d)" % (
            self.caller, self.callee, self.path, self.line,
        )


class CallGraph:
    """The resolved graph plus the queries the rules need."""

    def __init__(self, summaries: Dict[str, ModuleSummary]):
        self.summaries = summaries
        #: qname → node, for every summarized function/method.
        self.functions: Dict[str, FunctionNode] = {}
        #: module dotted name → summary.
        self.modules: Dict[str, ModuleSummary] = {}
        #: class qname (module.Class) → summary.
        self.classes: Dict[str, ClassSummary] = {}
        self._class_short: Dict[str, List[str]] = {}
        self.out_edges: Dict[str, List[CallEdge]] = {}
        self._build_index()
        self._resolve_edges()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_index(self) -> None:
        for path in sorted(self.summaries):
            summary = self.summaries[path]
            self.modules[summary.module] = summary
            for klass in summary.classes:
                qname = "%s.%s" % (summary.module, klass.name)
                self.classes[qname] = klass
                self._class_short.setdefault(klass.name, []).append(qname)
            for func in summary.functions:
                qname = func.qname(summary.module)
                self.functions[qname] = FunctionNode(
                    qname, path, summary.module, func
                )

    def _resolve_edges(self) -> None:
        for path in sorted(self.summaries):
            summary = self.summaries[path]
            for func in summary.functions:
                caller = func.qname(summary.module)
                for ref in func.calls:
                    callee = self._resolve_call(summary, func, ref.chain)
                    if callee is None or callee == caller:
                        continue
                    edge = CallEdge(
                        caller, callee, path, ref.line, ref.col, ref.in_loop
                    )
                    self.out_edges.setdefault(caller, []).append(edge)

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def _resolve_call(
        self,
        summary: ModuleSummary,
        func: FunctionSummary,
        chain: Tuple[str, ...],
    ) -> Optional[str]:
        if not chain:
            return None
        head = chain[0]
        if head in ("self", "cls"):
            if func.cls is None or len(chain) < 2:
                return None
            return self._resolve_self_call(summary, func, chain)
        if len(chain) == 1:
            return self._resolve_plain(summary, head)
        # obj.m(...) with a locally evident type.
        local = func.local_types.get(head)
        if local is not None:
            klass = self._resolve_type_chain(summary, local)
            if klass is not None:
                return self._resolve_through_attrs(
                    summary, klass, chain[1:]
                )
        # Module-qualified (or class-qualified) chain via imports.
        target = summary.imports.get(head)
        if target is not None:
            return self._lookup_dotted(
                "%s.%s" % (target, ".".join(chain[1:]))
            )
        # A class defined in this module: ClassName.method(...).
        klass_qname = "%s.%s" % (summary.module, head)
        if klass_qname in self.classes and len(chain) == 2:
            return self._find_method(klass_qname, chain[1])
        return None

    def _resolve_self_call(
        self,
        summary: ModuleSummary,
        func: FunctionSummary,
        chain: Tuple[str, ...],
    ) -> Optional[str]:
        klass_qname = "%s.%s" % (summary.module, func.cls)
        if len(chain) == 2:
            return self._find_method(klass_qname, chain[1])
        # self.attr.m(...): follow the attribute's recorded type.
        klass = self.classes.get(klass_qname)
        if klass is None:
            return None
        attr_type = klass.attr_types.get(chain[1])
        if attr_type is None:
            return None
        target = self._resolve_type_chain(summary, attr_type)
        if target is None:
            return None
        return self._resolve_through_attrs(summary, target, chain[2:])

    def _resolve_through_attrs(
        self,
        summary: ModuleSummary,
        klass_qname: str,
        rest: Tuple[str, ...],
    ) -> Optional[str]:
        """Walk ``.a.b.m()`` through attribute types to a method."""
        current = klass_qname
        for index, part in enumerate(rest):
            if index == len(rest) - 1:
                return self._find_method(current, part)
            klass = self.classes.get(current)
            if klass is None:
                return None
            attr_type = klass.attr_types.get(part)
            if attr_type is None:
                return None
            resolved = self._resolve_type_chain(summary, attr_type)
            if resolved is None:
                return None
            current = resolved
        return None

    def _resolve_plain(
        self, summary: ModuleSummary, name: str
    ) -> Optional[str]:
        qname = "%s.%s" % (summary.module, name)
        if qname in self.functions:
            return qname
        if qname in self.classes:
            return self._find_method(qname, "__init__")
        target = summary.imports.get(name)
        if target is not None:
            return self._lookup_dotted(target)
        return None

    def _lookup_dotted(self, dotted: str) -> Optional[str]:
        """``a.b.c.f`` / ``a.b.C.m`` / ``a.b.C`` → function qname."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module not in self.modules:
                continue
            rest = parts[split:]
            if len(rest) == 1:
                qname = "%s.%s" % (module, rest[0])
                if qname in self.functions:
                    return qname
                if qname in self.classes:
                    return self._find_method(qname, "__init__")
                return None
            if len(rest) == 2:
                return self._find_method(
                    "%s.%s" % (module, rest[0]), rest[1]
                )
            return None
        return None

    def _resolve_type_chain(
        self, summary: ModuleSummary, chain: Tuple[str, ...]
    ) -> Optional[str]:
        """A type hint chain (``("CompiledTrie",)``, ``("compile",
        "CompiledTrie")``) → class qname, if the class is summarized."""
        head = chain[0]
        if len(chain) == 1:
            qname = "%s.%s" % (summary.module, head)
            if qname in self.classes:
                return qname
            target = summary.imports.get(head)
            if target is not None:
                resolved = self._class_by_dotted(target)
                if resolved is not None:
                    return resolved
            # Unique short-name fallback: annotations often name a
            # class the module never imports at runtime.
            candidates = self._class_short.get(head, [])
            if len(candidates) == 1:
                return candidates[0]
            return None
        target = summary.imports.get(head)
        if target is not None:
            return self._class_by_dotted(
                "%s.%s" % (target, ".".join(chain[1:]))
            )
        return self._class_by_dotted(".".join(chain))

    def _class_by_dotted(self, dotted: str) -> Optional[str]:
        if dotted in self.classes:
            return dotted
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module in self.modules and len(parts) - split == 1:
                qname = "%s.%s" % (module, parts[split])
                return qname if qname in self.classes else None
        return None

    def _find_method(
        self,
        klass_qname: str,
        name: str,
        _visited: Optional[Set[str]] = None,
    ) -> Optional[str]:
        """Method lookup through the class and its named bases."""
        visited = _visited if _visited is not None else set()
        if klass_qname in visited:
            return None
        visited.add(klass_qname)
        klass = self.classes.get(klass_qname)
        if klass is None:
            return None
        if name in klass.methods:
            qname = "%s.%s" % (klass_qname, name)
            if qname in self.functions:
                return qname
        module = klass_qname.rpartition(".")[0]
        summary = self.modules.get(module)
        if summary is None:
            return None
        for base in klass.bases:
            base_qname = self._resolve_type_chain(summary, base)
            if base_qname is None:
                continue
            found = self._find_method(base_qname, name, visited)
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def reachable_from(
        self, entries: Iterable[str], barrier=None
    ) -> Dict[str, Optional[CallEdge]]:
        """BFS closure with first-seen parent edges (entries → None).

        Deterministic: entries are visited sorted, edges in file order,
        so the reported witness path is stable across runs.  A node for
        which ``barrier(node)`` is true is recorded (its path remains
        printable) but never expanded — RC101 passes the ``@cold_path``
        test here so sanctioned slow-path subtrees stay out of the
        closure.
        """
        parents: Dict[str, Optional[CallEdge]] = {}
        frontier: List[str] = []
        for entry in sorted(set(entries)):
            if entry in self.functions and entry not in parents:
                parents[entry] = None
                frontier.append(entry)
        while frontier:
            next_frontier: List[str] = []
            for qname in frontier:
                for edge in self.out_edges.get(qname, ()):
                    if edge.callee in parents:
                        continue
                    parents[edge.callee] = edge
                    if barrier is not None and barrier(
                        self.functions[edge.callee]
                    ):
                        continue
                    next_frontier.append(edge.callee)
            frontier = next_frontier
        return parents

    def witness_path(
        self, parents: Dict[str, Optional[CallEdge]], qname: str
    ) -> List[CallEdge]:
        """The entry→``qname`` edges recorded by :meth:`reachable_from`."""
        edges: List[CallEdge] = []
        current = qname
        # repro: noqa[RC106] -- parent pointers are acyclic by BFS construction
        while True:
            edge = parents.get(current)
            if edge is None:
                break
            edges.append(edge)
            current = edge.caller
        edges.reverse()
        return edges

    def format_path(
        self, parents: Dict[str, Optional[CallEdge]], qname: str
    ) -> str:
        """``entry -> mid [file:line] -> sink [file:line]``."""
        edges = self.witness_path(parents, qname)
        if not edges:
            return qname
        parts = [edges[0].caller]
        for edge in edges:
            parts.append(
                "%s [%s:%d]" % (edge.callee, edge.path, edge.line)
            )
        return " -> ".join(parts)

    def path_in_loop(
        self, parents: Dict[str, Optional[CallEdge]], qname: str
    ) -> bool:
        """True when any call site on the witness path sits in a loop."""
        return any(
            edge.in_loop for edge in self.witness_path(parents, qname)
        )

    def __repr__(self) -> str:
        edges = sum(len(e) for e in self.out_edges.values())
        return "CallGraph(%d functions, %d edges)" % (
            len(self.functions), edges,
        )


def build_call_graph(
    summaries: "Dict[str, ModuleSummary] | Sequence[ModuleSummary]",
) -> CallGraph:
    """The graph over ``summaries`` (mapping by path, or a sequence)."""
    if not isinstance(summaries, dict):
        summaries = {summary.path: summary for summary in summaries}
    return CallGraph(summaries)
