"""RC101 — hot-path purity over the whole call closure.

Protects the paper's headline claim: a clue hit resolves a packet in
*one* memory reference, so a per-packet lookup must stay allocation-
and formatting-free over its whole dynamic extent.  The concrete
regression class: ``Router.process`` once allocated a fresh
``MemoryCounter`` per packet (~2.4× slower than reuse, see
``benchmarks/test_bench_telemetry.py``), and lazily binding metric
labels per packet is the same bug wearing telemetry clothes —
``RouterInstruments`` exists precisely to pre-bind them.  An audit
of the call graph found the same bug where no per-file check could
see it: an undecorated helper three calls below
``ClueRouter.process`` allocating a list per lookup.

The rule walks the call graph (:mod:`repro.analyzer.graph`)
breadth-first from every function marked
:func:`repro.lookup.hotpath.hot_path`; those entries are depth zero.
Every function it reaches must satisfy the purity contract in
:mod:`repro.analyzer.purity` — no container literals, comprehensions
or allocating builtins, no string formatting outside ``raise``, no
unsampled telemetry, no ``print``, no nested ``def`` — or carry one
of the explicit escapes:

* ``@hot_path`` — the function becomes an entry itself;
* ``@cold_path`` — a sanctioned hot→cold boundary (build-on-miss
  construction, per-batch buffers); the BFS records it but neither
  checks its body nor descends past it;
* a ``# repro: noqa[RC101] -- reason`` at the site.

Findings below an entry report the concrete witness *path* —
``entry -> mid [file:line] -> sink [file:line]`` — because "this
helper is hot" is only actionable when you can see which entry makes
it so.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.analyzer.engine import Finding, Project, Rule, register


@register
class HotPathPurityRule(Rule):
    code = "RC101"
    name = "hot-path-purity"
    rationale = (
        "a clue hit must cost one memory reference; allocation, "
        "formatting, or label binding per packet anywhere below a "
        "@hot_path entry dilutes the claim"
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph()
        entries = sorted(
            qname
            for qname, node in graph.functions.items()
            if node.is_hot_path
        )
        parents = graph.reachable_from(
            entries, barrier=lambda node: node.is_cold_path
        )
        findings: List[Finding] = []
        for qname in sorted(parents):
            node = graph.functions[qname]
            if node.is_cold_path and not node.is_hot_path:
                continue  # sanctioned boundary
            for line, col, description in node.facts("purity"):
                if node.is_hot_path:
                    message = "hot path %r %s" % (node.name, description)
                else:
                    message = (
                        "%r is reachable from the hot path and %s; "
                        "path: %s — decorate @hot_path, mark the "
                        "boundary @cold_path, or make it pure"
                        % (
                            qname,
                            description,
                            graph.format_path(parents, qname),
                        )
                    )
                findings.append(
                    Finding(
                        self.code, node.path, line, col, message, self.name
                    )
                )
        return findings
