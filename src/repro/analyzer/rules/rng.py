"""RC102 — seeded-RNG discipline.

Every experiment in this repo promises bit-identical reruns from a
``--seed``; the CI churn smoke literally diffs two seeded runs.  The
ways that promise has broken (or nearly broken) before:

* calling the *module-level* ``random.random()`` / ``choice()`` /
  ``shuffle()`` — global state shared across subsystems, perturbed by
  anything else that imports ``random``;
* ``random.Random()`` with no seed argument, or ``SystemRandom()`` —
  seeded from the OS;
* ``rng.seed(...)`` — re-seeding an RNG mid-run resets its stream;
* re-deriving ``Random(seed + k)`` inside a loop — the
  robustness-experiment bug, where every sweep fraction re-derived
  ``Random(seed + 1)`` and silently correlated its draws (fixed by
  threading one RNG through the loop).

The rule flags every such call site in every file, module-level and
class-body code included.  Deriving a child RNG from ``seed``
*outside* a loop (scenario builders, CLI glue) is legitimate and stays
legal — unless the loop sits at a call site instead.  That bug
only correlated draws because the call into the deriving helper sat
in the sweep loop, so the rule also walks the call graph from every
engine entry point (the methods of ``*Engine`` classes, module-level
``run_*`` drivers) and flags a loop-free ``Random(<seed arithmetic>)``
that an entry reaches through a looping call site, with the
entry→site witness path.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.analyzer.engine import Finding, Project, Rule, SourceFile, register
from repro.analyzer.graph.facts import iter_rng_calls

#: Per-site messages by :func:`~repro.analyzer.graph.facts.rng_call_kind`.
_SITE_MESSAGES = {
    "module_random": (
        "module-level {name}() uses shared global RNG state — thread a "
        "seeded random.Random through"
    ),
    "reseed": (
        "{name}() re-seeds an RNG mid-run and resets its stream — seed "
        "it once at construction"
    ),
    "system_random": (
        "SystemRandom() is OS-entropy seeded and can never reproduce a run"
    ),
    "unseeded": (
        "Random() without an explicit seed argument is seeded from the "
        "OS — pass the experiment seed"
    ),
    "seed_arith": (
        "re-seeding with seed arithmetic inside a loop correlates draws "
        "across iterations (the 'seed + 1' bug) — create the RNG "
        "once outside the loop and thread it through"
    ),
}


def _is_engine_entry(node) -> bool:
    if node.cls is not None and node.cls.endswith("Engine"):
        return True
    return node.cls is None and node.name.startswith("run_")


@register
class SeededRngRule(Rule):
    code = "RC102"
    name = "seeded-rng"
    rationale = (
        "seeded determinism is a tested contract; global RNG state, "
        "unseeded Random(), and seed arithmetic under a loop — written "
        "inline or one call away — all broke or nearly broke it (the "
        "'seed + 1' regression)"
    )

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        if source.tree is None:
            return findings
        for call, kind, name, in_loop in iter_rng_calls(source.tree):
            if kind == "seed_arith" and not in_loop:
                continue  # a looping call site may still reach it: finish
            findings.append(
                source.finding(
                    self, call, _SITE_MESSAGES[kind].format(name=name)
                )
            )
        return findings

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph()
        entries = sorted(
            qname
            for qname, node in graph.functions.items()
            if _is_engine_entry(node)
        )
        parents = graph.reachable_from(entries)
        findings: List[Finding] = []
        for qname in sorted(parents):
            node = graph.functions[qname]
            forks = node.facts("seed_forks")
            if not forks or not graph.path_in_loop(parents, qname):
                continue
            for line, col in forks:
                findings.append(
                    Finding(
                        self.code,
                        node.path,
                        line,
                        col,
                        "%r re-derives Random(<seed arithmetic>) and an "
                        "engine entry point reaches it through a looping "
                        "call site — correlates draws across iterations "
                        "(the 'seed + 1' class); path: %s — thread "
                        "the engine's seeded Random through instead"
                        % (qname, graph.format_path(parents, qname)),
                        self.name,
                    )
                )
        return findings
