"""RC104 — telemetry-catalogue consistency.

``repro.telemetry.instruments`` is the *canonical* instrument
catalogue: its module docstring tables every series, and its
``LookupInstruments`` registers each one exactly once.  Experiments,
dashboards, and the reconciliation tests all navigate by those names,
so drift is costly in both directions:

* a **phantom** instrument — registered (or used elsewhere) under a
  name the catalogue table never declared — is invisible to readers of
  the catalogue;
* an **orphan** instrument — declared in the catalogue table but never
  registered — documents a series no exporter will ever emit.

The rule cross-references three sources over the whole project: the
docstring table rows (`` ``name``  kind ``), the ``reg.counter(...)`` /
``histogram(...)`` / ``gauge(...)`` registrations inside the catalogue
module, and every string-literal metric registration anywhere else in
``src/repro``.  All three are read from the per-file
:class:`~repro.analyzer.graph.summary.ModuleSummary` digests
(``metric_calls`` / ``metric_table``), not from ASTs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.analyzer.engine import Finding, Project, Rule, register

#: The file that *is* the catalogue (matched by path suffix).
CATALOGUE_SUFFIX = "telemetry/instruments.py"

#: Files whose counter()/gauge()/histogram() mentions are definitions,
#: not catalogue uses: the registry primitives themselves.
EXEMPT_SUFFIXES = ("telemetry/registry.py",)


def _suffix_match(path: str, suffix: str) -> bool:
    return path.replace("\\", "/").endswith(suffix)


@register
class TelemetryCatalogueRule(Rule):
    code = "RC104"
    name = "telemetry-catalogue"
    rationale = (
        "every exported series must be declared in the canonical "
        "catalogue and vice versa — reconciliation tests and "
        "dashboards navigate by these names"
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        summaries = project.summaries()
        catalogue = None
        for path in sorted(summaries):
            if _suffix_match(path, CATALOGUE_SUFFIX):
                catalogue = summaries[path]
                break
        if catalogue is None:
            # Nothing to reconcile against (e.g. linting a subtree).
            return findings
        declared: Dict[str, Tuple[str, int]] = {
            name: (kind, line)
            for name, kind, line in catalogue.metric_table
        }
        registered: Dict[str, str] = {}
        for name, kind, line, col in catalogue.metric_calls:
            registered[name] = kind
            row = declared.get(name)
            if row is None:
                findings.append(
                    self._finding(
                        catalogue.path,
                        line,
                        col,
                        "phantom instrument %r: registered but missing "
                        "from the catalogue docstring table" % name,
                    )
                )
            elif row[0] != kind:
                findings.append(
                    self._finding(
                        catalogue.path,
                        line,
                        col,
                        "instrument %r registered as %s but catalogued "
                        "as %s" % (name, kind, row[0]),
                    )
                )
        for name, (kind, line) in sorted(declared.items()):
            if name not in registered:
                findings.append(
                    self._finding(
                        catalogue.path,
                        line,
                        1,
                        "orphan instrument %r: catalogued as %s but "
                        "never registered" % (name, kind),
                    )
                )
        for path in sorted(summaries):
            summary = summaries[path]
            if summary is catalogue:
                continue
            if any(
                _suffix_match(path, suffix) for suffix in EXEMPT_SUFFIXES
            ):
                continue
            for name, kind, line, col in summary.metric_calls:
                if name not in registered:
                    findings.append(
                        self._finding(
                            path,
                            line,
                            col,
                            "metric %r (%s) is not in the canonical "
                            "catalogue (telemetry/instruments.py) — "
                            "declare it there" % (name, kind),
                        )
                    )
        return findings

    def _finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(self.code, path, line, col, message, self.name)
