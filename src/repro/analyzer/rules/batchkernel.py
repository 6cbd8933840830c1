"""RC111 — batch kernels must not loop over their batch in Python.

The fastpath subsystem's whole point is that a *batch* of packets costs
one kernel invocation, not one Python iteration per packet
(``DESIGN.md`` "fastpath": the numpy kernels replace the per-packet
interpreter loop with a handful of array operations).  A ``for`` loop —
or a comprehension, or ``enumerate``/``zip``/``iter`` — over a batch
parameter inside a ``@hot_path`` batch kernel silently re-introduces
the per-element interpreter cost the subsystem exists to remove, while
still *looking* vectorized from the call site.

Inside a ``@hot_path`` function the rule flags iteration whose iterable
is a bare function parameter (or a trivial wrapper around one):

* ``for x in param:`` and comprehensions ``... for x in param``;
* ``enumerate(param)`` / ``zip(param, ...)`` / ``reversed(param)`` /
  ``iter(param)`` / ``sorted(param)`` as the loop iterable;
* ``range(len(param))`` — the classic index-loop disguise.

Iterating anything else — ``range(width)``, attribute chains such as
``mtrie.level_shifts`` (compile-time structure, bounded by the layout,
not by the batch), or locals derived inside the function — is fine;
the rule deliberately stays narrow, and the one per-lane walk the
kernels keep on purpose (``kernels.resume_walks``, chosen for a batch
that resumes only a few lanes) is ``@cold_path``, not ``@hot_path``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Set

from repro.analyzer.engine import Finding, Rule, SourceFile, register

#: Builtins that return an iterator over their first argument unchanged
#: (element-wise): looping over ``enumerate(param)`` is looping over
#: ``param``.
_ITER_WRAPPERS = ("enumerate", "zip", "reversed", "iter", "sorted")

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_hot_path_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "hot_path"
    if isinstance(node, ast.Attribute):
        return node.attr == "hot_path"
    return False


def _parameter_names(node: ast.FunctionDef) -> Set[str]:
    arguments = node.args
    names = {arg.arg for arg in arguments.args}
    names.update(arg.arg for arg in arguments.posonlyargs)
    names.update(arg.arg for arg in arguments.kwonlyargs)
    if arguments.vararg is not None:
        names.add(arguments.vararg.arg)
    if arguments.kwarg is not None:
        names.add(arguments.kwarg.arg)
    # ``self``/``cls`` are receivers, not batches.
    names.discard("self")
    names.discard("cls")
    return names


def _param_iterated(node: ast.expr, params: Set[str]) -> str:
    """The parameter name the iterable walks element-wise, or ``""``."""
    if isinstance(node, ast.Name) and node.id in params:
        return node.id
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        callee = node.func.id
        if callee in _ITER_WRAPPERS:
            for argument in node.args:
                name = _param_iterated(argument, params)
                if name:
                    return name
        elif callee == "range" and len(node.args) == 1:
            # range(len(param)) — the index loop in a funny hat.
            inner = node.args[0]
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id == "len"
                and len(inner.args) == 1
            ):
                return _param_iterated(inner.args[0], params)
    return ""


@register
class BatchKernelLoopRule(Rule):
    code = "RC111"
    name = "batch-kernel-loop"
    rationale = (
        "a batch kernel that loops over its batch in Python pays the "
        "per-packet interpreter cost the fastpath exists to remove"
    )

    def check_file(self, source: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        if source.tree is None:  # engine reports parse errors itself
            return findings
        for node in ast.walk(source.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if not any(
                _is_hot_path_decorator(dec) for dec in node.decorator_list
            ):
                continue
            params = _parameter_names(node)
            if not params:
                continue
            findings.extend(self._check_function(source, node, params))
        return findings

    def _check_function(
        self,
        source: SourceFile,
        func: ast.AST,
        params: Set[str],
    ) -> Iterator[Finding]:
        name = func.name  # type: ignore[attr-defined]
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                parameter = _param_iterated(node.iter, params)
                if parameter:
                    yield source.finding(
                        self,
                        node,
                        "batch kernel %r loops over batch parameter %r "
                        "element-by-element in Python" % (name, parameter),
                    )
            elif isinstance(node, _COMPREHENSIONS):
                for generator in node.generators:
                    parameter = _param_iterated(generator.iter, params)
                    if parameter:
                        yield source.finding(
                            self,
                            node,
                            "batch kernel %r iterates batch parameter %r "
                            "in a comprehension" % (name, parameter),
                        )
