"""The hot-path purity walker behind RC101.

One function body, one verdict: which statements allocate, format, or
bind telemetry per packet?  The call-graph summaries run the walker
over every function (:mod:`repro.analyzer.graph.facts`), and RC101
reports its verdict for the functions the author *declared* hot
(``@hot_path``) and for every function the call graph proves is
*transitively reachable* from one.

The contract (see :mod:`repro.lookup.hotpath` for the rationale):

* no container literals or comprehensions, and no calls to the
  allocating builtins in :data:`FORBIDDEN_BUILTINS` — including the
  lazy ones (``map``/``filter``/``reversed``) whose iterator object is
  itself a per-packet allocation, and ``str()``/``bytes()``/
  ``bytearray()`` conversions;
* no string formatting (f-strings, ``literal % args``,
  ``str.format``) outside ``raise`` statements;
* no per-packet ``.labels(...)`` binding, and no tracer ``.record``
  outside an ``if ... .active`` sampling guard;
* no ``print`` and no nested ``def`` (built once per outer call).

Violations are yielded as ``(node, description)`` pairs; RC101
prepends its own context ("hot path %r ..." for an entry, the
offending call path for a function below one).
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

#: Builtin calls forbidden on the hot path: each allocates a fresh
#: object per invocation.  ``str`` is the subtle one — ``str(x)`` on a
#: non-str builds a new string (and usually calls ``__str__``, which
#: formats); an audit of the call graph found it hiding in helpers
#: below the declared hot entries.
FORBIDDEN_BUILTINS = (
    "list",
    "dict",
    "set",
    "tuple",
    "sorted",
    "frozenset",
    "bytearray",
    "bytes",
    "map",
    "filter",
    "reversed",
    "str",
)

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

Violation = Tuple[ast.AST, str]


def _has_marker_decorator(node: ast.AST, marker: str) -> bool:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for dec in node.decorator_list:
        if isinstance(dec, ast.Name) and dec.id == marker:
            return True
        if isinstance(dec, ast.Attribute) and dec.attr == marker:
            return True
    return False


def is_hot_path_function(node: ast.AST) -> bool:
    """True for a ``def`` carrying the ``@hot_path`` marker."""
    return _has_marker_decorator(node, "hot_path")


def is_cold_path_function(node: ast.AST) -> bool:
    """True for a ``def`` carrying the ``@cold_path`` barrier marker."""
    return _has_marker_decorator(node, "cold_path")


def _is_str_constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _mentions_active(node: ast.expr) -> bool:
    return any(
        isinstance(child, ast.Attribute) and child.attr == "active"
        for child in ast.walk(node)
    )


def _call_root_name(node: ast.expr) -> str:
    """The leftmost name of an attribute chain (``a.b.c`` → ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


def function_violations(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Iterator[Violation]:
    """Every purity violation in ``func``'s body (decorators excluded)."""
    for statement in func.body:
        yield from _check_stmt(statement, guarded=False)


def _check_stmt(node: ast.AST, guarded: bool) -> Iterator[Violation]:
    """Walk one statement, tracking ``raise`` and sampling guards."""
    if isinstance(node, ast.Raise):
        # Error construction is off the happy path by definition.
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        # A nested def is built once per outer call — that is already
        # a hot-path allocation; flag the def itself.
        yield node, "defines nested function %r per call" % node.name
        return
    if isinstance(node, ast.If):
        branch_guarded = guarded or _mentions_active(node.test)
        for child in node.body:
            yield from _check_stmt(child, branch_guarded)
        for child in node.orelse:
            yield from _check_stmt(child, guarded)
        yield from _check_expr(node.test, guarded)
        return
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr):
            yield from _check_expr(child, guarded)
        else:
            yield from _check_stmt(child, guarded)


def _check_expr(node: ast.expr, guarded: bool) -> Iterator[Violation]:
    if isinstance(node, _COMPREHENSIONS):
        yield node, "allocates a comprehension"
    elif isinstance(node, (ast.List, ast.Set, ast.Dict)):
        yield node, "allocates a %s literal" % type(node).__name__.lower()
    elif isinstance(node, ast.JoinedStr):
        yield node, "formats an f-string"
    elif (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and _is_str_constant(node.left)
    ):
        yield node, "%-formats a string"
    elif isinstance(node, ast.Call):
        yield from _check_call(node, guarded)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr):
            yield from _check_expr(child, guarded)


def _check_call(node: ast.Call, guarded: bool) -> Iterator[Violation]:
    callee = node.func
    if isinstance(callee, ast.Name):
        if callee.id in FORBIDDEN_BUILTINS:
            yield node, (
                "calls %s() (per-packet allocation)" % callee.id
            )
        elif callee.id == "print":
            yield node, "calls print()"
    elif isinstance(callee, ast.Attribute):
        if callee.attr == "labels":
            yield node, (
                "binds metric labels per packet — pre-bind at setup "
                "(RouterInstruments)"
            )
        elif callee.attr == "format" and _is_str_constant(callee.value):
            yield node, "calls str.format()"
        elif (
            callee.attr == "record"
            and "tracer" in _call_root_name(callee).lower()
            and not guarded
        ):
            yield node, (
                "records a trace span without a tracer.active "
                "sampling guard"
            )
