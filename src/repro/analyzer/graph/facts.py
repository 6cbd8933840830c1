"""Rule-local facts embedded into function summaries at parse time.

The call-graph halves of RC101 and RC102 ask one question: "is a
*local* fact reachable from a privileged entry point?".  The local
half — does this function allocate, does it fork a seeded RNG — only
needs the function's own AST, so it is extracted once while the file
is being summarized and stored as plain ``facts`` on the
:class:`~repro.analyzer.graph.summary.FunctionSummary`.

Fact families (one key per consuming rule):

* ``purity``     → ``[[line, col, description], ...]`` — RC101, from
  the walker in :mod:`repro.analyzer.purity`;
* ``seed_forks`` → ``[[line, col], ...]`` of ``Random(<seed
  arithmetic>)`` outside every loop of the function — RC102, which
  flags the in-loop ones per file and these only when a looping call
  site reaches them.

:func:`iter_rng_calls` is the one RNG-call classifier: RC102's
per-file walk and the ``seed_forks`` extractor both read it.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator, List, Optional, Tuple

from repro.analyzer.purity import function_violations

#: Loop statements for the ``in_loop`` bit on calls and RNG sites.
LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)

#: RNG classes whose construction RC102 inspects.
_RNG_CLASSES = ("Random", "SystemRandom")


def attribute_chain(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` → ``("a", "b", "c")``; None when the root is not a
    plain name (calls, subscripts, literals)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


# ----------------------------------------------------------------------
# purity (RC101)
# ----------------------------------------------------------------------
def purity_facts(func: ast.AST) -> List[List[Any]]:
    events: List[List[Any]] = []
    for node, description in function_violations(func):  # type: ignore[arg-type]
        events.append(
            [
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1,
                description,
            ]
        )
    return events


# ----------------------------------------------------------------------
# rng (RC102)
# ----------------------------------------------------------------------
def _seed_arithmetic(node: ast.expr) -> bool:
    """An expression deriving a new value from a name containing 'seed'."""
    for child in ast.walk(node):
        if not isinstance(child, ast.BinOp):
            continue
        for leaf in ast.walk(child):
            if isinstance(leaf, ast.Name) and "seed" in leaf.id.lower():
                return True
            if isinstance(leaf, ast.Attribute) and "seed" in leaf.attr.lower():
                return True
    return False


def rng_call_kind(node: ast.Call) -> Optional[Tuple[str, str]]:
    """``(kind, name)`` for a call that draws from or builds an RNG.

    Kinds: ``module_random`` (``random.shuffle(...)``), ``reseed``
    (``rng.seed(...)``), ``system_random``, ``unseeded`` (``Random()``)
    and ``seed_arith`` (``Random(seed + k)``); None for any other call,
    a plainly seeded ``Random(seed)`` included.
    """
    callee = node.func
    if isinstance(callee, ast.Attribute):
        if (
            isinstance(callee.value, ast.Name)
            and callee.value.id == "random"
            and callee.attr not in _RNG_CLASSES
        ):
            return "module_random", "random.%s" % callee.attr
        if callee.attr == "seed":
            chain = attribute_chain(callee)
            return "reseed", ".".join(chain) if chain else "<rng>.seed"
        ctor = callee.attr
    elif isinstance(callee, ast.Name):
        ctor = callee.id
    else:
        return None
    if ctor == "SystemRandom":
        return "system_random", ctor
    if ctor != "Random":
        return None
    if not node.args and not node.keywords:
        return "unseeded", ctor
    if any(_seed_arithmetic(arg) for arg in node.args):
        return "seed_arith", ctor
    return None


def iter_rng_calls(
    node: ast.AST, in_loop: bool = False
) -> Iterator[Tuple[ast.Call, str, str, bool]]:
    """``(call, kind, name, in_loop)`` for every RNG call under ``node``."""
    if isinstance(node, ast.Call):
        found = rng_call_kind(node)
        if found is not None:
            kind, name = found
            yield node, kind, name, in_loop
    in_loop = in_loop or isinstance(node, LOOP_NODES)
    for child in ast.iter_child_nodes(node):
        yield from iter_rng_calls(child, in_loop)


def seed_fork_facts(func: ast.AST) -> List[List[int]]:
    """``Random(<seed arithmetic>)`` sites outside every loop of
    ``func`` (nested defs fold into their parent — graph nodes exist
    only for module-level functions and methods)."""
    return [
        [call.lineno, call.col_offset + 1]
        for call, kind, _, in_loop in iter_rng_calls(func)
        if kind == "seed_arith" and not in_loop
    ]
