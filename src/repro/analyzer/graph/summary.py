"""Per-file structural summaries: the call graph's unit of input.

A :class:`ModuleSummary` is everything the whole-program layer needs
to know about one file, extracted in a single AST walk: the module's
dotted name, its import table, its functions and classes with raw
call-site references, lightweight type hints (``x =
CompiledTrie(...)``, ``self.trie = trie`` where ``trie`` is an
annotated parameter), and rule-local facts (:mod:`facts`).

Name references are stored *raw* as attribute chains (``("self",
"_probe")``, ``("random", "random")``) — resolution to qualified names
happens later in :mod:`callgraph`, where the full project is visible.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Tuple

from repro.analyzer.graph import facts as _facts
from repro.analyzer.purity import is_cold_path_function, is_hot_path_function

FunctionDefs = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name_for_path(path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/serve/engine.py`` → ``repro.serve.engine`` (the ``src``
    layout prefix is dropped so absolute imports resolve);
    ``pkg/__init__.py`` → ``pkg``.
    """
    name = path.replace("\\", "/")
    if name.endswith(".py"):
        name = name[: -len(".py")]
    parts = [part for part in name.split("/") if part not in ("", ".")]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class CallRef:
    """One raw call site: the callee's attribute chain plus context."""

    __slots__ = ("chain", "line", "col", "in_loop")

    def __init__(
        self, chain: Tuple[str, ...], line: int, col: int, in_loop: bool
    ):
        self.chain = chain
        self.line = line
        self.col = col
        self.in_loop = in_loop

    def __repr__(self) -> str:
        return "CallRef(%s:%d)" % (".".join(self.chain), self.line)


class FunctionSummary:
    """One function or method: identity, call sites, types, facts."""

    __slots__ = (
        "name",
        "cls",
        "line",
        "col",
        "is_hot_path",
        "is_cold_path",
        "calls",
        "local_types",
        "facts",
    )

    def __init__(
        self,
        name: str,
        cls: Optional[str],
        line: int,
        col: int,
        is_hot_path: bool,
        is_cold_path: bool,
        calls: List[CallRef],
        local_types: Dict[str, Tuple[str, ...]],
        facts: Dict[str, Any],
    ):
        self.name = name
        self.cls = cls
        self.line = line
        self.col = col
        self.is_hot_path = is_hot_path
        self.is_cold_path = is_cold_path
        self.calls = calls
        self.local_types = local_types
        self.facts = facts

    def qname(self, module: str) -> str:
        if self.cls:
            return "%s.%s.%s" % (module, self.cls, self.name)
        return "%s.%s" % (module, self.name)

    def __repr__(self) -> str:
        return "FunctionSummary(%s)" % (
            "%s.%s" % (self.cls, self.name) if self.cls else self.name
        )


class ClassSummary:
    """One class: bases (raw chains), methods, attribute type hints."""

    __slots__ = ("name", "line", "bases", "methods", "attr_types")

    def __init__(
        self,
        name: str,
        line: int,
        bases: List[Tuple[str, ...]],
        methods: List[str],
        attr_types: Dict[str, Tuple[str, ...]],
    ):
        self.name = name
        self.line = line
        self.bases = bases
        self.methods = methods
        self.attr_types = attr_types

    def __repr__(self) -> str:
        return "ClassSummary(%s)" % self.name


class ModuleSummary:
    """Everything the graph layer knows about one file."""

    __slots__ = (
        "path",
        "module",
        "package",
        "imports",
        "functions",
        "classes",
    )

    def __init__(
        self,
        path: str,
        module: str,
        package: str,
        imports: Dict[str, str],
        functions: List[FunctionSummary],
        classes: List[ClassSummary],
    ):
        self.path = path
        self.module = module
        self.package = package
        self.imports = imports
        self.functions = functions
        self.classes = classes

    def __repr__(self) -> str:
        return "ModuleSummary(%s, %d functions)" % (
            self.module, len(self.functions),
        )


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------
def summarize_source(source) -> ModuleSummary:
    """Summarize one parsed :class:`~repro.analyzer.engine.SourceFile`."""
    module = module_name_for_path(source.path)
    is_package = source.path.replace("\\", "/").endswith("__init__.py")
    package = module if is_package else module.rpartition(".")[0]
    tree = source.tree
    imports: Dict[str, str] = {}
    functions: List[FunctionSummary] = []
    classes: List[ClassSummary] = []
    if tree is not None:
        _collect_imports(tree, package, imports)
        for node in tree.body:
            if isinstance(node, FunctionDefs):
                functions.append(_summarize_function(node, None))
            elif isinstance(node, ast.ClassDef):
                klass, methods = _summarize_class(node)
                classes.append(klass)
                functions.extend(methods)
    return ModuleSummary(
        source.path, module, package, imports, functions, classes
    )


def _collect_imports(
    tree: ast.AST, package: str, imports: Dict[str, str]
) -> None:
    """Alias → dotted target for every import anywhere in the file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            base = node.module or ""
            if node.level:
                anchor = package
                for _ in range(node.level - 1):
                    anchor = anchor.rpartition(".")[0]
                base = (
                    "%s.%s" % (anchor, node.module)
                    if node.module
                    else anchor
                )
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = "%s.%s" % (base, alias.name) if base else alias.name
                imports[alias.asname or alias.name] = target


def _summarize_class(
    node: ast.ClassDef,
) -> Tuple[ClassSummary, List[FunctionSummary]]:
    methods: List[FunctionSummary] = []
    attr_types: Dict[str, Tuple[str, ...]] = {}
    for child in node.body:
        if isinstance(child, FunctionDefs):
            summary = _summarize_function(child, node.name)
            methods.append(summary)
            _collect_attr_types(child, summary.local_types, attr_types)
    bases = []
    for base in node.bases:
        chain = _facts.attribute_chain(base)
        if chain is not None:
            bases.append(chain)
    klass = ClassSummary(
        node.name,
        node.lineno,
        bases,
        [method.name for method in methods],
        attr_types,
    )
    return klass, methods


def _collect_attr_types(
    func: ast.AST,
    local_types: Dict[str, Tuple[str, ...]],
    attr_types: Dict[str, Tuple[str, ...]],
) -> None:
    """``self.x = <ctor or typed local>`` → attribute type hints."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        chain = _value_type_chain(node.value, local_types)
        if chain is not None:
            attr_types.setdefault(target.attr, chain)


def _value_type_chain(
    value: ast.expr, local_types: Dict[str, Tuple[str, ...]]
) -> Optional[Tuple[str, ...]]:
    """The type chain a value expression implies, if any."""
    if isinstance(value, ast.Call):
        chain = _facts.attribute_chain(value.func)
        if chain is not None and chain[-1][:1].isupper():
            return chain
        return None
    if isinstance(value, ast.Name):
        return local_types.get(value.id)
    return None


def _annotation_chain(node: Optional[ast.expr]) -> Optional[Tuple[str, ...]]:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):  # Optional[X] → X
        inner = node.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            inner = inner.elts[0]
        return _annotation_chain(inner)
    return _facts.attribute_chain(node)


def _summarize_function(node, cls: Optional[str]) -> FunctionSummary:
    local_types: Dict[str, Tuple[str, ...]] = {}
    args = node.args
    all_args = list(
        getattr(args, "posonlyargs", [])
    ) + list(args.args) + list(args.kwonlyargs)
    for arg in all_args:
        chain = _annotation_chain(arg.annotation)
        if chain is not None:
            local_types[arg.arg] = chain
    calls: List[CallRef] = []
    _collect_calls(node, 0, calls, local_types)
    facts = {
        "purity": _facts.purity_facts(node),
        "seed_forks": _facts.seed_fork_facts(node),
    }
    return FunctionSummary(
        node.name,
        cls,
        node.lineno,
        node.col_offset + 1,
        is_hot_path_function(node),
        is_cold_path_function(node),
        calls,
        local_types,
        facts,
    )


def _collect_calls(
    node: ast.AST,
    loop_depth: int,
    calls: List[CallRef],
    local_types: Dict[str, Tuple[str, ...]],
) -> None:
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        if isinstance(target, ast.Name):
            chain = _value_type_chain(node.value, local_types)
            if chain is not None:
                local_types.setdefault(target.id, chain)
    elif isinstance(node, ast.AnnAssign) and isinstance(
        node.target, ast.Name
    ):
        chain = _annotation_chain(node.annotation)
        if chain is not None:
            local_types.setdefault(node.target.id, chain)
    if isinstance(node, ast.Call):
        chain = _facts.attribute_chain(node.func)
        if chain is not None:
            calls.append(
                CallRef(
                    chain,
                    node.lineno,
                    node.col_offset + 1,
                    loop_depth > 0,
                )
            )
    depth = loop_depth + (1 if isinstance(node, _facts.LOOP_NODES) else 0)
    for child in ast.iter_child_nodes(node):
        _collect_calls(child, depth, calls, local_types)

