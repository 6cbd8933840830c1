"""Spans around calls into the public functions of each ``repro`` package.

The traced run patches wrappers in from outside; the program itself has
no hooks.  Each call records ``[name, start, end, parent, phase]`` in
memory, and the spans are written out when the run ends.

Consumers import functions by name (``from repro.fastpath.kernels
import lookup_batch``), so a function hook rebinds *every* module
attribute bound to the same function object.  A method hook patches the
class and each subclass that overrides the method.  A target that no
longer resolves is reported as unhooked instead of failing the run.
An inherited method is wrapped on the named class only, and removed
again on uninstall.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span record fields.
NAME, START, END, PARENT, PHASE = range(5)


class Hook:
    """One traced callable: the span name and the dotted target."""

    __slots__ = ("name", "target", "observe")

    def __init__(self, name: str, target: str, observe: Optional[Callable] = None):
        self.name = name
        #: ``"package.module:function"`` or ``"package.module:Class.method"``.
        self.target = target
        #: ``observe(tracer, result)`` runs after the call, outside its span.
        self.observe = observe


class Tracer:
    """Installs hooks, records spans and GC pauses, and removes the hooks."""

    def __init__(self, clock: Callable[[], float], module_prefix: str = "repro"):
        self.clock = clock
        self.module_prefix = module_prefix
        self.spans: List[list] = []
        self.gc_pauses: List[Tuple[float, float]] = []
        self.phase = "setup"
        self.tallies: Dict[str, float] = {}
        self.unhooked: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._gc_start: Optional[float] = None

    # -- tallies --------------------------------------------------------
    def add(self, key: str, amount: float = 1) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open around the current call."""
        return any(self.spans[index][NAME] == name for index in self._stack)

    # -- hooks ------------------------------------------------------------
    def install(self, hooks: Sequence[Hook]) -> None:
        for hook in hooks:
            try:
                owners = self._resolve(hook.target)
            except (ImportError, AttributeError):
                self.unhooked.append(hook.target)
                continue
            wrappers: Dict[int, Callable] = {}
            for owner, attr, original in owners:
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(hook, original)
                own = attr in vars(owner)
                setattr(owner, attr, wrappers[id(original)])
                self._patches.append((owner, attr, original, own))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _resolve(self, target: str) -> List[Tuple[object, str, object]]:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, method = qualname.split(".", 1)
            cls = getattr(module, class_name)
            if method not in vars(cls):
                # Inherited: wrap it on this class alone, not on the base.
                return [(cls, method, getattr(cls, method))]
            owners = []
            for klass in _class_tree(cls):
                if method in vars(klass):
                    owners.append((klass, method, vars(klass)[method]))
            return owners
        function = getattr(module, qualname)
        owners = []
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (
                name == self.module_prefix
                or name.startswith(self.module_prefix + ".")
            ):
                continue
            for attr, value in sorted(vars(mod).items()):
                if value is function:
                    owners.append((mod, attr, function))
        return owners

    def _wrap(self, hook: Hook, original):
        tracer = self
        clock = self.clock
        name = hook.name
        observe = hook.observe

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.phase]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    def _on_gc(self, event: str, _info) -> None:
        if event == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.gc_pauses.append((self._gc_start, self.clock()))
            self._gc_start = None


def _class_tree(cls) -> List[type]:
    seen: List[type] = []
    pending = [cls]
    while pending:
        klass = pending.pop()
        if klass in seen:
            continue
        seen.append(klass)
        pending.extend(klass.__subclasses__())
    return seen
