"""Hooks patch every binding, survive missing names, and come off cleanly."""

import json
import os
import sys
import types

import pytest

from layers import CERTIFY, HOOKS, KERNEL, PER_LAYER, self_times
from run import END_TO_END
from tracer import NAME, PARENT, Hook, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Base:
    def work(self):
        return "base"

    def inherited(self):
        return "inherited"


class Child(Base):
    def work(self):
        return "child:" + super().work()


def helper(value):
    return value + 1


def outer(value):
    return sys.modules["pbfake.impl"].helper(value)


@pytest.fixture
def fake_package():
    """``pbfake.impl`` defines the functions; ``pbfake.user`` imports them by name."""
    package = types.ModuleType("pbfake")
    impl = types.ModuleType("pbfake.impl")
    user = types.ModuleType("pbfake.user")
    impl.helper = helper
    impl.outer = outer
    impl.Base = Base
    impl.Child = Child
    user.helper = helper
    user.renamed = helper
    modules = {"pbfake": package, "pbfake.impl": impl, "pbfake.user": user}
    sys.modules.update(modules)
    try:
        yield impl, user
    finally:
        for name in modules:
            del sys.modules[name]


def counting_clock():
    ticks = iter(range(10**6))
    return lambda: float(next(ticks))


def test_a_function_hook_patches_every_binding(fake_package):
    impl, user = fake_package
    tracer = Tracer(counting_clock(), module_prefix="pbfake")
    tracer.install([Hook("helper", "pbfake.impl:helper")])
    assert impl.helper is not helper
    assert user.helper is impl.helper and user.renamed is impl.helper
    assert user.renamed(1) == 2
    assert [record[NAME] for record in tracer.spans] == ["helper"]
    tracer.uninstall()
    assert impl.helper is helper and user.helper is helper and user.renamed is helper


def test_method_hooks_cover_overrides_and_inherited_methods(fake_package):
    originals = (vars(Base)["work"], vars(Child)["work"])
    tracer = Tracer(counting_clock(), module_prefix="pbfake")
    tracer.install(
        [Hook("work", "pbfake.impl:Base.work"), Hook("inherited", "pbfake.impl:Child.inherited")]
    )
    assert Child().work() == "child:base"
    assert Child().inherited() == "inherited"
    assert Base().inherited() == "inherited"
    tracer.uninstall()
    names = [record[NAME] for record in tracer.spans]
    # Child.work and, nested in it, Base.work; the inherited method only
    # on the class it was named on.
    assert names == ["work", "work", "inherited"]
    assert tracer.spans[1][PARENT] == 0
    assert "inherited" not in vars(Child)
    assert (vars(Base)["work"], vars(Child)["work"]) == originals


def test_a_name_that_no_longer_resolves_is_reported_not_fatal(fake_package):
    tracer = Tracer(counting_clock(), module_prefix="pbfake")
    tracer.install(
        [
            Hook("gone", "pbfake.impl:removed_function"),
            Hook("gone", "pbfake.impl:Removed.method"),
            Hook("gone", "pbfake.impl:Base.removed_method"),
            Hook("gone", "pbfake.no_such_module:function"),
            Hook("helper", "pbfake.impl:helper"),
        ]
    )
    tracer.uninstall()
    assert tracer.unhooked == [
        "pbfake.impl:removed_function",
        "pbfake.impl:Removed.method",
        "pbfake.impl:Base.removed_method",
        "pbfake.no_such_module:function",
    ]


def test_inside_sees_the_spans_open_around_a_call(fake_package):
    impl, _user = fake_package
    seen = []
    tracer = Tracer(counting_clock(), module_prefix="pbfake")
    tracer.install(
        [
            Hook("outer", "pbfake.impl:outer"),
            Hook("helper", "pbfake.impl:helper", lambda t, _r: seen.append(t.inside("outer"))),
        ]
    )
    impl.helper(1)
    impl.outer(1)
    tracer.uninstall()
    assert seen == [False, True]


def test_a_layer_is_timed_by_its_self_time():
    # [name, start, end, parent, phase]
    spans = [
        ["core.receiver_state", 0.0, 10.0, -1, "setup"],
        ["trie.insert", 1.0, 3.0, 0, "setup"],
        ["trie.insert", 4.0, 5.0, 0, "setup"],
        [CERTIFY, 12.0, 20.0, -1, "window"],
        [KERNEL, 13.0, 14.0, 3, "window"],
        ["fastpath.compile", 15.0, 18.0, 3, "window"],
        [KERNEL, 16.0, 17.0, 5, "window"],
        [KERNEL, 21.0, 22.0, -1, "window"],
    ]
    layers = self_times(spans, gc_pauses=[(8.0, 9.0)])
    # Nested inserts and the collection are cut out of the receiver state.
    assert layers["core.receiver_state"] == [(0.0, 1.0), (3.0, 4.0), (5.0, 8.0), (9.0, 10.0)]
    assert layers["trie.insert"] == [(1.0, 3.0), (4.0, 5.0)]
    # A kernel call under certification, directly or deeper, is certification.
    assert layers[CERTIFY] == [(12.0, 15.0), (16.0, 17.0), (18.0, 20.0)]
    assert layers["fastpath.compile"] == [(15.0, 16.0), (17.0, 18.0)]
    assert layers[KERNEL] == [(21.0, 22.0)]


def test_every_repro_hook_resolves_today():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = Tracer(counting_clock())
    tracer.install(HOOKS)
    tracer.uninstall()
    assert tracer.unhooked == []


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
