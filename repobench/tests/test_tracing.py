"""The benchmark's own checks: self-time fold, patch restoration, and
the ten-beyond percentile rule.

Run with ``python -m pytest repobench/tests -q`` from the repository root.
"""

from __future__ import annotations

import sys
import types

import pytest

import harness
from tracing import Recorder, Target, fold, patched


def _span(rec: Recorder, name: str, parent: int, start: float, end: float
          ) -> int:
    rec.names.append(name)
    rec.parents.append(parent)
    rec.starts.append(start)
    rec.ends.append(end)
    rec.work.append(0.0)
    return len(rec.names) - 1


class TestFold:
    def test_self_time_subtracts_direct_children_only(self):
        rec = Recorder()
        root = _span(rec, "a", -1, 0.0, 10.0)
        child = _span(rec, "b", root, 1.0, 5.0)
        _span(rec, "c", child, 2.0, 3.0)          # grandchild of a
        _span(rec, "b", root, 6.0, 8.0)
        f = fold(rec)
        assert f.self_s["a"] == pytest.approx(10.0 - 4.0 - 2.0)
        assert f.self_s["b"] == pytest.approx((4.0 - 1.0) + 2.0)
        assert f.self_s["c"] == pytest.approx(1.0)
        assert f.calls == {"a": 1.0, "b": 2.0, "c": 1.0}
        assert f.root_s == pytest.approx(10.0)
        # self times of a whole tree add up to its root's duration
        assert sum(f.self_s.values()) == pytest.approx(10.0)

    def test_window_keeps_child_subtraction(self):
        rec = Recorder()
        root = _span(rec, "a", -1, 0.0, 10.0)
        _span(rec, "b", root, 4.0, 6.0)
        f = fold(rec, start=-1.0, end=1.0)        # only the root began inside
        assert f.self_s == {"a": pytest.approx(8.0)}

    def test_prefix_totals(self):
        rec = Recorder()
        _span(rec, "fabric.route", -1, 0.0, 1.0)
        _span(rec, "fabric.routes", -1, 0.0, 2.0)   # not under the prefix
        _span(rec, "fabric.route.plan", -1, 0.0, 4.0)
        f = fold(rec)
        assert f.total("fabric.route") == pytest.approx(5.0)

    def test_wrappers_record_nesting(self):
        mod = types.ModuleType("repobench_fake_layer")

        def inner(x):
            return x + 1

        def outer(x):
            return mod.inner(x) * 2

        mod.inner, mod.outer = inner, outer
        sys.modules[mod.__name__] = mod
        try:
            rec = Recorder()
            targets = [Target(f"{mod.__name__}:outer", "layer"),
                       Target(f"{mod.__name__}:inner", "layer.inner",
                              measure=lambda r, a, k, out, pre: out)]
            with patched(targets, rec):
                assert mod.outer(1) == 4
            assert rec.names == ["layer", "layer.inner"]
            assert rec.parents == [-1, 0]
            f = fold(rec)
            assert f.work["layer.inner"] == 2.0
            assert f.total("layer") == pytest.approx(rec.ends[0] - rec.starts[0])
        finally:
            del sys.modules[mod.__name__]


class _Thing:
    def method(self):
        return "method"

    @classmethod
    def build(cls):
        return "build"

    @property
    def value(self):
        return "value"

    def _private(self):
        return "private"


class TestPatchRestore:
    def _module(self):
        mod = types.ModuleType("repobench_fake_patch")
        mod.func = lambda: "func"
        mod.Thing = _Thing
        mod.REGISTRY = {"a": lambda: "a", "b": lambda: "b"}
        sys.modules[mod.__name__] = mod
        return mod

    def test_originals_restored_even_on_error(self):
        mod = self._module()
        before = (mod.func, dict(vars(_Thing)), dict(mod.REGISTRY))
        targets = [Target(f"{mod.__name__}:func", "x"),
                   Target(f"{mod.__name__}:Thing.*", "x"),
                   Target(f"{mod.__name__}:REGISTRY[*]", "x", count_only=True)]
        rec = Recorder()
        try:
            with pytest.raises(RuntimeError):
                with patched(targets, rec):
                    assert mod.func() == "func"
                    thing = mod.Thing()
                    assert (thing.method(), thing.build(), thing.value) == (
                        "method", "build", "value")
                    assert mod.REGISTRY["a"]() == "a"
                    assert mod.func is not before[0]
                    raise RuntimeError("boom")
            assert mod.func is before[0]
            assert dict(vars(_Thing)) == before[1]
            assert mod.REGISTRY == before[2]
            assert rec.counts == {"x": 1}
            # private members are left alone by ``Class.*``
            assert rec.names.count("x") == 4
        finally:
            del sys.modules[mod.__name__]

    def test_failed_install_restores_what_was_done(self):
        mod = self._module()
        original = mod.func
        targets = [Target(f"{mod.__name__}:func", "x"),
                   Target(f"{mod.__name__}:missing", "x")]
        try:
            with pytest.raises(AttributeError):
                with patched(targets, Recorder()):
                    pass
            assert mod.func is original
        finally:
            del sys.modules[mod.__name__]


class TestPercentileRule:
    def test_ten_beyond_is_enough(self):
        samples = [float(i) for i in range(1, 1001)]
        assert harness.percentile(samples, 99) == 990.0   # 10 lie beyond
        assert harness.percentile(samples, 50) == 500.0

    def test_fewer_than_ten_beyond_is_refused(self):
        samples = [float(i) for i in range(1, 1000)]      # 9 beyond p99
        with pytest.raises(harness.BenchError):
            harness.percentile(samples, 99)
        with pytest.raises(harness.BenchError):
            harness.percentile([1.0] * 19, 50)             # 9 beyond p50
        assert harness.percentile([1.0] * 20, 50) == 1.0
