import sys
import types

import pytest

from tracer import Tracer


def fake_clock(*times):
    return iter(times).__next__


def test_self_time_is_duration_minus_direct_children():
    # a [0, 10] holds b [1, 3] and c [4, 9]; c holds d [5, 7].
    tracer = Tracer(clock=fake_clock(0, 1, 3, 4, 5, 7, 9, 10))
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("c"):
            with tracer.span("d"):
                pass
    summary = tracer.summary()
    assert {n: s["self_s"] for n, s in summary.items()} == {"a": 3, "b": 2, "c": 3, "d": 2}
    assert {n: s["total_s"] for n, s in summary.items()} == {"a": 10, "b": 2, "c": 5, "d": 2}
    assert sum(s["self_s"] for s in summary.values()) == 10


def test_repeated_and_recursive_spans_add_up():
    # x [0, 6] holds x [1, 4], which holds y [2, 3]; then y [7, 8] at top level.
    tracer = Tracer(clock=fake_clock(0, 1, 2, 3, 4, 6, 7, 8))
    with tracer.span("x"):
        with tracer.span("x"):
            with tracer.span("y"):
                pass
    with tracer.span("y"):
        pass
    summary = tracer.summary()
    assert summary["x"] == {"calls": 2, "total_s": 9, "self_s": 5}
    assert summary["y"] == {"calls": 2, "total_s": 2, "self_s": 2}
    tracer.reset()
    assert tracer.summary() == {}


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=fake_clock(0, 1, 2, 4))
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise ValueError
    assert tracer.summary()["outer"]["self_s"] == 3
    tracer.reset()  # raises if a span were left open


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")

    def double(x):
        return 2 * x

    sub.double = double
    pkg.double = double  # imported by name
    pkg.twice = double  # imported under another name
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.sub", sub)
    return pkg, sub, double


def test_wrap_everywhere_traces_every_reference_and_restores_it(fake_package):
    pkg, sub, double = fake_package
    tracer = Tracer()

    def count(counters, args, kwargs, result):
        counters["x"] += args[0]

    tracer.wrap_everywhere(sub, "double", "double", count)
    assert pkg.double is not double and pkg.twice is pkg.double is sub.double
    assert pkg.twice(3) == 6 and sub.double(4) == 8
    assert tracer.summary()["double"]["calls"] == 2
    assert tracer.counters["x"] == 7
    tracer.close()
    assert sub.double is double and pkg.double is double and pkg.twice is double


def test_wrap_restores_class_attributes_own_and_inherited():
    class Base:
        def __call__(self):
            return "base"

    class Child(Base):
        def __init__(self):
            self.made = True

    init, call = Child.__dict__["__init__"], Base.__dict__["__call__"]
    tracer = Tracer()
    tracer.wrap(Child, "__init__", "init")
    tracer.wrap(Child, "__call__", "call")
    child = Child()
    assert child.made and child() == "base"
    assert set(tracer.summary()) == {"init", "call"}
    tracer.close()
    assert Child.__dict__["__init__"] is init
    assert "__call__" not in Child.__dict__ and Child.__call__ is call
