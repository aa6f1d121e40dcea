"""Self-time arithmetic and wrapper installation of :mod:`tracing`.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import sys
import types

import pytest

import tracing


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_times_of_a_hand_built_forest():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds b [6, 7]; d [12, 13]
    names = [0, 1, 2, 1, 3]
    parents = [-1, 0, 0, 2, -1]
    starts = [0.0, 1.0, 5.0, 6.0, 12.0]
    ends = [10.0, 4.0, 9.0, 7.0, 13.0]
    got = tracing.self_times(names, parents, starts, ends)
    assert got == {0: 3.0, 1: 4.0, 2: 3.0, 3: 1.0}
    assert sum(got.values()) == pytest.approx(10.0 + 1.0)


def test_nested_wrapped_calls_add_up_to_the_region():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    leaf_t = tr.wrap("leaf", leaf)

    def mid():
        clock.now += 1.0
        leaf_t(2.0)
        clock.now += 0.5
        leaf_t(0.25)

    mid_t = tr.wrap("mid", mid)

    def body():
        clock.now += 4.0  # untraced work
        mid_t()
        mid_t()
        leaf_t(1.0)

    _, elapsed = tr.region(body)
    assert elapsed == pytest.approx(4.0 + 2 * 3.75 + 1.0)
    selfs = tr.self_seconds()
    assert selfs == pytest.approx({"mid": 3.0, "leaf": 5.5})
    metrics = tr.metrics()
    assert metrics["other.self_s"] == pytest.approx(4.0)
    assert metrics["trace.wall_s"] == pytest.approx(elapsed)
    assert sum(selfs.values()) + metrics["other.self_s"] == pytest.approx(tr.wall)
    assert tr.counts["leaf.calls"] == 5 and tr.counts["mid.calls"] == 2


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def boom():
        clock.now += 2.0
        raise ValueError("boom")

    boom_t = tr.wrap("boom", boom)
    with pytest.raises(ValueError):
        tr.region(boom_t)
    assert tr.self_seconds() == {"boom": 2.0}
    assert tr.wall == 2.0
    assert tr.counts["boom.calls"] == 0  # counted only on return


def test_install_patches_definition_and_by_name_imports_then_restores(monkeypatch):
    home = types.ModuleType("pb_fake_home")

    def entry(x):
        return x + 1

    class Owner:
        def method(self, x):
            return entry(x) * 2

    home.entry, home.Owner = entry, Owner
    user = types.ModuleType("pb_fake_user")
    user.entry = entry  # "from pb_fake_home import entry"
    monkeypatch.setitem(sys.modules, "pb_fake_home", home)
    monkeypatch.setitem(sys.modules, "pb_fake_user", user)

    def hook(counts, args, kwargs, result):
        counts["seen"] += result

    tr = tracing.Tracer()
    tr.install([
        ("home.entry", "pb_fake_home", "entry", hook),
        ("home.method", "pb_fake_home", "Owner.method", None),
    ])
    try:
        assert home.entry is not entry and user.entry is home.entry
        assert user.entry(1) == 2
        assert Owner().method(3) == 8  # method wraps; its body calls the original
        assert tr.counts["seen"] == 2
        assert tr.counts["home.method.calls"] == 1
    finally:
        tr.uninstall()
    assert home.entry is entry and user.entry is entry
    assert Owner.__dict__["method"].__name__ == "method"
    assert not hasattr(Owner.__dict__["method"], "__wrapped__")
