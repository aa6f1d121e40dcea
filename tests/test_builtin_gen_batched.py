"""Regression: the 64-lane batched Fig 4.9 loop equals the scalar oracle.

The batched engine evaluates up to 64 candidate seeds per packed
simulation but must accept *exactly* the segments the one-seed-at-a-time
loop accepts: same seeds in the same order, same truncated lengths, same
coverage, same peak SWA, and the same number of seeds drawn from the RNG
stream.  These tests pin that contract on two circuits (s298, s953),
with and without an SWA bound, under state holding, at the full
64-lane batch width and at width 1 (``R = 1``, the Fig 4.12 probes),
which also runs packed.
"""

import pytest

from repro.circuits.benchmarks import get_circuit
from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenerator
from repro.core.state_holding import select_holding_sets
from repro.faults.collapse import collapsed_transition_faults


def _run_pair(circuit, faults, swa_func, hold_set=None, **overrides):
    """Run scalar and batched generators; return (gen, result) pairs."""
    params = dict(
        segment_length=40,
        r_limit=8,
        q_limit=2,
        rng_seed=7,
        time_limit=None,
    )
    params.update(overrides)
    out = []
    for batched in (False, True):
        cfg = BuiltinGenConfig(batched=batched, batch_lanes=64, **params)
        gen = BuiltinGenerator(circuit, faults, swa_func, config=cfg)
        result = gen.run(hold_set=hold_set) if hold_set else gen.run()
        out.append((gen, result))
    return out


def _assert_identical(scalar_pair, batched_pair):
    (gen_s, res_s), (gen_b, res_b) = scalar_pair, batched_pair
    segs_s = [seg for m in res_s.sequences for seg in m.segments]
    segs_b = [seg for m in res_b.sequences for seg in m.segments]
    assert segs_s == segs_b
    assert res_s.tests == res_b.tests
    assert [t.source_cycle for t in res_s.tests] == [t.source_cycle for t in res_b.tests]
    assert res_s.coverage == res_b.coverage
    assert res_s.peak_swa == res_b.peak_swa
    assert res_s.detected == res_b.detected
    assert gen_s.stats.seeds_evaluated == gen_b.stats.seeds_evaluated
    assert gen_s.stats.seeds_accepted == gen_b.stats.seeds_accepted


@pytest.mark.parametrize("name", ["s298", "s953"])
class TestBatchedEqualsScalar:
    def test_unconstrained(self, name):
        c = get_circuit(name)
        faults = collapsed_transition_faults(c)
        scalar, batched = _run_pair(c, faults, None)
        _assert_identical(scalar, batched)
        assert batched[0].stats.packed_batches > 0
        assert scalar[0].stats.packed_batches == 0

    def test_swa_bounded(self, name):
        """Lane-wise truncation at the SWA bound matches the scalar rule."""
        c = get_circuit(name)
        faults = collapsed_transition_faults(c)
        scalar, batched = _run_pair(c, faults, 30.0)
        _assert_identical(scalar, batched)

    def test_with_state_holding(self, name):
        """Held state variables skip capture identically in packed lanes."""
        c = get_circuit(name)
        faults = collapsed_transition_faults(c)
        hold = tuple(c.state_lines[:2])
        scalar, batched = _run_pair(c, faults, 28.0, hold_set=hold)
        _assert_identical(scalar, batched)

    def test_full_64_lane_batches(self, name):
        """Full 64-lane batches reproduce the scalar stream too.

        With ``R = 130`` the first trial of every segment packs 64 lanes
        (the other cases here use ``R = 8``, so their batches never exceed
        8 lanes).
        """
        c = get_circuit(name)
        faults = collapsed_transition_faults(c)
        scalar, batched = _run_pair(c, faults, None, r_limit=130)
        _assert_identical(scalar, batched)
        assert batched[0].stats.packed_batches > 0


class TestBatchPolicy:
    def test_narrow_batch_lanes_still_identical(self):
        """Any batch width must reproduce the scalar stream (RNG rewind)."""
        c = get_circuit("s298")
        faults = collapsed_transition_faults(c)
        base = _run_pair(c, faults, None)[0]
        for lanes in (2, 7, 64):
            cfg = BuiltinGenConfig(
                segment_length=40, r_limit=8, q_limit=2, rng_seed=7,
                time_limit=None, batched=True, batch_lanes=lanes,
            )
            gen = BuiltinGenerator(c, faults, None, config=cfg)
            _assert_identical(base, (gen, gen.run()))

    def test_batched_disabled_uses_scalar_path(self):
        c = get_circuit("s298")
        faults = collapsed_transition_faults(c)
        cfg = BuiltinGenConfig(
            segment_length=40, r_limit=4, q_limit=1, rng_seed=7,
            time_limit=None, batched=False,
        )
        gen = BuiltinGenerator(c, faults, None, config=cfg)
        gen.run()
        assert gen.stats.packed_batches == 0
        assert gen.stats.scalar_trials == gen.stats.seeds_evaluated


@pytest.mark.parametrize("name", ["s298", "s953"])
@pytest.mark.parametrize("hold", [False, True], ids=["free", "hold"])
class TestWidthOneIsPacked:
    """R = 1 decisions run as 1-lane packed batches, never the scalar path."""

    def test_r1_equals_scalar(self, name, hold):
        c = get_circuit(name)
        faults = collapsed_transition_faults(c)
        hold_set = tuple(c.state_lines[:2]) if hold else None
        swa_func = 28.0 if hold else 30.0  # bounds that truncate yet accept
        scalar, batched = _run_pair(
            c, faults, swa_func, hold_set=hold_set, r_limit=1, q_limit=3
        )
        _assert_identical(scalar, batched)
        assert batched[1].tests
        gen_b = batched[0]
        assert gen_b.stats.scalar_trials == 0
        assert gen_b.stats.packed_batches == gen_b.stats.seeds_evaluated > 0


class TestBatchLanesValidation:
    @pytest.mark.parametrize("lanes", [0, -1])
    def test_below_one_rejected(self, lanes):
        with pytest.raises(ValueError, match="batch_lanes"):
            BuiltinGenConfig(batch_lanes=lanes)

    def test_one_lane_runs_packed(self):
        c = get_circuit("s298")
        faults = collapsed_transition_faults(c)
        base = _run_pair(c, faults, None)[0]
        cfg = BuiltinGenConfig(
            segment_length=40, r_limit=8, q_limit=2, rng_seed=7,
            time_limit=None, batched=True, batch_lanes=1,
        )
        gen = BuiltinGenerator(c, faults, None, config=cfg)
        _assert_identical(base, (gen, gen.run()))
        assert gen.stats.scalar_trials == 0


def test_holding_set_selection_batched_equals_scalar():
    """The Fig 4.12 probes pick the same sets packed as scalar."""
    c = get_circuit("s298")
    faults = collapsed_transition_faults(c)
    picks = []
    for batched in (False, True):
        cfg = BuiltinGenConfig(
            segment_length=40, r_limit=3, q_limit=2, rng_seed=7,
            time_limit=None, batched=batched,
        )
        picks.append(select_holding_sets(c, faults, 30.0, tree_height=2, config=cfg))
    assert picks[0].sets == picks[1].sets
    assert picks[0].node_detections == picks[1].node_detections
