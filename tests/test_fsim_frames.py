"""PPSFP over test frames equals grading the same tests as lists.

The batched Fig 4.9 loop grades each candidate lane as a
:class:`repro.faults.fsim.BroadsideFrame` sliced out of its packed
trajectory, never as :class:`BroadsideTest` tuples.  These tests pin that
a frame holds exactly the tests :func:`extract_tests_from_sequence` takes
and that grading frames -- one group or many, across the 256-test chunk
boundary, serial or sharded -- gives the sets that grading the lists
gives.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.benchmarks import get_circuit
from repro.circuits.generator import GeneratorSpec, generate
from repro.faults.collapse import collapsed_transition_faults
from repro.faults.fsim import BroadsideFrame, FaultGrader, TransitionFaultSimulator
from repro.faults.lists import all_transition_faults
from repro.logic.simulator import (
    extract_tests_from_sequence,
    launch_cycles,
    simulate_sequence,
)

#: The default ``TransitionFaultSimulator.chunk_size``: tests per PPSFP pass.
CHUNK = 256

#: Group sizes around the PPSFP chunk boundary: a group ending on it, one
#: crossing it, one spanning two chunks on its own.
STRADDLING = [
    [CHUNK],
    [CHUNK - 1, 2],
    [CHUNK, 1],
    [3, CHUNK + 5],
    [100, 200, 60],
]


def _random_circuit(seed: int):
    return generate(
        GeneratorSpec(
            name=f"fr{seed}", n_inputs=4, n_outputs=3, n_flops=4, n_gates=30, seed=seed
        )
    )


def _trajectory(circuit, n_tests: int, rng: random.Random):
    """One random trajectory yielding ``n_tests`` tests: (tests, frame)."""
    length = 2 * n_tests
    state = [rng.randint(0, 1) for _ in circuit.flops]
    pis = [[rng.randint(0, 1) for _ in circuit.inputs] for _ in range(length)]
    result = simulate_sequence(circuit, state, pis, keep_line_values=False)
    tests = extract_tests_from_sequence(circuit, result, pis, spacing=2)
    frame = BroadsideFrame.from_trajectory(
        np.array(result.states, dtype=np.uint8), np.array(pis, dtype=np.uint8), 2
    )
    return tests, frame


def _assert_same_tests(frame, tests, circuit):
    listed = BroadsideFrame.from_tests(tests, len(circuit.inputs), len(circuit.flops))
    assert len(frame) == len(tests)
    for part in ("s1", "v1", "s2", "v2"):
        np.testing.assert_array_equal(getattr(frame, part), getattr(listed, part))


def _check_groups(circuit, faults, sizes, seed):
    rng = random.Random(seed)
    pairs = [_trajectory(circuit, n, rng) for n in sizes]
    for tests, frame in pairs:
        _assert_same_tests(frame, tests, circuit)
    grader = FaultGrader(circuit, faults)
    # Grade against a partly dropped frontier, as the generator does.
    grader.commit(grader.preview(pairs[0][0][:3]))
    per_group = [grader.preview(tests) for tests, _ in pairs]
    assert grader.preview_groups([frame for _, frame in pairs]) == per_group
    assert grader.preview_groups([tests for tests, _ in pairs]) == per_group
    assert [grader.preview(frame) for _, frame in pairs] == per_group
    sim = grader.simulator
    flat_tests = [t for tests, _ in pairs for t in tests]
    flat_frame = BroadsideFrame.concat([frame for _, frame in pairs])
    assert sim.detection_words(flat_frame, faults) == sim.detection_words(
        flat_tests, faults
    )


class TestFrameGrading:
    def test_chunk_size_is_the_straddled_boundary(self):
        assert TransitionFaultSimulator(get_circuit("s27")).chunk_size == CHUNK

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 7),
        sizes=st.one_of(
            st.sampled_from(STRADDLING),
            st.lists(st.integers(1, 2 * CHUNK), min_size=1, max_size=3),
        ),
    )
    def test_random_circuits(self, seed, sizes):
        c = _random_circuit(seed)
        _check_groups(c, all_transition_faults(c), sizes, seed)

    @pytest.mark.parametrize("sizes", STRADDLING, ids=str)
    def test_s298(self, sizes):
        c = get_circuit("s298")
        _check_groups(c, collapsed_transition_faults(c), sizes, 3)

    def test_empty_groups_and_frontier(self):
        c = get_circuit("s298")
        faults = collapsed_transition_faults(c)
        tests, frame = _trajectory(c, 5, random.Random(1))
        grader = FaultGrader(c, faults)
        expect = grader.preview(tests)
        assert grader.preview_groups([[], frame, []]) == [set(), expect, set()]
        assert grader.preview_groups([[]]) == [set()]
        assert grader.preview([]) == set()
        grader.commit(faults)
        assert grader.preview_groups([frame]) == [set()]

    def test_sharded_frames_equal_serial(self):
        c = get_circuit("s298")
        faults = collapsed_transition_faults(c)
        rng = random.Random(5)
        frames = [_trajectory(c, n, rng)[1] for n in (4, CHUNK - 1, 9)]
        serial = FaultGrader(c, faults).preview_groups(frames)
        with FaultGrader(c, faults, shards=2) as grader:
            assert grader.preview_groups(frames) == serial
            assert grader.preview(frames[1]) == serial[1]


class TestLaunchCycles:
    def test_every_spacing_stays_inside_the_trajectory(self):
        c = get_circuit("s27")
        rng = random.Random(2)
        for spacing in (1, 2, 4):
            for length in range(0, 10):
                pis = [[rng.randint(0, 1) for _ in c.inputs] for _ in range(length)]
                result = simulate_sequence(c, [0] * len(c.flops), pis)
                tests = extract_tests_from_sequence(c, result, pis, spacing=spacing)
                cycles = list(launch_cycles(length, length + 1, spacing))
                assert [t.source_cycle for t in tests] == cycles
                assert cycles == list(range(0, length - 1, spacing))
                if length:
                    frame = BroadsideFrame.from_trajectory(
                        np.array(result.states, dtype=np.uint8),
                        np.array(pis, dtype=np.uint8),
                        spacing,
                    )
                    _assert_same_tests(frame, tests, c)
