"""Property tests: the compiled circuit IR against the scalar reference.

The compiled kernels (`repro.core.compiled`) are the shared evaluation
core under every simulator, so they are checked here against the
pre-refactor dict-based reference (`repro.logic.reference`) on random
circuits from the generator: scalar three-valued agreement (including
X-propagation), bit-parallel agreement, event-driven PPSFP cone maps
against the static-cone walk, fault-detection verdict agreement, and
compile-cache invalidation after netlist mutation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.benchmarks import get_circuit
from repro.circuits.generator import GeneratorSpec, generate
from repro.core.compiled import compile_circuit
from repro.faults.fsim import TransitionFaultSimulator
from repro.faults.lists import all_transition_faults
from repro.logic.bitsim import PatternSimulator, pack_vectors
from repro.logic.reference import (
    detects_transition_reference,
    faulty_cone_words_reference,
    simulate_comb_reference,
    simulate_sequence_reference,
)
from repro.logic.simulator import (
    make_broadside_test,
    simulate_comb,
    simulate_sequence,
)
from repro.logic.values import X


def random_circuit(seed: int, n_inputs: int = 4, n_flops: int = 4, n_gates: int = 30):
    return generate(
        GeneratorSpec(
            name=f"cc{seed}",
            n_inputs=n_inputs,
            n_outputs=3,
            n_flops=n_flops,
            n_gates=n_gates,
            seed=seed,
        )
    )


class TestLowering:
    def test_index_space_layout(self):
        c = random_circuit(0)
        cc = compile_circuit(c)
        assert list(cc.names) == c.lines
        assert cc.n_sources == len(c.inputs) + len(c.flops)
        assert cc.num_lines == c.num_lines
        # Parallel arrays are consistent: one opcode and fanin slice per gate.
        assert len(cc.op_codes) == c.num_gates
        assert len(cc.fanin_offsets) == c.num_gates + 1
        assert cc.fanin_offsets[-1] == len(cc.fanin_indices)
        # Schedule is levelized: every fanin index precedes its gate's line.
        for g, gate in enumerate(c.topo_gates):
            out_idx = cc.n_sources + g
            lo, hi = cc.fanin_offsets[g], cc.fanin_offsets[g + 1]
            fis = cc.fanin_indices[lo:hi]
            assert len(fis) == len(gate.inputs)
            assert all(f < out_idx for f in fis)

    def test_compile_cache_reuse_and_invalidation(self):
        c = random_circuit(1)
        cc1 = compile_circuit(c)
        assert compile_circuit(c) is cc1  # memoized per version
        before = simulate_comb(c, {c.inputs[0]: 1})
        c.add_gate("extra_inv", "NOT", [c.inputs[0]])
        c.add_output("extra_inv")
        cc2 = compile_circuit(c)
        assert cc2 is not cc1  # mutation bumped the version
        assert cc2.version > cc1.version
        after = simulate_comb(c, {c.inputs[0]: 1})
        assert after["extra_inv"] == 0
        # Pre-mutation lines are unaffected.
        for line, v in before.items():
            assert after[line] == v

    def test_cone_matches_transitive_fanout(self):
        c = random_circuit(2)
        cc = compile_circuit(c)
        rng = random.Random(2)
        for line in rng.sample(c.lines, 10):
            entries, obs = cc.cone(cc.index[line])
            names = {cc.names[out] for out, _, _, _ in entries}
            assert names == c.transitive_fanout(line)
            # Observation lines outside the cone (and the line itself) are
            # never reported as reachable.
            reach = names | {line}
            assert all(cc.names[i] in reach for i in obs)


class TestScalarAgreement:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_reference_with_x(self, data):
        """Compiled scalar == seed reference on all lines, X included."""
        c = random_circuit(data.draw(st.integers(0, 7)))
        assignment = {
            line: data.draw(st.sampled_from([0, 1, X]))
            for line in c.comb_input_lines
            if data.draw(st.booleans())
        }
        assert simulate_comb(c, assignment) == simulate_comb_reference(c, assignment)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_sequence_matches_reference(self, data):
        """States, per-cycle values and SWA agree with the seed loop."""
        c = random_circuit(data.draw(st.integers(0, 5)))
        length = data.draw(st.integers(1, 8))
        vectors = [
            [data.draw(st.integers(0, 1)) for _ in c.inputs] for _ in range(length)
        ]
        init = [data.draw(st.integers(0, 1)) for _ in c.flops]
        got = simulate_sequence(c, init, vectors)
        ref = simulate_sequence_reference(c, init, vectors)
        assert got.states == ref.states
        assert got.switching == ref.switching
        assert got.line_values == ref.line_values


class TestWordKernelCodegen:
    def test_generated_kernel_matches_scalar(self):
        """The exec-generated eval_words == per-bit eval_scalar."""
        c = random_circuit(3)
        cc = compile_circuit(c)
        rng = random.Random(3)
        lanes = 64
        mask = (1 << lanes) - 1
        values = cc.zero_frame()
        source_bits = [rng.getrandbits(lanes) for _ in range(cc.n_sources)]
        values[0 : cc.n_sources] = source_bits
        cc.eval_words(values, mask)
        for t in range(lanes):
            scalar = cc.zero_frame()
            scalar[0 : cc.n_sources] = [(w >> t) & 1 for w in source_bits]
            cc.eval_scalar(scalar)
            for i in range(cc.num_lines):
                assert (values[i] >> t) & 1 == scalar[i], (i, t)

    def test_kernel_built_once(self):
        c = random_circuit(4)
        cc = compile_circuit(c)
        assert cc._word_kernel is None
        cc.eval_words(cc.zero_frame(), 1)
        kernel = cc._word_kernel
        assert kernel is not None
        cc.eval_words(cc.zero_frame(), 1)
        assert cc._word_kernel is kernel


class TestBitParallelAgreement:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_words_match_scalar(self, data):
        c = random_circuit(data.draw(st.integers(0, 5)))
        n = data.draw(st.integers(1, 12))
        vectors = [
            [data.draw(st.integers(0, 1)) for _ in c.comb_input_lines]
            for _ in range(n)
        ]
        packed = PatternSimulator(c).run(
            pack_vectors(vectors, c.comb_input_lines), n
        )
        for t, vec in enumerate(vectors):
            scalar = simulate_comb_reference(c, dict(zip(c.comb_input_lines, vec)))
            for line in c.lines:
                assert (packed[line] >> t) & 1 == scalar[line], (line, t)


def _random_good_frame(cc, rng, lanes):
    """A consistent fault-free word frame over random source words."""
    mask = (1 << lanes) - 1
    values = cc.zero_frame()
    for i in range(cc.n_sources):
        values[i] = rng.getrandbits(lanes)
    return cc.eval_words(values, mask), mask


def _assert_cone_maps_match(cc, good, mask, rng):
    """Event-driven == static-cone sparse map on every line.

    Forces each line to both stuck values and to one random word.
    """
    for line in range(cc.num_lines):
        for forced in (0, mask, rng.getrandbits(mask.bit_length())):
            got = cc.faulty_cone_words(good, line, forced, mask)
            ref = faulty_cone_words_reference(cc, good, line, forced, mask)
            assert got == ref, (cc.names[line], forced)


class TestEventDrivenCone:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 9),
        lanes=st.integers(1, 64),
        frame_seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_static_cone_walk(self, seed, lanes, frame_seed):
        cc = compile_circuit(random_circuit(seed))
        rng = random.Random(frame_seed)
        good, mask = _random_good_frame(cc, rng, lanes)
        _assert_cone_maps_match(cc, good, mask, rng)

    @pytest.mark.parametrize("name", ["s298", "s953", "s1423"])
    def test_benchmark_circuits_match_static_cone_walk(self, name):
        cc = compile_circuit(get_circuit(name))
        rng = random.Random(11)
        good, mask = _random_good_frame(cc, rng, 64)
        _assert_cone_maps_match(cc, good, mask, rng)


class TestFaultVerdictAgreement:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_detection_matches_scalar_reference(self, data):
        """PPSFP verdicts == scalar forced-resimulation verdicts."""
        c = random_circuit(data.draw(st.integers(0, 4)))
        rng = random.Random(data.draw(st.integers(0, 999)))
        state = [0] * len(c.flops)
        tests = []
        for _ in range(data.draw(st.integers(1, 5))):
            v1 = [rng.randint(0, 1) for _ in c.inputs]
            v2 = [rng.randint(0, 1) for _ in c.inputs]
            test = make_broadside_test(c, state, v1, v2)
            tests.append(test)
            state = list(test.s2)
        faults = all_transition_faults(c)
        faults = rng.sample(faults, min(30, len(faults)))
        sim = TransitionFaultSimulator(c)
        words = sim.detection_words(tests, faults)
        for fault in faults:
            for t, test in enumerate(tests):
                expect = detects_transition_reference(c, test, fault)
                got = bool((words[fault] >> t) & 1)
                assert got == expect, (fault, t)
