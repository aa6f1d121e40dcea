"""Property tests: the bit-parallel simulator against the scalar reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.benchmarks import get_circuit
from repro.circuits.generator import GeneratorSpec, generate
from repro.logic.bitsim import (
    PatternSimulator,
    broadcast_state_words,
    lane_state,
    pack_bits,
    pack_vectors,
    simulate_packed_words,
    simulate_sequences_packed,
    unpack_bits,
    unpack_lane_bits,
)
from repro.logic.simulator import simulate_comb, simulate_sequence


@given(st.lists(st.integers(0, 1), max_size=70))
def test_pack_unpack_round_trip(bits):
    assert unpack_bits(pack_bits(bits), len(bits)) == bits


def test_pack_vectors_columnwise():
    words = pack_vectors([[1, 0], [0, 1], [1, 1]], ["a", "b"])
    assert words["a"] == 0b101
    assert words["b"] == 0b110


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pattern_simulator_matches_scalar(data):
    c = get_circuit("s298")
    n = data.draw(st.integers(1, 8))
    vectors = [
        [data.draw(st.integers(0, 1)) for _ in c.comb_input_lines] for _ in range(n)
    ]
    words = pack_vectors(vectors, c.comb_input_lines)
    packed = PatternSimulator(c).run(words, n)
    for t, vec in enumerate(vectors):
        scalar = simulate_comb(c, dict(zip(c.comb_input_lines, vec)))
        for line in c.lines:
            assert (packed[line] >> t) & 1 == scalar[line], line


class TestFaultyCone:
    def test_forced_line_matches_full_resim(self):
        """Cone re-evaluation == forcing the line and re-simulating everything."""
        c = get_circuit("s298")
        rng = random.Random(0)
        n = 16
        vectors = [
            [rng.randint(0, 1) for _ in c.comb_input_lines] for _ in range(n)
        ]
        words = pack_vectors(vectors, c.comb_input_lines)
        sim = PatternSimulator(c)
        good = sim.run(words, n)
        mask = (1 << n) - 1
        for line in rng.sample(c.lines, 15):
            forced = mask  # stuck-at-1 everywhere
            faulty = sim.run_faulty_cone(good, line, forced, n)
            # Reference: replay each pattern scalar-style with the line forced.
            for t, vec in enumerate(vectors):
                ref = _forced_scalar(c, dict(zip(c.comb_input_lines, vec)), line, 1)
                for obs in c.observation_lines:
                    expect = ref[obs]
                    got = (faulty.get(obs, good[obs]) >> t) & 1
                    assert got == expect, (line, obs)

    def test_cone_is_sparse(self):
        c = get_circuit("s298")
        sim = PatternSimulator(c)
        n = 4
        words = pack_vectors(
            [[0] * len(c.comb_input_lines)] * n, c.comb_input_lines
        )
        good = sim.run(words, n)
        line = c.lines[0]
        faulty = sim.run_faulty_cone(good, line, 0, n)
        assert set(faulty) <= {line} | c.transitive_fanout(line)


def _forced_scalar(circuit, inputs, line, value):
    from repro.circuits.gates import evaluate

    values = {l: inputs.get(l, 0) for l in circuit.comb_input_lines}
    if line in values:
        values[line] = value
    for gate in circuit.topo_gates:
        values[gate.name] = evaluate(
            gate.gate_type, [values[i] for i in gate.inputs]
        )
        if gate.name == line:
            values[gate.name] = value
    return values


#: Lane counts on both sides of bitsim.BYTE_PLANE_LANES: byte-plane
#: toggle counting up to 8 lanes, the uint64 unpack path above.
LANE_WIDTHS = [1, 8, 9, 64]

#: Switching counted over every line, or over a count_lines subset.
COUNT_SETS = pytest.mark.parametrize("subset", [False, True], ids=["all", "subset"])


def _count_lines(c, subset):
    """Every line, or a deterministic half of them (order scrambled)."""
    if not subset:
        return None
    return random.Random(4).sample(c.lines, c.num_lines // 2)


def _assert_lane_matches_scalar(packed, c, lane, scalar, count_lines, length):
    """Lane ``lane`` of a packed run == one scalar simulate_sequence run."""
    assert packed.lane_states(lane, length) == [tuple(s) for s in scalar.states]
    for cyc in range(length + 1):
        assert lane_state(packed.states, c, cyc, lane) == tuple(scalar.states[cyc])
    counted = c.lines if count_lines is None else count_lines
    values = scalar.line_values
    pct = packed.switching_percent(c.num_lines)
    assert packed.switching_counts[0, lane] == 0
    for cyc in range(1, length):
        expect = sum(values[cyc][x] != values[cyc - 1][x] for x in counted)
        assert packed.switching_counts[cyc, lane] == expect, (lane, cyc)
        if count_lines is None:
            assert pct[cyc, lane] == pytest.approx(scalar.switching[cyc])


class TestPackedSequences:
    @COUNT_SETS
    @pytest.mark.parametrize("lanes", LANE_WIDTHS)
    def test_matches_scalar_states_and_switching(self, lanes, subset):
        c = get_circuit("s298")
        rng = random.Random(2)
        length = 12
        states0 = [[rng.randint(0, 1) for _ in c.flops] for _ in range(lanes)]
        seqs = [
            [[rng.randint(0, 1) for _ in c.inputs] for _ in range(length)]
            for _ in range(lanes)
        ]
        count_lines = _count_lines(c, subset)
        packed = simulate_sequences_packed(c, states0, seqs, count_lines=count_lines)
        assert packed.switching_counts.shape == (length, lanes)
        for k in range(lanes):
            scalar = simulate_sequence(c, states0[k], seqs[k])
            _assert_lane_matches_scalar(packed, c, k, scalar, count_lines, length)

    def test_lane_limit(self):
        c = get_circuit("s27")
        with pytest.raises(ValueError):
            simulate_sequences_packed(c, [[0, 0, 0]] * 65, [[[0, 0, 0, 0]]] * 65)

    def test_lane_count_mismatch(self):
        c = get_circuit("s27")
        with pytest.raises(ValueError):
            simulate_sequences_packed(c, [[0, 0, 0]], [])

    def test_unequal_lengths_rejected(self):
        c = get_circuit("s27")
        with pytest.raises(ValueError):
            simulate_sequences_packed(
                c,
                [[0, 0, 0], [0, 0, 0]],
                [[[0, 0, 0, 0]], [[0, 0, 0, 0], [0, 0, 0, 0]]],
            )

    def test_count_lines_subset(self):
        """Switching restricted to a subset counts only that subset."""
        c = get_circuit("s27")
        seq = [[[1, 0, 1, 0]], [[0, 1, 0, 1]]]
        full = simulate_sequences_packed(c, [[0] * 3] * 2, seq)
        sub = simulate_sequences_packed(
            c, [[0] * 3] * 2, seq, count_lines=c.inputs
        )
        assert sub.switching_counts.shape == full.switching_counts.shape

    def test_random_circuit_cross_check(self):
        spec = GeneratorSpec(
            name="bitsim-mini", n_inputs=4, n_outputs=3, n_flops=4, n_gates=40
        )
        c = generate(spec)
        rng = random.Random(9)
        seqs = [[[rng.randint(0, 1) for _ in c.inputs] for _ in range(6)]]
        packed = simulate_sequences_packed(c, [[0] * 4], seqs)
        scalar = simulate_sequence(c, [0] * 4, seqs[0])
        assert lane_state(packed.states, c, 6, 0) == tuple(scalar.states[6])


class TestWordHelpers:
    def test_broadcast_state_words(self):
        words = broadcast_state_words([1, 0, 1, 1], 0b111)
        assert words == [0b111, 0, 0b111, 0b111]

    def test_unpack_lane_bits_round_trip(self):
        rng = random.Random(5)
        lanes = 7
        rows = [
            [rng.getrandbits(lanes) for _ in range(4)] for _ in range(9)
        ]
        bits = unpack_lane_bits(rows, lanes)
        assert bits.shape == (9, 4, lanes)
        for i, row in enumerate(rows):
            for j, word in enumerate(row):
                for t in range(lanes):
                    assert bits[i, j, t] == (word >> t) & 1

    def test_unpack_lane_bits_empty(self):
        assert unpack_lane_bits([], 4).shape == (0, 0, 4)


class TestPackedWords:
    @COUNT_SETS
    @pytest.mark.parametrize("lanes", LANE_WIDTHS)
    def test_matches_scalar_per_lane(self, lanes, subset):
        """simulate_packed_words from one shared state == per-lane scalar."""
        c = get_circuit("s298")
        rng = random.Random(3)
        length = 10
        init = [rng.randint(0, 1) for _ in c.flops]
        seqs = [
            [[rng.randint(0, 1) for _ in c.inputs] for _ in range(length)]
            for _ in range(lanes)
        ]
        pi_rows = [
            [
                sum(seqs[t][cyc][j] << t for t in range(lanes))
                for j in range(len(c.inputs))
            ]
            for cyc in range(length)
        ]
        count_lines = _count_lines(c, subset)
        packed = simulate_packed_words(
            c, init, pi_rows, lanes, count_lines=count_lines
        )
        assert packed.switching_counts.shape == (length, lanes)
        for t in range(lanes):
            scalar = simulate_sequence(c, init, seqs[t])
            _assert_lane_matches_scalar(packed, c, t, scalar, count_lines, length)

    def test_hold_matches_scalar_holding(self):
        """Packed hold-indices semantics == simulate_with_holding."""
        from repro.core.state_holding import hold_indices, simulate_with_holding

        c = get_circuit("s298")
        rng = random.Random(8)
        length = 12
        hold_set = tuple(c.state_lines[:3])
        init = [0] * len(c.flops)
        seq = [[rng.randint(0, 1) for _ in c.inputs] for _ in range(length)]
        pi_rows = [[bit for bit in vec] for vec in seq]  # 1 lane: words == bits
        packed = simulate_packed_words(
            c, init, pi_rows, 1,
            hold_indices=hold_indices(c, hold_set),
            hold_period_log2=2,
        )
        scalar = simulate_with_holding(
            c, init, seq, hold_set, hold_period_log2=2
        )
        assert packed.lane_states(0, length) == [
            tuple(s) for s in scalar.states
        ]


class TestPackedWordsValidation:
    """simulate_packed_words rejects malformed inputs with named sizes."""

    def test_lane_count_out_of_range(self):
        c = get_circuit("s27")
        with pytest.raises(ValueError, match="n_lanes=65 is outside"):
            simulate_packed_words(c, [0] * len(c.flops), [], 65)
        with pytest.raises(ValueError, match="n_lanes=0 is outside"):
            simulate_packed_words(c, [0] * len(c.flops), [], 0)

    def test_row_width_mismatch_names_row_and_circuit(self):
        c = get_circuit("s27")
        good_row = [0] * len(c.inputs)
        bad_row = [0] * (len(c.inputs) + 1)
        with pytest.raises(ValueError) as exc:
            simulate_packed_words(c, [0] * len(c.flops), [good_row, bad_row], 2)
        msg = str(exc.value)
        assert "pi_word_rows[1]" in msg
        assert f"{len(c.inputs) + 1} input words" in msg
        assert "s27" in msg

    def test_word_wider_than_lanes_names_row(self):
        c = get_circuit("s27")
        row = [0] * len(c.inputs)
        wide = [0b100] + [0] * (len(c.inputs) - 1)
        msg = r"pi_word_rows\[1\] sets a bit at or above lane 2"
        with pytest.raises(ValueError, match=msg):
            simulate_packed_words(c, [0] * len(c.flops), [row, wide], 2)
