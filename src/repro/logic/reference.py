"""Pre-refactor scalar reference implementations (semantic ground truth).

These are the original dict-based, string-keyed simulation routines the
repository shipped before the compiled circuit IR (:mod:`repro.core.
compiled`) became the shared evaluation core.  They are deliberately kept
byte-for-byte simple -- one dict lookup per gate input, `Circuit.topo_gates`
walked per call -- and serve two purposes:

* **oracle**: ``tests/test_compiled.py`` property-checks the compiled
  scalar kernel, the bit-parallel word kernel, the event-driven PPSFP
  cone walk (against the static-cone walk it replaced) and the PPSFP
  fault-grading verdicts against these functions on random circuits,
  and ``tests/test_embedded.py`` pins the lane-packed SWA_func
  estimate against the per-seed one it replaced;
* **baseline**: ``benchmarks/bench_kernel.py`` times them against the
  compiled paths to track the repository's performance trajectory.

Nothing on a hot path may import this module.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.bist.tpg import DevelopedTpg
from repro.circuits.gates import evaluate
from repro.circuits.netlist import Circuit
from repro.core.compiled import _FAM_AND, _FAM_OR, _FAM_XOR, CompiledCircuit
from repro.core.embedded import ComposedDesign, SwaFuncEstimate, functional_seeds
from repro.faults.models import TransitionFault
from repro.logic.bitsim import simulate_sequences_packed
from repro.logic.patterns import BroadsideTest
from repro.logic.simulator import SequenceResult
from repro.logic.values import X


def simulate_comb_reference(
    circuit: Circuit, input_values: Mapping[str, int]
) -> dict[str, int]:
    """The seed ``simulate_comb``: dict-based three-valued evaluation.

    Unknown keys are silently discarded, as the seed did (the refactored
    :func:`repro.logic.simulator.simulate_comb` raises instead).
    """
    values: dict[str, int] = {line: X for line in circuit.comb_input_lines}
    values.update((k, v) for k, v in input_values.items() if k in values)
    for gate in circuit.topo_gates:
        values[gate.name] = evaluate(gate.gate_type, [values[i] for i in gate.inputs])
    return values


def simulate_comb_forced_reference(
    circuit: Circuit,
    input_values: Mapping[str, int],
    line: str,
    forced_value: int,
) -> dict[str, int]:
    """Scalar evaluation with one line forced to a constant (fault injection)."""
    values: dict[str, int] = {l: X for l in circuit.comb_input_lines}
    values.update((k, v) for k, v in input_values.items() if k in values)
    if line in values:
        values[line] = forced_value
    for gate in circuit.topo_gates:
        if gate.name == line:
            values[gate.name] = forced_value
        else:
            values[gate.name] = evaluate(
                gate.gate_type, [values[i] for i in gate.inputs]
            )
    return values


def simulate_sequence_reference(
    circuit: Circuit,
    initial_state: Sequence[int],
    pi_vectors: Sequence[Sequence[int]],
    keep_line_values: bool = True,
) -> SequenceResult:
    """The seed ``simulate_sequence``: per-cycle dicts and dict-diff SWA."""
    state = tuple(initial_state)
    if len(state) != len(circuit.flops):
        raise ValueError(
            f"initial state has {len(state)} bits, circuit has {len(circuit.flops)} flops"
        )
    states = [state]
    all_values: list[dict[str, int]] = []
    switching: list[float] = []
    prev_values: dict[str, int] | None = None
    n_lines = circuit.num_lines
    for p in pi_vectors:
        values = simulate_comb_reference(
            circuit,
            dict(zip(circuit.inputs, p)) | dict(zip(circuit.state_lines, state)),
        )
        if prev_values is None:
            switching.append(0.0)
        else:
            changed = sum(1 for line, v in values.items() if v != prev_values[line])
            switching.append(100.0 * changed / n_lines)
        state = tuple(values[f.d] for f in circuit.flops)
        states.append(state)
        if keep_line_values:
            all_values.append(values)
        prev_values = values
    return SequenceResult(states=states, line_values=all_values, switching=switching)


def _observation_lines(circuit: Circuit) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for line in circuit.observation_lines:
        if line not in seen:
            seen.add(line)
            out.append(line)
    return out


def detects_transition_reference(
    circuit: Circuit, test: BroadsideTest, fault: TransitionFault
) -> bool:
    """Scalar two-frame transition-fault check (fully specified tests only).

    Mirrors the PPSFP semantics of :mod:`repro.faults.fsim`: the first
    pattern must set the fault line to the initial transition value, the
    second pattern's fault-free value must be the final value, and forcing
    the line to its stuck value in the second frame must flip a primary
    output or next-state line.
    """
    frame1 = simulate_comb_reference(
        circuit,
        dict(zip(circuit.inputs, test.v1)) | dict(zip(circuit.state_lines, test.s1)),
    )
    frame2_inputs = dict(zip(circuit.inputs, test.v2)) | dict(
        zip(circuit.state_lines, test.s2)
    )
    frame2 = simulate_comb_reference(circuit, frame2_inputs)
    g = fault.line
    if frame1[g] != fault.initial_value or frame2[g] != fault.final_value:
        return False
    faulty = simulate_comb_forced_reference(
        circuit, frame2_inputs, g, fault.stuck_value
    )
    return any(faulty[obs] != frame2[obs] for obs in _observation_lines(circuit))


def grade_transition_faults_reference(
    circuit: Circuit,
    tests: Sequence[BroadsideTest],
    faults: Sequence[TransitionFault],
) -> set[TransitionFault]:
    """Scalar fault grading: the pre-refactor one-test-at-a-time path.

    Quadratic in (tests x faults) with full per-test scalar resimulation --
    exactly the workload the compiled bit-parallel grader replaces; used as
    the baseline in ``benchmarks/bench_kernel.py``.
    """
    detected: set[TransitionFault] = set()
    for fault in faults:
        for test in tests:
            if detects_transition_reference(circuit, test, fault):
                detected.add(fault)
                break
    return detected


def faulty_cone_words_reference(
    compiled: CompiledCircuit,
    good_values: Sequence[int],
    line_index: int,
    forced_word: int,
    mask: int,
) -> dict[int, int]:
    """Static-cone PPSFP injection: every gate of the fanout cone, in order.

    The pre-event-driven :meth:`repro.core.compiled.CompiledCircuit.
    faulty_cone_words`: re-evaluates ``line_index``'s whole transitive
    fanout cone in schedule order, even after the fault effect has died
    out, and returns the same sparse map -- the forced line plus exactly
    the cone gates whose word diverges from ``good_values``.
    """
    entries, _ = compiled.cone(line_index)
    faulty: dict[int, int] = {line_index: forced_word & mask}
    get = faulty.get
    for out, family, inv, fis in entries:
        words = [get(f, good_values[f]) for f in fis]
        if family == _FAM_AND:
            w = mask
            for v in words:
                w &= v
        elif family == _FAM_OR:
            w = 0
            for v in words:
                w |= v
        elif family == _FAM_XOR:
            w = 0
            for v in words:
                w ^= v
        else:
            w = words[0]
        if inv:
            w ^= mask
        if w != good_values[out]:
            faulty[out] = w
    return faulty


def estimate_swa_func_reference(
    design: ComposedDesign,
    n_sequences: int = 30,
    length: int = 300,
    base_seed: int = 0xC0FFEE,
    tpg: DevelopedTpg | None = None,
) -> SwaFuncEstimate:
    """The pre-batching :func:`repro.core.embedded.estimate_swa_func`.

    Expands each functional sequence on its own with the scalar
    ``tpg.sequence`` and re-packs the lists cycle by cycle through
    :func:`repro.logic.bitsim.simulate_sequences_packed`, one lane per
    sequence, instead of stepping every seed together with
    ``tpg.sequence_batch`` into :func:`repro.logic.bitsim.
    simulate_packed_words`.
    """
    tpg = tpg or DevelopedTpg.for_circuit(design.driver)
    sequences = [
        tpg.sequence(seed, length) for seed in functional_seeds(n_sequences, base_seed)
    ]
    zero = [0] * len(design.circuit.flops)
    result = simulate_sequences_packed(
        design.circuit,
        [zero] * n_sequences,
        sequences,
        count_lines=design.target_lines,
    )
    percent = result.switching_percent(len(design.target_lines))
    peaks = tuple(
        float(percent[1:, k].max()) if length > 1 else 0.0 for k in range(n_sequences)
    )
    return SwaFuncEstimate(
        swa_func=max(peaks) if peaks else 0.0,
        per_sequence_peak=peaks,
        n_sequences=n_sequences,
        length=length,
    )
