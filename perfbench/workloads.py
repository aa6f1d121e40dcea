"""The benchmark's workloads: set-up, one campaign, its oracle and checks.

Every workload runs the paper's Fig 4.9 construction at paper settings
(``L=120``, ``R=3``, ``Q=5``, no wall-clock cap) over the full collapsed
transition-fault list, through public library calls only.

* ``gen-s1423``: Fig 4.9 generation of s1423 under the driving block
  s953, once per RNG seed of the campaign.
* ``tables-ch4``: per RNG seed of the campaign, Table 4.3 on the default
  Chapter 4 suite, then Table 4.4 (state holding) on its rows below 95 %
  coverage, rendered.

The RNG seeds of a campaign (:data:`RNG_SEEDS`) are the benchmark seed
and seeds derived from it.

A campaign is timed step by step: :func:`run_unit` for each key of
:func:`unit_keys` (a generator run, or one target's table rows), then
:func:`finish` (rendering).  :func:`outcome` turns the raw results,
outside the timed region, into per-unit digests and what the output
checks need.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.bist.tpg import DevelopedTpg
from repro.circuits.benchmarks import get_circuit
from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenerator, BuiltinGenResult
from repro.core.compiled import compile_circuit
from repro.core.embedded import compose, estimate_swa_func
from repro.core.state_holding import simulate_with_holding
from repro.experiments.tables4 import (
    CHAPTER4_DRIVERS,
    CHAPTER4_TARGETS,
    Table43Case,
    Table44Case,
    render_table_4_3,
    render_table_4_4,
    run_table_4_3,
    run_table_4_4,
)
from repro.faults.collapse import collapsed_transition_faults
from repro.faults.fsim import FaultGrader
from repro.logic.simulator import simulate_sequence
from repro.resilience.policy import TaskFailure

WORKLOADS = ("gen-s1423", "tables-ch4")

#: Target and driving block of ``gen-s1423``.
GEN_TARGET, GEN_DRIVER = "s1423", "s953"

#: RNG seeds per campaign: generator runs of ``gen-s1423``, Table 4.3/4.4
#: campaigns of ``tables-ch4``.  One Fig 4.9 run stops on ``Q``
#: consecutive failing sequences, so its length and its seeds per second
#: vary by tens of percent between RNG seeds; a campaign over several
#: seeds measures the code rather than one seed's luck.
RNG_SEEDS = {"gen-s1423": 4, "tables-ch4": 2}

#: Table 4.4 runs on Table 4.3 rows below this fault coverage (percent).
FC_THRESHOLD = 95.0

#: Slack the generator itself allows on the SWA bound.
SWA_EPS = 1e-9


def paper_config(rng_seed: int, batched: bool = True) -> BuiltinGenConfig:
    """Fig 4.9 at paper settings; the wall-clock cap is off explicitly."""
    return BuiltinGenConfig(
        segment_length=120,
        r_limit=3,
        q_limit=5,
        time_limit=None,
        rng_seed=rng_seed,
        batched=batched,
    )


def circuit_names(workload: str) -> tuple[list[str], list[str]]:
    """``(targets, drivers)`` a workload loads during set-up."""
    if workload == "gen-s1423":
        return [GEN_TARGET], [GEN_DRIVER]
    return list(CHAPTER4_TARGETS), list(CHAPTER4_DRIVERS)


def setup(workload: str) -> None:
    """Build, compile and fault-collapse every circuit the workload uses."""
    targets, drivers = circuit_names(workload)
    for name in dict.fromkeys(targets + drivers):
        compile_circuit(get_circuit(name))
    for name in targets:
        collapsed_transition_faults(get_circuit(name))


def _digest(obj: Any) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def result_digest(result: BuiltinGenResult) -> str:
    """Digest of one generator result: what the paper's tables report."""
    return _digest(
        {
            "segments": [
                [[seg.seed, seg.length] for seg in seq.segments]
                for seq in result.sequences
            ],
            "tests": [str(t) for t in result.tests],
            "detected": sorted(f"{f.line}/{f.direction}" for f in result.detected),
            "coverage": repr(result.coverage),
            "peak_swa": repr(result.peak_swa),
        }
    )


@dataclass
class Outcome:
    """What one campaign produced, prepared for the output checks."""

    digests: list[str]
    #: ``(label, circuit, faults graded, swa bound, hold set, result)``
    runs: list[tuple[str, Any, list, float | None, tuple | None, BuiltinGenResult]]
    failures: list[str] = field(default_factory=list)


def rng_seeds(workload: str, seed: int) -> list[int]:
    """A campaign's RNG seeds: ``seed`` first, then derived ones."""
    return [seed + 1_000_003 * i for i in range(RNG_SEEDS[workload])]


def unit_keys(workload: str, seed: int) -> list:
    """What tells a campaign's timed units apart, in run order.

    ``gen-s1423``: the RNG seed of each generator run.  ``tables-ch4``:
    ``(rng_seed, target)``, a target's Table 4.3 rows plus the Table 4.4
    rows built on them.
    """
    if workload == "gen-s1423":
        return rng_seeds(workload, seed)
    return [(s, t) for s in rng_seeds(workload, seed) for t in CHAPTER4_TARGETS]


def run_unit(workload: str, key, batched: bool = True) -> tuple:
    """One timed unit: ``(swa_func, result)`` or ``(table 4.3, table 4.4 cases)``."""
    if workload == "gen-s1423":
        target, driver = get_circuit(GEN_TARGET), get_circuit(GEN_DRIVER)
        swa_func = estimate_swa_func(compose(driver, target)).swa_func
        generator = BuiltinGenerator(
            target,
            collapsed_transition_faults(target),
            swa_func,
            config=paper_config(key, batched),
        )
        return swa_func, generator.run()
    rng_seed, target = key
    config = paper_config(rng_seed, batched)
    cases3 = run_table_4_3(targets=(target,), config=config)
    cases4 = run_table_4_4(
        cases3, fc_threshold=FC_THRESHOLD, tree_height=2, config=config
    )
    return cases3, cases4


def finish(workload: str, seed: int, raws: list) -> str:
    """The campaign's last timed step: render each RNG seed's tables."""
    if workload == "gen-s1423":
        return ""
    keys = unit_keys(workload, seed)
    return "\n".join(
        render_tables(
            [c for k, r in zip(keys, raws) if k[0] == s for c in r[0]],
            [c for k, r in zip(keys, raws) if k[0] == s for c in r[1]],
        )
        for s in rng_seeds(workload, seed)
    )


def render_tables(cases3: list, cases4: list) -> str:
    """Tables 4.3 and 4.4 as the campaign prints them."""
    return render_table_4_3(cases3) + "\n" + render_table_4_4(cases4)


def unit_digest(workload: str, raw: tuple) -> str:
    """Digest of one unit's output: the generator result, or its table rows."""
    if workload == "gen-s1423":
        return result_digest(raw[1])
    return _digest(render_tables(*raw))


def outcome(workload: str, seed: int, raws: list, text: str) -> Outcome:
    """Digest a campaign's raw results and collect what the checks need.

    The digests are one per unit, then (``tables-ch4``) the rendered text.
    """
    out = Outcome(digests=[unit_digest(workload, raw) for raw in raws], runs=[])
    if workload == "gen-s1423":
        target = get_circuit(GEN_TARGET)
        faults = collapsed_transition_faults(target)
        for key, (swa_func, result) in zip(unit_keys(workload, seed), raws):
            out.runs.append((f"rng_seed={key}", target, faults, swa_func, None, result))
        return out
    out.digests.append(_digest(text))
    cases3 = [c for r in raws for c in r[0]]
    cases4 = [c for r in raws for c in r[1]]
    for case in cases3 + cases4:
        if isinstance(case, TaskFailure):
            out.failures.append(f"task failed: {case.key}: {case.describe()}")
    for case in cases3:
        if isinstance(case, Table43Case):
            target = get_circuit(case.target)
            out.runs.append(
                (f"4.3 {case.target}/{case.driver}", target,
                 collapsed_transition_faults(target), case.swa_func, None, case.result)
            )
    for case in cases4:
        if not isinstance(case, Table44Case):
            continue
        target = get_circuit(case.base.target)
        remaining = [
            f for f in collapsed_transition_faults(target)
            if f not in case.base.result.detected
        ]
        sets = case.holding.selection.sets
        for hold_set, result in zip(sets, case.holding.per_set_results):
            out.runs.append(
                (f"4.4 {case.base.target}/{case.base.driver} hold={len(hold_set)}",
                 target, remaining, case.base.swa_func, tuple(hold_set), result)
            )
            remaining = [f for f in remaining if f not in result.detected]
    return out


def oracle_digests(workload: str, seed: int) -> list[str | None]:
    """Scalar ``batched=False`` oracle digests, aligned with :func:`outcome`'s.

    The oracle re-runs one unit per campaign, unit ``seed mod units``, so
    that runs over many seeds cover every unit; the other units are pinned
    by the re-grade, re-simulation and repeat checks.
    """
    keys = unit_keys(workload, seed)
    digests: list[str | None] = [None] * (len(keys) + (workload == "tables-ch4"))
    pick = seed % len(keys)
    digests[pick] = unit_digest(workload, run_unit(workload, keys[pick], batched=False))
    return digests


def check_run(circuit, faults, swa_func, hold_set, result) -> list[str]:
    """Re-grade the emitted tests and re-simulate every accepted sequence."""
    problems = []
    regraded = FaultGrader(circuit, faults).grade(result.tests)
    if regraded != result.detected:
        problems.append(
            f"re-grade detects {len(regraded)} faults, result says "
            f"{len(result.detected)}"
        )
    config = paper_config(0)
    tpg = DevelopedTpg.for_circuit(circuit)
    peak = 0.0
    for seq in result.sequences:
        state = [0] * len(circuit.flops)
        for seg in seq.segments:
            pi = tpg.sequence(seg.seed, config.segment_length)[: seg.length]
            if hold_set:
                sim = simulate_with_holding(
                    circuit, state, pi, hold_set=hold_set,
                    hold_period_log2=config.hold_period_log2,
                )
            else:
                sim = simulate_sequence(circuit, state, pi, keep_line_values=False)
            peak = max([peak, *sim.switching[1:]])
            state = sim.states[-1]
    if swa_func is not None and peak > swa_func + SWA_EPS:
        problems.append(f"re-simulated peak SWA {peak:.4f}% > SWA_func {swa_func:.4f}%")
    return problems


def check_outcome(out: Outcome) -> list[str]:
    """Every problem found in one campaign's outputs (empty when correct)."""
    problems = list(out.failures)
    for label, circuit, faults, swa_func, hold_set, result in out.runs:
        problems += [
            f"{label}: {p}"
            for p in check_run(circuit, faults, swa_func, hold_set, result)
        ]
    return problems

