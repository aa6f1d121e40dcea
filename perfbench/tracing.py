"""In-memory span tracing of the library's layers, installed from outside.

The library is not edited: :class:`Tracer` replaces each layer entry point
with a wrapper, where it is defined and in every loaded module that
imported it by name (the benchmark's own included), and restores the originals on
:meth:`Tracer.uninstall`.  Each wrapped call records one span (layer id,
start, end, parent span) in flat arrays; counts are taken at the same
boundaries by per-entry hooks.  Nothing is written while the run goes on:
:func:`self_times` turns the spans into exclusive time per layer at the
end, and :meth:`Tracer.write_spans` writes them out when the run ends.

A layer's self time is its spans' durations minus the part of those
intervals that child spans cover.  Calls nest strictly on the one thread
the benchmark runs, so that part is the sum of the children's durations.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterable

Hook = Callable[[dict, tuple, dict, Any], None]


def self_times(
    names: Iterable[int],
    parents: Iterable[int],
    starts: Iterable[float],
    ends: Iterable[float],
) -> dict[int, float]:
    """Exclusive time per name id of a strictly nested span forest.

    ``parents[i]`` is the index of span ``i``'s enclosing span, or -1.
    """
    names, parents = list(names), list(parents)
    durs = [e - s for s, e in zip(starts, ends)]
    covered = [0.0] * len(durs)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durs[i]
    out: dict[int, float] = defaultdict(float)
    for i, name in enumerate(names):
        out[name] += durs[i] - covered[i]
    return dict(out)


# -- count hooks: (counts, args, kwargs, result) ---------------------------


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    """Argument ``name`` of a call, passed at ``pos`` or by keyword."""
    return args[pos] if len(args) > pos else kwargs[name]


def _count_cone(counts, args, kwargs, result):
    # faulty_cone_words(self, good_values, line_index, forced_word, mask)
    line = _arg(args, kwargs, 2, "line_index")
    counts["compiled.cone_gates_evaluated"] += len(args[0].cone(line)[0])
    counts["compiled.cone_gates_diverged"] += len(result) - 1


def _count_preview_groups(counts, args, kwargs, result):
    groups = _arg(args, kwargs, 1, "test_groups")
    counts["fsim.tests_graded"] += sum(len(g) for g in groups)
    counts["fsim.frontier_faults"] += len(args[0].remaining)
    counts["fsim.groups_graded"] += len(result)
    counts["fsim.groups_hit"] += sum(1 for s in result if s)


def _count_preview(counts, args, kwargs, result):
    counts["fsim.tests_graded"] += len(_arg(args, kwargs, 1, "tests"))
    counts["fsim.frontier_faults"] += len(args[0].remaining)
    counts["fsim.groups_graded"] += 1
    counts["fsim.groups_hit"] += 1 if result else 0


def _count_packed_words(counts, args, kwargs, result):
    # simulate_packed_words(circuit, initial_state, pi_word_rows, n_lanes, ...)
    lanes = _arg(args, kwargs, 3, "n_lanes")
    counts["bitsim.lane_cycles"] += lanes * len(_arg(args, kwargs, 2, "pi_word_rows"))
    counts["gen.lanes_offered.packed"] += lanes


def _count_packed_sequences(counts, args, kwargs, result):
    # simulate_sequences_packed(circuit, initial_states, pi_sequences, ...)
    seqs = _arg(args, kwargs, 2, "pi_sequences")
    counts["bitsim.lane_cycles"] += len(seqs) * len(seqs[0])


def _count_gen_run(counts, args, kwargs, result):
    stats = args[0].stats
    counts["gen.seeds_evaluated"] += stats.seeds_evaluated
    counts["gen.seeds_accepted"] += stats.seeds_accepted
    counts["gen.lanes_offered.scalar"] += stats.scalar_trials


def _count_sequence(counts, args, kwargs, result):
    counts["tpg.vectors"] += len(result)


def _count_sequence_batch(counts, args, kwargs, result):
    counts["tpg.vectors"] += len(result) * len(_arg(args, kwargs, 1, "seeds"))


def _count_extract(counts, args, kwargs, result):
    counts["simulator.tests_extracted"] += len(result)


def _count_selection(counts, args, kwargs, result):
    counts["state_holding.sets_selected"] += result.n_sets


#: ``(layer, module, attribute, hook)``; a dotted attribute is a method
#: patched on its class.
ENTRY_POINTS: tuple[tuple[str, str, str, Any], ...] = (
    ("circuits.load", "repro.circuits.benchmarks", "get_circuit", None),
    ("circuits.load", "repro.circuits.benchmarks", "make_buffers_block", None),
    ("collapse.collapse", "repro.faults.collapse", "collapsed_transition_faults", None),
    ("compiled.compile", "repro.core.compiled", "compile_circuit", None),
    ("compiled.cone", "repro.core.compiled", "CompiledCircuit.faulty_cone_words", _count_cone),
    ("fsim.preview", "repro.faults.fsim", "FaultGrader.preview_groups", _count_preview_groups),
    ("fsim.preview", "repro.faults.fsim", "FaultGrader.preview", _count_preview),
    ("fsim.commit", "repro.faults.fsim", "FaultGrader.commit", None),
    ("bitsim.packed", "repro.logic.bitsim", "simulate_packed_words", _count_packed_words),
    ("bitsim.packed", "repro.logic.bitsim", "simulate_sequences_packed", _count_packed_sequences),
    ("bitsim.unpack", "repro.logic.bitsim", "unpack_lane_bits", None),
    ("gen", "repro.core.builtin_gen", "BuiltinGenerator.run", _count_gen_run),
    ("tpg.expand", "repro.bist.tpg", "DevelopedTpg.sequence", _count_sequence),
    ("tpg.expand", "repro.bist.tpg", "DevelopedTpg.sequence_batch", _count_sequence_batch),
    ("simulator.scalar", "repro.logic.simulator", "simulate_sequence", None),
    ("simulator.extract", "repro.logic.simulator", "extract_tests_from_sequence", _count_extract),
    ("embedded.swa_func", "repro.core.embedded", "estimate_swa_func", None),
    ("state_holding.select", "repro.core.state_holding", "select_holding_sets", _count_selection),
    ("state_holding.hold_sim", "repro.core.state_holding", "simulate_with_holding", None),
    ("runner.dispatch", "repro.experiments.runner", "run_tasks", None),
    ("tables4.render", "repro.experiments.tables4", "render_table_4_3", None),
    ("tables4.render", "repro.experiments.tables4", "render_table_4_4", None),
)

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("compiled.compile_s", "s"),
    ("compiled.cone_s", "s"),
    ("compiled.cone_calls", "count"),
    ("compiled.cone_gates_evaluated", "count"),
    ("compiled.cone_gates_diverged", "count"),
    ("compiled.cone_useful_ratio", "ratio"),
    ("fsim.preview_s", "s"),
    ("fsim.previews", "count"),
    ("fsim.tests_graded", "count"),
    ("fsim.frontier_faults", "count"),
    ("fsim.groups_graded", "count"),
    ("fsim.groups_hit", "count"),
    ("fsim.hit_ratio", "ratio"),
    ("fsim.commit_s", "s"),
    ("bitsim.packed_s", "s"),
    ("bitsim.packed_calls", "count"),
    ("bitsim.lane_cycles", "count"),
    ("bitsim.lane_cycles_per_s", "1/s"),
    ("bitsim.unpack_s", "s"),
    ("gen.self_s", "s"),
    ("gen.seeds_evaluated", "count"),
    ("gen.seeds_accepted", "count"),
    ("gen.accept_ratio", "ratio"),
    ("gen.lanes_offered", "count"),
    ("gen.lane_use_ratio", "ratio"),
    ("tpg.expand_s", "s"),
    ("tpg.vectors", "count"),
    ("simulator.scalar_s", "s"),
    ("simulator.extract_s", "s"),
    ("simulator.tests_extracted", "count"),
    ("embedded.swa_func_s", "s"),
    ("embedded.swa_func_calls", "count"),
    ("state_holding.select_s", "s"),
    ("state_holding.hold_sim_s", "s"),
    ("state_holding.sets_selected", "count"),
    ("runner.dispatch_s", "s"),
    ("tables4.render_s", "s"),
    ("circuits.load_s", "s"),
    ("collapse.collapse_s", "s"),
    ("other.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_campaign_s", "s"),
    ("trace.traced_campaign_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)

#: Time metrics derived from self time: ``<layer>_s`` or ``gen.self_s``.
_TIME_LAYER = {
    name: name[: -len("_s")] if name != "gen.self_s" else "gen"
    for name, unit in LAYER_METRICS
    if unit == "s" and not name.startswith(("other.", "trace."))
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span recorder over the layer entry points of :data:`ENTRY_POINTS`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.wall = 0.0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def layer_id(self, layer: str) -> int:
        """The small-int id spans of ``layer`` are stored under."""
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def wrap(self, layer: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """``fn`` recording one ``layer`` span per call, then ``hook``."""
        layer_id = self.layer_id(layer)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock, counts = self._stack, self.clock, self.counts
        calls_key = layer + ".calls"

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            counts[calls_key] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def region(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run ``fn`` as traced wall time; returns ``(result, seconds)``."""
        t0 = self.clock()
        try:
            result = fn()
        finally:
            elapsed = self.clock() - t0
            self.wall += elapsed
        return result, elapsed

    # -- installation --------------------------------------------------------
    def install(self, entry_points=ENTRY_POINTS) -> None:
        """Wrap every entry point where defined and where imported by name."""
        for layer, module_name, attr, hook in entry_points:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(layer, cls.__dict__[meth], hook))
                continue
            original = getattr(module, attr)
            traced = self.wrap(layer, original, hook)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__dict__", {}).get(attr) is original:
                    self._patch(mod, attr, traced)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse patch order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Exclusive seconds per layer over every recorded span."""
        ids = self_times(self.names, self.parents, self.starts, self.ends)
        return {self.layers[i]: t for i, t in ids.items()}

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of :data:`LAYER_METRICS` (trace.* excluded).

        Self times of every layer plus ``other.self_s`` equal ``self.wall``.
        """
        selfs = self.self_seconds()
        c = self.counts
        out: dict[str, float] = {
            metric: selfs.get(layer, 0.0) for metric, layer in _TIME_LAYER.items()
        }
        out["other.self_s"] = self.wall - sum(selfs.values())
        out["compiled.cone_calls"] = c["compiled.cone.calls"]
        out["compiled.cone_gates_evaluated"] = c["compiled.cone_gates_evaluated"]
        out["compiled.cone_gates_diverged"] = c["compiled.cone_gates_diverged"]
        out["compiled.cone_useful_ratio"] = _ratio(
            out["compiled.cone_gates_diverged"], out["compiled.cone_gates_evaluated"]
        )
        out["fsim.previews"] = c["fsim.preview.calls"]
        out["embedded.swa_func_calls"] = c["embedded.swa_func.calls"]
        for key in ("fsim.tests_graded", "fsim.frontier_faults", "fsim.groups_graded",
                    "fsim.groups_hit", "bitsim.lane_cycles", "gen.seeds_evaluated",
                    "gen.seeds_accepted", "tpg.vectors", "simulator.tests_extracted",
                    "state_holding.sets_selected"):
            out[key] = c[key]
        out["fsim.hit_ratio"] = _ratio(out["fsim.groups_hit"], out["fsim.groups_graded"])
        out["bitsim.packed_calls"] = c["bitsim.packed.calls"]
        out["bitsim.lane_cycles_per_s"] = _ratio(
            out["bitsim.lane_cycles"], out["bitsim.packed_s"]
        )
        out["gen.lanes_offered"] = (
            c["gen.lanes_offered.packed"] + c["gen.lanes_offered.scalar"]
        )
        out["gen.accept_ratio"] = _ratio(
            out["gen.seeds_accepted"], out["gen.seeds_evaluated"]
        )
        out["gen.lane_use_ratio"] = _ratio(
            out["gen.seeds_evaluated"], out["gen.lanes_offered"]
        )
        out["trace.wall_s"] = self.wall
        out["trace.spans"] = len(self.starts)
        return out

    def write_spans(self, path: str) -> None:
        """Dump every span as ``index parent layer start end`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tlayer\tstart\tend\n")
            for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{i}\t{parent}\t{self.layers[name]}\t{start!r}\t{end!r}\n")

