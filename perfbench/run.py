#!/usr/bin/env python3
"""Paper-campaign benchmark: Fig 4.9 generation and the Chapter 4 tables.

Usage, from the repository root (no install; ``src/`` is put on the path)::

    python3 perfbench/run.py --workload gen-s1423 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1
    python3 perfbench/run.py --workload tables-ch4 --record --db runs.sqlite

One client runs whole campaigns back to back in one process (a closed
loop, no worker pool, no threads) until ``--seconds`` of campaign time
are measured, at least two campaigns.  ``--workload all`` runs each
workload in turn in a child process of its own, so that each reports its
own peak memory.  Before timing, the scalar
``batched=False`` oracle runs once; every campaign's outputs are then
checked outside the timed region: oracle digest, repeat digest, fresh
re-grade of the emitted tests, scalar re-simulation of every accepted
sequence against SWA_func, exact repeat of the Fig 4.9 counts.

``--trace 0`` reports the end-to-end metrics, untraced.  The result line
carries Fig 4.9 candidate seeds per wall second, set-up seconds of a
fresh process (median wall time of five child processes that start the
interpreter, import the library and set the workload up) and peak RSS.  Host
contention only ever slows a step down, so the throughput divides a
campaign's seeds by the sum, over its timed steps, of each step's
fastest pass.  Campaign wall and CPU seconds (median of the passes),
seeds per CPU second and the fail rate are printed beside them; a
campaign's length is set by how many candidate seeds its RNG seeds
happen to take, so across seeds it measures the seed as much as the
code.

``--trace 1`` reports the per-layer metrics of :mod:`tracing` instead: it
traces the in-process set-up and one campaign, and times one untraced
campaign beside it for ``trace.overhead_pct``.  A second traced campaign,
with a fresh tracer, must repeat every count exactly.  The spans are kept
in memory and written to ``.bench_build/spans-<workload>-<seed>.tsv``
when the run ends.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every check passed, 1
when a check failed (the result line says so), 2 when the benchmark
cannot run (pinned variable set, library missing, bad arguments).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE.parent / ".bench_build"

#: Variables that swap the kernel, inject faults, turn on ``repro.obs``,
#: record into a database or warm set-up from a disk cache.
PINNED_ENV = ("REPRO_KERNEL", "REPRO_FAULT", "REPRO_TRACE", "REPRO_DB", "REPRO_CACHE_DIR")

WORKLOADS = ("gen-s1423", "tables-ch4")

#: The end-to-end metrics the result line carries (campaign_s,
#: campaign_cpu_s, seeds_per_cpu_s and fail_rate are printed beside them).
END_TO_END = (
    ("seeds_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Generator counts every campaign reads (untraced campaigns wrap only the
#: generator entry point) and that must repeat exactly for a seed.
GEN_COUNTS = ("gen.seeds_evaluated", "gen.seeds_accepted", "gen.lanes_offered.scalar",
              "gen.calls")


#: Untraced campaigns per run, at least: the throughputs take each
#: generator run's fastest pass.
MIN_PASSES = 2

#: Fresh processes timed for setup_s, which reports their median.
SETUP_SAMPLES = 5


class Refused(Exception):
    """The benchmark cannot run here; exit 2 without a result line."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="append the metrics to the experiment database")
    parser.add_argument("--db", metavar="PATH", help="experiment database for --record")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record and not args.db:
        parser.error("--record needs --db PATH")
    if args.setup_probe and args.workload == "all":
        parser.error("--setup-probe needs one workload")
    return args


def load_library() -> None:
    """Put ``src/`` on the path and import ``repro``; refuse when pinned."""
    pinned = [name for name in PINNED_ENV if os.environ.get(name)]
    if pinned:
        raise Refused(f"unset {', '.join(pinned)}: it changes what is measured")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise Refused(f"library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from repro import obs

    if obs.OBS.enabled:
        raise Refused("repro.obs is enabled; timed runs need it off")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One campaign: per-unit times, its counts and what its checks found."""

    walls: list[float]
    cpus: list[float]
    counts: dict
    problems: list[str]

    @property
    def wall(self) -> float:
        return sum(self.walls)


@dataclass
class Row:
    """One printed metric."""

    name: str
    unit: str
    value: float
    n: int = 1
    note: str = ""


def measure_setup(workload: str, samples: int) -> list[float]:
    """Wall seconds of ``samples`` fresh child processes, one at a time.

    Each child starts the interpreter, imports the library and sets
    ``workload`` up (``--setup-probe``), then exits.
    """
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=120,
        )
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return out


class Campaigns:
    """Runs and checks the campaigns of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        import tracing
        import workloads

        self.workload, self.seed = workload, seed
        self.tracing, self.workloads = tracing, workloads
        self.keys = workloads.unit_keys(workload, seed)
        self.gen_entry = [e for e in tracing.ENTRY_POINTS if e[0] == "gen"]
        self.oracle: list | None = None
        self.first_key: tuple | None = None
        self.first_counts: dict | None = None
        #: How many times a campaign's counts were compared with another's.
        self.count_checks = 0
        self._checked: dict[tuple, list[str]] = {}
        self.samples: list[Sample] = []

    def run_oracle(self) -> None:
        self.oracle = self.workloads.oracle_digests(self.workload, self.seed)

    def campaign(self, tracer=None) -> Sample:
        """One campaign, unit by unit and then its render step, then its checks.

        Without ``tracer`` only the generator entry point is wrapped, to
        read each generator's counts; with it every layer is traced.
        """
        counter = self.tracing.Tracer() if tracer is None else tracer
        entries = self.gen_entry if tracer is None else self.tracing.ENTRY_POINTS
        before = dict(counter.counts)
        sample = Sample([], [], {}, [])
        wl, workload, seed = self.workloads, self.workload, self.seed
        raws = [
            self._timed(counter, entries, sample, lambda k=key: wl.run_unit(workload, k))
            for key in self.keys
        ]
        if not sample.problems:
            text = self._timed(
                counter, entries, sample, lambda: wl.finish(workload, seed, raws)
            )
        counts = {k: v - before.get(k, 0) for k, v in counter.counts.items()}
        sample.counts = {k: v for k, v in counts.items() if v}
        if not sample.problems:
            sample.problems = self.check(raws, text, sample.counts)
        self.samples.append(sample)
        return sample

    @staticmethod
    def _timed(counter, entries, sample: Sample, step):
        """Run one timed step of a campaign; its times go into ``sample``."""
        counter.install(entries)
        gc.collect()
        c0, p0 = time.perf_counter(), time.process_time()
        try:
            return counter.region(step)[0]
        except Exception as exc:  # noqa: BLE001 - a failed run is counted
            sample.problems.append(
                f"step {len(sample.walls)} raised {type(exc).__name__}: {exc}"
            )
            return None
        finally:
            sample.walls.append(time.perf_counter() - c0)
            sample.cpus.append(time.process_time() - p0)
            counter.uninstall()

    def check(self, raws: list, text: str, counts: dict) -> list[str]:
        out = self.workloads.outcome(self.workload, self.seed, raws, text)
        problems = []
        for i, (got, want) in enumerate(zip(out.digests, self.oracle)):
            if want is not None and got != want:
                problems.append(f"unit {i}: digest {got} != scalar oracle {want}")
        # Every generator result's tests, detected set and segments: two
        # campaigns with equal keys have equal outputs, so the re-grade and
        # re-simulation run once per distinct output.
        key = tuple(out.digests) + tuple(
            self.workloads.result_digest(run[-1]) for run in out.runs
        )
        if self.first_key is None:
            self.first_key = key
        elif key != self.first_key:
            problems.append("outputs differ from the first campaign of this seed")
        gen = {k: counts.get(k, 0) for k in GEN_COUNTS}
        if self.first_counts is None:
            self.first_counts = gen
        else:
            self.count_checks += 1
            if gen != self.first_counts:
                problems.append(
                    f"Fig 4.9 counts {gen} != first campaign {self.first_counts}"
                )
        if key not in self._checked:
            self._checked[key] = self.workloads.check_outcome(out)
        return problems + self._checked[key]


def run_untraced(camps: Campaigns, seconds: float) -> list[Row]:
    """End-to-end metrics: whole campaigns until ``seconds`` are measured."""
    setup = measure_setup(camps.workload, SETUP_SAMPLES)
    camps.run_oracle()
    measured = 0.0
    while len(camps.samples) < MIN_PASSES or measured < seconds:
        measured += camps.campaign().wall
    ok = [s for s in camps.samples if not s.problems] or camps.samples
    n = len(ok)
    seeds = ok[0].counts.get("gen.seeds_evaluated", 0)
    units = range(min(len(s.walls) for s in ok))
    best_wall = sum(min(s.walls[k] for s in ok) for k in units)
    best_cpu = sum(min(s.cpus[k] for s in ok) for k in units)
    walls = [s.wall for s in ok]
    cpus = [sum(s.cpus) for s in ok]
    best = f"fastest of n={n} passes per step, {len(units)} steps per campaign"
    return [
        Row("campaign_s", "s", statistics.median(walls), n, f"max={max(walls):.6f}"),
        Row("campaign_cpu_s", "s", statistics.median(cpus), n, f"max={max(cpus):.6f}"),
        Row("seeds_per_s", "1/s", seeds / best_wall, n,
            f"{seeds} seeds / {best_wall:.6f} s, {best}"),
        Row("seeds_per_cpu_s", "1/s", seeds / best_cpu, n,
            f"{seeds} seeds / {best_cpu:.6f} cpu s, {best}"),
        Row("setup_s", "s", statistics.median(setup), len(setup),
            f"max={max(setup):.6f}, fresh processes"),
        Row("peak_rss_mb", "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
    ]


def run_traced(camps: Campaigns, seconds: float) -> list[Row]:
    """Per-layer metrics: traced set-up and campaign, one untraced campaign.

    The campaign checks hold the traced generator counts to the untraced
    ones.  At least one more traced campaign, with a fresh tracer, must
    repeat every count exactly; further ones follow while time remains.
    """
    tracing = camps.tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.region(lambda: camps.workloads.setup(camps.workload))
    finally:
        tracer.uninstall()
    camps.run_oracle()
    untraced = camps.campaign()
    traced = camps.campaign(tracer)
    measured = untraced.wall + traced.wall
    repeats = 0
    while repeats == 0 or measured + traced.wall <= seconds:
        again = camps.campaign(tracing.Tracer())
        measured += again.wall
        repeats += 1
        diff = sorted(k for k in again.counts.keys() | traced.counts.keys()
                      if again.counts.get(k) != traced.counts.get(k))
        if diff:
            again.problems.append(f"traced counts differ between runs: {diff}")
    print(f"  traced counts compared: {len(traced.counts)} counts x {repeats} "
          f"repeat campaign(s), fresh tracer each")
    metrics = tracer.metrics()
    if metrics["other.self_s"] < -1e-6:
        traced.problems.append(f"self times exceed traced wall: {metrics['other.self_s']}")
    metrics["trace.untraced_campaign_s"] = untraced.wall
    metrics["trace.traced_campaign_s"] = traced.wall
    metrics["trace.overhead_pct"] = 100.0 * (traced.wall / untraced.wall - 1.0)
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{camps.workload}-{camps.seed}.tsv"
    tracer.write_spans(str(spans))
    print(f"  {len(tracer.starts)} spans written to {spans.relative_to(HERE.parent)}")
    return [Row(name, unit, metrics[name]) for name, unit in tracing.LAYER_METRICS]


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def stamp(workload: str, seed: int, trace: int) -> dict:
    import numpy

    from repro import expdb

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "code_hash": expdb.code_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def report(workload: str, seed: int, trace: int, rows: list[Row],
           camps: Campaigns) -> dict:
    """Print one workload's metrics; return its result object."""
    attempted = len(camps.samples)
    failed = sum(1 for s in camps.samples if s.problems)
    rows = rows + [Row("fail_rate", "ratio", failed / attempted, attempted,
                       f"{failed} failed of {attempted} campaigns")]
    for r in rows:
        print(f"  {r.name:30s} {r.value:16.6f} {r.unit:6s} n={r.n:<3d} {r.note}")
    print(f"  Fig 4.9 counts compared with the first campaign: "
          f"{camps.count_checks} time(s)")
    for i, s in enumerate(camps.samples):
        for problem in s.problems:
            print(f"  FAILED campaign {i}: {problem}")
    gated = dict(END_TO_END) if not trace else dict(camps.tracing.LAYER_METRICS)
    metrics = {r.name: {"value": r.value, "unit": r.unit} for r in rows if r.name in gated}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record(db_path: str, results: dict[str, dict], trace: int) -> None:
    from repro import expdb

    section = "perfbench_trace" if trace else "perfbench"
    payload = {
        section: {
            w: {name: m["value"] for name, m in r["metrics"].items()}
            for w, r in results.items()
        },
        "code_hash": expdb.code_hash(),
        "utc": expdb.utc_now(),
    }
    with expdb.ExperimentDB(db_path) as db:
        batch = db.record_bench(payload)
    print(f"recorded bench batch {batch} in {db_path}")


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    print(f"== {workload}  " + json.dumps(stamp(workload, args.seed, args.trace),
                                          sort_keys=True), flush=True)
    camps = Campaigns(workload, args.seed)
    if args.trace:
        rows = run_traced(camps, args.seconds)
    else:
        rows = run_untraced(camps, args.seconds)
    return report(workload, args.seed, args.trace, rows, camps)


def run_children(args: argparse.Namespace) -> dict[str, dict]:
    """``--workload all``: each workload in a child process, one at a time.

    A child of its own gives each workload its own peak RSS.  Returns each
    child's result object; raises :class:`Refused` when a child could not
    run (exit 2) or printed no result line.
    """
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            raise Refused(f"{workload} exited with status {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    return results


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        load_library()
        if args.setup_probe:
            import workloads

            workloads.setup(args.workload)
            return 0
        if args.workload == "all":
            results = run_children(args)
        else:
            results = {args.workload: run_workload(args, args.workload)}
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.record:
        record(args.db, results, args.trace)
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
