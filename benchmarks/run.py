"""Benchmark of frankl-lab: one workload, timed from outside the package.

    python3 benchmarks/run.py --workload {search,lp,corpus} --seed N \
        --seconds S --trace {0,1} [--size {full,small}]

Run from anywhere inside a checkout; the package is imported from the
checkout's own `src/`.  The run

  1. times set-up (`import frankl_lab` plus `compute_f(4,4)`, which fills
     the lazy n <= 4 exhaustive tables) in fresh interpreters, once
     discarded and SETUP_PROBES times measured;
  2. sets up in its own process and builds the workload's task list;
  3. runs the task list as a closed loop, one task at a time, in passes,
     until another pass would end after S seconds (at least one pass;
     two with tracing, so that both modes are measured);
  4. prints, as its last line, one JSON object with `correct`,
     `attempted`, `failed` and `metrics`.

Every time reported is corrected for the host's speed with reference
samples taken throughout the run (see refclock.py).  With `--trace 0`
the metrics are the end-to-end ones (medians over passes); with
`--trace 1` passes alternate traced and untraced, the
metrics are per layer, and the spans are written to
`.bench_out/trace-<workload>-seed<N>.json` in the checkout.  Progress
and failures go to standard error.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from refclock import SpeedSampler
from spans import Recorder, TaskFailed, expect, self_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

SETUP_PROBES = 7
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[2])
from refclock import SpeedSampler
sampler = SpeedSampler()
sampler.start()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import frankl_lab
result = frankl_lab.compute_f(4, 4)
t1 = time.perf_counter()
sampler.stop()
if result.value != 8 or not result.proven_optimal:
    sys.exit(f"set-up probe: f(4,4) = {result.value}, expected 8")
print(repr(sampler.corrected([(t0, t1)])))
"""

END_TO_END = {"wall_s": "s", "flagship_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# spans recorded around calls into each layer; "<span>.s" is its self time
LAYER_SPANS = (
    "search.exhaustive", "search.bb_f", "search.bb_g", "search.complement",
    "search.enumerate_union_closed",
    "lp.build_relaxation", "lp.solve_exact", "lp.symmetric", "lp.certificate_to_dual",
    "lp.verify_dual_bound", "lp.prove_diagonal",
    "certificate.identities",
    "families.from_masks", "families.union_closure", "families.is_union_closed",
    "families.frankl_witness",
    "theorems.check_missing_subsets", "theorems.check_missing_covering",
)
COUNTERS = (
    "search.bb_f.nodes", "search.bb_g.nodes", "search.complement.candidates",
    "lp.build_relaxation.rows", "lp.solve_exact.pivots", "lp.symmetric.solves",
    "lp.verify_dual_bound.rows",
    "families.union_closure.sets_out", "families.is_union_closed.pairs",
    "theorems.missing_checked",
)
# rate name -> (counter, span); counter per second of the span's self time
RATES = {
    "search.bb_f.nodes_per_s": ("search.bb_f.nodes", "search.bb_f"),
    "search.bb_g.nodes_per_s": ("search.bb_g.nodes", "search.bb_g"),
    "search.complement.candidates_per_s": ("search.complement.candidates",
                                           "search.complement"),
    "lp.build_relaxation.rows_per_s": ("lp.build_relaxation.rows", "lp.build_relaxation"),
}
FAILURE_LAYERS = ("families", "search.exhaustive", "search.bb_f", "search.bb_g",
                  "search.complement", "lp", "certificate", "theorems")
BENCH_METRICS = {"bench.traced_wall_s": "s", "bench.untraced_wall_s": "s",
                 "bench.trace_overhead_s": "s", "bench.loop_s": "s", "bench.spans": "count",
                 "bench.raw_wall_s": "s", "bench.ref_ms": "ms"}


def per_layer_units() -> dict[str, str]:
    """Every metric a traced run prints, with its unit, in print order."""
    units = {f"{span}.s": "s" for span in LAYER_SPANS}
    units.update((name, "count") for name in COUNTERS)
    units.update((name, "1/s") for name in RATES)
    units["lp.solve_exact.ms_per_pivot"] = "ms"
    units.update((f"{layer}.failed", "count") for layer in FAILURE_LAYERS)
    units.update(BENCH_METRICS)
    return units


def failure_layer(layer: str) -> str:
    """The layer a failure counts against: a search engine, else the module."""
    if layer == "search.enumerate_union_closed":
        return "search.exhaustive"
    return layer if layer.startswith("search.") else layer.split(".")[0]


@dataclass
class Pass:
    wall: float  # raw seconds
    intervals: list  # (start, end) of each task, perf_counter seconds
    traced: bool
    first_span: int
    last_span: int
    counts: dict


def measure_setup() -> float:
    """Corrected seconds from `import frankl_lab` to a filled n <= 4 table, in a new
    interpreter."""
    done = subprocess.run([sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def run_pass(rec, tasks, traced: bool, failures: dict) -> Pass:
    rec.traced = traced
    rec.counts = {}
    first = len(rec.spans)
    intervals = []
    start = time.perf_counter()
    for task_id, task in enumerate(tasks):
        t0 = time.perf_counter()
        try:
            rec.task(task_id, task.run)
        except TaskFailed as exc:
            layer = failure_layer(exc.layer)
            failures[layer] = failures.get(layer, 0) + 1
            print(f"FAILED {task.name}: {exc}", file=sys.stderr)
        intervals.append((t0, time.perf_counter()))
    wall = time.perf_counter() - start
    return Pass(wall, intervals, traced, first, len(rec.spans), rec.counts)


def end_to_end_metrics(passes: list[Pass], tasks, sampler, setup: list[float]) -> dict[str, float]:
    flagship = [task.flagship for task in tasks]
    return {
        "wall_s": statistics.median(sampler.corrected(p.intervals) for p in passes),
        "flagship_s": statistics.median(
            sampler.corrected(iv for iv, f in zip(p.intervals, flagship) if f) for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(rec, passes: list[Pass], sampler, setup_self: dict,
                      failures: dict) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    selfs = []
    for p in traced:
        factors = [sampler.factor(start, end) for start, end in p.intervals]
        selfs.append(self_seconds(rec.spans, p.first_span, p.last_span, factors.__getitem__))
    values: dict[str, float] = {}
    for span in LAYER_SPANS:
        values[f"{span}.s"] = statistics.median(s.get(span, 0.0) for s in selfs)
    values["search.exhaustive.s"] += setup_self.get("search.exhaustive", 0.0)
    for name in COUNTERS:
        values[name] = statistics.median_low(p.counts.get(name, 0) for p in traced)
    for name, (counter, span) in RATES.items():
        seconds = values[f"{span}.s"]
        values[name] = values[counter] / seconds if seconds else 0.0
    pivots = values["lp.solve_exact.pivots"]
    values["lp.solve_exact.ms_per_pivot"] = (
        1000 * values["lp.solve_exact.s"] / pivots if pivots else 0.0)
    for layer in FAILURE_LAYERS:
        values[f"{layer}.failed"] = failures.get(layer, 0)
    traced_walls = [sampler.corrected(p.intervals) for p in traced]
    untraced_wall = statistics.median(sampler.corrected(p.intervals) for p in untraced)
    values["bench.traced_wall_s"] = statistics.median(traced_walls)
    values["bench.untraced_wall_s"] = untraced_wall
    values["bench.trace_overhead_s"] = values["bench.traced_wall_s"] - untraced_wall
    values["bench.loop_s"] = statistics.median(
        wall - sum(s.get(span, 0.0) for span in LAYER_SPANS)
        for wall, s in zip(traced_walls, selfs))
    values["bench.spans"] = statistics.median_low(p.last_span - p.first_span for p in traced)
    values["bench.raw_wall_s"] = statistics.median(p.wall for p in untraced)
    values["bench.ref_ms"] = 1000 * statistics.median(sampler.costs)
    return values


def write_trace(rec, passes: list[Pass], tasks, sampler, workload: str, seed: int,
                size: str) -> Path:
    """Write every span and speed sample, raw, with times in ns from the first span's start."""
    origin = rec.spans[0][3]
    trace = {
        "workload": workload, "seed": seed, "size": size,
        "span_fields": ["name", "parent", "task", "start_ns", "end_ns"],
        "tasks": [task.name for task in tasks],
        "passes": [{"wall_s": p.wall, "traced": p.traced, "spans": [p.first_span, p.last_span]}
                   for p in passes],
        "spans": [[name, parent, task, start - origin, end - origin]
                  for name, parent, task, start, end in rec.spans],
        "reference_fields": ["start_ns", "cost_ns"],
        "reference_samples": [[round(t * 1e9) - origin, round(c * 1e9)]
                              for t, c in zip(sampler.times, sampler.costs)],
    }
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(trace, separators=(",", ":")))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "lp", "corpus"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small is the reduced size used by selftest.py")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "frankl_lab" / "__init__.py").is_file():
        print(f"run.py: no frankl_lab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    setup = [measure_setup() for _ in range(SETUP_PROBES + 1)][1:]

    sys.path.insert(0, str(SRC))
    import frankl_lab
    if Path(frankl_lab.__file__).resolve().parent != SRC / "frankl_lab":
        print(f"run.py: imported frankl_lab from {frankl_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    rec = Recorder()
    rec.traced = bool(args.trace)
    failures: dict[str, int] = {}
    sampler = SpeedSampler()
    sampler.start()

    def fill_tables(rec: Recorder) -> None:
        result = rec.call("search.exhaustive", frankl_lab.compute_f, 4, 4)
        expect("search.exhaustive", result.value == 8 and result.proven_optimal,
               f"f(4,4) = {result.value}, expected 8")

    t0 = time.perf_counter()
    try:
        rec.task(-1, fill_tables)
    except TaskFailed as exc:
        failures[failure_layer(exc.layer)] = 1
        print(f"FAILED set-up: {exc}", file=sys.stderr)
    setup_factor = sampler.factor(t0, time.perf_counter())
    setup_self = self_seconds(rec.spans, 0, len(rec.spans), lambda task: setup_factor)
    attempted = 1

    tasks = workloads.build(args.workload, args.seed, args.size == "small")
    min_passes = 2 if args.trace else 1
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        passes.append(run_pass(rec, tasks, traced, failures))
        attempted += len(tasks)
        elapsed = time.perf_counter() - start
        print(f"pass {len(passes)} ({'traced' if traced else 'untraced'}): "
              f"{passes[-1].wall:.3f} s", file=sys.stderr)
        next_pass = max(p.wall for p in passes[-2:])
        if len(passes) >= min_passes and elapsed + next_pass > args.seconds:
            break
    sampler.stop()

    if args.trace:
        metrics = per_layer_metrics(rec, passes, sampler, setup_self, failures)
        units = per_layer_units()
        path = write_trace(rec, passes, tasks, sampler, args.workload, args.seed, args.size)
        print(f"spans written to {path}", file=sys.stderr)
    else:
        metrics = end_to_end_metrics(passes, tasks, sampler, setup)
        units = END_TO_END
    failed = sum(failures.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
