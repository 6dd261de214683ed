"""Self-test of the benchmark: counts repeat exactly and every check passes.

    python3 benchmarks/selftest.py

Runs every workload at the reduced size (`--size small`) twice, each run
in a fresh process with tracing on, and `corpus` under two seeds.  It
requires that every run is correct with no failed task, that every
count metric (nodes, candidates, pivots, rows, sets_out, pairs,
missing_checked, ...) is identical between the two runs of one seed,
that the two corpus seeds give different corpora, and that the metric
names and units printed are those declared in BENCHMARK.json.  Exits
with code 1 on the first failed requirement.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = (("search", 1), ("lp", 1), ("corpus", 1), ("corpus", 2))


def run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def require(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> None:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}

    plain = run("search", 1, 0)
    require({n: m["unit"] for n, m in plain["metrics"].items()} == end_to_end,
            "untraced metrics differ from end_to_end in BENCHMARK.json")

    seen = {}
    for workload, seed in RUNS:
        first, second = run(workload, seed, 1), run(workload, seed, 1)
        for result in (first, second):
            require(result["correct"] and result["failed"] == 0,
                    f"{workload} seed {seed}: {result['failed']} failed tasks")
            require({n: m["unit"] for n, m in result["metrics"].items()} == per_layer,
                    f"{workload}: traced metrics differ from per_layer in BENCHMARK.json")
        require(counts(first) == counts(second),
                f"{workload} seed {seed}: counts differ between runs: "
                f"{counts(first)} vs {counts(second)}")
        seen[workload, seed] = counts(first)
        print(f"ok {workload} seed {seed}: {sum(1 for v in counts(first).values() if v)} "
              "nonzero counts repeat exactly")
    require(seen["corpus", 1] != seen["corpus", 2], "corpus ignores its seed")
    print("selftest passed")


if __name__ == "__main__":
    main()
