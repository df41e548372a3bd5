"""Run one workload over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/spread.py --workload sc-filter --seeds 1-10 --set a
    python3 perfbench/spread.py --workload sc-filter --seeds 1-10 --set b
    python3 perfbench/spread.py --workload sc-filter --compare a b

A set runs ``run.py`` once per seed, one run at a time, and keeps every
report under ``.perfbench_out/sets/<set>/``.  The spread of a metric is the
distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; it is
printed next to a third of the metric's bound in ``BENCHMARK.json``.
``--compare`` checks that two sets of the same seeds agree exactly on every
work counter and result digest, and that the second set's median of each
metric is not worse than the first's by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS_DIR = ROOT / ".perfbench_out" / "sets"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_set(workload: str, seeds: list[int], name: str, trace: int) -> None:
    spec = load_spec()
    target = SETS_DIR / name
    target.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if completed.returncode != 0:
            raise SystemExit(
                f"seed {seed}: exit {completed.returncode}\n{completed.stderr}")
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        stem = f"{workload}-seed{seed}-trace{trace}"
        shutil.copy(ROOT / ".perfbench_out" / f"{stem}.json",
                    target / f"{stem}.json")
        values = " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed} ({time.perf_counter() - start:.1f} s):"
              f" correct={result['correct']}"
              f" failed={result['failed']}/{result['attempted']} {values}",
              flush=True)


def reports(name: str, workload: str) -> dict[int, dict]:
    found = {}
    for path in sorted((SETS_DIR / name).glob(f"{workload}-seed*-trace0.json")):
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        found[report["seed"]] = report
    return found


def spreads(name: str, workload: str) -> dict[str, float]:
    """Per metric median of the set; prints the spread against bound/3."""
    spec = load_spec()
    runs = reports(name, workload)
    medians = {}
    print(f"set {name}, {workload}: {len(runs)} runs")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs.values()]
        if len(values) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else 0.0
        limit = metric["bound"] / 3
        flag = "ok" if spread <= limit or metric["name"] == "setup_s" else "WIDE"
        medians[metric["name"]] = q2
        print(f"  {metric['name']:16} median {q2:12.6g}  spread {spread:7.4f}"
              f"  bound/3 {limit:.4f}  {flag}")
    return medians


def compare(first: str, second: str, workload: str) -> int:
    spec = load_spec()
    a, b = reports(first, workload), reports(second, workload)
    problems = []
    for seed in sorted(set(a) & set(b)):
        for key in ("counters", "digests"):
            if a[seed][key] != b[seed][key]:
                problems.append(f"seed {seed}: {key} differ")
    median_a, median_b = spreads(first, workload), spreads(second, workload)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name not in median_a or not median_a[name]:
            continue
        change = median_b[name] / median_a[name] - 1.0
        worse = -change if metric["better"] == "higher" else change
        if worse > metric["bound"]:
            problems.append(f"{name}: second median worse by {worse:.3f}")
    print(f"{len(set(a) & set(b))} common seeds; "
          + ("agree" if not problems else "; ".join(problems)))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds")
    parser.add_argument("--set")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, args.workload)
    run_set(args.workload, parse_seeds(args.seeds), args.set, args.trace)
    if args.trace == 0:
        spreads(args.set, args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
