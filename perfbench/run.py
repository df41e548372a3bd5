"""Layered simulator benchmark: one workload, one run, one report.

Run from the repository root::

    python3 perfbench/run.py --workload sc-filter --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the separate traced run that yields the per-layer metrics.  The
metric names, units and workloads are those of ``BENCHMARK.json``.  The
report lists every metric with its unit, host metadata, the output checks
and the exact work counters; it is also written, with the span log of a
traced run, under ``.perfbench_out/``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The simulated model is unvalidated: the repository holds no real-hardware
reference, so no error figure is given for any simulated number.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

MODEL_NOTE = (
    "model: unvalidated -- the repository holds no real-hardware reference,"
    " so no error figure is given"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(samples, better: str):
    """The outermost percentile with at least ten worse samples beyond it.

    Returns ``(percentile, value)`` by nearest rank, or None with fewer
    than eleven samples.  For a higher-is-better metric the worse side is
    the low end.
    """
    count = len(samples)
    if count < 11:
        return None
    rank = 11 if better == "higher" else count - 10
    return 100.0 * rank / count, sorted(samples)[rank - 1]


def host_metadata() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
    }


def isolate_environment(workdir: Path) -> None:
    """Keep every file the program writes inside this run's work directory."""
    for name in ("REPRO_TELEMETRY", "REPRO_FAULT_SPEC", "REPRO_SIM_SAMPLE",
                 "REPRO_CACHE_MAX_MB"):
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "results")
    os.environ["REPRO_TRACE_DIR"] = str(workdir / "trace-store")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as error:
        print(f"perfbench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import checks
        import suite
    except ImportError as error:
        print(f"perfbench: cannot import the simulator from {ROOT / 'src'}:"
              f" {error}", file=sys.stderr)
        return 2
    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from"
              f" {sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    goldens = checks.load_goldens()
    if goldens.get("budgets") != suite.golden_budgets():
        print(f"perfbench: golden digests at {checks.GOLDENS_PATH} are missing"
              " or were made at other budgets; regenerate them with"
              " perfbench/make_goldens.py", file=sys.stderr)
        return 2

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    isolate_environment(workdir)
    try:
        workload = suite.WORKLOADS[args.workload](args.seed, workdir, goldens)
        workload.tracing = bool(args.trace)
        workload.setup()
        if args.trace:
            out = workload.trace_layers()
        else:
            process, thread = time.process_time(), time.thread_time()
            out = workload.measure(args.seconds)
            others = (time.process_time() - process) - (time.thread_time() - thread)
            out.notes.append(f"cpu time of threads other than the main one:"
                             f" {max(0.0, others):.3f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    failed = len(out.failures)
    attempted = max(1, out.attempted)
    if args.trace:
        declared = spec["per_layer"]
        values = dict(out.metrics)
        values["workloads.build_s"] = statistics.median(workload.build_samples)
        if "sim.scenarios.build_hierarchy_ms" not in values:
            values["sim.scenarios.build_hierarchy_ms"] = (
                statistics.median(workload.hierarchy_build_ms)
                if workload.hierarchy_build_ms else 0.0
            )
        metrics = {
            m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in declared
        }
    else:
        declared = spec["end_to_end"]
        values = {name: value for name, (value, _) in out.metrics.items()}
        values["setup_s"] = statistics.median(workload.setup_samples)
        values["peak_rss_mb"] = max(workload.rss_mb)
        values["ok_frac"] = 1.0 - failed / attempted
        out.samples["setup_s"] = workload.setup_samples
        for kind, table in (("raw cpu", workload.raw),
                            ("wall clock", workload.wall)):
            out.notes.append(f"{kind}: set-up"
                             f" {statistics.median(table['setup']):.4f} s (median)")
        factors = workload.host.factors
        out.notes.append(
            f"host speed: {len(factors)} probes, slowdown factor median"
            f" {statistics.median(factors):.4f}, range {min(factors):.4f}"
            f"-{max(factors):.4f} (1 = reference speed)")
        metrics = {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared
        }

    host = host_metadata()
    print(f"== perfbench {args.workload}: seed {args.seed}, seconds"
          f" {args.seconds:g}, trace {args.trace} ==")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print(MODEL_NOTE)
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload)
    if why:
        print(f"workload: {why}")
    for note in out.notes:
        print(note)
    print(f"{'metric':48} {'value':>16}  unit")
    for m in declared:
        entry = metrics[m["name"]]
        line = f"{m['name']:48} {entry['value']:16.6g}  {entry['unit']}"
        samples = out.samples.get(m["name"])
        if samples:
            line += f"  (median of n={len(samples)}"
            tail_point = tail(samples, m["better"])
            if tail_point is not None:
                line += f"; p{tail_point[0]:.1f}={tail_point[1]:.6g}"
            line += ")"
        print(line)
    if not args.trace:
        print(f"{'failed_frac':48} {failed / attempted:16.6g}  frac"
              "  (ok_frac = 1 - failed_frac)")
    print(f"checks: {out.attempted} attempted, {failed} failed")
    for failure in out.failures:
        print(f"  FAILED {failure}")
    print("exact work counters:")
    for label, counters in sorted(out.counters.items()):
        print(f"  {label}: " + json.dumps(counters, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "model": MODEL_NOTE,
        "metrics": metrics, "samples": out.samples, "notes": out.notes,
        "attempted": out.attempted, "failures": out.failures,
        "counters": out.counters, "digests": out.digests,
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if out.recorder is not None:
        out.recorder.write(OUT_DIR / f"spans-{stem}.json")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
