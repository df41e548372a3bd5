"""Regenerate ``goldens.json``: result digests from the scalar reference core.

Run from the repository root::

    python3 perfbench/make_goldens.py --seeds 0-47 --jobs 2

For every seed, each point of ``sc-filter``, ``sc-lean`` and ``mc-mix4`` is
simulated on the scalar reference core at the benchmark's budgets, and the
``asdict`` digest of its result is stored.  The campaign's ``fig10`` points
use the catalog's fixed seeds, so they are stored once.  Regenerating the
goldens is a deliberate act: do it only when the simulated model changes on
purpose, never to make a failing check pass.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import suite  # noqa: E402
from repro import api  # noqa: E402

WORK_DIR = HERE.parent / ".perfbench_work"


def seed_goldens(seed: int) -> tuple[int, dict]:
    """Scalar-core digests of every point of the seeded workloads."""
    goldens = {}
    for cls in (suite.SCFilter, suite.SCLean):
        workload = cls(seed, WORK_DIR, {})
        workload.setup_once()
        goldens[cls.name] = {
            point.label: workload.reference_digest(point)
            for point in workload.points
        }
    workload = suite.MultiCore(seed, WORK_DIR, {})
    workload.setup_once()
    goldens[workload.name] = {
        point.label: checks.digest(workload.simulate(point)[0])
        for point in workload.points
    }
    return seed, goldens


def campaign_goldens() -> dict:
    """Scalar-core digests of the campaign figure and its points."""
    workdir = WORK_DIR / f"goldens-{os.getpid()}"
    workload = suite.CampaignWorkload(0, workdir, {})
    try:
        workload.setup_once()
        directory = workload.fresh_result_cache()
        cache = api.CampaignCache(workload.config, jobs=1,
                                  trace_store=workload.store, sim_core="scalar")
        figure, _ = workload.run_pass(cache)
        out = suite.Outcome()
        results = workload.check_cold(out, cache, directory, figure)
        if out.failures:
            raise SystemExit("campaign points fail their checks: "
                             + "; ".join(out.failures))
        return {
            "points": {label: checks.digest(r) for label, r in results.items()},
            "figure": checks.digest(figure),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-47 or 1,3,5-9")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    for name in ("REPRO_TELEMETRY", "REPRO_FAULT_SPEC", "REPRO_SIM_SAMPLE"):
        os.environ.pop(name, None)

    table = {
        "about": "asdict digests of scalar-core results; see make_goldens.py",
        "budgets": suite.golden_budgets(),
        "seeds": {},
        "campaign": campaign_goldens(),
    }
    context = multiprocessing.get_context("spawn")
    with context.Pool(max(1, args.jobs)) as pool:
        for seed, goldens in pool.imap_unordered(seed_goldens, seeds):
            table["seeds"][str(seed)] = goldens
            print(f"seed {seed}: done", flush=True)
    table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(checks.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
