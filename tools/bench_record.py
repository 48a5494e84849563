"""Record perfbench runs of one checkout, or of a parent/change pair, as JSON.

    python tools/bench_record.py --pr 13 --pairs 10 --parent ../parent
    python tools/bench_record.py --pr 13 --pairs 3 --workloads train --seeds 1 4

Each run is `perfbench/run.py --trace 0` at the manifest's run_seconds, in
its own checkout: the change is this script's checkout. With --parent, pair
i runs both sides back to back, the parent first in even pairs and the
change first in odd ones, so that a slow phase of the machine falls on both
sides alike. Seeds cycle over the pairs.

BENCH_<pr>.json, written at the root of this checkout, holds the recorder's
command line and the run.py argv of every run (as a template); per workload
and side, the round_s and setup_s samples with their medians and quartiles
and the median of each operation's `samples` medians; per workload, how many
pairs the change won on each metric; and the numpy version, its BLAS, the
core count, the BLAS threads (run.py pins one) and the git revision of each
side.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("round_s", "setup_s")
SAMPLE_LINE = re.compile(r"^samples (\S+), \d+ calls each: median ([0-9.eE+-]+) s")
BLAS_THREADS = 1  # perfbench/run.py sets OPENBLAS/OMP/MKL_NUM_THREADS to 1


def parse_run(stdout):
    """The figures of one run.py --trace 0 output: its end-to-end metrics,
    the median of each operation's samples, and the closing JSON fields."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    samples = {}
    for line in lines:
        m = SAMPLE_LINE.match(line)
        if m:
            samples[m.group(1)] = float(m.group(2))
    return {
        **{name: result["metrics"][name]["value"] for name in METRICS},
        "samples": samples,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def spread(values):
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs):
    """{workload: summary} from run records {"workload", "side", "pair",
    "seed", "first", "run"}, "run" being parse_run's output. A pair is won by
    the change when its figure is strictly below the parent's."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        sides = {}
        for side in dict.fromkeys(r["side"] for r in mine):
            ours = [r["run"] for r in mine if r["side"] == side]
            labels = dict.fromkeys(k for run in ours for k in run["samples"])
            sides[side] = {
                **{name: {"samples": [run[name] for run in ours],
                          **spread([run[name] for run in ours])} for name in METRICS},
                "op_medians_s": {k: statistics.median(run["samples"][k] for run in ours
                                                      if k in run["samples"])
                                 for k in labels},
                "correct": all(run["correct"] for run in ours),
                "attempted": sum(run["attempted"] for run in ours),
                "failed": sum(run["failed"] for run in ours),
            }
        entry = {"sides": sides}
        if set(sides) == {"parent", "change"}:
            pairs = {}
            for r in mine:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["run"]
            full = [p for p in pairs.values() if len(p) == 2]
            entry["pairs"] = len(full)
            entry["wins"] = {
                name: sum(p["change"][name] < p["parent"][name] for p in full) for name in METRICS
            }
        entry["runs"] = [
            {k: r[k] for k in ("side", "pair", "seed", "first")}
            | {name: r["run"][name] for name in METRICS} for r in mine
        ]
        out[workload] = entry
    return out


def revision(checkout):
    """The checkout's git revision, marked +dirty when it has local changes."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        rev = git("rev-parse", "HEAD")
        return rev + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def run_argv(workload, seed, seconds):
    return ["python3", "perfbench/run.py", "--workload", str(workload), "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]


def run_once(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, *run_argv(workload, seed, seconds)[1:]],
        cwd=checkout, capture_output=True, text=True, timeout=seconds * 3 + 300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed in {checkout}: {proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    p.add_argument("--parent", type=Path, help="the parent's checkout, for paired runs")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", default=None)
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = p.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in manifest["workloads"]]
    seconds = manifest["run_seconds"]
    sides = {"change": ROOT} if args.parent is None else {"parent": args.parent, "change": ROOT}
    runs = []
    for workload in workloads:
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for side in order:
                run = run_once(sides[side], workload, seed, seconds)
                runs.append({"workload": workload, "side": side, "pair": pair, "seed": seed,
                             "first": side == order[0], "run": run})
                print(f"{workload} pair {pair} seed {seed} {side}: round_s {run['round_s']:.4f}"
                      f" setup_s {run['setup_s']:.4f} failed {run['failed']}", flush=True)
    record = {
        "pr": args.pr,
        "recorder": ["python3", "tools/bench_record.py", *sys.argv[1:]],
        "run": run_argv("{workload}", "{seed}", seconds),
        "revisions": {side: revision(path) for side, path in sides.items()},
        "environment": environment(),
        "workloads": summarize(runs),
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
