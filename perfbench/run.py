"""Benchmark of qatforge: training, integer inference and QZIP archives.

    python3 perfbench/run.py --workload train --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy. Prints one line per metric
and per correctness check, then, as the last line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 gives the end-to-end
metrics, round_s and setup_s; --trace 1 runs every round once traced and
once untraced and gives the per-layer metrics, and writes the spans under
.perfbench/.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import os

# One BLAS thread, whatever the caller's environment says: the figures are
# single-core figures, and on a shared 2-core machine they hold steadier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "deploy"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """qatforge from this checkout's src/, or None when it is not there."""
    if not (SRC / "qatforge" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import qatforge

    if Path(qatforge.__file__).resolve().parent != SRC / "qatforge":
        return None
    return qatforge


def run_checks(named):
    """[(name, ok, detail)] for each (name, fn); fn raises to fail."""
    import checks

    results = []
    for name, fn in named:
        try:
            fn()
        except (checks.CheckFailed, ValueError, OverflowError) as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((name, True, ""))
    return results


def main(argv=None):
    args = parse_args(argv)
    package = import_package()
    if package is None:
        print(f"no qatforge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    tracer = spans.Tracer(package) if args.trace else None
    data_dir = OUT / f"data-{args.workload}-{os.getpid()}"
    try:
        if tracer is not None:
            tracer.install("setup")
        try:
            workload = workloads.WORKLOADS[args.workload](args.seed, data_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s = time.perf_counter() - T0
        ops = workload.ops()
        samples, round_s, attempted, failed, failures = workloads.measure(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    named = workload.check_list()
    if tracer is not None:
        named += workloads.trace_checks(tracer, workload)
    results = run_checks(named)

    metrics = {}
    if tracer is None:
        metrics["round_s"] = (statistics.median(round_s[False]), "s")
        metrics["setup_s"] = (setup_s, "s")
    else:
        metrics = workloads.per_layer(tracer, workload, len(round_s[True]), round_s)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")

    print(f"operations attempted {attempted}, failed {failed}")
    for reason in sorted(failures):
        print(f"failed {reason}")
    for name, ok, detail in results:
        print(f"check {'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    print(f"rounds: {len(round_s[False])} ({', '.join(f'{s:.4f}' for s in round_s[False])} s)")
    for op in ops:
        secs = samples[op.label]
        if secs:
            print(f"samples {op.label}, {op.calls} calls each: median {statistics.median(secs):.4f} s"
                  f" of {len(secs)} ({', '.join(f'{s:.4f}' for s in secs)} s)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(ok for _, ok, _ in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
