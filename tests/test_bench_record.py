"""The summary of tools/bench_record.py on canned perfbench/run.py output."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _stdout(round_s, setup_s, encode, failed=0):
    result = {"correct": True, "attempted": 46, "failed": failed, "metrics": {
        "round_s": {"value": round_s, "unit": "s"}, "setup_s": {"value": setup_s, "unit": "s"}}}
    return "\n".join([
        "operations attempted 46, failed 0",
        "check PASS sparse archive repeats byte-identical",
        "rounds: 2 (0.9792, 0.9810 s)",
        f"samples sparse_encode, 10 calls each: median {encode:.4f} s of 2 (0.2103, 0.2001 s)",
        "samples infer, 1 calls each: median 0.1464 s of 2 (0.1464, 0.1470 s)",
        f"metric round_s = {round_s:.6g} s",
        f"metric setup_s = {setup_s:.6g} s",
        json.dumps(result),
    ])


def test_parse_run_reads_metrics_samples_and_counts():
    run = bench_record.parse_run(_stdout(0.97, 0.95, 0.2103, failed=2))
    assert run == {
        "round_s": 0.97, "setup_s": 0.95,
        "samples": {"sparse_encode": 0.2103, "infer": 0.1464},
        "correct": True, "attempted": 46, "failed": 2,
    }


def test_summary_gives_spreads_op_medians_and_wins():
    parent = [(1.2, 0.80, 0.30), (1.1, 0.82, 0.31), (1.3, 0.79, 0.33), (1.0, 0.81, 0.32)]
    change = [(0.9, 0.81, 0.20), (0.8, 0.83, 0.21), (1.4, 0.78, 0.22), (0.85, 0.80, 0.19)]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        order = [("parent", p), ("change", c)] if pair % 2 == 0 else [("change", c), ("parent", p)]
        for i, (side, (r, s, e)) in enumerate(order):
            runs.append({"workload": "deploy", "side": side, "pair": pair, "seed": 1 + pair % 2,
                         "first": i == 0, "run": bench_record.parse_run(_stdout(r, s, e))})
    got = bench_record.summarize(runs)["deploy"]
    assert got["pairs"] == 4
    assert got["wins"] == {"round_s": 3, "setup_s": 2}
    par = got["sides"]["parent"]
    assert par["round_s"]["samples"] == [1.2, 1.1, 1.3, 1.0]
    assert par["round_s"]["median"] == pytest.approx(1.15)
    assert par["round_s"]["q1"] == pytest.approx(1.075)
    assert par["round_s"]["q3"] == pytest.approx(1.225)
    assert got["sides"]["change"]["op_medians_s"] == {
        "sparse_encode": pytest.approx(0.205), "infer": 0.1464}
    assert par["failed"] == 0 and par["correct"]
    assert [(r["side"], r["first"]) for r in got["runs"][:4]] == [
        ("parent", True), ("change", False), ("change", True), ("parent", False)]


def test_summary_of_one_side_has_no_wins():
    runs = [{"workload": "train", "side": "change", "pair": 0, "seed": 1, "first": True,
             "run": bench_record.parse_run(_stdout(2.5, 0.3, 0.2))}]
    got = bench_record.summarize(runs)["train"]
    assert "wins" not in got
    assert got["sides"]["change"]["round_s"] == {
        "samples": [2.5], "median": 2.5, "q1": 2.5, "q3": 2.5}
