"""Tests of the benchmark itself: every correctness check must reject a
corrupted output, the tracer must leave the package as it found it, and
the metric names must match BENCHMARK.json.

    python3 -m pytest perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import qatforge  # noqa: E402
from qatforge import compression, fixedpoint, mnist  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def deploy(tmp_path_factory):
    return workloads.Deploy(7, tmp_path_factory.mktemp("deploy"))


@pytest.fixture(scope="module")
def archive(deploy):
    return deploy.archive


def test_synthetic_idx_is_seeded_and_balanced(tmp_path):
    a = synth.write_dataset(tmp_path / "a", 3, 60, 20, workloads.IDX_NAMES)
    b = synth.write_dataset(tmp_path / "b", 3, 60, 20, workloads.IDX_NAMES)
    c = synth.write_dataset(tmp_path / "c", 4, 60, 20, workloads.IDX_NAMES)
    for name in workloads.IDX_NAMES:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / mnist.TRAIN_IMAGES).read_bytes() != (c / mnist.TRAIN_IMAGES).read_bytes()
    data = mnist.load_mnist(a)
    assert data.train_images.shape == (60, 28, 28)
    assert np.bincount(data.train_labels, minlength=10).tolist() == [6] * 10


def test_integer_logit_changed_is_rejected(deploy):
    images = deploy.images[:4]
    oracle = checks.integer_forward(deploy.net, deploy.scales, deploy.plan, images)
    got = fixedpoint.infer(deploy.model, images)
    checks.equal_arrays("logits", oracle, got)
    checks.equal_arrays("shift", got, fixedpoint.infer_shift(deploy.model, images))
    checks.equal_arrays("float", got, fixedpoint.simulate_float(deploy.model, images))
    bad = got.copy()
    bad[2, 5] += deploy.model.layers[-1].logit_scale  # one integer step
    with pytest.raises(checks.CheckFailed, match="1 values differ"):
        checks.equal_arrays("logits", oracle, bad)


def test_weight_off_grid_is_rejected(deploy):
    net = copy.deepcopy(deploy.net)
    checks.layer_codes(net, deploy.scales, deploy.plan)
    net.param_layers[1].W[3, 2, 1, 0] += deploy.scales.weight_scales[1] / 3
    with pytest.raises(checks.CheckFailed, match="layer 1 weight"):
        checks.layer_codes(net, deploy.scales, deploy.plan)


def test_decoded_code_changed_is_rejected(archive):
    net, masks, scales, plan = archive.model
    blob, meta = compression.encode_model(net, masks, scales, plan)
    checks.payload_is_optimal(blob, meta, [c for c, *_ in checks.layer_codes(net, scales, plan)])
    decoded = compression.decode_model(blob)
    checks.decoded_matches(decoded, net, scales, plan, act_bits=4)
    flat = decoded.param_layers[2].codes.reshape(-1)
    i = int(np.flatnonzero(flat)[0])
    flat[i] = -flat[i]
    with pytest.raises(checks.CheckFailed, match="layer 2 weight codes"):
        checks.decoded_matches(decoded, net, scales, plan, act_bits=4)


def test_payload_bit_count_must_be_optimal(archive):
    net, masks, scales, plan = archive.model
    blob, meta = compression.encode_model(net, masks, scales, plan)
    codes = [c for c, *_ in checks.layer_codes(net, scales, plan)]
    with pytest.raises(checks.CheckFailed, match="optimal"):
        checks.payload_is_optimal(blob, dict(meta, payload_bits_used=meta["payload_bits_used"] + 1), codes)


def test_optimal_code_bits():
    assert checks.optimal_code_bits([5]) == 5  # one symbol: one bit each
    assert checks.optimal_code_bits([1, 1]) == 2
    assert checks.optimal_code_bits([1, 1, 2]) == 6  # lengths 2, 2, 1


def test_repeat_not_byte_identical_is_rejected(deploy):
    net = copy.deepcopy(deploy.net)
    first = checks.digest(net, deploy.scales)
    checks.identical_repeats("digest", [first, checks.digest(net, deploy.scales)])
    w = net.param_layers[3].W
    w[0, 0] = np.nextafter(w[0, 0], np.inf)  # one ulp
    with pytest.raises(checks.CheckFailed, match="repeat 1"):
        checks.identical_repeats("digest", [first, checks.digest(net, deploy.scales)])
    logits = np.zeros((2, 10))
    other = logits.copy()
    other[1, 1] = -0.0  # equal as a number, not as bytes
    with pytest.raises(checks.CheckFailed):
        checks.identical_repeats("logits", [logits, other])


def test_tracer_records_spans_and_restores_the_package(deploy):
    before = {(m, a): getattr(getattr(qatforge, m), a) for m, a in spans.SPAN_TARGETS if "." not in a}
    tracer = spans.Tracer(qatforge)
    tracer.install("round", "infer")
    try:
        fixedpoint.infer(deploy.model, deploy.images[:2])
        fixedpoint.simulate_float(deploy.model, deploy.images[:2])
    finally:
        tracer.uninstall()
    after = {(m, a): getattr(getattr(qatforge, m), a) for m, a in spans.SPAN_TARGETS if "." not in a}
    assert before == after
    assert qatforge.infer is fixedpoint.infer
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["fixedpoint.infer", "fixedpoint.encode_input"]
    assert tracer.spans[1][3] == 0  # encode_input's parent is infer
    assert "nn.conv2.forward" in names and "nn.fc1.forward" in names
    self_s = tracer.self_times()
    assert all(s >= 0 for s in self_s)
    infer_total = tracer.spans[0][2] - tracer.spans[0][1]
    assert self_s[0] < infer_total
    totals = tracer.totals("round")
    assert totals[("infer", "fixedpoint.infer")][1] == 1


def test_bit_counters_count_every_call(archive):
    net, masks, scales, plan = archive.model
    tracer = spans.Tracer(qatforge)
    tracer.install("round", "x")
    try:
        blob, meta = compression.encode_model(net, masks, scales, plan)
        compression.decode_model(blob)
    finally:
        tracer.uninstall()
    counts = tracer.counts[("round", "x")]
    nnz = sum(int(np.count_nonzero(c)) for c, *_ in checks.layer_codes(net, scales, plan))
    assert counts["compression.BitWriter.write"] >= 2 * nnz  # a gap and a code each
    assert counts["compression.BitReader.read_bit"] == meta["payload_bits_used"]


def test_metric_names_match_benchmark_json(deploy):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer(qatforge)
    layer = workloads.per_layer(tracer, deploy, 1, {True: [1.0], False: [1.0]})
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, unit) for k, (_, unit) in layer.items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [("round_s", "s"), ("setup_s", "s")]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_a_run_prints_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "deploy", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * (3 + 2 * workloads.SparseArchive.CALLS)  # warm-up and one round
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
