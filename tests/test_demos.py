"""The demo scripts must compile on every change; the ones that need no
MNIST and no long training also run, so a renamed helper they call fails."""

import py_compile
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import qatforge as qf
from qatforge import quantizers as qz
from test_cli import _write_idx

DEMO_DIR = Path(__file__).parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_demo_directory_is_populated():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"), doraise=True)


def _run_demo(name, monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(DEMO_DIR / name), run_name="__main__")


@pytest.mark.parametrize("name", ["01_quantizer_tour.py", "02_regularizer_pull.py"])
def test_demo_runs(name, monkeypatch, capsys):
    _run_demo(name, monkeypatch)
    assert capsys.readouterr().out


def test_fixed_point_trace_demo_runs(tmp_path, monkeypatch, capsys):
    # a calibrated 4-bit LeNet snapped onto power-of-two grids, with the
    # qat_pow2 input scale 1/256, so the float simulation the demo compares
    # against is exact
    _write_idx(tmp_path, n_train=64, n_test=32)
    data = qf.load_mnist(tmp_path)
    cfg = qf.TrainConfig(mode="qat_pow2", weight_bits=4, act_bits=4)
    net = qf.build_lenet(np.random.default_rng(0))
    plan = qf.quant_plan(len(net.param_layers), cfg)
    calib = data.train_images[:, None].astype(np.float64)
    scales = qf.init_scales(net, plan, calib, cfg.resolved_input_scale())
    scales.weight_scales = qz.round_pow2(scales.weight_scales)
    scales.act_scales = qz.round_pow2(scales.act_scales)
    qf.snap_to_levels(net, scales, plan)
    ckpt = tmp_path / "qat4.npz"
    qf.save_checkpoint(ckpt, net, scales, qf.RegState(), cfg)

    _run_demo("08_fixed_point_trace.py", monkeypatch,
              "--ckpt", str(ckpt), "--data", str(tmp_path), "--index", "3")
    out = capsys.readouterr().out
    assert "image 3" in out and "maxpool" in out
    assert "agrees with float simulation on 32/32" in out
