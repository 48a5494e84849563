"""Training mechanics on small synthetic data: bit plans, update rules,
determinism, stage composition, and checkpoints."""

import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qatforge as qf
from qatforge import mnist
from qatforge import quantizers as qz
from qatforge import regularizers as rg
from qatforge import training as tr
from qatforge.models import build_lenet, net_from_spec


def _toy_data(rng, n_train=256, n_test=128, size=8, classes=4):
    """Linearly separable images: class k lights up row band k."""

    def make(n):
        labels = rng.integers(0, classes, n).astype(np.uint8)
        images = rng.integers(0, 40, (n, size, size)).astype(np.uint8)
        band = size // classes
        for i, k in enumerate(labels):
            images[i, k * band : (k + 1) * band, :] = 220
        return images, labels

    tri, trl = make(n_train)
    tei, tel = make(n_test)
    return qf.MnistSet(tri, trl, tei, tel)


def _toy_net(rng=None):
    return net_from_spec([["flatten"], ["linear", 64, 4]], rng=rng)


def _conv_net(rng=None):
    return net_from_spec(
        [["conv", 1, 2, 3, 1, 0], ["relu"], ["flatten"], ["linear", 72, 4]], rng=rng
    )


def _cfg(**kw):
    base = dict(epochs=2, batch_size=32, eval_batch=64, hist_every=4)
    base.update(kw)
    return tr.TrainConfig(**base)


def test_quant_plan_modes():
    for mode in ("float", "prune"):
        plan = tr.quant_plan(3, _cfg(mode=mode))
        assert all(p.weights is None and p.acts is None for p in plan)
    plan = tr.quant_plan(3, _cfg(mode="qat", weight_bits=4, act_bits=3))
    assert [p.weights for p in plan] == [4, 4, 4]
    assert [p.acts for p in plan] == [3, 3, None]
    plan = tr.quant_plan(3, _cfg(mode="qat", skip_first_last=True))
    assert [p.weights for p in plan] == [None, 4, None]
    plan = tr.quant_plan(3, _cfg(mode="qat", quantize_acts=False))
    assert all(p.acts is None for p in plan)
    assert all(p.weights == 4 for p in plan)


def test_bias_grid_step():
    plan = [tr.LayerBits(4, 4), tr.LayerBits(4, None), tr.LayerBits(4, None)]
    scales = tr.ScaleState(
        np.array([0.5, 0.25, 0.125]), np.array([0.1, 1.0, 1.0]), 1 / 255
    )
    assert tr.bias_grid_step(plan, scales, 0) == 0.5 / 255
    assert tr.bias_grid_step(plan, scales, 1) == 0.25 * 0.1
    # unquantized producer: biases ride the weight grid alone
    assert tr.bias_grid_step(plan, scales, 2) == 0.125
    # the input step alone, as FixedPointModel.from_network reads it
    assert [qf.fixedpoint.input_step(plan, scales, l) for l in range(3)] == [1 / 255, 0.1, 1.0]


def test_config_validation_and_round_trip():
    with pytest.raises(ValueError, match="mode"):
        _cfg(mode="nope").validate()
    with pytest.raises(ValueError):
        _cfg(mode="qat", weight_bits=0).validate()
    with pytest.raises(ValueError):
        _cfg(mode="prune", prune_ratio=1.0).validate()
    with pytest.raises(ValueError):
        _cfg(epochs=0).validate()
    with pytest.raises(ValueError, match="eval_batch must be positive"):
        _cfg(eval_batch=0).validate()
    cfg = _cfg(mode="qat_pow2", lr_schedule=((2, 0.1), (4, 0.01)))
    assert cfg.resolved_input_scale() == 1 / 256
    assert _cfg(mode="qat").resolved_input_scale() == 1 / 255
    assert _cfg(input_scale=0.01).resolved_input_scale() == 0.01
    again = tr.TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_lr_schedule_last_applicable_wins():
    sched = ((2, 0.1), (5, 0.01))
    assert tr._lr_mult(sched, 0) == 1.0
    assert tr._lr_mult(sched, 2) == 0.1
    assert tr._lr_mult(sched, 4) == 0.1
    assert tr._lr_mult(sched, 5) == 0.01
    assert tr._lr_mult(sched, 99) == 0.01
    assert tr._lr_mult((), 3) == 1.0


def test_adam_minimizes_quadratic():
    x = 10.0
    opt = tr.Adam(())
    for _ in range(800):
        x += float(opt.step(2 * (x - 3.0), 0.05))
    assert abs(x - 3.0) < 1e-3


class _FormulaAdam:
    """The textbook Adam update, one new array per operation."""

    def __init__(self, shape, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, grad, lr):
        grad = np.asarray(grad, dtype=np.float64)
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        mhat = self.m / (1.0 - self.beta1**self.t)
        vhat = self.v / (1.0 - self.beta2**self.t)
        return -lr * mhat / (np.sqrt(vhat) + self.eps)


@pytest.mark.parametrize("shape", [(), (4,), (5, 3, 2, 2)])
def test_adam_matches_the_formula_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    opt, ref = tr.Adam(shape), _FormulaAdam(shape)
    for _ in range(5):
        grad = rng.normal(0, 1e-2, shape)
        if grad.ndim == 4:
            grad = grad.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)
        got, want = opt.step(grad, 1e-3), ref.step(grad, 1e-3)
        for a, b in [(got, want), (opt.m, ref.m), (opt.v, ref.v)]:
            assert np.shape(a) == np.shape(b)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_lambda_gradient_direction():
    # cost C = lam*R - alpha*log(lam): in omega = log(lam) coordinates the
    # gradient is lam*R - alpha, so lambda rises while lam*R < alpha
    assert tr.grad_log_lambda(0.01, 0.5, 1.0) < 0
    assert tr.grad_log_lambda(0.01, 0.5, 1000.0) > 0
    assert tr.grad_log_lambda(0.25, 0.5, 2.0) == 0.0
    # omega-form matches the chain rule lam * dC/dlam, dC/dlam = R - alpha/lam
    lam = 3.7
    assert abs(tr.grad_log_lambda(0.2, 0.5, lam) - lam * (0.2 - 0.5 / lam)) < 1e-12


def test_init_scales_percentile_rule():
    rng = np.random.default_rng(0)
    net = _toy_net(rng)
    w = net.param_layers[0].W
    plan = [tr.LayerBits(4, None)]
    calib = rng.random((16, 1, 8, 8))
    scales = tr.init_scales(net, plan, calib, 1 / 255)
    want = np.percentile(np.abs(w), 99) / (2**3 - 1)
    assert abs(scales.weight_scales[0] - want) < 1e-12
    # binary rule: the percentile itself
    scales1 = tr.init_scales(net, [tr.LayerBits(1, None)], calib, 1 / 255)
    assert abs(scales1.weight_scales[0] - np.percentile(np.abs(w), 99)) < 1e-12
    # all-zero layer falls back without dividing by zero
    net.param_layers[0].W = np.zeros_like(w)
    scales0 = tr.init_scales(net, plan, calib, 1 / 255)
    assert scales0.weight_scales[0] > 0


def test_quant_tap_substitutes_grid_values():
    rng = np.random.default_rng(1)
    net = _toy_net(rng)
    plan = [tr.LayerBits(4, None)]
    scales = tr.ScaleState(np.array([0.1]), np.array([1.0]), 1 / 255)
    tap = tr.QuantTap(plan, scales)
    x = rng.random((5, 1, 8, 8))
    logits, _ = net.forward(x, tap)
    layer = net.param_layers[0]
    wq = qz.quantize_signed(layer.W, 0.1, 4)
    bq = qz.snap_to_grid(layer.b, 0.1 / 255)
    want = x.reshape(5, -1) @ wq.T + bq
    assert np.max(np.abs(logits - want)) == 0.0
    assert np.array_equal(tap.bq[0], bq)


def test_float_training_learns_and_is_deterministic():
    rng = np.random.default_rng(2)
    data = _toy_data(rng)

    def run():
        net = _toy_net(np.random.default_rng(7))
        res = tr.train(net, data, _cfg(mode="float", epochs=3, lr=1e-2))
        return res

    a, b = run(), run()
    assert a.final_accuracy >= 0.9
    assert a.final_accuracy == b.final_accuracy
    for la, lb in zip(a.net.param_layers, b.net.param_layers):
        assert np.array_equal(la.W, lb.W)
        assert np.array_equal(la.b, lb.b)
    assert np.array_equal(a.log.column("task"), b.log.column("task"))
    # a different seed takes a different path
    net_c = _toy_net(np.random.default_rng(8))
    c = tr.train(net_c, data, _cfg(mode="float", epochs=3, lr=1e-2, seed=5))
    assert not np.array_equal(a.log.column("task"), c.log.column("task"))


_CHILD = """
import sys
from pathlib import Path

import numpy as np

from qatforge import training as tr
from qatforge.cli import emit_curves
from test_training import _cfg, _conv_net, _toy_data

out = Path(sys.argv[1])
data = _toy_data(np.random.default_rng(3))
cfg = _cfg(mode="qat", epochs=2, lr=1e-2, weight_bits=4, act_bits=4, seed=4)
res = tr.train(_conv_net(np.random.default_rng(9)), data, cfg)
arrays = {}
for l, layer in enumerate(res.net.param_layers):
    arrays[f"w{l}"], arrays[f"b{l}"] = layer.W, layer.b
np.savez(out / "weights.npz", scales=res.scales.weight_scales, **arrays)
emit_curves(res.log, out)
"""


def test_same_seed_in_two_processes_gives_the_same_bytes(tmp_path):
    # the determinism contract, across processes: same seed, same BLAS
    # thread setting (one thread here), byte-identical weights and curves
    src = Path(tr.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    outs = [tmp_path / "a", tmp_path / "b"]
    procs = []
    for out in outs:
        out.mkdir()
        procs.append(subprocess.Popen([sys.executable, "-c", _CHILD, str(out)], env=env,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    for name in ("weights.npz", "curves.csv"):
        first = (outs[0] / name).read_bytes()
        assert len(first) > 1000 and first == (outs[1] / name).read_bytes(), name


def test_qat_training_lands_on_grid():
    rng = np.random.default_rng(3)
    data = _toy_data(rng)
    net = _conv_net(np.random.default_rng(9))
    cfg = _cfg(mode="qat", epochs=3, lr=1e-2, weight_bits=4, act_bits=4)
    res = tr.train(net, data, cfg)
    plan = tr.quant_plan(2, cfg)
    # terminal consolidation: every weight exactly on its level
    for l, layer in enumerate(net.param_layers):
        d = float(res.scales.weight_scales[l])
        assert np.array_equal(qz.quantize_signed(layer.W, d, 4), layer.W)
        step = tr.bias_grid_step(plan, res.scales, l)
        assert np.array_equal(qz.snap_to_grid(layer.b, step), layer.b)
    # pre-consolidation residuals recorded honestly
    assert "max_err_over_delta" in res.diagnostics
    assert "weight_msqe" in res.diagnostics
    assert res.diagnostics["max_err_over_delta"] >= 0.0
    lam_col = res.log.column("lam")
    assert np.all(lam_col > 0)
    assert res.log.hist_rows, "histogram snapshots missing"
    it, layer_idx, delta, counts = res.log.hist_rows[0]
    assert counts.size == 201
    assert np.all(res.scales.weight_scales >= tr.SCALE_FLOOR)


def test_qat_respects_masks():
    rng = np.random.default_rng(4)
    data = _toy_data(rng)
    net = _toy_net(np.random.default_rng(10))
    masks = [np.abs(net.param_layers[0].W) > np.median(np.abs(net.param_layers[0].W))]
    net.param_layers[0].W[~masks[0]] = 0.0
    res = tr.train(net, data, _cfg(mode="qat", epochs=2, lr=1e-2), masks=masks)
    assert np.all(net.param_layers[0].W[~masks[0]] == 0.0)
    assert res.prune_mask is masks


def test_log_lambda_is_capped():
    rng = np.random.default_rng(5)
    data = _toy_data(rng, n_train=64, n_test=32)
    net = _toy_net(np.random.default_rng(11))
    cfg = _cfg(mode="qat", epochs=2, alpha=1e6, lr_log_lam=5.0)
    res = tr.train(net, data, cfg)
    assert res.reg.log_lam <= tr.LOG_COEFF_CAP
    assert np.isfinite(res.reg.lam)


def test_prune_stage_masks_to_ratio():
    rng = np.random.default_rng(6)
    data = _toy_data(rng)
    net = _toy_net(np.random.default_rng(12))
    cfg = _cfg(mode="prune", prune_ratio=0.9, epochs=3, lr=1e-3)
    res = tr.train(net, data, cfg)
    n_w = sum(l.W.size for l in net.param_layers)
    pruned = sum(int((~m).sum()) for m in res.prune_mask)
    assert pruned == math.ceil(0.9 * n_w)
    assert abs(pruned / n_w - res.diagnostics["pruned_fraction"]) < 1e-12
    for layer, keep in zip(net.param_layers, res.prune_mask):
        assert np.all(layer.W[~keep] == 0.0)
    assert res.diagnostics["theta_final"] > 0
    assert "prune_l2" in res.log.rows[0]
    assert np.all(res.log.column("theta") >= 0)


def test_prune_masks_break_ties_by_position():
    layers = [np.array([0.5, -0.5, 2.0]), np.array([[0.5, -3.0], [0.5, 1.0]])]
    # four weights tie at |w| = 0.5; ceil(0.5 * 7) = 4 go, the first four ties
    masks = rg.prune_masks(layers, 0.5)
    assert [m.shape for m in masks] == [(3,), (2, 2)]
    assert masks[0].tolist() == [False, False, True]
    assert masks[1].tolist() == [[False, True], [False, True]]
    assert sum(int((~m).sum()) for m in masks) == 4
    assert all(m.all() for m in rg.prune_masks(layers, 0.0))
    with pytest.raises(ValueError):
        rg.prune_masks(layers, 1.0)


def test_prune_masks_equal_the_stable_argsort_rule():
    # the first ceil(ratio * N) magnitudes of a stable argsort go, at every
    # k, on tie-heavy layers (float64 and float32)
    rng = np.random.default_rng(21)
    for trial in range(12):
        levels = rng.choice([0.0, 0.25, -0.25, 0.5, -1.0, 2.0], size=rng.integers(2, 6))
        layers = [rng.choice(levels, shape) for shape in [(4, 5), (13,), (2, 3, 2)]]
        if trial % 2:
            layers = [w.astype(np.float32) for w in layers]
        mags = np.concatenate([np.abs(w).ravel() for w in layers])
        for k in range(mags.size):
            ratio = max(k - 0.5, 0.0) / mags.size  # ceil(ratio * N) == k
            keep = np.ones(mags.size, dtype=bool)
            keep[np.argsort(mags, kind="stable")[:k]] = False
            masks = rg.prune_masks(layers, ratio)
            assert [m.shape for m in masks] == [w.shape for w in layers]
            assert np.array_equal(np.concatenate([m.ravel() for m in masks]), keep)


def test_prune_then_qat_composition():
    rng = np.random.default_rng(7)
    data = _toy_data(rng)
    net = _toy_net(np.random.default_rng(13))
    cfg = _cfg(
        mode="prune_then_qat", prune_ratio=0.8, prune_epochs=2, epochs=2, lr=1e-3
    )
    res = tr.train(net, data, cfg)
    assert res.prune_log is not None and res.prune_log.rows
    assert "prune_theta_final" in res.diagnostics
    for layer, keep in zip(net.param_layers, res.prune_mask):
        assert np.all(layer.W[~keep] == 0.0)
    # survivors are on the quantization grid
    d = float(res.scales.weight_scales[0])
    assert np.array_equal(
        qz.quantize_signed(net.param_layers[0].W, d, cfg.weight_bits),
        net.param_layers[0].W,
    )


@pytest.mark.parametrize(
    "kw",
    [
        dict(mode="qat"),
        dict(mode="qat", weight_bits=1),
        dict(mode="prune_then_qat", prune_ratio=0.5, prune_epochs=1),
        dict(mode="prune_then_qat", prune_ratio=0.5, prune_epochs=1, weight_bits=1),
        dict(mode="qat_pow2"),
    ],
    ids=["qat", "qat_1bit", "prune_then_qat", "prune_then_qat_1bit", "qat_pow2"],
)
def test_final_accuracy_is_the_snapped_nets_accuracy(kw):
    """Only qat_pow2 evaluates again at the end; snapping onto the grids
    keeps every other run's last-epoch accuracy."""
    data = _toy_data(np.random.default_rng(2))
    net = _conv_net(np.random.default_rng(7))
    cfg = _cfg(epochs=1, lr=1e-3, **kw)
    res = tr.train(net, data, cfg)
    tap = tr.QuantTap(tr.quant_plan(2, cfg), res.scales)
    acc = tr.evaluate(net, data.test_images, data.test_labels, res.scales.input_scale, tap)
    assert 0.4 < acc < 0.9  # a half-trained run, where grid changes show
    assert acc == res.final_accuracy
    last_epoch = res.log.acc_rows[-1][2]
    # rounding the scales to powers of two moves this run's accuracy
    assert (acc == last_epoch) == (kw["mode"] != "qat_pow2")


def test_spec_round_trips_every_layer_kind():
    spec = [["conv", 1, 2, 3, 2, 1], ["maxpool", 2], ["relu"], ["flatten"], ["linear", 8, 3]]
    net = net_from_spec(spec, rng=np.random.default_rng(0))
    assert [type(l) for l in net.layers] == [qf.Conv2d, qf.MaxPool2d, qf.ReLU, qf.Flatten, qf.Linear]
    assert qf.net_spec(net) == spec
    assert [l.params for l in net.layers] == [True, False, False, False, True]
    assert net.layers[0].W.std() > 0 and not net.layers[0].b.any()
    # without an rng the weights are zero
    assert not net_from_spec(spec).param_layers[1].W.any()


def test_net_from_spec_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown layer kind 'dense'"):
        net_from_spec([["flatten"], ["dense", 64, 4]])
    with pytest.raises(ValueError, match="unknown layer kind"):
        net_from_spec([[["linear"], 64, 4]])
    # a value count that is not the class's fields is refused the same way
    for entry, match in [(["conv", 1], "'conv' takes 5 values, not 1"),
                         (["relu", 1], "'relu' takes 0 values, not 1"),
                         (["linear", 64, 4, 1], "'linear' takes 2 values, not 3")]:
        with pytest.raises(ValueError, match=match):
            net_from_spec([entry])


def test_cost_functions():
    # R, the pooled weight+bias MSQE over N = |W| + |b|, comes from
    # _convergence_stats; RegState.cost is the one assembly of
    # C = E + lam*R - alpha*log(lam) + zeta*S (+ gamma*T - beta*log(gamma))
    net = _toy_net(np.random.default_rng(14))
    plan = [tr.LayerBits(4, None)]
    scales = tr.ScaleState(np.array([0.1]), np.array([1.0]), 1 / 255)
    reg = tr.RegState(alpha=0.5, zeta=1.0, log_lam=0.3)
    layer = net.param_layers[0]
    err_w = layer.W - qz.quantize_signed(layer.W, 0.1, 4)
    err_b = layer.b - qz.snap_to_grid(layer.b, tr.bias_grid_step(plan, scales, 0))
    want = (float(np.sum(err_w * err_w)) + float(np.sum(err_b * err_b))) / (layer.W.size + layer.b.size)
    r = tr._convergence_stats(net, plan, scales)["weight_msqe"]
    assert r == want
    assert r > 0
    task = 1.25
    cost = reg.cost(task, r, 0.0)
    assert abs(cost - (task + reg.lam * r - reg.alpha * reg.log_lam)) < 1e-12
    t_w, t_a = tr._pow2_terms(scales, plan)
    # delta = 0.1 is not a power of two, so the penalty is strictly positive
    assert t_w > 0 and t_a is None
    assert reg.cost(task, r, 0.0, t_w, t_a) == cost + reg.gamma_w * t_w - reg.beta_w * reg.log_gamma_w


@pytest.mark.parametrize("mode", ["float", "prune"])
def test_non_finite_task_loss_stops_the_run(mode):
    data = _toy_data(np.random.default_rng(12), n_train=64, n_test=32)
    net = _toy_net(np.random.default_rng(19))
    net.param_layers[0].W[:] = np.inf
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="non-finite task loss at iteration 0"):
        tr.train(net, data, _cfg(mode=mode, epochs=1, prune_ratio=0.5))


def test_logged_cost_uses_the_coefficients_of_its_step():
    # the first step runs at log(lam) = log(gamma) = 0; the logged gamma is
    # the one after the step's update
    for mode in ("qat_pow2", "prune"):
        data = _toy_data(np.random.default_rng(11), n_train=64, n_test=32)
        net = _conv_net(np.random.default_rng(18))
        cfg = _cfg(mode=mode, epochs=1, lr=1e-2, prune_ratio=0.5)
        res = tr.train(net, data, cfg)
        row = res.log.rows[0]
        reg0 = tr.RegState(alpha=cfg.alpha, zeta=cfg.zeta, beta_w=cfg.beta_w, beta_a=cfg.beta_a)
        if mode == "prune":
            # prune's R, the partial L2, runs through the same cost and lam update
            assert row["cost"] == reg0.cost(row["task"], row["prune_l2"], 0.0)
            assert row["lam"] == 1.0 and res.reg.lam != 1.0
            continue
        terms = [row[k] for k in ("task", "weight_msqe", "act_msqe", "pow2_w", "pow2_a")]
        assert row["cost"] == reg0.cost(*terms)
        assert row["gamma_w"] != 1.0 and row["gamma_a"] != 1.0


def test_evaluate_counts_correct_predictions():
    net = _toy_net(np.random.default_rng(15))
    layer = net.param_layers[0]
    layer.W[:] = 0.0
    layer.b[:] = 0.0
    layer.b[2] = 10.0  # always predicts class 2
    images = np.zeros((10, 8, 8), dtype=np.uint8)
    labels = np.array([2] * 6 + [0] * 4, dtype=np.int64)
    assert tr.evaluate(net, images, labels, 1 / 255) == 0.6


def test_evaluate_holds_no_memory_after_it_returns():
    # a forward leaves no backward caches on the layers, so everything
    # evaluate allocates dies with it
    net = build_lenet(np.random.default_rng(23))
    images = np.random.default_rng(24).integers(0, 256, (300, 28, 28), dtype=np.uint8)
    labels = np.zeros(300, dtype=np.int64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tr.evaluate(net, images, labels, 1 / 255)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**20


@pytest.mark.parametrize("mode", ["float", "qat", "prune"])
def test_a_train_set_smaller_than_one_batch_is_refused(mode):
    # 32 images draw no batch of 64; the run used to fail after its first
    # epoch on a loss term no step had set
    data = _toy_data(np.random.default_rng(20), n_train=32, n_test=16)
    with pytest.raises(ValueError, match="32 train and 16 test images"):
        tr.train(_toy_net(np.random.default_rng(21)), data,
                 _cfg(mode=mode, batch_size=64, prune_ratio=0.5))


def test_an_empty_test_set_is_refused(tmp_path):
    # an IDX file with count 0 loads; evaluate used to divide by that count
    data = _toy_data(np.random.default_rng(22), n_train=64, n_test=0)
    for name, arr in [(mnist.TRAIN_IMAGES, data.train_images), (mnist.TRAIN_LABELS, data.train_labels),
                      (mnist.TEST_IMAGES, data.test_images), (mnist.TEST_LABELS, data.test_labels)]:
        header = struct.pack(f">{1 + arr.ndim}i", 0x800 + arr.ndim, *arr.shape)
        (tmp_path / name).write_bytes(header + arr.tobytes())
    loaded = mnist.load_mnist(tmp_path)
    assert loaded.test_images.shape == (0, 8, 8)
    with pytest.raises(ValueError, match="64 train and 0 test images"):
        tr.train(_toy_net(np.random.default_rng(25)), loaded, _cfg(mode="float"))


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    data = _toy_data(rng, n_train=64, n_test=32)
    net = _conv_net(np.random.default_rng(16))
    cfg = _cfg(mode="qat", epochs=1, lr=1e-2)
    res = tr.train(net, data, cfg)
    path = tmp_path / "ck.npz"
    masks = [np.ones_like(l.W, dtype=bool) for l in net.param_layers]
    tr.save_checkpoint(
        path, net, res.scales, res.reg, cfg, masks=masks, meta={"note": "x"}
    )
    ck = tr.load_checkpoint(path)
    assert ck.config == cfg
    assert ck.meta == {"note": "x"}
    assert ck.scales.input_scale == res.scales.input_scale
    assert np.array_equal(ck.scales.weight_scales, res.scales.weight_scales)
    assert ck.reg.log_lam == res.reg.log_lam
    for a, b, m in zip(net.param_layers, ck.net.param_layers, ck.masks):
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b, b.b)
        assert m.dtype == bool and m.all()
    # the restored net evaluates identically
    tap = tr.QuantTap(tr.quant_plan(2, cfg), ck.scales)
    acc = tr.evaluate(ck.net, data.test_images, data.test_labels, ck.scales.input_scale, tap)
    assert acc == res.final_accuracy


def test_snap_to_levels_is_exact():
    rng = np.random.default_rng(10)
    net = _toy_net(np.random.default_rng(17))
    plan = [tr.LayerBits(3, None)]
    scales = tr.ScaleState(np.array([0.2]), np.array([1.0]), 1 / 255)
    tr.snap_to_levels(net, scales, plan)
    w = net.param_layers[0].W
    assert np.array_equal(qz.quantize_signed(w, 0.2, 3), w)
    assert tr._convergence_stats(net, plan, scales)["weight_msqe"] == 0.0
