"""Training for the regularized quantization pipeline.

One loop, _run_core, trains every mode. Each step runs the forward (through
a QuantTap when anything is quantized), the task loss and its backward, adds
the pull of the mode's regularizer R to the task gradients and takes an Adam
step. Every mode with an R also learns its weight lam = exp(omega) in
C = E + lam*R - alpha*log(lam): d/domega = lam*R - alpha, so lam ramps up as
R shrinks and ratchets the weights in. The mode picks R and the ending:

* ``float``: no R, no taps; the accuracy baseline.
* ``qat``: quantization-aware training. Every forward runs on quantized
  weights/biases and (optionally) quantized inter-layer activations, while
  float masters accumulate updates. R is the MSQE of the masters to their
  grids; its pull 2*lam/N * (w - Q(w)) joins the task gradient routed
  through the straight-through masks. Per-layer scales follow their own
  regularizer gradients. The run ends by snapping onto the grids.
* ``qat_pow2``: same, plus penalties pulling every scale to a power of two,
  weighted by learned coefficients gamma = exp(log_gamma) with the analogous
  ramp (d/dlog_gamma = gamma*T - beta).
* ``prune``: magnitude pruning. R is the partial L2 of the weights below the
  threshold theta, the nearest-rank percentile of pooled |w|, recomputed
  every step. The run ends by zeroing and masking exactly ceil(ratio * N)
  weights, the smallest magnitudes; biases are never pruned.
* ``prune_then_qat``: the loop run twice, prune then qat; the mask stays
  frozen through the QAT stage.

At the end of a quantized run the float masters are consolidated onto their
grids (weights to delta-levels, biases to the accumulator grid). Every
forward already used the quantized values, so the consolidation does not
change the function being evaluated; it realizes the zero-MSQE endpoint the
ramp drives toward. Pre-consolidation residuals are kept in
TrainResult.diagnostics so a run that failed to converge cannot hide.

All arithmetic is float64 and deterministic per BLAS thread setting: two
runs with the same config, seed and BLAS thread count produce bit-identical
results. A different thread count may change the order of a matrix
product's sums, and with it the last bits of the trained weights.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import quantizers as qz
from . import regularizers as rg
from .fixedpoint import LayerBits, QuantTap, ScaleState, bias_grid_step
from .models import net_from_spec, net_spec
from .nn import softmax_xent

LOG_COEFF_CAP = 40.0
SCALE_FLOOR = 1e-8

MODES = ("float", "qat", "qat_pow2", "prune", "prune_then_qat")


@dataclass
class TrainConfig:
    mode: str = "qat"
    weight_bits: int = 4
    act_bits: int = 4
    quantize_acts: bool = True
    skip_first_last: bool = False
    prune_ratio: float = 0.0
    epochs: int = 20
    prune_epochs: int = 8  # stage-1 length for prune_then_qat
    batch_size: int = 64
    seed: int = 0
    lr: float = 1e-3
    lr_schedule: tuple = ()  # ((epoch, multiplier), ...) applied from that epoch on
    lr_scales: float = 1e-3
    lr_log_lam: float = 1e-3
    lr_log_gamma: float | None = None  # defaults to lr_log_lam
    alpha: float = 0.5
    zeta: float = 1.0
    beta_w: float = 0.5
    beta_a: float = 0.5
    input_scale: float | None = None  # default 1/255, or 1/256 for qat_pow2
    eval_batch: int = 1000
    hist_every: int = 1000
    snap_at_end: bool = True

    def validate(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.mode in ("qat", "qat_pow2", "prune_then_qat"):
            qz.QuantSpec(self.weight_bits, self.act_bits if self.quantize_acts else 1)
        if self.mode in ("prune", "prune_then_qat"):
            if not 0.0 <= self.prune_ratio < 1.0:
                raise ValueError("prune_ratio must lie in [0, 1)")
        if min(self.epochs, self.batch_size, self.eval_batch) < 1:
            raise ValueError("epochs, batch_size and eval_batch must be positive")
        return self

    def resolved_input_scale(self):
        if self.input_scale is not None:
            return self.input_scale
        return 1.0 / 256.0 if self.mode == "qat_pow2" else 1.0 / 255.0

    def to_dict(self):
        d = asdict(self)
        d["lr_schedule"] = [list(e) for e in self.lr_schedule]
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["lr_schedule"] = tuple((int(e), float(m)) for e, m in d.get("lr_schedule", ()))
        return cls(**d)


@dataclass
class RegState:
    """Learned and fixed regularization coefficients, log-parameterized so
    the learned ones stay positive."""

    log_lam: float = 0.0
    alpha: float = 0.5
    zeta: float = 1.0
    log_gamma_w: float = 0.0
    log_gamma_a: float = 0.0
    beta_w: float = 0.5
    beta_a: float = 0.5

    @property
    def lam(self):
        return float(np.exp(self.log_lam))

    @property
    def gamma_w(self):
        return float(np.exp(self.log_gamma_w))

    @property
    def gamma_a(self):
        return float(np.exp(self.log_gamma_a))

    def cost(self, task, r_value, s_value, t_w=None, t_a=None):
        """E + lam*R - alpha*log(lam) + zeta*S, plus gamma*T - beta*log(gamma)
        for each power-of-two penalty T given."""
        cost = task + self.lam * r_value - self.alpha * self.log_lam + self.zeta * s_value
        if t_w is not None:
            cost += self.gamma_w * t_w - self.beta_w * self.log_gamma_w
        if t_a is not None:
            cost += self.gamma_a * t_a - self.beta_a * self.log_gamma_a
        return cost


def quant_plan(num_layers, cfg: TrainConfig):
    """Per-layer bit assignment. acts[l] covers the output of layer l; the
    final layer's logits are never quantized."""
    unquantized = cfg.mode in ("float", "prune")
    plan = []
    for l in range(num_layers):
        wb = cfg.weight_bits
        if unquantized:
            wb = None
        elif cfg.skip_first_last and l in (0, num_layers - 1):
            wb = None
        ab = None
        if not unquantized and cfg.quantize_acts and l < num_layers - 1:
            ab = cfg.act_bits
        plan.append(LayerBits(wb, ab))
    return plan


class Adam:
    """Adaptive moment optimizer for one array (or scalar)."""

    def __init__(self, shape, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, grad, lr):
        grad = np.asarray(grad, dtype=np.float64)
        self.t += 1
        b1, b2, t = self.beta1, self.beta2, self.t
        # in place: m and v are updated where they are, and two temporaries,
        # arrays also for a 0-d state, hold the rest
        m, v = self.m, self.v
        out = np.multiply(grad, 1.0 - b1, out=np.empty_like(grad))
        m *= b1
        m += out
        np.multiply(grad, 1.0 - b2, out=out)
        out *= grad
        v *= b2
        v += out
        den = np.divide(v, 1.0 - b2**t, out=np.empty_like(v))
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(m, 1.0 - b1**t, out=out)
        out *= -lr
        out /= den
        return out


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)  # one dict per iteration
    acc_rows: list = field(default_factory=list)  # (epoch, iteration, accuracy)
    hist_rows: list = field(default_factory=list)  # (iteration, layer, delta, counts)

    def column(self, name):
        return np.array([row[name] for row in self.rows])


@dataclass
class TrainResult:
    net: object
    scales: ScaleState
    reg: RegState
    log: TrainLog
    config: TrainConfig
    prune_mask: list | None
    final_accuracy: float
    wall_seconds: float
    diagnostics: dict
    prune_log: TrainLog | None = None


# --- closed-form update rules ----------------------------------------------


def grad_log_lambda(reg_value, alpha, lam):
    """dC/domega for C = lam*reg - alpha*log(lam) in omega = log(lam)
    coordinates: lam*reg - alpha, zero at lam = alpha/reg."""
    return lam * reg_value - alpha


def _log_coeff_step(log_c, value, beta, adam, lr):
    """One Adam step of a learned coefficient c = exp(log_c) on its cost
    c*value - beta*log(c) (lam on R, gamma on T), capped at LOG_COEFF_CAP."""
    g = grad_log_lambda(value, beta, float(np.exp(log_c)))
    return min(log_c + float(adam.step(g, lr)), LOG_COEFF_CAP)


# --- initialization and cost terms ----------------------------------------


def init_scales(net, plan, calib_images, input_scale, masks=None):
    """Percentile-based starting scales.

    delta_l = p99(|W_l|) / (2^(n-1) - 1) for n >= 2 and p99(|W_l|) for n = 1;
    Delta_l = p99(A_l) / (2^m - 1) from one calibration forward in float.
    All-zero (or all-negative-percentile) layers fall back to 1e-3.
    """
    params = net.param_layers
    wscales = np.ones(len(params))
    ascales = np.ones(len(params))
    for l, layer in enumerate(params):
        bits = plan[l].weights
        if bits is None:
            continue
        w = layer.W if masks is None else layer.W[masks[l]]
        p = float(np.percentile(np.abs(w), 99)) if w.size else 0.0
        if p <= 0.0:
            p = 1e-3
        wscales[l] = p if bits == 1 else p / (2 ** (bits - 1) - 1)
    if any(p.acts is not None for p in plan):
        tap = QuantTap([LayerBits(None, None)] * len(params), None)
        net.forward(calib_images * input_scale, tap)
        for l in range(len(params)):
            bits = plan[l].acts
            if bits is None or tap.pre_acts[l] is None:
                continue
            p = float(np.percentile(tap.pre_acts[l], 99))
            if p <= 0.0:
                p = 1e-3
            ascales[l] = p / (2**bits - 1)
    return ScaleState(wscales, ascales, input_scale)


def _pow2_terms(scales, plan):
    """(T_w, T_a): the power-of-two penalties of the quantized weight and
    activation scales; T_w is 0.0 without quantized weights and T_a is None
    without quantized activations."""
    widx = [l for l, p in enumerate(plan) if p.weights is not None]
    aidx = [l for l, p in enumerate(plan) if p.acts is not None]
    t_w = rg.pow2_penalty(scales.weight_scales[widx]) if widx else 0.0
    t_a = rg.pow2_penalty(scales.act_scales[aidx]) if aidx else None
    return t_w, t_a


def evaluate(net, images, labels, input_scale, tap=None, batch=1000):
    """Top-1 accuracy; deterministic, pure."""
    correct = 0
    for start in range(0, images.shape[0], batch):
        x = _prep(images[start : start + batch]).astype(np.float64) * input_scale
        logits = net.forward(x, tap)[0]
        correct += int(np.sum(np.argmax(logits, axis=1) == labels[start : start + batch]))
    return correct / images.shape[0]


def snap_to_levels(net, scales, plan):
    """Terminal consolidation: overwrite the float masters with the grid
    values the tap gives them. The quantized forward is identical before and
    after."""
    tap = QuantTap(plan, scales)
    for l, layer in enumerate(net.param_layers):
        layer.W, layer.b = tap.weights(l, layer.W, layer.b)


def _convergence_stats(net, plan, scales):
    """Pre-consolidation residuals, from the grid values the tap gives: the
    worst |w - Q(w)| / delta per layer, and weight_msqe, the pooled weight
    and bias MSQE R over the N parameters of the quantized layers."""
    tap = QuantTap(plan, scales)
    stats = {}
    worst = 0.0
    total = 0.0
    count = 0
    for l, layer in enumerate(net.param_layers):
        if plan[l].weights is None:
            continue
        wq, bq = tap.weights(l, layer.W, layer.b)
        d = float(scales.weight_scales[l])
        err = layer.W - wq
        rel = float(np.abs(err).max()) / d if err.size else 0.0
        stats[f"layer{l}_max_err_over_delta"] = rel
        worst = max(worst, rel)
        total += float(np.sum(err * err))
        err = layer.b - bq
        total += float(np.sum(err * err))
        count += layer.W.size + layer.b.size
    stats["max_err_over_delta"] = worst
    stats["weight_msqe"] = total / count if count else 0.0
    return stats


def _lr_mult(schedule, epoch):
    mult = 1.0
    for start, m in schedule:
        if epoch >= start:
            mult = m
    return mult


def _batches(rng, n, batch_size):
    perm = rng.permutation(n)
    for start in range(0, n - batch_size + 1, batch_size):
        yield perm[start : start + batch_size]


def _prep(images):
    return images.reshape(images.shape[0], 1, images.shape[1], images.shape[2])


def _run_core(net, data, cfg: TrainConfig, masks=None, log_prefix=""):
    """The training loop of every mode; cfg.mode picks R and the ending (see
    the module docstring). masks, if given, hold the pruned weights at zero.
    Returns a TrainResult; mutates net."""
    t0 = time.perf_counter()
    train_x, train_y = _prep(data.train_images), data.train_labels.astype(np.int64)
    test_x, test_y = data.test_images, data.test_labels.astype(np.int64)
    if len(train_x) < cfg.batch_size or not len(test_x):
        raise ValueError(f"{len(train_x)} train and {len(test_x)} test images: a run needs "
                         f"one batch of {cfg.batch_size} and one test image")
    params = net.param_layers
    plan = quant_plan(len(params), cfg)
    quantized = any(p.weights is not None or p.acts is not None for p in plan)
    prune = cfg.mode == "prune"
    pow2 = cfg.mode == "qat_pow2"
    input_scale = cfg.resolved_input_scale()
    rng = np.random.default_rng(cfg.seed)

    if quantized:
        calib = train_x[:256].astype(np.float64)
        scales = init_scales(net, plan, calib, input_scale, masks=masks)
    else:
        scales = ScaleState(np.ones(len(params)), np.ones(len(params)), input_scale)
    reg = RegState(
        alpha=cfg.alpha, zeta=cfg.zeta, beta_w=cfg.beta_w, beta_a=cfg.beta_a
    )

    # N, the count R is normalized by
    if prune:
        n_reg = sum(layer.W.size for layer in params)
    else:
        n_reg = sum(
            layer.W.size + layer.b.size
            for layer, p in zip(params, plan)
            if p.weights is not None
        )
    widx = [l for l, p in enumerate(plan) if p.weights is not None]
    aidx = [l for l, p in enumerate(plan) if p.acts is not None]
    lr_gamma = cfg.lr_log_gamma if cfg.lr_log_gamma is not None else cfg.lr_log_lam

    adam_w = [Adam(layer.W.shape) for layer in params]
    adam_b = [Adam(layer.b.shape) for layer in params]
    adam_ws = Adam(len(params))
    adam_as = Adam(len(params))
    adam_om = Adam(())
    adam_gw = Adam(())
    adam_ga = Adam(())

    log = TrainLog()
    it = 0
    for epoch in range(cfg.epochs):
        mult = _lr_mult(cfg.lr_schedule, epoch)
        lr_w = cfg.lr * mult
        lr_s = cfg.lr_scales * mult
        lr_om = cfg.lr_log_lam * mult
        lr_g = lr_gamma * mult
        for idx in _batches(rng, train_x.shape[0], cfg.batch_size):
            x = train_x[idx].astype(np.float64) * input_scale
            y = train_y[idx]
            tap = QuantTap(plan, scales) if quantized else None
            logits, caches = net.forward(x, tap)
            task, dlogits = softmax_xent(logits, y)
            if not np.isfinite(task):
                raise RuntimeError(f"non-finite task loss at iteration {it}")
            net.backward(dlogits, caches, tap)
            del caches  # freed before the next forward builds its own

            lam = reg.lam
            if prune:
                weights = [layer.W for layer in params]
                theta = rg.prune_threshold(weights, cfg.prune_ratio)
                r_value = rg.partial_l2(weights, theta, n_reg)
            r_sum = 0.0
            gd = np.zeros(len(params))
            ga = np.zeros(len(params))
            s_total = 0.0
            for l, layer in enumerate(params):
                gW, gb = layer.gW, layer.gb
                if prune:
                    gW = gW + lam * rg.partial_l2_grad(layer.W, theta, n_reg)
                bits = plan[l].weights
                if bits is not None:
                    d = float(scales.weight_scales[l])
                    w_sq, w_pull, gd[l] = rg.weight_terms(
                        layer.W, tap.wcode[l], d, bits, lam, n_reg
                    )
                    b_sq, b_pull = rg.grid_terms(
                        layer.b, tap.bq[l], bias_grid_step(plan, scales, l), lam, n_reg
                    )
                    gW = gW * qz.ste_weight_passmask(layer.W, d, bits) + w_pull
                    gb = gb + b_pull
                    r_sum += w_sq + b_sq
                    if pow2:
                        gd[l] += float(rg.pow2_penalty_grad(d, reg.gamma_w, len(widx)))
                if plan[l].acts is not None:
                    dd = float(scales.act_scales[l])
                    s_l, ga[l] = rg.activation_terms(
                        tap.pre_acts[l], dd, plan[l].acts, reg.zeta
                    )
                    s_total += s_l
                    if pow2:
                        ga[l] += float(rg.pow2_penalty_grad(dd, reg.gamma_a, len(aidx)))
                if masks is not None:
                    gW = gW * masks[l]
                layer.W += adam_w[l].step(gW, lr_w)
                layer.b += adam_b[l].step(gb, lr_w)
                if masks is not None:
                    layer.W[~masks[l]] = 0.0

            row = {"iteration": it, "epoch": epoch, "task": task}
            if prune:
                row.update(prune_l2=r_value, lam=lam, theta=theta)
            else:
                r_value = r_sum / n_reg if n_reg else 0.0
                row.update(weight_msqe=r_value, act_msqe=s_total, lam=lam)
            if quantized:
                scales.weight_scales = np.maximum(
                    scales.weight_scales + adam_ws.step(gd, lr_s), SCALE_FLOOR
                )
                if aidx:
                    scales.act_scales = np.maximum(
                        scales.act_scales + adam_as.step(ga, lr_s), SCALE_FLOOR
                    )
            cost = task
            if quantized or prune:
                # the gamma gradients see the updated scales; the logged cost
                # takes them with the coefficients of this step, before update
                t_w, t_a = _pow2_terms(scales, plan) if pow2 else (None, None)
                cost = reg.cost(task, r_value, s_total, t_w, t_a)
                reg.log_lam = _log_coeff_step(reg.log_lam, r_value, reg.alpha, adam_om, lr_om)
                if pow2:
                    reg.log_gamma_w = _log_coeff_step(
                        reg.log_gamma_w, t_w, reg.beta_w, adam_gw, lr_g
                    )
                    row["pow2_w"] = t_w
                    row["gamma_w"] = reg.gamma_w
                    if t_a is not None:
                        reg.log_gamma_a = _log_coeff_step(
                            reg.log_gamma_a, t_a, reg.beta_a, adam_ga, lr_g
                        )
                        row["pow2_a"] = t_a
                        row["gamma_a"] = reg.gamma_a
            row["cost"] = cost
            if not prune:
                for l in range(len(params)):
                    row[f"w_scale_{l}"] = float(scales.weight_scales[l])
                    row[f"a_scale_{l}"] = float(scales.act_scales[l])
            log.rows.append(row)
            if quantized and cfg.hist_every and it % cfg.hist_every == 0:
                _snapshot_histograms(log, net, plan, scales, it)
            it += 1

        eval_tap = QuantTap(plan, scales) if quantized else None
        acc = evaluate(net, test_x, test_y, input_scale, eval_tap, cfg.eval_batch)
        log.acc_rows.append((epoch, it, acc))
        if prune:
            terms = f"P={r_value:.3e} lam={reg.lam:.3e} theta={theta:.3e}"
        else:
            terms = f"R={r_value:.3e} lam={reg.lam:.3e}"
        print(
            f"{log_prefix}[{cfg.mode} epoch {epoch + 1}/{cfg.epochs}] "
            f"task={task:.4f} {terms} acc={acc:.4f}",
            flush=True,
        )

    diagnostics = {}
    final_acc = log.acc_rows[-1][2]
    if quantized:
        _snapshot_histograms(log, net, plan, scales, it)
        if pow2:  # rounded scales move the grids; snapping (below) keeps the forward
            scales.weight_scales[widx] = qz.round_pow2(scales.weight_scales[widx])
            if aidx:
                scales.act_scales[aidx] = qz.round_pow2(scales.act_scales[aidx])
            eval_tap = QuantTap(plan, scales)
            final_acc = evaluate(net, test_x, test_y, input_scale, eval_tap, cfg.eval_batch)
        diagnostics = _convergence_stats(net, plan, scales)
        if cfg.snap_at_end:
            snap_to_levels(net, scales, plan)
            if masks is not None:
                for layer, keep in zip(params, masks):
                    layer.W[~keep] = 0.0
    elif prune:
        weights = [layer.W for layer in params]
        theta = rg.prune_threshold(weights, cfg.prune_ratio)
        masks = rg.prune_masks(weights, cfg.prune_ratio)
        for layer, keep in zip(params, masks):
            layer.W[~keep] = 0.0
        final_acc = evaluate(net, test_x, test_y, input_scale, None, cfg.eval_batch)
        pruned = sum(int((~k).sum()) for k in masks)
        diagnostics = {
            "theta_final": theta,
            "pruned_fraction": pruned / n_reg,
            "accuracy_after_mask": final_acc,
        }

    return TrainResult(
        net=net,
        scales=scales,
        reg=reg,
        log=log,
        config=cfg,
        prune_mask=masks,
        final_accuracy=final_acc,
        wall_seconds=time.perf_counter() - t0,
        diagnostics=diagnostics,
    )


def _snapshot_histograms(log, net, plan, scales, it):
    # Fig-2 style: 201 uniform bins over [-4*delta, 4*delta] per layer.
    for l, layer in enumerate(net.param_layers):
        if plan[l].weights is None:
            continue
        d = float(scales.weight_scales[l])
        counts, _ = np.histogram(layer.W.ravel(), bins=201, range=(-4.0 * d, 4.0 * d))
        log.hist_rows.append((it, l, d, counts))


def train(net, data, cfg: TrainConfig, masks=None):
    """Run one training stage (or the prune_then_qat composition) on net,
    mutating it in place. data is any object with train_images/train_labels/
    test_images/test_labels uint8 arrays. prune draws its own mask and
    ignores the one given."""
    cfg.validate()
    if cfg.mode == "prune":
        return _run_core(net, data, cfg)
    if cfg.mode == "prune_then_qat":
        stage1 = replace(cfg, mode="prune", epochs=cfg.prune_epochs)
        res1 = _run_core(net, data, stage1, log_prefix="stage1 ")
        stage2 = replace(cfg, mode="qat")
        res2 = _run_core(net, data, stage2, masks=res1.prune_mask, log_prefix="stage2 ")
        res2.prune_log = res1.log
        res2.diagnostics.update(
            {f"prune_{k}": v for k, v in res1.diagnostics.items()}
        )
        return res2
    return _run_core(net, data, cfg, masks=masks)


# --- checkpoints ------------------------------------------------------------


def save_checkpoint(path, net, scales, reg, cfg, masks=None, meta=None):
    """Arrays in an .npz plus a JSON header; enough to rebuild the network
    and resume evaluation or fine-tuning."""
    arrays = {}
    for l, layer in enumerate(net.param_layers):
        arrays[f"w{l}"] = layer.W
        arrays[f"b{l}"] = layer.b
        if masks is not None:
            arrays[f"mask{l}"] = masks[l].astype(np.uint8)
    arrays["weight_scales"] = scales.weight_scales
    arrays["act_scales"] = scales.act_scales
    header = {
        "spec": net_spec(net),
        "config": cfg.to_dict(),
        "input_scale": scales.input_scale,
        "reg": asdict(reg),
        "has_masks": masks is not None,
        "meta": meta or {},
    }
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)


@dataclass
class Checkpoint:
    net: object
    scales: ScaleState
    reg: RegState
    config: TrainConfig
    masks: list | None
    meta: dict


def load_checkpoint(path):
    with np.load(path) as z:
        header = json.loads(bytes(z["header"]).decode())
        net = net_from_spec(header["spec"])
        masks = [] if header["has_masks"] else None
        for l, layer in enumerate(net.param_layers):
            layer.W = np.array(z[f"w{l}"])
            layer.b = np.array(z[f"b{l}"])
            if masks is not None:
                masks.append(z[f"mask{l}"].astype(bool))
        scales = ScaleState(
            np.array(z["weight_scales"]),
            np.array(z["act_scales"]),
            float(header["input_scale"]),
        )
    return Checkpoint(
        net=net,
        scales=scales,
        reg=RegState(**header["reg"]),
        config=TrainConfig.from_dict(header["config"]),
        masks=masks,
        meta=header["meta"],
    )
