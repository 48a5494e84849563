"""Regularizers that pull weights onto quantization grids, scales onto powers
of two, and small weights to zero, plus their training gradients.

Gradient conventions follow the trainer's update rules: the quantizer's
integer code is treated as locally constant (it is piecewise constant in both
the value and the scale), and contributions from points sitting exactly on a
cell boundary are dropped, because the true objective is not differentiable
there. All reductions are plain float64 sums in array order, so results are
deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .quantizers import (
    on_grid_midpoint,
    on_pow2_boundary,
    round_pow2,
    scaled,
    signed_boundary,
    signed_code,
    snap_to_grid,
    unsigned_boundary,
)


def _as_layer_list(value, num_layers):
    if np.isscalar(value):
        return [value] * num_layers
    value = list(value)
    if len(value) != num_layers:
        raise ValueError(f"expected {num_layers} per-layer values, got {len(value)}")
    return value


def _error(x, delta, code):
    """x - delta * code, in one buffer."""
    err = np.multiply(code, delta)
    return np.subtract(x, err, out=err) if err.ndim else x - err


def weight_terms(w, t, code, delta, bits, lam, count):
    """The MSQE terms of one weight layer, given t = w/delta and the
    quantizer codes of t.

    Returns (sum of (w - Q(w))^2, the pull (2*lam/N)(w - Q(w)) on each
    weight, the scale gradient -(2*lam/N) * sum (w - Q(w)) * code). Both
    gradients hold the code fixed and drop points on cell boundaries; the
    0/1 mask goes on the error first, which gives the same products, signed
    zeros included.
    """
    err = _error(w, delta, code)
    kept = err * ~signed_boundary(t, bits)
    coeff = 2.0 * lam / count
    scale_grad = -coeff * float(np.sum(kept * code))
    return float(np.sum(err * err)), coeff * kept, scale_grad


def grid_terms(values, snapped, step, lam, count):
    """The MSQE terms of values on the unclipped grid of step (biases riding
    the accumulator grid), given their snapped copies: (sum of squared
    distances, the pull (2*lam/N)(v - snapped), zero at grid midpoints)."""
    err = values - snapped
    pull = (2.0 * lam / count) * err * ~on_grid_midpoint(values, step)
    return float(np.sum(err * err)), pull


def activation_terms(acts, t, code, delta, bits, zeta):
    """The MSQE terms of one activation batch, given t = acts/delta and the
    quantizer codes of t: (mean of (a - Q(a))^2, the scale gradient
    -(2*zeta/|A|) * sum (a - Q(a)) * code), the code held fixed and points
    on cell boundaries dropped."""
    acts = np.asarray(acts, dtype=np.float64)
    if acts.size == 0:
        raise ValueError("empty activation set")
    err = _error(acts, delta, code)
    kept = err * ~unsigned_boundary(t, bits)
    scale_grad = -(2.0 * zeta / acts.size) * float(np.sum(kept * code))
    return float(np.mean(err * err)), scale_grad


def _weight_terms(w, delta, bits, lam, count):
    w = np.asarray(w, dtype=np.float64)
    t = scaled(w, delta, bits)
    return weight_terms(w, t, signed_code(t, bits), delta, bits, lam, count)


def msqe_weights(weights, deltas, bits):
    """Mean squared quantization error over all layers pooled.

    weights: sequence of arrays, one per layer. deltas and bits may be
    scalars or per-layer sequences. Returns (1/N) * sum over every weight of
    (w - Q(w))^2 with N the total weight count; zero exactly when every
    weight sits on a level.
    """
    weights = list(weights)
    deltas = _as_layer_list(deltas, len(weights))
    bits = _as_layer_list(bits, len(weights))
    if any(d <= 0 for d in deltas):
        raise ValueError("quantizer scale must be positive")
    total = 0.0
    count = 0
    for w, d, b in zip(weights, deltas, bits):
        total += _weight_terms(w, d, b, 1.0, 1)[0]
        count += np.size(w)
    if count == 0:
        raise ValueError("no weights given")
    return total / count


def msqe_weights_grad(w, delta, bits, count):
    """(2/N)(w - Q(w)) away from cell boundaries, 0 on them."""
    return _weight_terms(w, delta, bits, 1.0, count)[1]


def grid_msqe_sum(values, step):
    """Sum of squared distances to the nearest multiple of step (unclipped
    grid; used for biases riding the accumulator scale)."""
    values = np.asarray(values, dtype=np.float64)
    return grid_terms(values, snap_to_grid(values, step), step, 1.0, 1)[0]


def scale_grad_weights(w, delta, bits, lam, count):
    """d/d(delta) of lam * (1/N) sum (w - delta*code)^2, code held fixed:
    -(2*lam/N) * sum (w - Q(w)) * code, boundary points excluded."""
    return _weight_terms(w, delta, bits, lam, count)[2]


def pow2_penalty(scales):
    """Mean squared distance of the scales to their nearest power of two."""
    s = np.asarray(scales, dtype=np.float64)
    if s.size == 0:
        raise ValueError("no scales given")
    if not np.all(s > 0):
        raise ValueError("scales must be positive")
    err = s - round_pow2(s)
    return float(np.mean(err * err))


def pow2_penalty_grad(scale, gamma, num_layers):
    """The additive scale-gradient term (2*gamma/L)(delta - round_pow2(delta)),
    zero at powers of two and at the tie points 3 * 2^k."""
    scale = np.asarray(scale, dtype=np.float64)
    keep = ~on_pow2_boundary(scale)
    return (2.0 * gamma / num_layers) * (scale - round_pow2(scale)) * keep


def prune_threshold(weights, ratio):
    """Nearest-rank percentile of the pooled weight magnitudes: the k-th
    smallest |w| with k = ceil(ratio * N); 0.0 when ratio is 0."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"prune ratio must lie in [0, 1), got {ratio}")
    mags = np.concatenate([np.abs(np.asarray(w)).ravel() for w in weights])
    k = math.ceil(ratio * mags.size)
    if k:
        mags.partition(k - 1)
    return 0.0 if k == 0 else float(mags[k - 1])


def prune_masks(weights, ratio):
    """Per-layer keep-masks that drop exactly k = ceil(ratio * N) of the
    pooled weights: every |w| below prune_threshold's theta, then the first
    ties at theta by position (a stable rank), so ties never prune more."""
    theta = prune_threshold(weights, ratio)
    mags = np.concatenate([np.abs(np.asarray(w)).ravel() for w in weights])
    keep, ties = mags > theta, np.flatnonzero(mags == theta)
    keep[ties[math.ceil(ratio * mags.size) - np.count_nonzero(mags < theta) :]] = True
    ends = np.cumsum([np.size(w) for w in weights])[:-1]
    return [m.reshape(np.shape(w)) for w, m in zip(weights, np.split(keep, ends))]


def _band_terms(weights, theta, count):
    """(R, pulls) of the partial L2 below theta, from one |w| < theta mask
    per layer."""
    total, pulls = 0.0, []
    for w in weights:
        w = np.asarray(w, dtype=np.float64)
        inside = np.abs(w) < theta
        total += float(np.sum(w[inside] ** 2))
        pulls.append((2.0 / count) * w * inside)
    return total / count, pulls


def partial_l2(weights, theta, count):
    """(1/N) * sum of w^2 over weights strictly inside the band |w| < theta."""
    if theta < 0:
        raise ValueError("threshold must be non-negative")
    return _band_terms(weights, theta, count)[0]


def partial_l2_grad(w, theta, count):
    """(2/N) * w inside the band, 0 outside; the boundary |w| = theta is
    outside the strict inequality so it gets no pull."""
    return _band_terms([w], theta, count)[1][0]


def prune_terms(weights, ratio, count):
    """The prune regularizer of one step: (theta, R, pulls), with theta =
    prune_threshold(weights, ratio), R = partial_l2(weights, theta, count)
    and pulls[l] = partial_l2_grad(weights[l], theta, count)."""
    theta = prune_threshold(weights, ratio)
    return (theta, *_band_terms(weights, theta, count))
