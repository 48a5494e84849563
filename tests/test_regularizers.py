"""Regularizer values vs direct-sum references and their gradients vs
central finite differences."""

import numpy as np
import pytest

import oracles
from qatforge import quantizers as qz
from qatforge import regularizers as rg


def _weights_off_boundaries(rng, n, delta, bits, gap=1e-3):
    half = 2 ** (bits - 1)
    bounds = qz.cell_boundaries(delta, bits)
    out = []
    while len(out) < n:
        w = rng.uniform(-(half + 1) * delta, half * delta, size=n)
        d = np.min(np.abs(w[:, None] - bounds[None, :]), axis=1)
        out.extend(w[d > gap * delta].tolist())
    return np.array(out[:n])


def _activation_terms(acts, delta, bits, zeta):
    """activation_terms on the quantizer values a QuantTap would hand it."""
    t = qz.scaled(acts, delta, bits)
    return rg.activation_terms(acts, t, qz.unsigned_code(t, bits), delta, bits, zeta)


def test_msqe_weights_direct_sum():
    rng = np.random.default_rng(0)
    delta, bits = 0.37, 3
    layers = [rng.normal(0, 1, 40), rng.normal(0, 2, (5, 7))]
    levels = oracles.signed_levels(delta, bits)
    total, count = 0.0, 0
    for w in layers:
        for x in w.ravel():
            total += (x - oracles.nearest_level(x, levels)) ** 2
            count += 1
    want = total / count
    got = rg.msqe_weights(layers, delta, bits)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_msqe_weights_frozen():
    # 0.6 -> 0.5 (err 0.1), -0.3 -> -0.5 (err 0.2): (0.01 + 0.04) / 2
    got = rg.msqe_weights([np.array([0.6, -0.3])], 0.5, 2)
    assert abs(got - 0.025) <= 1e-15


def test_msqe_weights_per_layer_scales_and_zero_on_levels():
    rng = np.random.default_rng(1)
    deltas = [0.25, 0.1]
    bits = [4, 2]
    layers = [
        qz.quantize_signed(rng.normal(0, 1, 30), deltas[0], bits[0]),
        qz.quantize_signed(rng.normal(0, 1, 20), deltas[1], bits[1]),
    ]
    assert rg.msqe_weights(layers, deltas, bits) == 0.0
    # moving one weight off its level by e adds e^2/N
    layers[0][0] += 0.01
    assert abs(rg.msqe_weights(layers, deltas, bits) - 0.01**2 / 50) < 1e-18


def test_msqe_pooling_is_order_invariant():
    rng = np.random.default_rng(2)
    w = rng.normal(0, 1, 60)
    a = rg.msqe_weights([w[:20], w[20:]], 0.3, 4)
    b = rg.msqe_weights([w[40:], w[:40]], 0.3, 4)
    assert abs(a - b) <= 1e-15


def test_msqe_weights_grad_matches_fd():
    rng = np.random.default_rng(3)
    delta, bits = 0.21, 4
    w = _weights_off_boundaries(rng, 400, delta, bits)
    grad = rg.msqe_weights_grad(w, delta, bits, w.size)
    h = 1e-4 * delta
    for i in rng.choice(w.size, 60, replace=False):

        def f(v):
            w2 = w.copy()
            w2[i] = v
            return rg.msqe_weights([w2], delta, bits)

        fd = oracles.central_diff(f, w[i], h)
        assert abs(grad[i] - fd) <= 1e-4 * max(abs(fd), 1e-9)


def test_msqe_weights_grad_zero_on_boundary_and_levels():
    delta, bits = 0.5, 3
    bounds = qz.cell_boundaries(delta, bits)
    g = rg.msqe_weights_grad(bounds, delta, bits, bounds.size)
    assert np.all(g == 0.0)
    levels = np.array(oracles.signed_levels(delta, bits))
    assert np.all(rg.msqe_weights_grad(levels, delta, bits, levels.size) == 0.0)


def test_scale_grad_weights_matches_fd_codes_fixed():
    rng = np.random.default_rng(4)
    delta, bits, lam = 0.33, 4, 2.7
    w = _weights_off_boundaries(rng, 300, delta, bits)
    code = qz.code_signed(w, delta, bits)
    got = rg.scale_grad_weights(w, delta, bits, lam, w.size)

    def f(d):
        # codes held fixed at their value for the unperturbed scale
        return lam * float(np.mean((w - d * code) ** 2))

    fd = oracles.central_diff(f, delta, 1e-6 * delta)
    assert abs(got - fd) <= 1e-4 * max(abs(fd), 1e-9)


def test_msqe_activations_direct():
    rng = np.random.default_rng(5)
    delta, bits = 0.12, 4
    a = np.abs(rng.normal(0, 1, (8, 50)))
    levels = oracles.unsigned_levels(delta, bits)
    want = np.mean(
        [(x - oracles.nearest_level(x, levels)) ** 2 for x in a.ravel()]
    )
    assert abs(_activation_terms(a, delta, bits, 1.0)[0] - want) <= 1e-12 * max(1, want)


def test_scale_grad_activations_matches_fd():
    rng = np.random.default_rng(6)
    delta, bits, zeta = 0.2, 3, 1.5
    bounds = qz.cell_boundaries_unsigned(delta, bits)
    a = []
    while len(a) < 200:
        x = rng.uniform(0, (2**bits) * delta, 200)
        d = np.min(np.abs(x[:, None] - bounds[None, :]), axis=1)
        a.extend(x[d > 1e-3 * delta].tolist())
    a = np.array(a[:200])
    code = qz.code_unsigned(a, delta, bits)
    got = _activation_terms(a, delta, bits, zeta)[1]

    def f(d):
        return zeta * float(np.mean((a - d * code) ** 2))

    fd = oracles.central_diff(f, delta, 1e-6 * delta)
    assert abs(got - fd) <= 1e-4 * max(abs(fd), 1e-9)


def test_grid_msqe_and_grad():
    step = 0.125
    v = np.array([0.25, 0.3, -1000.06, 5.0])
    want = 0.0 + 0.05**2 + 0.06**2 + 0.0
    assert abs(rg.grid_msqe_sum(v, step) - want) <= 1e-12

    rng = np.random.default_rng(7)
    vals = rng.normal(0, 3, 200)
    vals = vals[~qz.on_grid_midpoint(vals, step)][:100]
    g = rg.grid_terms(vals, qz.snap_to_grid(vals, step), step, 1.0, 1)[1]
    for i in range(0, 100, 7):

        def f(x):
            v2 = vals.copy()
            v2[i] = x
            return rg.grid_msqe_sum(v2, step)

        fd = oracles.central_diff(f, vals[i], 1e-6 * step)
        assert abs(g[i] - fd) <= 1e-4 * max(abs(fd), 1e-9)
    # midpoint gets no pull
    mid = np.array([1.5 * step])
    assert rg.grid_terms(mid, qz.snap_to_grid(mid, step), step, 1.0, 1)[1][0] == 0.0


def test_pow2_penalty_brute_force_and_grad():
    rng = np.random.default_rng(8)
    scales = np.exp(rng.uniform(-8, 4, 50))
    want = np.mean([(s - oracles.brute_round_pow2(s)) ** 2 for s in scales])
    got = rg.pow2_penalty(scales)
    assert abs(got - want) <= 1e-12 * max(1, want)
    assert rg.pow2_penalty(np.array([0.5, 2.0, 64.0])) == 0.0

    gamma, L = 1.9, 4
    for s in scales[:20]:
        p0 = qz.round_pow2(s)
        got_g = rg.pow2_penalty_grad(np.array([s]), gamma, L)[0]

        def f(x):
            return (gamma / L) * (x - p0) ** 2

        fd = oracles.central_diff(f, s, 1e-7 * s)
        assert abs(got_g - fd) <= 1e-4 * max(abs(fd), 1e-9)
    # tie points 3*2^k get no pull
    assert rg.pow2_penalty_grad(np.array([3.0]), gamma, L)[0] == 0.0


def test_prune_threshold_brute_force():
    assert rg.prune_threshold([np.array([1.0, 2.0, 3.0, 4.0])], 0.5) == 2.0
    assert rg.prune_threshold([np.array([3.0, 1.0, 2.0])], 1 / 3) == 1.0
    assert rg.prune_threshold([np.array([1.0, 2.0])], 0.0) == 0.0
    rng = np.random.default_rng(9)
    layers = [rng.normal(0, 1, 57), rng.normal(0, 2, (3, 11))]
    mags = np.sort(np.abs(np.concatenate([w.ravel() for w in layers])))
    for ratio in (0.1, 0.5, 0.9, 0.99):
        k = int(np.ceil(ratio * mags.size))
        want = mags[k - 1]
        got = rg.prune_threshold(layers, ratio)
        assert got == want
        kept = mags > got
        # the kept fraction never exceeds 1 - ratio
        assert kept.sum() <= mags.size * (1 - ratio) + 1e-9


def test_prune_threshold_with_many_ties():
    rng = np.random.default_rng(10)
    layers = [rng.choice([0.0, 0.5, -0.5, 1.0, -2.0], (7, 9)), rng.choice([0.0, -1.0, 2.0], 40)]
    mags = np.sort(np.abs(np.concatenate([w.ravel() for w in layers])))
    for k in range(1, mags.size):
        ratio = (k - 0.5) / mags.size  # ceil(ratio * N) == k
        assert rg.prune_threshold(layers, ratio) == mags[k - 1]


def test_partial_l2_frozen_examples():
    # strict band: only |0.1| < 0.2 contributes -> 0.01/4
    got = rg.partial_l2([np.array([0.1, -0.2, 0.3, -0.4])], 0.2, 4)
    assert abs(got - 0.0025) <= 1e-15
    got = rg.partial_l2([np.array([0.1, 0.15])], 0.2, 2)
    assert abs(got - 0.01625) <= 1e-15
    assert rg.partial_l2([np.array([0.1, 0.15])], 0.0, 2) == 0.0


def test_partial_l2_and_grad():
    w = np.array([0.1, -0.2, 0.5, -3.0])
    theta = 0.3
    # only |w| < 0.3 contribute: 0.01 + 0.04 over N=4
    assert abs(rg.partial_l2([w], theta, 4) - 0.0125) <= 1e-15
    g = rg.partial_l2_grad(w, theta, 4)
    assert np.allclose(g, [2 * 0.1 / 4, 2 * -0.2 / 4, 0.0, 0.0], atol=1e-15)
    # band edge |w| = theta is outside
    assert rg.partial_l2_grad(np.array([0.3]), 0.3, 1)[0] == 0.0

    rng = np.random.default_rng(10)
    vals = rng.normal(0, 1, 200)
    vals = vals[np.abs(np.abs(vals) - theta) > 1e-3][:100]
    grad = rg.partial_l2_grad(vals, theta, vals.size)
    for i in range(0, 100, 9):

        def f(x):
            v2 = vals.copy()
            v2[i] = x
            return rg.partial_l2([v2], theta, v2.size)

        fd = oracles.central_diff(f, vals[i], 1e-7)
        assert abs(grad[i] - fd) <= 1e-4 * max(abs(fd), 1e-9)


def test_validation_errors():
    with pytest.raises(ValueError):
        rg.msqe_weights([], 0.5, 4)
    with pytest.raises(ValueError):
        rg.msqe_weights([np.ones(3)], -0.5, 4)
    with pytest.raises(ValueError):
        rg.msqe_weights([np.ones(3)], [0.5, 0.5], 4)
    with pytest.raises(ValueError):
        _activation_terms(np.array([]), 0.5, 4, 1.0)
    with pytest.raises(ValueError):
        rg.prune_threshold([np.ones(3)], 1.0)
    with pytest.raises(ValueError):
        rg.prune_threshold([np.ones(3)], -0.1)
    with pytest.raises(ValueError):
        rg.partial_l2([np.ones(3)], -1.0, 3)
    with pytest.raises(ValueError):
        rg.pow2_penalty(np.array([]))
    with pytest.raises(ValueError):
        rg.pow2_penalty(np.array([0.5, -1.0]))


def test_deterministic_reductions():
    rng = np.random.default_rng(11)
    layers = [rng.normal(0, 1, 1000), rng.normal(0, 1, 777)]
    a = rg.msqe_weights(layers, 0.3, 4)
    b = rg.msqe_weights([w.copy() for w in layers], 0.3, 4)
    assert a == b
