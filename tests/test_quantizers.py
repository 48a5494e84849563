"""Quantizer primitives vs exhaustive brute-force references."""

import numpy as np
import pytest

import oracles
from qatforge import quantizers as qz


def _off_boundary(rng, lo, hi, boundaries, count, min_gap):
    """Uniform samples on [lo, hi] at least min_gap from every boundary."""
    out = []
    while len(out) < count:
        x = rng.uniform(lo, hi, size=count)
        dist = np.min(np.abs(x[:, None] - boundaries[None, :]), axis=1)
        out.extend(x[dist > min_gap].tolist())
    return np.array(out[:count])


def test_round_half_away_frozen():
    cases = {
        0.5: 1.0,
        1.5: 2.0,
        2.5: 3.0,
        4.5: 5.0,
        -0.5: -1.0,
        -2.5: -3.0,
        -4.5: -5.0,
        4.4: 4.0,
        -4.4: -4.0,
        0.0: 0.0,
    }
    for x, want in cases.items():
        assert qz.round_half_away(x) == want
    # differs from banker's rounding on every odd half
    assert qz.round_half_away(2.5) != np.round(2.5)


def test_round_half_away_matches_sign_floor_reference():
    specials = [0.0, -0.0, 0.2, -0.2, 0.5, -0.5, 2.5, -2.5,
                0.49999999999999994, -0.49999999999999994, np.inf, -np.inf]
    rng = np.random.default_rng(11)
    x = np.concatenate([specials, rng.normal(0, 4, 10**5) * rng.choice([1e-3, 1, 1e3], 10**5)])
    def ref(v):
        return np.sign(v) * np.floor(np.abs(v) + 0.5)

    # bitwise: -0.0 maps to +0.0 and -0.2 to -0.0, as in the reference
    assert np.array_equal(qz.round_half_away(x).view(np.int64), ref(x).view(np.int64))
    for v in (2.5, -0.2, np.asarray(-0.0)):
        got = qz.round_half_away(v)
        assert type(got) is np.float64
        assert got.view(np.int64) == ref(v).view(np.int64)


def test_signed_codes_frozen_examples():
    assert qz.code_signed(0.5, 0.5, 2) == 1.0
    assert qz.quantize_signed(0.5, 0.5, 2) == 0.5
    assert qz.code_signed(-1.0, 0.5, 2) == -2.0
    assert qz.quantize_signed(-1.0, 0.5, 2) == -1.0
    # clipping at both rails
    assert qz.code_signed(10.0, 0.5, 2) == 1.0
    assert qz.code_signed(-10.0, 0.5, 2) == -2.0
    # ties round away from zero in code space
    assert qz.code_signed(0.75, 0.5, 4) == 2.0
    assert qz.code_signed(-0.75, 0.5, 4) == -2.0


def test_signed_matches_brute_force_off_ties():
    rng = np.random.default_rng(7)
    for bits in (2, 3, 4, 8):
        for delta in (0.013, 0.25, 1.0, 3.7):
            half = 2 ** (bits - 1)
            bounds = qz.cell_boundaries(delta, bits)
            xs = _off_boundary(
                rng, -1.5 * half * delta, 1.5 * half * delta, bounds, 500, 1e-9 * delta
            )
            levels = oracles.signed_levels(delta, bits)
            want = np.array([oracles.nearest_level(x, levels) for x in xs])
            got = qz.quantize_signed(xs, delta, bits)
            assert np.array_equal(got, want)


def test_signed_ties_go_away_from_zero():
    # exact midpoints with a power-of-two scale are representable
    delta = 0.5
    for bits in (2, 3, 4):
        bounds = qz.cell_boundaries(delta, bits)
        q = qz.quantize_signed(bounds, delta, bits)
        for x, lv in zip(bounds, q):
            assert abs(lv) >= abs(x), (x, lv)
            assert abs(abs(lv) - abs(x)) == delta / 2


def test_unsigned_matches_brute_force():
    rng = np.random.default_rng(11)
    for bits in (1, 2, 4, 8):
        for delta in (0.04, 1.0):
            top = (2**bits - 1) * delta
            bounds = qz.cell_boundaries_unsigned(delta, bits)
            xs = _off_boundary(rng, -delta, top + delta, bounds, 400, 1e-9 * delta)
            levels = oracles.unsigned_levels(delta, bits)
            want = np.array([oracles.nearest_level(x, levels) for x in xs])
            assert np.array_equal(qz.quantize_unsigned(xs, delta, bits), want)
    # negatives clip to zero
    assert qz.quantize_unsigned(-3.0, 0.5, 4) == 0.0


def test_binary_quantizer():
    delta = 0.7
    xs = np.array([-5.0, -0.1, 0.0, 0.1, 5.0])
    assert np.array_equal(
        qz.quantize_signed(xs, delta, 1), delta * np.array([-1, -1, 1, 1, 1.0])
    )
    # output set is exactly {-delta, +delta}; zero maps to +delta
    assert qz.quantize_signed(0.0, delta, 1) == delta


def test_idempotent_and_monotone():
    rng = np.random.default_rng(3)
    x = np.sort(rng.normal(0, 2, size=1000))
    for bits in (1, 2, 4):
        q = qz.quantize_signed(x, 0.3, bits)
        assert np.array_equal(qz.quantize_signed(q, 0.3, bits), q)
        assert np.all(np.diff(q) >= 0)
    u = qz.quantize_unsigned(x, 0.3, 4)
    assert np.array_equal(qz.quantize_unsigned(u, 0.3, 4), u)
    assert np.all(np.diff(u) >= 0)


def test_snap_to_grid_unclipped():
    assert qz.snap_to_grid(0.25, 0.125) == 0.25
    # no clipping, arbitrarily large multiples allowed
    assert qz.snap_to_grid(1000.06, 0.125) == 1000.0
    assert qz.snap_to_grid(-1000.06, 0.125) == -1000.0
    rng = np.random.default_rng(5)
    v = rng.normal(0, 50, 300)
    snapped = qz.snap_to_grid(v, 0.01)
    assert np.max(np.abs(snapped - v)) <= 0.005 + 1e-12


def test_cell_boundaries_are_jump_points():
    for bits in (2, 3, 4):
        delta = 0.25
        bounds = qz.cell_boundaries(delta, bits)
        assert bounds.size == 2**bits - 1
        eps = 1e-9 * delta
        below = qz.quantize_signed(bounds - eps, delta, bits)
        above = qz.quantize_signed(bounds + eps, delta, bits)
        assert np.all(above - below == delta)
        # boundary membership is exact at the jumps and nowhere nearby
        assert np.all(qz.on_cell_boundary(bounds, delta, bits))
        assert not np.any(qz.on_cell_boundary(bounds + eps, delta, bits))
        assert not np.any(qz.on_cell_boundary(bounds - eps, delta, bits))
    # points past the clip range are not boundaries
    assert not qz.on_cell_boundary(100.0, 0.25, 4)
    assert not qz.on_cell_boundary(-100.0, 0.25, 4)


def test_unsigned_boundaries():
    delta = 0.5
    bits = 3
    bounds = qz.cell_boundaries_unsigned(delta, bits)
    assert bounds.size == 2**bits - 1
    assert np.all(qz.on_cell_boundary_unsigned(bounds, delta, bits))
    assert not np.any(qz.on_cell_boundary_unsigned(bounds + 1e-9, delta, bits))
    assert not qz.on_cell_boundary_unsigned((2**bits + 0.5) * delta, delta, bits)


def test_grid_midpoints():
    assert qz.on_grid_midpoint(0.1875, 0.125)  # 1.5 steps
    assert not qz.on_grid_midpoint(0.25, 0.125)
    assert qz.on_grid_midpoint(-0.0625, 0.125)


def test_ste_weight_passband():
    delta = 0.3
    for bits in (2, 4, 8):
        half = 2 ** (bits - 1)
        lo, hi = (-half - 0.5) * delta, (half - 0.5) * delta
        inside = np.array([lo, 0.0, hi])
        eps = 1e-9
        assert np.all(qz.ste_weight_passmask(inside, delta, bits) == 1.0)
        assert qz.ste_weight_passmask(hi + eps, delta, bits) == 0.0
        assert qz.ste_weight_passmask(lo - eps, delta, bits) == 0.0
    # binary band is [-2*delta, 2*delta]
    assert qz.ste_weight_passmask(2 * delta, delta, 1) == 1.0
    assert qz.ste_weight_passmask(2 * delta + 1e-9, delta, 1) == 0.0
    assert qz.ste_weight_passmask(-2 * delta, delta, 1) == 1.0


def test_ste_activation_passband():
    delta, bits = 0.25, 4
    top = (2**bits - 1) * delta
    assert qz.ste_activation_passmask(0.0, delta, bits) == 1.0
    assert qz.ste_activation_passmask(top, delta, bits) == 1.0
    assert qz.ste_activation_passmask(top + 1e-9, delta, bits) == 0.0
    assert qz.ste_activation_passmask(-1e-12, delta, bits) == 0.0


def test_round_pow2_matches_brute_force():
    rng = np.random.default_rng(13)
    xs = np.exp(rng.uniform(-20, 20, size=2000))
    want = np.array([oracles.brute_round_pow2(x) for x in xs])
    assert np.array_equal(qz.round_pow2(xs), want)


def test_round_pow2_frozen_and_ties():
    assert qz.round_pow2(40.0) == 32.0
    assert qz.round_pow2(0.7) == 0.5
    assert qz.round_pow2(1.0) == 1.0
    # x = 3 * 2^k sits exactly between 2^(k+1) and 2^(k+2); ties go up
    for k in (-5, 0, 7):
        tie = 3.0 * 2.0**k
        assert qz.round_pow2(tie) == 2.0 ** (k + 2)
        assert qz.on_pow2_boundary(tie)
        assert qz.round_pow2(tie * (1 + 1e-9)) == 2.0 ** (k + 2)
        assert qz.round_pow2(tie * (1 - 1e-9)) == 2.0 ** (k + 1)
        assert not qz.on_pow2_boundary(tie * (1 + 1e-9))


def test_is_pow2():
    assert qz.is_pow2(1.0) and qz.is_pow2(0.25) and qz.is_pow2(4096.0)
    assert not qz.is_pow2(3.0)
    assert not qz.is_pow2(0.3)
    assert not qz.is_pow2(0.0)
    assert not qz.is_pow2(-2.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        qz.quantize_signed(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        qz.quantize_signed(1.0, -0.5, 4)
    with pytest.raises(ValueError):
        qz.quantize_signed(1.0, 0.5, 0)
    with pytest.raises(ValueError):
        qz.quantize_signed(1.0, 0.5, 17)
    with pytest.raises(ValueError):
        qz.round_pow2(-1.0)
    with pytest.raises(ValueError):
        qz.round_pow2(0.0)
    with pytest.raises(ValueError):
        qz.QuantSpec(weight_bits=0, act_bits=4)


def test_quantspec_fields():
    spec = qz.QuantSpec(weight_bits=4, act_bits=8)
    assert spec.weight_bits == 4 and spec.act_bits == 8
