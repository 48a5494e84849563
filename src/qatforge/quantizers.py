"""Uniform quantizers and the pointwise helpers their training rules need.

Everything here is pure and vectorized: inputs may be scalars or arrays and
the result follows numpy broadcasting, always in float64. The convention
throughout is round-half-away-from-zero, not banker's rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_BITS = 16


def _check_scale(delta):
    if not np.all(np.asarray(delta) > 0):
        raise ValueError("quantizer scale must be positive")


def _check_bits(bits):
    if int(bits) != bits or not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bit-width must be an integer in [1, {MAX_BITS}], got {bits}")


@dataclass(frozen=True)
class QuantSpec:
    """Bit-widths for one run: weights and activations."""

    weight_bits: int
    act_bits: int

    def __post_init__(self):
        _check_bits(self.weight_bits)
        _check_bits(self.act_bits)


def round_half_away(x):
    """sign(x) * floor(|x| + 0.5); ties go away from zero. Computed in one
    buffer; as with sign(x), -0.0 maps to +0.0 and (-0.5, 0) to -0.0."""
    x = np.asarray(x, dtype=np.float64)
    r = np.abs(x, out=np.empty_like(x))
    r += 0.5
    np.floor(r, out=r)
    np.copysign(r, x, out=r)
    r[x == 0] = 0.0
    return r if r.ndim else r[()]


def code_signed(x, delta, bits):
    """Integer code of the signed quantizer: clip(round(x/delta)) into
    [-2^(bits-1), 2^(bits-1)-1]; for bits == 1 the code is the sign, with
    sign(0) taken as +1 so the output set is exactly {-1, +1}."""
    _check_scale(delta)
    _check_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    if bits == 1:
        return np.where(x < 0, -1.0, 1.0)
    half = 2 ** (bits - 1)
    return np.clip(round_half_away(x / delta), -half, half - 1)


def quantize_signed(x, delta, bits):
    """delta * code_signed(x); idempotent, non-decreasing in x."""
    return delta * code_signed(x, delta, bits)


def code_unsigned(x, delta, bits):
    """clip(round(x/delta)) into [0, 2^bits - 1]."""
    _check_scale(delta)
    _check_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    return np.clip(round_half_away(x / delta), 0, 2**bits - 1)


def quantize_unsigned(x, delta, bits):
    """delta * code_unsigned(x); clips negatives to zero."""
    return delta * code_unsigned(x, delta, bits)


def snap_to_grid(x, step):
    """Nearest multiple of step, no clipping (bias grids, wide ranges)."""
    _check_scale(step)
    return step * round_half_away(np.asarray(x, dtype=np.float64) / step)


def ste_weight_passmask(w, delta, bits):
    """1.0 where the task gradient passes through quantize_signed.

    The pass band in units of w/delta is [-2^(bits-1)-1/2, 2^(bits-1)-1/2]
    for bits >= 2 (the clip range widened by half a cell on each side) and
    [-2, 2] for bits == 1. Both edges are included.
    """
    _check_scale(delta)
    _check_bits(bits)
    t = np.asarray(w, dtype=np.float64) / delta
    if bits == 1:
        lo, hi = -2.0, 2.0
    else:
        half = float(2 ** (bits - 1))
        lo, hi = -half - 0.5, half - 0.5
    return ((t >= lo) & (t <= hi)).astype(np.float64)


def ste_activation_passmask(x, delta, bits):
    """1.0 where x/delta lies in the unsigned clip range [0, 2^bits - 1],
    both edges included; the backward rule of quantize_unsigned."""
    _check_scale(delta)
    _check_bits(bits)
    t = np.asarray(x, dtype=np.float64) / delta
    return ((t >= 0.0) & (t <= float(2**bits - 1))).astype(np.float64)


def cell_boundaries(delta, bits):
    """Discontinuity points of quantize_signed: the midpoints between the
    2^bits levels, ((2i+1-2^bits)/2)*delta for i = 0..2^bits-2; {0} for
    bits == 1."""
    _check_scale(delta)
    _check_bits(bits)
    if bits == 1:
        return np.array([0.0])
    i = np.arange(2**bits - 1, dtype=np.float64)
    return ((2.0 * i + 1.0 - 2**bits) / 2.0) * delta


def cell_boundaries_unsigned(delta, bits):
    """Midpoints of the unsigned quantizer: (k + 1/2)*delta, k = 0..2^bits-2."""
    _check_scale(delta)
    _check_bits(bits)
    k = np.arange(2**bits - 1, dtype=np.float64)
    return (k + 0.5) * delta


def _is_odd_half_integer(t):
    # Exactly representable odd multiples of 1/2; tested in the scaled
    # domain so no reconstructed boundary value is compared for equality.
    # An integer f is odd iff f/2 is not an integer (cheaper than fmod).
    u = 2.0 * np.asarray(t)
    f = np.floor(u)
    half_f = 0.5 * f
    return (u == f) & (np.floor(half_f) != half_f)


def on_cell_boundary(x, delta, bits):
    """Exact membership of x in the signed boundary set (a measure-zero mask
    used to drop regularizer gradients where the objective has a kink)."""
    _check_scale(delta)
    _check_bits(bits)
    t = np.asarray(x, dtype=np.float64) / delta
    if bits == 1:
        return t == 0.0
    half = float(2 ** (bits - 1))
    return _is_odd_half_integer(t) & (t >= -half + 0.5) & (t <= half - 1.5)


def on_cell_boundary_unsigned(x, delta, bits):
    """Exact membership in the unsigned boundary set {(k+1/2)*delta}."""
    _check_scale(delta)
    _check_bits(bits)
    t = np.asarray(x, dtype=np.float64) / delta
    return _is_odd_half_integer(t) & (t >= 0.5) & (t <= float(2**bits - 1) - 0.5)


def on_grid_midpoint(x, step):
    """Exact half-integer points of the unclipped grid snap_to_grid uses."""
    _check_scale(step)
    t = np.asarray(x, dtype=np.float64) / step
    return _is_odd_half_integer(t)


def round_pow2(x):
    """Nearest power of two. frexp writes x = mant * 2^e with mant in
    [0.5, 1); the midpoint between 2^(e-1) and 2^e sits at mant = 0.75
    exactly, and ties (x = 3 * 2^k) round to the larger power."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x) & (x > 0)):
        raise ValueError("round_pow2 requires positive finite input")
    mant, e = np.frexp(x)
    return np.where(mant >= 0.75, np.ldexp(1.0, e), np.ldexp(1.0, e - 1))


def on_pow2_boundary(x):
    """x exactly of the form 3 * 2^k, equidistant between two powers."""
    mant, _ = np.frexp(np.asarray(x, dtype=np.float64))
    return mant == 0.75


def is_pow2(x):
    """True where x is an exact power of two."""
    x = np.asarray(x, dtype=np.float64)
    mant, _ = np.frexp(x)
    return (x > 0) & (mant == 0.5)
