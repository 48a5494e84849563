"""The one-pass step values equal the standalone functions bit for bit: the
quantizer values a QuantTap keeps (t = x/delta, codes, pass and boundary
masks), the prune terms, and Adam's blocked update."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qatforge import quantizers as qz
from qatforge import regularizers as rg
from qatforge.fixedpoint import LayerBits, QuantTap, ScaleState
from qatforge.training import Adam

DELTAS = (0.25, 0.1, 3.0, 1e-3)


@st.composite
def _tensors(draw):
    """(values, delta, weight bits, act bits): values on exact cell
    boundaries (k + 1/2)delta, on levels, at and around the clip edges, +-0.0
    and arbitrary floats."""
    delta = draw(st.sampled_from(DELTAS))
    wbits = draw(st.integers(1, 8))
    abits = draw(st.integers(1, 8))
    top = 2**max(wbits, abits)
    edges = [(top // 2 + e) * delta for e in (-1.5, -1, -0.5, 0, 0.5)]
    element = st.one_of(
        st.integers(-2 * top, 2 * top).map(lambda k: (k + 0.5) * delta),
        st.integers(-2 * top, 2 * top).map(lambda k: k * delta),
        st.sampled_from(edges + [-e for e in edges] + [0.0, -0.0, 2 * delta, -2 * delta]),
        st.floats(-4.0 * top * delta, 4.0 * top * delta, allow_nan=False),
    )
    shape = draw(st.sampled_from([(7,), (2, 5), (2, 3, 2, 2)]))
    values = draw(st.lists(element, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values).reshape(shape), delta, wbits, abits


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(_tensors())
def test_tap_values_equal_the_standalone_quantizers(case):
    x, delta, wbits, abits = case
    scales = ScaleState(np.array([delta]), np.array([delta]), 1.0)
    tap = QuantTap([LayerBits(wbits, abits)], scales)
    wq, _ = tap.weights(0, x, np.zeros(1))
    t, code = tap.wt[0], tap.wcode[0]
    assert _same(code, qz.code_signed(x, delta, wbits))
    assert _same(wq, qz.quantize_signed(x, delta, wbits))
    assert _same(qz.weight_pass(t, wbits), qz.ste_weight_passmask(x, delta, wbits))
    assert _same(qz.signed_boundary(t, wbits), qz.on_cell_boundary(x, delta, wbits))

    xq = tap.activation(0, x)
    t, code = tap.at[0], tap.acode[0]
    assert tap.pre_acts[0] is x
    assert _same(code, qz.code_unsigned(x, delta, abits))
    assert _same(xq, qz.quantize_unsigned(x, delta, abits))
    assert _same(qz.unsigned_boundary(t, abits), qz.on_cell_boundary_unsigned(x, delta, abits))
    g = np.linspace(-1.0, 1.0, x.size).reshape(x.shape)
    assert _same(tap.activation_backward(0, g), g * qz.ste_activation_passmask(x, delta, abits))

    # the terms on the tap's values equal the terms computed from scratch
    sq, pull, scale_grad = rg.weight_terms(x, tap.wt[0], tap.wcode[0], delta, wbits, 1.0, 11)
    assert sq / x.size == rg.msqe_weights([x], delta, wbits)
    assert _same(pull, rg.msqe_weights_grad(x, delta, wbits, 11))
    assert scale_grad == rg.scale_grad_weights(x, delta, wbits, 1.0, 11)


def _odd_half_exact(v):
    if not np.isfinite(v):
        return False
    q = Fraction(float(v)) * 2
    return q.denominator == 1 and q.numerator % 2 == 1


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**54), 2**54).map(lambda k: k / 2),
    st.integers(-(2**20), 2**20).map(lambda k: np.nextafter(k + 0.5, np.inf)),
    st.integers(-(2**20), 2**20).map(lambda k: np.nextafter(k + 0.5, -np.inf)),
))
def test_odd_half_integer_test_is_exact(v):
    assert bool(qz._is_odd_half_integer(np.array([v]))[0]) == _odd_half_exact(v)
    assert bool(qz._is_odd_half_integer(np.float64(v))) == _odd_half_exact(v)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 0.1, -0.1, 0.25, -0.3, 0.3, 1.5, -2.0]) | st.floats(-3, 3),
                 min_size=1, max_size=12),
        min_size=1, max_size=4,
    ),
    st.floats(0.0, 0.999),
)
def test_prune_terms_equal_the_standalone_functions(layers, ratio):
    weights = [np.array(w) for w in layers]
    count = sum(w.size for w in weights)
    theta, r_value, pulls = rg.prune_terms(weights, ratio, count)
    assert theta == rg.prune_threshold(weights, ratio)
    assert r_value == rg.partial_l2(weights, theta, count)
    assert len(pulls) == len(weights)
    for w, pull in zip(weights, pulls):
        assert _same(pull, rg.partial_l2_grad(w, theta, count))


def _adam_reference(opt, grad, lr):
    """Adam.step over the whole array at once, the same operations in the
    same order."""
    grad = np.asarray(grad, dtype=np.float64)
    opt.t += 1
    b1, b2, t = opt.beta1, opt.beta2, opt.t
    m, v = opt.m, opt.v
    out = np.multiply(grad, 1.0 - b1, out=np.empty_like(grad))
    m *= b1
    m += out
    np.multiply(grad, 1.0 - b2, out=out)
    out *= grad
    v *= b2
    v += out
    den = np.divide(v, 1.0 - b2**t, out=np.empty_like(v))
    np.sqrt(den, out=den)
    den += opt.eps
    np.divide(m, 1.0 - b1**t, out=out)
    out *= -lr
    out /= den
    return out


@pytest.mark.parametrize("shape,block", [
    ((), 4), ((1,), 4), ((3,), 4), ((4,), 4), ((9,), 4), ((2, 5), 4),
    ((Adam.BLOCK + 5,), Adam.BLOCK), ((3, 7), Adam.BLOCK),
])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lr=st.sampled_from([1e-3, 0.5]))
def test_blocked_adam_equals_one_pass(shape, block, seed, lr):
    """Blocks with a remainder, one block, a 0-d state: m, v and every
    update are bit-identical to the unblocked step."""
    rng = np.random.default_rng(seed)
    blocked, whole = Adam(shape), Adam(shape)
    blocked.BLOCK = block
    for _ in range(3):
        g = rng.normal(0, 1, shape) * rng.choice([0.0, -0.0, 1e-30, 1.0, 1e8], shape)
        got = blocked.step(g if shape else float(g), lr)
        want = _adam_reference(whole, g, lr)
        assert _same(got, want)
        assert _same(blocked.m, whole.m) and _same(blocked.v, whole.v)
