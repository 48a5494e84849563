"""Layer forward passes vs loop references; backward passes vs central
finite differences."""

import numpy as np
import pytest

import oracles
from qatforge import nn
from qatforge import quantizers as qz
from qatforge.fixedpoint import LayerBits, QuantTap, ScaleState


def _fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2 * h)
    return g


@pytest.mark.parametrize(
    "stride,pad,h,w",
    [(1, 0, 8, 8), (1, 2, 6, 10), (2, 1, 9, 9), (3, 0, 9, 12)],
)
def test_conv_forward_matches_loop(stride, pad, h, w):
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (2, 3, h, w))
    layer = nn.Conv2d(3, 4, 3, stride=stride, pad=pad, rng=rng)
    want = oracles.loop_conv2d(x, layer.W, layer.b, stride=stride, pad=pad)
    got, _ = layer.forward(x, layer.W, layer.b)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1), (1, 2)])
def test_conv_backward_matches_fd(stride, pad):
    # batches of one image, of one partial input-gradient block, and across
    # block edges
    assert nn.GX_BLOCK == 8
    for batch in (2, 1, 9, 13):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (batch, 3, 7, 7))
        layer = nn.Conv2d(3, 4, 3, stride=stride, pad=pad, rng=rng)
        y, cache = layer.forward(x, layer.W, layer.b)
        r = rng.normal(0, 1, y.shape)

        def loss():
            return float(np.sum(layer.forward(x, layer.W, layer.b)[0] * r))

        gx = layer.backward(r, cache)
        fd_w = _fd_grad(loss, layer.W)
        fd_b = _fd_grad(loss, layer.b)
        fd_x = _fd_grad(loss, x)
        assert np.max(np.abs(layer.gW - fd_w)) <= 1e-6
        assert np.max(np.abs(layer.gb - fd_b)) <= 1e-6
        assert np.max(np.abs(gx - fd_x)) <= 1e-6


@pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1), (1, 2)])
def test_conv_forward_float32_equals_float64_on_integers(stride, pad):
    """On small integers every sum is exact in both dtypes, so the float64
    (out, rows) product and the float32 (rows, out) one agree exactly, with
    the loop reference too, on many channels and on one."""
    rng = np.random.default_rng(12)
    for cin in (3, 1):
        x = rng.integers(-8, 8, (5, cin, 9, 9)).astype(np.float64)
        layer = nn.Conv2d(cin, 4, 3, stride=stride, pad=pad, rng=rng)
        w = rng.integers(-8, 8, layer.W.shape).astype(np.float64)
        b = rng.integers(-50, 50, 4).astype(np.float64)
        y64, _ = layer.forward(x, w, b)
        y32, _ = layer.forward(x, w.astype(np.float32), b.astype(np.float32))
        assert y64.dtype == np.float64 and y32.dtype == np.float32
        assert y64.transpose(0, 2, 3, 1).flags.c_contiguous
        assert y32.transpose(0, 2, 3, 1).flags.c_contiguous
        assert np.array_equal(y64, y32)
        assert np.array_equal(y64, oracles.loop_conv2d(x, w, b, stride=stride, pad=pad))


def test_conv_backward_can_skip_input_grad():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, (2, 2, 6, 6))
    layer = nn.Conv2d(2, 3, 3, rng=rng)
    y, cache = layer.forward(x, layer.W, layer.b)
    full = layer.backward(np.ones_like(y), cache)
    gw_full = layer.gW.copy()
    none = layer.backward(np.ones_like(y), cache, need_input_grad=False)
    assert none is None
    assert full is not None
    assert np.array_equal(layer.gW, gw_full)


def test_conv_geometry_errors():
    with pytest.raises(ValueError):
        nn.Conv2d(1, 1, 3, stride=0)
    with pytest.raises(ValueError):
        nn.Conv2d(1, 1, 3, pad=-1)
    layer = nn.Conv2d(1, 1, 3, stride=2)
    with pytest.raises(ValueError):
        layer.forward(np.zeros((1, 1, 6, 6)), layer.W, layer.b)


def test_linear_matches_fd():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, (4, 6))
    layer = nn.Linear(6, 5, rng=rng)
    r = rng.normal(0, 1, (4, 5))

    def loss():
        return float(np.sum(layer.forward(x, layer.W, layer.b)[0] * r))

    want = x @ layer.W.T + layer.b
    y, cache = layer.forward(x, layer.W, layer.b)
    assert np.max(np.abs(y - want)) == 0.0
    gx = layer.backward(r, cache)
    assert np.max(np.abs(layer.gW - _fd_grad(loss, layer.W))) <= 1e-7
    assert np.max(np.abs(layer.gb - _fd_grad(loss, layer.b))) <= 1e-7
    assert np.max(np.abs(gx - _fd_grad(loss, x))) <= 1e-7
    assert layer.backward(r, cache, need_input_grad=False) is None


def test_maxpool_matches_loop_and_routes_gradient():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, (2, 3, 8, 8))
    pool = nn.MaxPool2d(2)
    y, cache = pool.forward(x)
    assert np.array_equal(y, oracles.loop_maxpool(x, 2))

    gy = rng.normal(0, 1, y.shape)
    gx = pool.backward(gy, cache)
    # each window's gradient lands entirely on its (first) maximum
    assert gx.shape == x.shape
    fd = _fd_grad(lambda: float(np.sum(pool.forward(x)[0] * gy)), x)
    assert np.max(np.abs(gx - fd)) <= 1e-6


def test_maxpool_tie_goes_to_first_element():
    x = np.zeros((1, 1, 2, 2))  # all tied
    pool = nn.MaxPool2d(2)
    _, cache = pool.forward(x)
    gx = pool.backward(np.array([[[[3.0]]]]), cache)
    want = np.zeros((1, 1, 2, 2))
    want[0, 0, 0, 0] = 3.0
    assert np.array_equal(gx, want)

    # two channels, four windows, ties at different window positions; the
    # same routing on a channels-last input and a channels-last gradient
    x = np.zeros((1, 2, 4, 4))
    x[0, 1] = [[0, 5, 2, 2], [1, 5, 1, 2], [7, 0, 4, 3], [0, 7, 4, 4]]
    gy = -np.arange(1.0, 9.0).reshape(1, 2, 2, 2)
    want = np.zeros_like(x)
    want[0, 0, ::2, ::2] = gy[0, 0]  # channel 0 all tied: first element
    want[0, 1, 0, 1], want[0, 1, 0, 2] = gy[0, 1, 0, 0], gy[0, 1, 0, 1]
    want[0, 1, 2, 0], want[0, 1, 2, 2] = gy[0, 1, 1, 0], gy[0, 1, 1, 1]
    for xin in (x, _channels_last(x)):
        for g in (gy, _channels_last(gy)):
            _, cache = pool.forward(xin)
            gx = pool.backward(g, cache)
            assert np.array_equal(gx, want)
            assert not np.signbit(gx[gx == 0]).any()  # misses are +0.0


def test_maxpool_rejects_indivisible():
    with pytest.raises(ValueError):
        nn.MaxPool2d(2).forward(np.zeros((1, 1, 5, 6)))


def test_relu_zero_gets_zero_gradient():
    relu = nn.ReLU()
    x = np.array([-1.0, 0.0, 2.0])
    y, cache = relu.forward(x)
    assert np.array_equal(y, [0.0, 0.0, 2.0])
    assert np.array_equal(relu.backward(np.ones(3), cache), [0.0, 0.0, 1.0])


def test_flatten_round_trip():
    f = nn.Flatten()
    x = np.arange(24.0).reshape(2, 3, 2, 2)
    y, cache = f.forward(x)
    assert y.shape == (2, 12)
    assert np.array_equal(f.backward(y, cache), x)


def test_softmax_xent_value_and_grad():
    rng = np.random.default_rng(5)
    logits = rng.normal(0, 2, (6, 10))
    labels = rng.integers(0, 10, 6)
    loss, dlogits = nn.softmax_xent(logits, labels)

    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    want = -np.mean(np.log(p[np.arange(6), labels]))
    assert abs(loss - want) <= 1e-12
    # rows of the gradient sum to zero (softmax minus one-hot)
    assert np.max(np.abs(dlogits.sum(axis=1))) <= 1e-12
    fd = _fd_grad(lambda: nn.softmax_xent(logits, labels)[0], logits)
    assert np.max(np.abs(dlogits - fd)) <= 1e-6


def test_softmax_xent_extreme_logits_stay_finite():
    logits = np.array([[1e4, -1e4, 0.0], [-1e4, -1e4, -1e4]])
    loss, d = nn.softmax_xent(logits, np.array([0, 1]))
    assert np.isfinite(loss) and np.all(np.isfinite(d))
    assert loss >= 0.0


def test_network_end_to_end_gradcheck():
    rng = np.random.default_rng(6)
    net = nn.Network(
        [
            nn.Conv2d(1, 2, 3, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(2 * 3 * 3, 4, rng=rng),
        ]
    )
    x = rng.normal(0, 1, (3, 1, 8, 8))
    labels = np.array([0, 1, 3])

    def loss():
        logits, _ = net.forward(x)
        return nn.softmax_xent(logits, labels)[0]

    logits, caches = net.forward(x)
    _, d = nn.softmax_xent(logits, labels)
    net.backward(d, caches)
    conv, lin = net.param_layers
    assert np.max(np.abs(conv.gW - _fd_grad(loss, conv.W))) <= 1e-6
    assert np.max(np.abs(conv.gb - _fd_grad(loss, conv.b))) <= 1e-6
    assert np.max(np.abs(lin.gW - _fd_grad(loss, lin.W))) <= 1e-6
    assert np.max(np.abs(lin.gb - _fd_grad(loss, lin.b))) <= 1e-6


def test_forward_does_not_mutate_inputs_or_params():
    """forward leaves its input, the parameters and every attribute of the
    network and its layers as they were, with or without a tap; backward
    sets only the parameter layers' gW and gb."""
    rng = np.random.default_rng(7)
    net = nn.Network([nn.Conv2d(1, 2, 3, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
                      nn.Flatten(), nn.Linear(18, 3, rng=rng)])
    scales = ScaleState(np.array([0.1, 0.1]), np.array([0.25, 1.0]), 1.0)
    tap = QuantTap([LayerBits(4, 4), LayerBits(4, None)], scales)
    x = rng.normal(0, 1, (2, 1, 8, 8))
    x0 = x.copy()
    w0 = [l.W.copy() for l in net.param_layers]
    objs = [net, *net.layers]
    for t in (None, tap):
        before = [dict(vars(o)) for o in objs]
        y, caches = net.forward(x, t)
        assert [_changed(b, o) for b, o in zip(before, objs)] == [set()] * len(objs)
        net.backward(np.ones_like(y), caches, t)
        grads = [{"gW", "gb"} if getattr(o, "params", False) else set() for o in objs]
        assert [_changed(b, o) for b, o in zip(before, objs)] == grads
    assert np.array_equal(x, x0)
    for layer, w in zip(net.param_layers, w0):
        assert np.array_equal(layer.W, w)


def _changed(before, obj):
    """The names of obj's attributes added or rebound since before, a copy
    of its vars()."""
    now = vars(obj)
    return {k for k in now.keys() | before.keys() if k not in now or now[k] is not before.get(k)}


def _channels_last(x):
    """The values of x, NCHW shape, channels-last memory."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _run_layer(layer, x, gy_layout):
    if getattr(layer, "params", False):
        y, cache = layer.forward(x, layer.W, layer.b)
    else:
        y, cache = layer.forward(x)
    gy = np.random.default_rng(9).normal(0, 1, y.shape)
    gx = layer.backward(gy_layout(gy) if gy.ndim == 4 else gy, cache)
    grads = (layer.gW, layer.gb) if getattr(layer, "params", False) else ()
    return y, gx, grads


@pytest.mark.parametrize(
    "make,side",
    [
        (lambda rng: nn.Conv2d(3, 4, 3, rng=rng), 8),
        (lambda rng: nn.Conv2d(3, 4, 3, stride=2, pad=1, rng=rng), 9),
        (lambda rng: nn.MaxPool2d(2), 8),
        (lambda rng: nn.Flatten(), 8),
    ],
    ids=["conv", "conv_stride2_pad1", "maxpool", "flatten"],
)
@pytest.mark.parametrize("gy_layout", [np.ascontiguousarray, _channels_last],
                         ids=["gy_nchw", "gy_channels_last"])
def test_layers_give_identical_results_on_either_memory_layout(make, side, gy_layout):
    rng = np.random.default_rng(8)
    layer = make(rng)
    # 19 images span three input-gradient blocks of a conv
    for batch in (2, 19):
        x = rng.normal(0, 1, (batch, 3, side, side))
        y0, gx0, grads0 = _run_layer(layer, x, gy_layout)
        y1, gx1, grads1 = _run_layer(layer, _channels_last(x), gy_layout)
        for a, b in [(y0, y1), (gx0, gx1), *zip(grads0, grads1)]:
            assert a.shape == b.shape
            assert np.array_equal(a, b)


def test_feature_maps_stay_channels_last():
    """conv and pool write channels-last memory, and the elementwise steps
    between layers keep it; the layers read it without a copy."""
    rng = np.random.default_rng(10)
    conv = nn.Conv2d(3, 4, 3, rng=rng)
    pool = nn.MaxPool2d(2)
    x = rng.normal(0, 1, (2, 3, 10, 10))
    y, conv_cache = conv.forward(x, conv.W, conv.b)
    p, pool_cache = pool.forward(y)
    maps = [y, p, nn.ReLU().forward(y)[0], qz.quantize_unsigned(p, 0.25, 4),
            qz.ste_activation_passmask(p, 0.25, 4)]
    gy = np.ones(p.shape)
    g_pool = pool.backward(gy, pool_cache)
    maps += [g_pool, conv.backward(g_pool, conv_cache)]
    for m in maps:
        assert m.shape[1] in (3, 4)
        assert m.transpose(0, 2, 3, 1).flags.c_contiguous


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 2])
def test_one_channel_im2col_equals_the_strided_windows(stride, pad):
    # read through the NHWC view of an NCHW map, as Conv2d reads it
    x = np.random.default_rng(4).normal(size=(3, 1, 9, 8)).transpose(0, 2, 3, 1)
    k = 3
    cols, ho, wo = nn.im2col(x, k, stride, pad)
    padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]  # (n, ho, wo, c, kh, kw)
    assert (ho, wo) == windows.shape[1:3]
    assert np.array_equal(cols, windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k * k))
