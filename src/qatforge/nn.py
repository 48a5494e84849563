"""Minimal dense network layers with reverse-mode gradients.

Layers own their parameters as float64 arrays and cache whatever backward
needs during forward. A Network chains layers and optionally routes
parameters and inter-layer activations through a tap (see training.QuantTap):
the tap may substitute quantized copies for the forward pass while the float
masters keep receiving updates, and it owns the straight-through backward
rule at the activation junctions. Linear weights are (out, in), conv
weights (out, in, kh, kw), everything is float64.

Feature maps have NCHW shape and channels-last memory. Conv2d and MaxPool2d
read their input through the NHWC view x.transpose(0, 2, 3, 1), which costs
nothing when the producer wrote channels-last, write an NHWC array, and
return its NCHW view. ReLU and the tap's quantizers and masks are elementwise
and keep the memory order of their input. Flatten yields rows in (c, h, w)
order, the order of the fc weights.

Convolution is im2col with (kh, kw, c) columns plus a BLAS matmul against
the weights permuted to (out, kh, kw, in); the input gradient is one GEMM
against the same permuted kernel and k*k strided slab adds, which is exact
for the integer-divisible geometries forward enforces. Max-pooling is
a running maximum of strided views. fixedpoint's integer engine runs the same
im2col and max_pool on its NHWC codes.
"""

from __future__ import annotations

import numpy as np


def _he_normal(rng, shape, fan_in):
    if rng is None:
        return np.zeros(shape)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def im2col(x, k, stride, pad=0):
    """Columns of the k x k windows of an NHWC map x (any strides), after
    zero-padding by pad: one row per output pixel in (n, ho, wo) order, and
    (kh, kw, c) order along a row. Returns (cols, ho, wo)."""
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    n, h, w, c = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, ho, wo, k, k, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False,
    )
    return windows.reshape(n * ho * wo, k * k * c), ho, wo


def max_pool(x, k):
    """k x k max-pool with stride k of an NHWC map x (any strides): the
    running maximum of the k*k strided views, as a C-contiguous NHWC map."""
    n, h, w, c = x.shape
    if h % k or w % k:
        raise ValueError(f"pool size {k} does not divide input {h}x{w}")
    v = x.reshape(n, h // k, k, w // k, k, c)
    out = v[:, :, 0, :, 0].copy()
    for i in range(1, k * k):
        np.maximum(out, v[:, :, i // k, :, i % k], out=out)
    return out


class Conv2d:
    params = True

    def __init__(self, in_ch, out_ch, ksize, stride=1, pad=0, rng=None):
        if stride < 1 or pad < 0:
            raise ValueError("bad conv geometry")
        self.in_ch, self.out_ch, self.ksize = in_ch, out_ch, ksize
        self.stride, self.pad = stride, pad
        self.W = _he_normal(rng, (out_ch, in_ch, ksize, ksize), in_ch * ksize * ksize)
        self.b = np.zeros(out_ch)
        self.gW = None
        self.gb = None

    def forward(self, x, w, b):
        k, s, p = self.ksize, self.stride, self.pad
        n, c, h, wd = x.shape
        hp, wp = h + 2 * p, wd + 2 * p
        if (hp - k) % s or (wp - k) % s:
            raise ValueError(
                f"conv input {hp}x{wp} not divisible by kernel {k} stride {s}"
            )
        cols, ho, wo = im2col(x.transpose(0, 2, 3, 1), k, s, p)
        self._cols = cols
        self._wk = w.transpose(0, 2, 3, 1).reshape(self.out_ch, -1)
        self._padded = (n, hp, wp, c)
        y = cols @ self._wk.T
        y += b
        return y.reshape(n, ho, wo, self.out_ch).transpose(0, 3, 1, 2)

    def backward(self, gy, need_input_grad=True):
        n, oc, ho, wo = gy.shape
        k, c = self.ksize, self.in_ch
        gyf = gy.transpose(0, 2, 3, 1).reshape(-1, oc)
        gw = (gyf.T @ self._cols).reshape(oc, k, k, c)
        self.gW = np.ascontiguousarray(gw.transpose(0, 3, 1, 2))
        self.gb = gyf.sum(axis=0)
        if not need_input_grad:
            return None
        # one GEMM against the permuted kernel, then scatter-add each of the
        # k*k offset slabs; cheaper than a flipped-kernel correlation, which
        # builds a far larger im2col
        s, p = self.stride, self.pad
        g = (gyf @ self._wk).reshape(n, ho, wo, k, k, c)
        gx = np.zeros(self._padded)
        hs = (ho - 1) * s + 1
        ws = (wo - 1) * s + 1
        for i in range(k):
            for j in range(k):
                gx[:, i : i + hs : s, j : j + ws : s] += g[:, :, :, i, j]
        if p:
            gx = gx[:, p:-p, p:-p]
        return gx.transpose(0, 3, 1, 2)


class Linear:
    params = True

    def __init__(self, in_features, out_features, rng=None):
        self.in_features, self.out_features = in_features, out_features
        self.W = _he_normal(rng, (out_features, in_features), in_features)
        self.b = np.zeros(out_features)
        self.gW = None
        self.gb = None

    def forward(self, x, w, b):
        self._x = x
        self._w_run = w
        return x @ w.T + b

    def backward(self, gy, need_input_grad=True):
        self.gW = gy.T @ self._x
        self.gb = gy.sum(axis=0)
        if not need_input_grad:
            return None
        return gy @ self._w_run


class ReLU:
    params = False

    def forward(self, x):
        self._pass = x > 0  # gradient at exactly 0 is 0
        return np.maximum(x, 0.0)

    def backward(self, gy):
        return gy * self._pass


class MaxPool2d:
    """Non-overlapping pooling (kernel == stride); ties route the gradient to
    the first maximal element in window order, which keeps backward
    deterministic even on quantized activations where ties are common."""

    params = False

    def __init__(self, size):
        self.size = size

    def forward(self, x):
        self._in_shape = x.shape  # perfbench names a pool call by its channels
        self._x = x.transpose(0, 2, 3, 1)
        self._y = max_pool(self._x, self.size)
        return self._y.transpose(0, 3, 1, 2)

    def backward(self, gy):
        k = self.size
        n, h, w, c = self._x.shape
        v = self._x.reshape(n, h // k, k, w // k, k, c)
        # every element of gx is written once, as gradient bits times a 0/1
        # hit; on the int64 view a miss writes +0.0, where a float product
        # would leave -0.0 under a negative gradient
        g = np.asarray(gy, dtype=np.float64).transpose(0, 2, 3, 1).view(np.int64)
        gx = np.empty((n, h, w, c))
        gv = gx.view(np.int64).reshape(v.shape)
        free = np.ones(self._y.shape, dtype=bool)  # window not yet routed
        for i in range(k * k):
            hit = v[:, :, i // k, :, i % k] == self._y
            hit &= free
            free ^= hit
            np.multiply(g, hit, out=gv[:, :, i // k, :, i % k])
        return gx.transpose(0, 3, 1, 2)


class Flatten:
    params = False

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gy):
        return gy.reshape(self._shape)


class Network:
    """An ordered chain of layers.

    forward(x, tap) is pure with respect to parameters: when a tap is given,
    each parameter layer runs on tap.weights(idx, W, b) and the input of
    every parameter layer after the first passes through
    tap.activation(idx - 1, x). backward replays the chain in reverse,
    invoking tap.activation_backward at the same junctions.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        self._steps = None
        self._tap = None

    @property
    def param_layers(self):
        return [l for l in self.layers if getattr(l, "params", False)]

    def forward(self, x, tap=None):
        steps = []
        pi = 0
        for layer in self.layers:
            if getattr(layer, "params", False):
                if tap is not None:
                    if pi > 0:
                        x = tap.activation(pi - 1, x)
                        steps.append(("tap", pi - 1))
                    w, b = tap.weights(pi, layer.W, layer.b)
                else:
                    w, b = layer.W, layer.b
                x = layer.forward(x, w, b)
                pi += 1
            else:
                x = layer.forward(x)
            steps.append(("layer", layer))
        self._steps = steps
        self._tap = tap
        return x

    def backward(self, gout):
        if self._steps is None:
            raise RuntimeError("backward called before forward")
        g = gout
        for i in range(len(self._steps) - 1, -1, -1):
            kind, payload = self._steps[i]
            if kind == "layer":
                if getattr(payload, "params", False):
                    # the input gradient of the earliest layer feeds nothing
                    g = payload.backward(g, need_input_grad=i > 0)
                else:
                    g = payload.backward(g)
            else:
                g = self._tap.activation_backward(payload, g)
        return g


def softmax_xent(logits, labels):
    """Mean cross-entropy over the batch. Returns (loss, dloss/dlogits)."""
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    logp = z - lse
    n = logits.shape[0]
    rows = np.arange(n)
    loss = -float(np.mean(logp[rows, labels]))
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    return loss, dlogits / n

