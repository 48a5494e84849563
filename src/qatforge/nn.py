"""Minimal dense network layers with reverse-mode gradients.

Layers own their parameters as float64 arrays, and the gradients backward
leaves in gW and gb, and nothing else: forward returns its output and the
cache its backward needs, and backward takes that cache back. A forward
whose backward never runs leaves nothing behind once its caller drops the
cache. A Network chains layers and optionally routes parameters and
inter-layer activations through a tap (see fixedpoint.QuantTap): the tap
may substitute quantized copies for the forward pass while the float
masters keep receiving updates, and it owns the straight-through backward
rule at the activation junctions. Linear weights are (out, in), conv
weights (out, in, kh, kw); fan_in counts all dimensions but the first.
Training keeps everything float64; Conv2d and Linear compute in the dtype of
the weights they are given, casting their input to it, and ReLU keeps its
input's dtype: fixedpoint runs them in float32 and on its exact codes.

Each layer class declares its spec name (kind), its geometry attributes in
constructor order (fields) and whether it has weights (params); the specs of
models, the fixedpoint IR and both of its formats read these declarations.

Feature maps have NCHW shape and channels-last memory. Conv2d and MaxPool2d
read their input through the NHWC view x.transpose(0, 2, 3, 1), which costs
nothing when the producer wrote channels-last, write an NHWC array, and
return its NCHW view. ReLU and the tap's quantizers and masks are elementwise
and keep the memory order of their input. Flatten yields rows in (c, h, w)
order, the order of the fc weights.

Convolution is im2col with (kh, kw, c) columns plus a BLAS matmul against
the weights permuted to (out, kh, kw, in); one-channel maps, like a first
layer's, get their columns from k*k slab copies. The input gradient is one
GEMM against the same permuted kernel and k*k strided slab adds, which is
exact for the integer-divisible geometries forward enforces. Max-pooling is
a running maximum of strided views. fixedpoint's integer engine runs these
same layers on its codes, through a tap that requantizes each junction.
"""

from __future__ import annotations

import math

import numpy as np


def fan_in(weight_shape):
    return math.prod(weight_shape[1:])


def _he_normal(rng, shape):
    if rng is None:
        return np.zeros(shape)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in(shape)), size=shape)


def im2col(x, k, stride, pad=0):
    """Columns of the k x k windows of an NHWC map x (any strides), after
    zero-padding by pad: one row per output pixel in (n, ho, wo) order, and
    (kh, kw, c) order along a row. Returns (cols, ho, wo). A one-channel map
    gets k*k slab copies into a (k*k, rows) buffer and its transposed view:
    the generic copy's inner run would be one channel, k elements long."""
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    n, h, w, c = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    if c == 1:
        cols = np.empty((k * k, n, ho, wo), dtype=x.dtype)
        hs, ws = (ho - 1) * stride + 1, (wo - 1) * stride + 1
        for i in range(k):
            for j in range(k):
                cols[i * k + j] = x[:, i : i + hs : stride, j : j + ws : stride, 0]
        return cols.reshape(k * k, -1).T, ho, wo
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
    kind = "conv"
    fields = ("in_ch", "out_ch", "ksize", "stride", "pad")
    params = True

    def __init__(self, in_ch, out_ch, ksize, stride=1, pad=0, rng=None):
        if stride < 1 or pad < 0:
            raise ValueError("bad conv geometry")
        self.in_ch, self.out_ch, self.ksize = in_ch, out_ch, ksize
        self.stride, self.pad = stride, pad
        self.W = _he_normal(rng, (out_ch, in_ch, ksize, ksize))
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
        x = x.astype(w.dtype, copy=False)
        cols, ho, wo = im2col(x.transpose(0, 2, 3, 1), k, s, p)
        wk = w.transpose(0, 2, 3, 1).reshape(self.out_ch, -1)
        y = cols @ wk.T
        y += b
        y = y.reshape(n, ho, wo, self.out_ch).transpose(0, 3, 1, 2)
        return y, (cols, wk, (n, hp, wp, c))

    def backward(self, gy, cache, need_input_grad=True):
        cols, wk, padded = cache
        n, oc, ho, wo = gy.shape
        k, c = self.ksize, self.in_ch
        gyf = gy.transpose(0, 2, 3, 1).reshape(-1, oc)
        gw = (gyf.T @ cols).reshape(oc, k, k, c)
        self.gW = np.ascontiguousarray(gw.transpose(0, 3, 1, 2))
        self.gb = gyf.sum(axis=0)
        if not need_input_grad:
            return None
        # one GEMM against the permuted kernel, then scatter-add each of the
        # k*k offset slabs; cheaper than a flipped-kernel correlation, which
        # builds a far larger im2col
        s, p = self.stride, self.pad
        g = (gyf @ wk).reshape(n, ho, wo, k, k, c)
        gx = np.zeros(padded)
        hs = (ho - 1) * s + 1
        ws = (wo - 1) * s + 1
        for i in range(k):
            for j in range(k):
                gx[:, i : i + hs : s, j : j + ws : s] += g[:, :, :, i, j]
        if p:
            gx = gx[:, p:-p, p:-p]
        return gx.transpose(0, 3, 1, 2)


class Linear:
    kind = "linear"
    fields = ("in_features", "out_features")
    params = True

    def __init__(self, in_features, out_features, rng=None):
        self.in_features, self.out_features = in_features, out_features
        self.W = _he_normal(rng, (out_features, in_features))
        self.b = np.zeros(out_features)
        self.gW = None
        self.gb = None

    def forward(self, x, w, b):
        x = x.astype(w.dtype, copy=False)
        return x @ w.T + b, (x, w)

    def backward(self, gy, cache, need_input_grad=True):
        x, w = cache
        self.gW = gy.T @ x
        self.gb = gy.sum(axis=0)
        if not need_input_grad:
            return None
        return gy @ w


class ReLU:
    kind = "relu"
    fields = ()
    params = False

    def forward(self, x):
        y = np.maximum(x, 0)  # in x's dtype: an int64 accumulator stays exact
        return y, y

    def backward(self, gy, y):
        return gy * (y > 0)  # gradient at exactly 0 is 0


class MaxPool2d:
    """Non-overlapping pooling (kernel == stride); ties route the gradient to
    the first maximal element in window order, which keeps backward
    deterministic even on quantized activations where ties are common."""

    kind = "maxpool"
    fields = ("size",)
    params = False

    def __init__(self, size):
        self.size = size

    def forward(self, x):
        x = x.transpose(0, 2, 3, 1)
        y = max_pool(x, self.size)
        return y.transpose(0, 3, 1, 2), (x, y)

    def backward(self, gy, cache):
        x, y = cache
        k = self.size
        n, h, w, c = x.shape
        v = x.reshape(n, h // k, k, w // k, k, c)
        # every element of gx is written once, as gradient bits times a 0/1
        # hit; on the int64 view a miss writes +0.0, where a float product
        # would leave -0.0 under a negative gradient
        g = np.asarray(gy, dtype=np.float64).transpose(0, 2, 3, 1).view(np.int64)
        gx = np.empty((n, h, w, c))
        gv = gx.view(np.int64).reshape(v.shape)
        free = np.ones(y.shape, dtype=bool)  # window not yet routed
        for i in range(k * k):
            hit = v[:, :, i // k, :, i % k] == y
            hit &= free
            free ^= hit
            np.multiply(g, hit, out=gv[:, :, i // k, :, i % k])
        return gx.transpose(0, 3, 1, 2)


class Flatten:
    kind = "flatten"
    fields = ()
    params = False

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, gy, shape):
        return gy.reshape(shape)


class Network:
    """An ordered chain of layers.

    forward(x, tap) returns (y, caches), one cache per layer, and sets no
    attribute: when a tap is given, each parameter layer runs on
    tap.weights(idx, W, b) and the input of every parameter layer after the
    first passes through tap.activation(idx - 1, x). backward(gout, caches,
    tap) walks the layers in reverse, invoking tap.activation_backward at
    the same junctions, and leaves the parameter gradients in gW and gb.
    """

    def __init__(self, layers):
        self.layers = list(layers)

    @property
    def param_layers(self):
        return [l for l in self.layers if l.params]

    def forward(self, x, tap=None):
        caches, pi = [], 0
        for layer in self.layers:
            if layer.params:
                if tap is not None:
                    if pi > 0:
                        x = tap.activation(pi - 1, x)
                    w, b = tap.weights(pi, layer.W, layer.b)
                else:
                    w, b = layer.W, layer.b
                x, cache = layer.forward(x, w, b)
                pi += 1
            else:
                x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, gout, caches, tap=None):
        g, pi = gout, len(self.param_layers)
        for i, layer in reversed(list(enumerate(self.layers))):
            if layer.params:
                # the input gradient of the earliest layer feeds nothing
                g = layer.backward(g, caches[i], need_input_grad=i > 0)
                pi -= 1
                if pi > 0 and tap is not None:
                    g = tap.activation_backward(pi - 1, g)
            else:
                g = layer.backward(g, caches[i])
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

