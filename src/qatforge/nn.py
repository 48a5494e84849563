"""Minimal dense network layers with reverse-mode gradients.

Layers own their parameters as float64 arrays and cache whatever backward
needs during forward. A Network chains layers and optionally routes
parameters and inter-layer activations through a tap (see training.QuantTap):
the tap may substitute quantized copies for the forward pass while the float
masters keep receiving updates, and it owns the straight-through backward
rule at the activation junctions. Feature maps are NCHW, linear weights are
(out, in), everything is row-major float64.

Convolution is im2col plus a BLAS matmul; the input gradient is computed as a
stride-1 correlation of the (dilated) output gradient with the flipped
kernel, which is exact for the integer-divisible geometries the constructor
enforces.
"""

from __future__ import annotations

import numpy as np


def _he_normal(rng, shape, fan_in):
    if rng is None:
        return np.zeros(shape)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def _im2col(x, kh, kw, stride):
    n, c, h, w = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, ho, wo, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * kh * kw)
    return cols, ho, wo


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
        if p:
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        if (x.shape[2] - k) % s or (x.shape[3] - k) % s:
            raise ValueError(
                f"conv input {x.shape[2]}x{x.shape[3]} not divisible by "
                f"kernel {k} stride {s}"
            )
        cols, ho, wo = _im2col(x, k, k, s)
        self._cols = cols
        self._w_run = w
        self._in_shape = x.shape  # padded shape
        y = cols @ w.reshape(self.out_ch, -1).T + b
        n = x.shape[0]
        return y.reshape(n, ho, wo, self.out_ch).transpose(0, 3, 1, 2)

    def backward(self, gy, need_input_grad=True):
        n, oc, ho, wo = gy.shape
        gyf = gy.transpose(0, 2, 3, 1).reshape(-1, oc)
        self.gW = (gyf.T @ self._cols).reshape(self.W.shape)
        self.gb = gyf.sum(axis=0)
        if not need_input_grad:
            return None
        return self._grad_input(gyf, gy.shape)

    def _grad_input(self, gyf, gy_shape):
        # one GEMM against the flattened kernel, then scatter-add each of
        # the k*k offset slabs; cheaper than building the
        # transposed-convolution im2col, which copies far more memory
        k, s, p = self.ksize, self.stride, self.pad
        n, oc, ho, wo = gy_shape
        hp, wp = self._in_shape[2], self._in_shape[3]
        c = self.in_ch
        g = gyf @ self._w_run.reshape(oc, -1)
        g = np.ascontiguousarray(g.reshape(-1, c, k * k).transpose(2, 0, 1))
        g = g.reshape(k * k, n, ho, wo, c)
        gx = np.zeros((n, hp, wp, c))
        hs = (ho - 1) * s + 1
        ws = (wo - 1) * s + 1
        for i in range(k):
            for j in range(k):
                gx[:, i : i + hs : s, j : j + ws : s, :] += g[i * k + j]
        gx = np.ascontiguousarray(gx.transpose(0, 3, 1, 2))
        if p:
            gx = gx[:, :, p:-p, p:-p]
        return gx


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
    the first maximal element, which keeps backward deterministic even on
    quantized activations where ties are common."""

    params = False

    def __init__(self, size):
        self.size = size

    def forward(self, x):
        k = self.size
        n, c, h, w = x.shape
        if h % k or w % k:
            raise ValueError(f"pool size {k} does not divide input {h}x{w}")
        win = (
            x.reshape(n, c, h // k, k, w // k, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h // k, w // k, k * k)
        )
        self._arg = win.argmax(axis=-1)
        self._in_shape = x.shape
        return np.take_along_axis(win, self._arg[..., None], axis=-1)[..., 0]

    def backward(self, gy):
        k = self.size
        n, c, ho, wo = gy.shape
        flat = np.zeros((n, c, ho, wo, k * k))
        np.put_along_axis(flat, self._arg[..., None], gy[..., None], axis=-1)
        return (
            flat.reshape(n, c, ho, wo, k, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(self._in_shape)
        )


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

