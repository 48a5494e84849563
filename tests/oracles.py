"""Independent reference implementations the tests compare the package
against.

Everything here is deliberately written the slow, obvious way (explicit
loops, exhaustive searches) and shares no code with the package internals.
"""

import numpy as np


def nearest_level(x, levels):
    """Exhaustive nearest-neighbor over a finite level set; ties pick the
    level farther from zero (the round-half-away convention)."""
    best = None
    best_d = None
    for lv in levels:
        d = abs(x - lv)
        if best is None or d < best_d or (d == best_d and abs(lv) > abs(best)):
            best, best_d = lv, d
    return best


def signed_levels(delta, bits):
    half = 2 ** (bits - 1)
    return [delta * k for k in range(-half, half)]


def unsigned_levels(delta, bits):
    return [delta * k for k in range(0, 2**bits)]


def brute_round_pow2(x):
    """Nearest power of two by exhaustive search; ties go to the larger."""
    best = None
    best_d = None
    for k in range(-80, 81):
        p = 2.0**k
        d = abs(x - p)
        if best is None or d < best_d or (d == best_d and p > best):
            best, best_d = p, d
    return best


def central_diff(f, x0, h):
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def loop_conv2d(x, w, b, stride=1, pad=0):
    """Quadruple-loop convolution (cross-correlation), NCHW."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    ho = (h - kh) // stride + 1
    wo = (wdt - kw) // stride + 1
    y = np.zeros((n, cout, ho, wo))
    for img in range(n):
        for oc in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = x[
                        img,
                        :,
                        i * stride : i * stride + kh,
                        j * stride : j * stride + kw,
                    ]
                    y[img, oc, i, j] = np.sum(patch * w[oc]) + b[oc]
    return y


def loop_maxpool(x, k):
    n, c, h, w = x.shape
    y = np.zeros((n, c, h // k, w // k))
    for img in range(n):
        for ch in range(c):
            for i in range(h // k):
                for j in range(w // k):
                    y[img, ch, i, j] = x[
                        img, ch, i * k : (i + 1) * k, j * k : (j + 1) * k
                    ].max()
    return y


def entropy_bits(counts):
    total = sum(counts.values())
    h = 0.0
    for c in counts.values():
        p = c / total
        h -= p * np.log2(p)
    return h


def int64_forward(model, codes, shift=False):
    """The integer engine as first written, for bit-exact comparison:
    NCHW int64 multiply-accumulate (numpy's integer matmul, no BLAS),
    requantization as round-half-away of acc * multiplier in float64 (or as
    the integer shift sign(v) * ((|v| + 2^(s-1)) >> s)), then the clip, and
    every max-pool on codes. codes are (n, c, h, w) or (n, features)."""
    x = np.asarray(codes, dtype=np.int64)
    logits = None
    for fx in model.layers:
        if fx.kind in ("conv", "fc"):
            w = np.asarray(fx.codes, dtype=np.int64)
            b = np.asarray(fx.bias_codes, dtype=np.int64)
            if fx.kind == "conv":
                p, s = fx.pad, fx.stride
                xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
                win = np.lib.stride_tricks.sliding_window_view(
                    xp, (fx.ksize, fx.ksize), axis=(2, 3)
                )[:, :, ::s, ::s]
                acc = np.einsum("nchwij,ocij->nohw", win, w) + b[None, :, None, None]
            else:
                acc = x @ w.T + b
            if fx.act_bits:
                if shift:
                    sh = fx.shift
                    if sh <= 0:
                        v = acc << (-sh)
                    else:
                        v = np.sign(acc) * ((np.abs(acc) + (1 << (sh - 1))) >> sh)
                else:
                    y = acc.astype(np.float64) * fx.multiplier
                    v = np.sign(y) * np.floor(np.abs(y) + 0.5)
                x = np.clip(v, 0, 2**fx.act_bits - 1).astype(np.int64)
            elif shift:
                logits = np.ldexp(acc.astype(np.float64), -fx.shift)
            else:
                logits = acc.astype(np.float64) * fx.logit_scale
        elif fx.kind == "maxpool":
            n, c, h, w_ = x.shape
            k = fx.size
            x = x.reshape(n, c, h // k, k, w_ // k, k).max(axis=(3, 5))
        elif fx.kind == "relu":
            x = np.maximum(x, 0)
        elif fx.kind == "flatten":
            x = x.reshape(x.shape[0], -1)
    return logits
