"""Correctness checks on the outputs the benchmark times.

Each check raises CheckFailed with a reason, or returns None. The oracles
here are written against the float network, its scales and its bit plan,
not against the converted or decoded model, so that a fault in conversion,
serialization or decoding cannot hide behind itself.
"""

from __future__ import annotations

import hashlib
import heapq
from fractions import Fraction

import numpy as np

GAP_CONT = 255  # continuation token of the QZIP gap alphabet (docs/formats.md)


class CheckFailed(Exception):
    pass


def digest(net, scales=None, extra=()):
    """sha256 over every parameter array of net, the scales and any extra
    values; two byte-identical runs give the same digest."""
    h = hashlib.sha256()
    for layer in net.param_layers:
        h.update(np.ascontiguousarray(layer.W).tobytes())
        h.update(np.ascontiguousarray(layer.b).tobytes())
    if scales is not None:
        h.update(np.asarray(scales.weight_scales).tobytes())
        h.update(np.asarray(scales.act_scales).tobytes())
        h.update(np.float64(scales.input_scale).tobytes())
    for value in extra:
        h.update(repr(value).encode())
    return h.hexdigest()


def decoded_digest(decoded):
    """sha256 over the codes, biases and scales of a decoded archive."""
    h = hashlib.sha256(repr((decoded.weight_bits, decoded.act_bits, decoded.input_scale)).encode())
    for layer in decoded.param_layers:
        h.update(layer.codes.tobytes())
        h.update(layer.bias_codes.tobytes())
        h.update(repr((layer.weight_scale, layer.bias_step, layer.act_scale)).encode())
    return h.hexdigest()


def identical_repeats(what, outputs):
    """Every repeat equals the first one, byte for byte."""
    first = outputs[0]
    for i, out in enumerate(outputs[1:], start=1):
        if isinstance(first, np.ndarray):
            same = first.dtype == out.dtype and first.shape == out.shape and (
                first.tobytes() == out.tobytes()
            )
        else:
            same = first == out
        if not same:
            raise CheckFailed(f"{what}: repeat {i} differs from repeat 0")


def at_least(what, value, floor):
    if not value >= floor:
        raise CheckFailed(f"{what}: {value} is below {floor}")


def rises(what, first, last):
    if not last > first:
        raise CheckFailed(f"{what}: {last} does not exceed its start {first}")


def on_grid(what, values, step):
    """Integer codes k with values == step * k exactly, element for element."""
    codes = np.rint(values / step)
    off = np.flatnonzero((codes * step != values).ravel())
    if off.size:
        raise CheckFailed(f"{what} {off[0]} is not its grid step times an integer")
    return codes.astype(np.int64)


def layer_codes(net, scales, plan):
    """Per parameter layer: (weight codes, bias codes, delta, bias step,
    input step), requiring weights to be exactly delta * integer within the
    signed range and biases exactly on the delta * input-step grid."""
    out = []
    for l, layer in enumerate(net.param_layers):
        bits = plan[l].weights
        d = float(scales.weight_scales[l])
        codes = on_grid(f"layer {l} weight", layer.W, d)
        lo, hi = (-1, 1) if bits == 1 else (-(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
        if codes.size and (codes.min() < lo or codes.max() > hi):
            raise CheckFailed(f"layer {l}: weight codes outside [{lo}, {hi}]")
        if l == 0:
            d_in = float(scales.input_scale)
        elif plan[l - 1].acts is not None:
            d_in = float(scales.act_scales[l - 1])
        else:
            d_in = 1.0
        step = d * d_in
        bias = on_grid(f"layer {l} bias", layer.b, step)
        out.append((codes, bias, d, step, d_in))
    return out


def zero_share(net):
    total = sum(layer.W.size for layer in net.param_layers)
    zeros = sum(int(np.count_nonzero(layer.W == 0.0)) for layer in net.param_layers)
    return zeros / total


# --- integer inference ------------------------------------------------------


def _requantize(acc, multiplier, bits):
    """clip(round_half_away(acc * multiplier), 0, 2^bits - 1) in exact
    rational arithmetic on Python integers."""
    m = Fraction(multiplier)
    p, q = m.numerator, m.denominator
    flat = acc.ravel().tolist()
    top = 2**bits - 1
    out = []
    for a in flat:
        r = (2 * abs(a) * p + q) // (2 * q)
        r = r if a >= 0 else -r
        out.append(0 if r < 0 else top if r > top else r)
    return np.array(out, dtype=np.int64).reshape(acc.shape)


def integer_forward(net, scales, plan, images):
    """Logits of the LeNet layer chain computed with integer codes only:
    direct convolution by window sums, 2x2 max pooling, exact rational
    requantization. images are uint8 (n, 28, 28) input codes."""
    from qatforge import nn

    params = layer_codes(net, scales, plan)
    x = np.asarray(images, dtype=np.int64)[:, None, :, :]
    pi = 0
    logits = None
    for layer in net.layers:
        if isinstance(layer, (nn.Conv2d, nn.Linear)):
            codes, bias, d, _, d_in = params[pi]
            if isinstance(layer, nn.Conv2d):
                if layer.stride != 1 or layer.pad != 0:
                    raise CheckFailed("oracle covers stride 1, no padding only")
                k = layer.ksize
                win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
                acc = np.einsum("nchwij,ocij->nohw", win, codes) + bias[None, :, None, None]
            else:
                acc = np.einsum("ni,oi->no", x, codes) + bias[None, :]
            bits = plan[pi].acts
            if bits is None:
                logits = acc.astype(np.float64) * (d * d_in)
            else:
                d_out = float(scales.act_scales[pi])
                x = _requantize(acc, Fraction(d) * Fraction(d_in) / Fraction(d_out), bits)
            pi += 1
        elif isinstance(layer, nn.MaxPool2d):
            s = layer.size
            x = np.max([x[:, :, i::s, j::s] for i in range(s) for j in range(s)], axis=0)
        elif isinstance(layer, nn.ReLU):
            x = np.maximum(x, 0)
        elif isinstance(layer, nn.Flatten):
            x = x.reshape(x.shape[0], -1)
    return logits


def equal_arrays(what, expected, got):
    if expected.shape != got.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, expected {expected.shape}")
    diff = np.flatnonzero((expected != got).ravel())
    if diff.size:
        i = int(diff[0])
        raise CheckFailed(
            f"{what}: {diff.size} values differ, first at flat index {i}: "
            f"{got.ravel()[i]!r} != {expected.ravel()[i]!r}"
        )


# --- archives ---------------------------------------------------------------


def decoded_matches(decoded, net, scales, plan, act_bits):
    """Every code, bias and scale of the decoded archive equals the source."""
    source = layer_codes(net, scales, plan)
    layers = decoded.param_layers
    if len(layers) != len(source):
        raise CheckFailed(f"decoded {len(layers)} parameter layers, expected {len(source)}")
    if decoded.input_scale != scales.input_scale or decoded.act_bits != act_bits:
        raise CheckFailed("decoded input scale or activation bits differ")
    for l, (got, (codes, bias, d, step, _)) in enumerate(zip(layers, source)):
        equal_arrays(f"layer {l} weight codes", codes, got.codes)
        equal_arrays(f"layer {l} bias codes", bias, got.bias_codes)
        act = float(scales.act_scales[l]) if plan[l].acts is not None else 0.0
        if (got.weight_scale, got.bias_step, got.act_scale) != (d, step, act):
            raise CheckFailed(f"layer {l}: decoded scales differ")


def optimal_code_bits(counts):
    """Total length of an optimal prefix code for a histogram: the sum of
    the Huffman merge weights, or one bit per symbol for one symbol."""
    weights = [int(c) for c in counts if c > 0]
    if len(weights) == 1:
        return weights[0]
    heapq.heapify(weights)
    total = 0
    while len(weights) > 1:
        merged = heapq.heappop(weights) + heapq.heappop(weights)
        total += merged
        heapq.heappush(weights, merged)
    return total


def stream_histograms(code_arrays):
    """Histograms of the weight-code symbols and the base-255 gap tokens
    over the nonzero positions of each layer, walked in row-major order."""
    code_counts = {}
    gap_counts = np.zeros(GAP_CONT + 1, dtype=np.int64)
    for codes in code_arrays:
        flat = np.asarray(codes).ravel()
        idx = np.flatnonzero(flat)
        gaps = np.diff(idx, prepend=-1) - 1
        gap_counts[GAP_CONT] += int((gaps // GAP_CONT).sum())
        gap_counts += np.bincount(gaps % GAP_CONT, minlength=GAP_CONT + 1)
        syms, n = np.unique(flat[idx], return_counts=True)
        for s, c in zip(syms.tolist(), n.tolist()):
            code_counts[s] = code_counts.get(s, 0) + c
    return code_counts, gap_counts


def payload_is_optimal(archive, meta, code_arrays):
    """The payload holds exactly the optimal prefix-code bit count of both
    streams, padded to whole bytes behind its u32 length prefix."""
    code_counts, gap_counts = stream_histograms(code_arrays)
    bits = optimal_code_bits(code_counts.values()) + optimal_code_bits(gap_counts)
    if meta["payload_bits_used"] != bits:
        raise CheckFailed(
            f"payload uses {meta['payload_bits_used']} bits, optimal is {bits}"
        )
    nbytes = (bits + 7) // 8
    prefix = archive[len(archive) - nbytes - 4 : len(archive) - nbytes]
    if int.from_bytes(prefix, "little") != nbytes:
        raise CheckFailed(f"payload length prefix is not {nbytes} bytes")
