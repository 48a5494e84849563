"""Integer-only inference.

A converted model stores per-layer integer weight codes, integer biases on
the delta*Delta_in grid, and the three scales that tie them together. One
layer runs as: integer accumulate, integer bias add, one combined rescale
delta*Delta_in/Delta_out with round-half-away-from-zero, clip to the
unsigned activation range (which also plays the role of ReLU), and the codes
feed the next layer. The final layer skips requantization and emits real
logits scaled by delta*Delta_in. When every scale is a power of two the
rescale collapses to an arithmetic shift (infer_shift).

The accumulator contract is 32-bit signed: accumulator_bound gives
fan_in * 2^(n-1) * (2^m - 1) + max|bias| per layer, convert and load_model
refuse a layer whose bound exceeds 2^31 - 1, and infer(debug=True)
re-checks the realized accumulators. The multiply-accumulate is exact
integer arithmetic, carried out in any arithmetic the bound proves exact:
every partial sum is an integer no larger than the bound, so a float32 GEMM
is exact below 2^24 and a float64 GEMM below 2^53, and both run on BLAS.
int64 is left for wider hand-built layers.

simulate_float evaluates the same network in real arithmetic with the
quantizers applied, mirroring the training-time quantized forward; it is the
equivalence oracle for infer.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import quantizers as qz
from .nn import Conv2d, Linear, MaxPool2d, im2col, max_pool

INT32_MAX = 2**31 - 1
MAGIC = b"FXPM"
VERSION = 1
SHIFT_NONE = -(2**15)  # sentinel in the i16 shift slot

_KIND_TAGS = {"conv": 1, "fc": 2, "relu": 3, "maxpool": 4, "flatten": 5}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}


@dataclass
class IntTensor:
    codes: np.ndarray
    bits: int
    signed: bool

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.int64)
        if not 1 <= self.bits <= 32:
            raise ValueError(f"bit-width {self.bits} out of range")
        lo, hi = self.range()
        if self.codes.size and (self.codes.min() < lo or self.codes.max() > hi):
            raise ValueError(
                f"codes outside [{lo}, {hi}] for {self.bits}-bit "
                f"{'signed' if self.signed else 'unsigned'} tensor"
            )

    def range(self):
        if self.signed:
            return -(2 ** (self.bits - 1)), 2 ** (self.bits - 1) - 1
        return 0, 2**self.bits - 1


@dataclass
class FxLayer:
    kind: str
    # conv geometry
    in_ch: int = 0
    out_ch: int = 0
    ksize: int = 0
    stride: int = 1
    pad: int = 0
    # fc geometry
    in_features: int = 0
    out_features: int = 0
    # pool geometry
    size: int = 0
    # parameters (conv/fc only)
    weight_codes: np.ndarray | None = None
    bias_codes: np.ndarray | None = None
    weight_bits: int = 0
    act_bits: int = 0  # 0 = final layer, no requantization
    weight_scale: float = 0.0
    in_scale: float = 0.0
    out_scale: float = 0.0
    shift: int | None = None

    @property
    def multiplier(self):
        return self.weight_scale * self.in_scale / self.out_scale

    @property
    def logit_scale(self):
        return self.weight_scale * self.in_scale


@dataclass
class FixedPointModel:
    input_scale: float
    input_bits: int
    layers: list = field(default_factory=list)
    shift_only: bool = False

    @property
    def param_layers(self):
        return [l for l in self.layers if l.kind in ("conv", "fc")]


def encode_input(images, model: FixedPointModel):
    """uint8 images are already the input codes: pixel value = code, real
    value = code * input_scale."""
    codes = np.asarray(images)
    if codes.min() < 0 or codes.max() > 2**model.input_bits - 1:
        raise ValueError("input codes outside the declared input bit-width")
    if codes.ndim == 3:
        codes = codes.reshape(codes.shape[0], 1, codes.shape[1], codes.shape[2])
    return IntTensor(codes, model.input_bits, signed=False)


def _plan_from_spec(num_layers, spec: qz.QuantSpec):
    from .training import LayerBits

    return [
        LayerBits(spec.weight_bits, spec.act_bits if l < num_layers - 1 else None)
        for l in range(num_layers)
    ]


def _shift_exponent(x):
    """s with x == 2**(-s), or None."""
    if x <= 0 or not qz.is_pow2(x):
        return None
    return -int(np.frexp(x)[1] - 1)


def convert(net, scales, plan_or_spec):
    """Freeze a trained float network into a FixedPointModel.

    Refuses when any weight sits farther than 0.25*delta from its nearest
    level: that model has not converged onto its grid and integer codes
    would change the function. Also refuses layers left unquantized by the
    plan, and statically checks the 32-bit accumulator bound.
    """
    from .models import net_spec
    from .training import bias_grid_step

    params = net.param_layers
    if isinstance(plan_or_spec, qz.QuantSpec):
        plan = _plan_from_spec(len(params), plan_or_spec)
    else:
        plan = list(plan_or_spec)
    for l, p in enumerate(plan):
        if p.weights is None:
            raise ValueError(
                f"layer {l} has no weight bit-width: integer-only conversion "
                "needs every parameter layer quantized"
            )
        if l < len(plan) - 1 and p.acts is None:
            raise ValueError(
                f"layer {l} has no activation bit-width: inter-layer codes "
                "would be undefined"
            )

    input_bits = 8
    model = FixedPointModel(
        input_scale=float(scales.input_scale), input_bits=input_bits
    )
    pidx = 0
    din, m_in = float(scales.input_scale), input_bits  # the next layer's input
    shift_ok = True
    for entry in net_spec(net):
        kind = entry[0]
        if kind in ("conv", "linear"):
            layer = params[pidx]
            n = plan[pidx].weights
            d = float(scales.weight_scales[pidx])
            m = plan[pidx].acts
            w = layer.W
            wq = qz.quantize_signed(w, d, n)
            worst = float(np.max(np.abs(w - wq))) if w.size else 0.0
            if worst > 0.25 * d:
                raise ValueError(
                    f"layer {pidx} not converged: max weight distance from a "
                    f"level is {worst:.3e} > 0.25*delta = {0.25 * d:.3e}"
                )
            codes = np.asarray(qz.code_signed(w, d, n), dtype=np.int64)
            if not np.array_equal(codes * d, np.asarray(wq)):
                raise ValueError(f"layer {pidx}: codes do not reproduce levels")
            step = bias_grid_step(plan, scales, pidx)
            bias = np.asarray(qz.round_half_away(layer.b / step), dtype=np.int64)
            if not np.array_equal(bias * step, np.asarray(qz.snap_to_grid(layer.b, step))):
                raise ValueError(f"layer {pidx}: bias codes do not reproduce grid")
            if bias.size and np.abs(bias).max() > INT32_MAX:
                raise ValueError(f"layer {pidx}: bias codes exceed 32-bit range")
            dout = float(scales.act_scales[pidx]) if m is not None else 0.0
            fx = FxLayer(
                kind="conv" if kind == "conv" else "fc",
                weight_codes=codes,
                bias_codes=bias,
                weight_bits=n,
                act_bits=m if m is not None else 0,
                weight_scale=d,
                in_scale=din,
                out_scale=dout,
            )
            if kind == "conv":
                fx.in_ch, fx.out_ch, fx.ksize = layer.in_ch, layer.out_ch, layer.ksize
                fx.stride, fx.pad = layer.stride, layer.pad
            else:
                fx.in_features, fx.out_features = layer.in_features, layer.out_features
            bound = accumulator_bound(fx, m_in)
            if bound > INT32_MAX:
                raise ValueError(
                    f"layer {pidx}: worst-case accumulator {bound} exceeds "
                    f"32-bit range {INT32_MAX}"
                )
            mult = fx.multiplier if m is not None else fx.logit_scale
            fx.shift = _shift_exponent(mult)
            shift_ok = shift_ok and fx.shift is not None
            model.layers.append(fx)
            pidx += 1
            din, m_in = dout, m
        elif kind in ("maxpool", "relu", "flatten"):
            size = entry[1] if kind == "maxpool" else 0
            model.layers.append(FxLayer(kind=kind, size=size))
        else:
            raise ValueError(f"cannot convert layer kind {kind!r}")
    model.shift_only = shift_ok
    if not shift_ok:
        for fx in model.layers:
            fx.shift = None
    return model


def accumulator_bound(fx: FxLayer, in_bits):
    """fan_in * 2^(n-1) * (2^m_in - 1) + max|bias|: the largest magnitude any
    partial sum of the layer's multiply-accumulate can reach, in any order,
    when its inputs are m_in-bit codes."""
    fan_in = fx.in_ch * fx.ksize**2 if fx.kind == "conv" else fx.in_features
    bias = int(np.abs(fx.bias_codes).max()) if fx.bias_codes.size else 0
    return fan_in * 2 ** (fx.weight_bits - 1) * (2**in_bits - 1) + bias


def _acc_dtype(bound):
    """The cheapest dtype the bound proves exact: float32 holds every integer
    below 2^24, float64 every integer below 2^53."""
    return np.float32 if bound < 2**24 else np.float64 if bound < 2**53 else np.int64


def _gemm(x, w, bias, dtype):
    """x @ w.T + bias, all in dtype: the one multiply-accumulate of the
    engine (BLAS for the float types, numpy's loop for int64)."""
    acc = x.astype(dtype, copy=False) @ w.reshape(len(bias), -1).T.astype(dtype)
    acc += bias.astype(dtype)
    return acc


def _conv_int(x, fx: FxLayer, dtype):
    """Accumulator of a conv layer on an NHWC map, as an NHWC map. Columns
    run over (kh, kw, c), the weights are permuted to match, and an exact
    sum does not depend on the order."""
    cols, ho, wo = im2col(x.astype(dtype, copy=False), fx.ksize, fx.stride, fx.pad)
    w = fx.weight_codes.transpose(0, 2, 3, 1)
    acc = _gemm(cols, w, fx.bias_codes, dtype)
    return acc.reshape(x.shape[0], ho, wo, -1)


def _flatten_int(x):
    """Rows in NCHW order, the order of the fc weights."""
    return (x.transpose(0, 3, 1, 2) if x.ndim == 4 else x).reshape(x.shape[0], -1)


def _requant_mult(acc, fx: FxLayer):
    """clip(round_half_away(acc * multiplier), 0, 2^m - 1) in float64, as
    floor(max(y, 0) + 0.5) in place: the two agree once y >= 0."""
    y = np.multiply(acc, fx.multiplier, dtype=np.float64)
    np.maximum(y, 0.0, out=y)
    y += 0.5
    np.floor(y, out=y)
    return np.minimum(y, 2**fx.act_bits - 1, out=y)


def _requant_shift(acc, fx: FxLayer):
    """sign(v) * ((|v| + 2^(s-1)) >> s) clipped to [0, 2^m - 1], in int64;
    clipping at 0 first leaves the result unchanged."""
    v = np.maximum(acc, 0).astype(np.int64, copy=False)
    s = fx.shift
    if s <= 0:
        v <<= -s
    else:
        v += 1 << (s - 1)
        v >>= s
    return np.minimum(v, 2**fx.act_bits - 1, out=v)


def _run_int(model: FixedPointModel, codes, in_bits, shift, debug):
    """One batch, NHWC inside, each layer in the dtype its accumulator_bound
    proves exact. A requantization waits past the max-pools after it: the
    rescale is monotone, so the codes are the same, and fewer values are
    rescaled. shift, the only difference of infer_shift, picks the rescale."""
    x = codes.transpose(0, 2, 3, 1) if codes.ndim == 4 else codes
    bits, pending, logits = in_bits, None, None
    for fx in model.layers:
        if fx.kind == "maxpool":
            x = max_pool(x, fx.size)
            continue
        if pending is not None:
            x = (_requant_shift if shift else _requant_mult)(x, pending)
            bits, pending = pending.act_bits, None
        if fx.kind in ("conv", "fc"):
            dtype = _acc_dtype(accumulator_bound(fx, bits))
            if fx.kind == "conv":
                acc = _conv_int(x, fx, dtype)
            else:
                acc = _gemm(x, fx.weight_codes, fx.bias_codes, dtype)
            if debug and acc.size and np.abs(acc).max() > INT32_MAX:
                raise OverflowError(
                    f"accumulator {np.abs(acc).max()} exceeds the declared "
                    f"32-bit width"
                )
            if fx.act_bits:
                x, pending = acc, fx
            else:
                y = acc.astype(np.float64)
                logits = np.ldexp(y, -fx.shift) if shift else y * fx.logit_scale
        elif fx.kind == "relu":
            x = np.maximum(x, 0)
        elif fx.kind == "flatten":
            x = _flatten_int(x)
    if logits is None:
        raise ValueError("model has no final parameter layer")
    return logits.transpose(0, 3, 1, 2) if logits.ndim == 4 else logits


def _infer(model: FixedPointModel, inp, batch, debug, shift):
    if not isinstance(inp, IntTensor):
        inp = encode_input(inp, model)
    codes = inp.codes
    outs = [
        _run_int(model, codes[s : s + batch], inp.bits, shift, debug)
        for s in range(0, codes.shape[0], batch)
    ]
    return np.concatenate(outs, axis=0)


def infer(model: FixedPointModel, inp, batch=512, debug=False):
    """Integer-only forward; returns real logits (n, classes)."""
    return _infer(model, inp, batch, debug, shift=False)


def infer_shift(model: FixedPointModel, inp, batch=512, debug=False):
    """infer with every rescale done as an arithmetic shift (round half away
    from zero before truncation). Only valid when conversion found every
    multiplier to be a power of two."""
    if not model.shift_only:
        raise ValueError(
            "model has non-power-of-two rescale multipliers; shift inference "
            "is undefined"
        )
    return _infer(model, inp, batch, debug, shift=True)


def simulate_float(model: FixedPointModel, images, batch=512):
    """The same network in real arithmetic with quantizers applied: real
    grid weights, real accumulation, requantization as
    Delta*clip(round(y/Delta)). This is the training-time quantized forward
    restricted to inference, and the oracle infer must agree with."""
    ops = []  # the float layers, built once for all batches
    for fx in model.layers:
        if fx.kind in ("conv", "fc"):
            if fx.kind == "conv":
                op = Conv2d(fx.in_ch, fx.out_ch, fx.ksize, fx.stride, fx.pad)
            else:
                op = Linear(fx.in_features, fx.out_features)
            op.W = fx.weight_codes.astype(np.float64) * fx.weight_scale
            op.b = fx.bias_codes.astype(np.float64) * (fx.weight_scale * fx.in_scale)
        else:
            op = MaxPool2d(fx.size) if fx.kind == "maxpool" else None
        ops.append(op)

    x_all = np.asarray(images, dtype=np.float64)
    if x_all.ndim == 3:
        x_all = x_all.reshape(x_all.shape[0], 1, x_all.shape[1], x_all.shape[2])
    x_all = x_all * model.input_scale

    outs = []
    for s in range(0, x_all.shape[0], batch):
        x, prev = x_all[s : s + batch], None
        for fx, op in zip(model.layers, ops):
            if fx.kind in ("conv", "fc"):
                # requantize at the next layer's input, as the training tap
                # does: the quantizer is monotone, so pooling first gives the
                # same values from a quarter of the work
                if prev is not None and prev.act_bits:
                    x = qz.quantize_unsigned(x, prev.out_scale, prev.act_bits)
                x, prev = op.forward(x, op.W, op.b), fx
            elif fx.kind == "maxpool":
                x = op.forward(x)
            elif fx.kind == "relu":
                x = np.maximum(x, 0.0)
            elif fx.kind == "flatten":
                x = x.reshape(x.shape[0], -1)
        outs.append(x)
    return np.concatenate(outs, axis=0)


def predict(model: FixedPointModel, inp, batch=512, shift=False):
    run = infer_shift if shift else infer
    return np.argmax(run(model, inp, batch=batch), axis=1)


# --- serialization ----------------------------------------------------------


def _code_dtype(bits):
    return "<i1" if bits <= 8 else "<i2"


def save_model(path_or_none, model: FixedPointModel):
    """Serialize to the FXPM container; returns the bytes, and writes them
    if a path is given. Round-trips byte-exactly."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HBBdH", VERSION, int(model.shift_only),
                       model.input_bits, model.input_scale, len(model.layers))
    for fx in model.layers:
        out += struct.pack("<B", _KIND_TAGS[fx.kind])
        if fx.kind == "conv":
            out += struct.pack("<HHBBB", fx.in_ch, fx.out_ch, fx.ksize,
                               fx.stride, fx.pad)
        elif fx.kind == "fc":
            out += struct.pack("<II", fx.in_features, fx.out_features)
        elif fx.kind == "maxpool":
            out += struct.pack("<B", fx.size)
        if fx.kind in ("conv", "fc"):
            shift = SHIFT_NONE if fx.shift is None else fx.shift
            out += struct.pack(
                "<BBdddhII",
                fx.weight_bits,
                fx.act_bits,
                fx.weight_scale,
                fx.in_scale,
                fx.out_scale,
                shift,
                fx.weight_codes.size,
                fx.bias_codes.size,
            )
            out += fx.weight_codes.astype(_code_dtype(fx.weight_bits)).tobytes()
            out += fx.bias_codes.astype("<i4").tobytes()
    blob = bytes(out)
    if path_or_none is not None:
        with open(path_or_none, "wb") as f:
            f.write(blob)
    return blob


class FormatError(ValueError):
    pass


def _bad_scale(x):
    """True unless x is a positive, finite number."""
    return not 0.0 < x < math.inf


class _Cursor:
    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, fmt):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.buf):
            raise FormatError(
                f"truncated file: needed {size} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        vals = struct.unpack_from(fmt, self.buf, self.pos)
        self.pos += size
        return vals

    def take_array(self, dtype, count):
        size = np.dtype(dtype).itemsize * count
        if self.pos + size > len(self.buf):
            raise FormatError(
                f"truncated code block: needed {size} bytes at offset "
                f"{self.pos}, have {len(self.buf) - self.pos}"
            )
        arr = np.frombuffer(self.buf, dtype=dtype, count=count, offset=self.pos)
        self.pos += size
        return arr.astype(np.int64)


def load_model(path_or_bytes):
    if isinstance(path_or_bytes, (bytes, bytearray)):
        buf = bytes(path_or_bytes)
    else:
        with open(path_or_bytes, "rb") as f:
            buf = f.read()
    cur = _Cursor(buf)
    magic = bytes(cur.take("<4s")[0])
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, shift_only, input_bits, input_scale, n_layers = cur.take("<HBBdH")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if not 1 <= input_bits <= 16 or _bad_scale(input_scale):
        raise FormatError("invalid input encoding")
    model = FixedPointModel(
        input_scale=input_scale, input_bits=input_bits, shift_only=bool(shift_only)
    )
    in_bits = input_bits
    for i in range(n_layers):
        (tag,) = cur.take("<B")
        kind = _TAG_KINDS.get(tag)
        if kind is None:
            raise FormatError(f"layer {i}: unknown kind tag {tag}")
        fx = FxLayer(kind=kind)
        if kind == "conv":
            fx.in_ch, fx.out_ch, fx.ksize, fx.stride, fx.pad = cur.take("<HHBBB")
        elif kind == "fc":
            fx.in_features, fx.out_features = cur.take("<II")
        elif kind == "maxpool":
            (fx.size,) = cur.take("<B")
        if kind in ("conv", "fc"):
            (fx.weight_bits, fx.act_bits, fx.weight_scale, fx.in_scale,
             fx.out_scale, shift, n_w, n_b) = cur.take("<BBdddhII")
            if not 1 <= fx.weight_bits <= 16:
                raise FormatError(f"layer {i}: weight bits {fx.weight_bits}")
            if fx.act_bits > 16:
                raise FormatError(f"layer {i}: act bits {fx.act_bits}")
            if _bad_scale(fx.weight_scale) or _bad_scale(fx.in_scale):
                raise FormatError(f"layer {i}: non-positive or non-finite scale")
            if fx.act_bits and _bad_scale(fx.out_scale):
                raise FormatError(f"layer {i}: non-positive or non-finite output scale")
            fx.shift = None if shift == SHIFT_NONE else shift
            fx.weight_codes = cur.take_array(_code_dtype(fx.weight_bits), n_w)
            fx.bias_codes = cur.take_array("<i4", n_b)
            half = 2 ** (fx.weight_bits - 1)
            if fx.weight_codes.size and (
                fx.weight_codes.min() < -half or fx.weight_codes.max() > half - 1
            ):
                raise FormatError(f"layer {i}: weight codes out of range")
            bound = accumulator_bound(fx, in_bits)
            if bound > INT32_MAX:
                raise FormatError(
                    f"layer {i}: worst-case accumulator {bound} exceeds 32-bit "
                    f"range {INT32_MAX}"
                )
            in_bits = fx.act_bits or in_bits
            if kind == "conv":
                fx.weight_codes = fx.weight_codes.reshape(
                    fx.out_ch, fx.in_ch, fx.ksize, fx.ksize
                )
            else:
                fx.weight_codes = fx.weight_codes.reshape(
                    fx.out_features, fx.in_features
                )
        model.layers.append(fx)
    if cur.pos != len(buf):
        raise FormatError(f"{len(buf) - cur.pos} trailing bytes after layer data")
    if model.shift_only and any(
        fx.shift is None for fx in model.layers if fx.kind in ("conv", "fc")
    ):
        raise FormatError("shift-only flag set but a layer has no shift amount")
    return model
