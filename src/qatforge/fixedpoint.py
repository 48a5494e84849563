"""The quantized-model IR and integer-only inference.

FixedPointModel is the one representation of a quantized network: per
layer its geometry, integer weight codes, integer biases on the
weight_scale * in_scale grid, and the scales that tie them together.
FixedPointModel.from_network builds it from a trained float network, its
scales and its bit plan; convert (here) and compression.encode_model both
start from it. Its two serializations are FXPM (save_model/load_model,
below), ready for integer-only inference, and the QZIP archive (compression),
entropy-coded and sparse; they share the layer records of docs/formats.md.
freeze holds the integer contract a model must meet to run here; convert
and load_model both run it, and freeze(decode_model(...)) turns an archive
into an FXPM model.

One layer runs as: integer accumulate, integer bias add, one combined
rescale weight_scale*in_scale/act_scale with round-half-away-from-zero, clip
to the unsigned activation range (which also plays the role of ReLU), and
the codes feed the next layer. The final layer skips requantization and
emits real logits scaled by weight_scale*in_scale. When every scale is a
power of two the rescale collapses to an arithmetic shift (infer_shift).

The accumulator contract is 32-bit signed: accumulator_bound gives
fan_in * 2^(n-1) * (2^m - 1) + max|bias| per layer, freeze refuses a layer
whose bound exceeds 2^31 - 1, and infer(debug=True)
re-checks the realized accumulators. The multiply-accumulate is exact
integer arithmetic, carried out in any arithmetic the bound proves exact:
every partial sum is an integer no larger than the bound, so a float32 GEMM
is exact below 2^24 and a float64 GEMM below 2^53, and both run on BLAS.
int64 is left for wider hand-built layers.

simulate_float runs the same model in real arithmetic: to_network() through
the training-time quantizer tap. It is the equivalence oracle for infer.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import quantizers as qz
from .models import net_from_spec, net_spec
from .nn import im2col, max_pool
from .training import LayerBits, QuantTap, ScaleState

INT32_MAX = 2**31 - 1
MAGIC = b"FXPM"
VERSION = 1
SHIFT_NONE = -(2**15)  # sentinel in the i16 shift slot

# kind: (tag, geometry format, geometry fields) of a layer record, the same
# in FXPM and QZIP (docs/formats.md)
_RECORDS = {
    "conv": (1, "<HHBBB", ("in_ch", "out_ch", "ksize", "stride", "pad")),
    "fc": (2, "<II", ("in_features", "out_features")),
    "relu": (3, "<", ()),
    "maxpool": (4, "<B", ("size",)),
    "flatten": (5, "<", ()),
}
_TAG_KINDS = {tag: kind for kind, (tag, _, _) in _RECORDS.items()}


def code_range(bits):
    """Lowest and highest signed weight code of a bit-width; binary weights
    are the two codes -1 and +1."""
    half = 2 ** (bits - 1)
    return (-1, 1) if bits == 1 else (-half, half - 1)


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
        return code_range(self.bits) if self.signed else (0, 2**self.bits - 1)


@dataclass
class FxLayer:
    """One layer of the IR: the geometry of its kind and, for conv and fc,
    the codes, bit-widths and scales."""

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
    codes: np.ndarray | None = None  # full-shape weight codes, zeros included
    bias_codes: np.ndarray | None = None
    weight_bits: int = 0
    act_bits: int = 0  # 0 = output not requantized (the final layer)
    weight_scale: float = 0.0
    in_scale: float = 0.0  # real value of one input code step
    act_scale: float = 0.0  # real value of one output code step; 0.0 when act_bits = 0
    shift: int | None = None

    @property
    def logit_scale(self):
        """Real value of one accumulator step, and so of one bias code."""
        return self.weight_scale * self.in_scale

    @property
    def bias_step(self):
        return self.logit_scale

    @property
    def multiplier(self):
        return self.logit_scale / self.act_scale

    @property
    def weight_shape(self):
        if self.kind == "conv":
            return (self.out_ch, self.in_ch, self.ksize, self.ksize)
        return (self.out_features, self.in_features)

    def weights(self):
        return self.codes.astype(np.float64) * self.weight_scale

    def biases(self):
        return self.bias_codes.astype(np.float64) * self.bias_step


@dataclass
class FixedPointModel:
    """The quantized-model IR; input codes are uint8 pixels unless
    input_bits says otherwise."""

    input_scale: float
    input_bits: int = 8
    layers: list = field(default_factory=list)
    shift_only: bool = False

    @property
    def param_layers(self):
        return [l for l in self.layers if l.kind in ("conv", "fc")]

    @property
    def weight_bits(self):
        """The widest weight bit-width; a QZIP archive has one for all."""
        return max((l.weight_bits for l in self.param_layers), default=0)

    @property
    def act_bits(self):
        """The widest activation bit-width, 0 when no output is requantized;
        a QZIP archive has one for all requantized outputs."""
        return max((l.act_bits for l in self.param_layers), default=0)

    @classmethod
    def from_network(cls, net, scales, plan):
        """The model a trained network, its scales and its bit plan define:
        weight codes code_signed(W), bias codes round(b / bias_step), and an
        input step per layer of input_scale, the previous layer's act_scale,
        or 1.0 after an output left in float. It refuses a layer with no
        weight bit-width; freeze checks the rest of the integer contract."""
        model = cls(input_scale=float(scales.input_scale))
        params, pidx, in_scale = net.param_layers, 0, model.input_scale
        for entry in net_spec(net):
            kind = "fc" if entry[0] == "linear" else entry[0]
            layer = FxLayer(kind, **dict(zip(_RECORDS[kind][2], entry[1:])))
            if kind in ("conv", "fc"):
                p = plan[pidx]
                if p.weights is None:
                    raise ValueError(
                        f"layer {pidx} has no weight bit-width: integer-only "
                        "conversion needs every parameter layer quantized"
                    )
                layer.weight_bits, layer.act_bits = p.weights, p.acts or 0
                layer.weight_scale = float(scales.weight_scales[pidx])
                layer.in_scale = in_scale
                if p.acts is not None:
                    layer.act_scale = float(scales.act_scales[pidx])
                code = qz.code_signed(params[pidx].W, layer.weight_scale, p.weights)
                layer.codes = code.astype(np.int64)
                bias = qz.round_half_away(params[pidx].b / layer.bias_step)
                layer.bias_codes = bias.astype(np.int64)
                in_scale = layer.act_scale if p.acts is not None else 1.0
                pidx += 1
            model.layers.append(layer)
        return model

    def to_network(self):
        """A float network carrying the exact dequantized values."""
        spec = [
            ["linear" if l.kind == "fc" else l.kind,
             *(getattr(l, f) for f in _RECORDS[l.kind][2])]
            for l in self.layers
        ]
        net = net_from_spec(spec)
        for src, dst in zip(self.param_layers, net.param_layers):
            dst.W, dst.b = src.weights(), src.biases()
        return net


def encode_input(images, model: FixedPointModel):
    """uint8 images are already the input codes: pixel value = code, real
    value = code * input_scale."""
    codes = np.asarray(images)
    if codes.min() < 0 or codes.max() > 2**model.input_bits - 1:
        raise ValueError("input codes outside the declared input bit-width")
    if codes.ndim == 3:
        codes = codes.reshape(codes.shape[0], 1, codes.shape[1], codes.shape[2])
    return IntTensor(codes, model.input_bits, signed=False)


def _shift_exponent(x):
    """s with x == 2**(-s), or None."""
    if x <= 0 or not qz.is_pow2(x):
        return None
    return -int(np.frexp(x)[1] - 1)


def convert(net, scales, plan):
    """Freeze a trained float network into a FixedPointModel: from_network,
    then freeze. Refuses when any weight sits farther than 0.25*delta from
    its nearest level: that model has not converged onto its grid and
    integer codes would change the function."""
    model = FixedPointModel.from_network(net, scales, plan)
    for l, (src, fx) in enumerate(zip(net.param_layers, model.param_layers)):
        d = fx.weight_scale
        worst = float(np.max(np.abs(src.W - fx.weights()))) if src.W.size else 0.0
        if worst > 0.25 * d:
            raise ValueError(
                f"layer {l} not converged: max weight distance from a "
                f"level is {worst:.3e} > 0.25*delta = {0.25 * d:.3e}"
            )
    return freeze(model)


def freeze(model: FixedPointModel):
    """Check the integer contract of the IR and set the shift amounts;
    returns the model. Each parameter layer reads the codes the layer before
    writes (its in_scale is that layer's act_scale, input_scale for the
    first); every layer but the last requantizes its output and the last
    does not; bias codes fit int32; and accumulator_bound is at most
    2^31 - 1. shift is the exponent of each rescale when every one is a
    power of two (shift_only), else None everywhere."""
    params = model.param_layers
    in_bits, in_scale = model.input_bits, model.input_scale
    for l, fx in enumerate(params):
        if fx.in_scale != in_scale:
            raise ValueError(
                f"layer {l}: in_scale {fx.in_scale!r} is not the output "
                f"scale {in_scale!r} of the layer before"
            )
        if not fx.act_bits and l < len(params) - 1:
            raise ValueError(
                f"layer {l} has no activation bit-width: inter-layer codes "
                "would be undefined"
            )
        if fx.act_bits and l == len(params) - 1:
            raise ValueError(f"layer {l}: the final layer requantizes its logits")
        if fx.bias_codes.size and np.abs(fx.bias_codes).max() > INT32_MAX:
            raise ValueError(f"layer {l}: bias codes exceed 32-bit range")
        bound = accumulator_bound(fx, in_bits)
        if bound > INT32_MAX:
            raise ValueError(
                f"layer {l}: worst-case accumulator {bound} exceeds "
                f"32-bit range {INT32_MAX}"
            )
        fx.shift = _shift_exponent(fx.multiplier if fx.act_bits else fx.logit_scale)
        in_bits, in_scale = fx.act_bits, fx.act_scale
    model.shift_only = all(fx.shift is not None for fx in params)
    if not model.shift_only:
        for fx in params:
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
    w = fx.codes.transpose(0, 2, 3, 1)
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
    for i, fx in enumerate(model.layers):
        if fx.kind == "maxpool":
            x = max_pool(x, fx.size)
            continue
        if pending is not None:
            x = (_requant_shift if shift else _requant_mult)(x, pending)
            bits, pending = pending.act_bits, None
        if fx.kind in ("conv", "fc"):
            if logits is not None:
                raise ValueError(f"layer {i} follows the final, unrequantized layer")
            dtype = _acc_dtype(accumulator_bound(fx, bits))
            if fx.kind == "conv":
                acc = _conv_int(x, fx, dtype)
            else:
                acc = _gemm(x, fx.codes, fx.bias_codes, dtype)
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
    """The same network in real arithmetic with quantizers applied: the
    training-time quantized forward, to_network() through a QuantTap, and
    the oracle infer must agree with. to_network() already holds the grid
    values of the weights and biases, so the tap only requantizes each
    junction, where the next layer reads it, after any max-pool; the
    quantizer is monotone, so pooling first gives the same values. The
    logits differ from infer's only by the rounding of the float sums:
    round(logits / logit_scale) gives infer's accumulators, also for scales
    that are not powers of two, so the argmax can differ from infer's only
    where infer's logits tie exactly."""
    params = model.param_layers
    tap = QuantTap(
        [LayerBits(None, l.act_bits or None) for l in params],
        ScaleState(
            np.array([l.weight_scale for l in params]),
            np.array([l.act_scale for l in params]),
            model.input_scale,
        ),
    )
    net = model.to_network()
    x = np.asarray(images, dtype=np.float64)
    if x.ndim == 3:
        x = x.reshape(x.shape[0], 1, x.shape[1], x.shape[2])
    x = x * model.input_scale
    outs = [net.forward(x[s : s + batch], tap) for s in range(0, x.shape[0], batch)]
    return np.concatenate(outs, axis=0)


def predict(model: FixedPointModel, inp, batch=512, shift=False):
    run = infer_shift if shift else infer
    return np.argmax(run(model, inp, batch=batch), axis=1)


# --- serialization ----------------------------------------------------------


def _code_dtype(bits):
    return "<i1" if bits <= 8 else "<i2"


def _write_record(out, layer):
    """A layer record's kind tag and geometry, shared with QZIP."""
    tag, fmt, fields = _RECORDS[layer.kind]
    out += struct.pack("<B", tag)
    out += struct.pack(fmt, *(getattr(layer, f) for f in fields))


def save_model(path_or_none, model: FixedPointModel):
    """Serialize to the FXPM container; returns the bytes, and writes them
    if a path is given. Round-trips byte-exactly."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HBBdH", VERSION, int(model.shift_only),
                       model.input_bits, model.input_scale, len(model.layers))
    for fx in model.layers:
        _write_record(out, fx)
        if fx.kind in ("conv", "fc"):
            shift = SHIFT_NONE if fx.shift is None else fx.shift
            out += struct.pack(
                "<BBdddhII",
                fx.weight_bits,
                fx.act_bits,
                fx.weight_scale,
                fx.in_scale,
                fx.act_scale,
                shift,
                fx.codes.size,
                fx.bias_codes.size,
            )
            out += fx.codes.astype(_code_dtype(fx.weight_bits)).tobytes()
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

    def take_record(self, i):
        """A layer record's kind tag and geometry, as a layer without
        parameters."""
        (tag,) = self.take("<B")
        kind = _TAG_KINDS.get(tag)
        if kind is None:
            raise FormatError(f"layer {i}: unknown kind tag {tag}")
        _, fmt, fields = _RECORDS[kind]
        return FxLayer(kind, **dict(zip(fields, self.take(fmt))))


def load_model(path_or_bytes):
    """Read an FXPM container. Every malformed file raises FormatError: each
    count is checked against the geometry and the bytes left before anything
    is allocated from it, the model must pass freeze, and each stored shift
    must be the one freeze derives. A file that stores no shifts
    (shift_only 0, every shift SHIFT_NONE) loads with the derived ones."""
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
    model = FixedPointModel(input_scale=input_scale, input_bits=input_bits)
    for i in range(n_layers):
        fx = cur.take_record(i)
        if fx.kind in ("conv", "fc"):
            (fx.weight_bits, fx.act_bits, fx.weight_scale, fx.in_scale,
             fx.act_scale, shift, n_w, n_b) = cur.take("<BBdddhII")
            if not 1 <= fx.weight_bits <= 16:
                raise FormatError(f"layer {i}: weight bits {fx.weight_bits}")
            if fx.act_bits > 16:
                raise FormatError(f"layer {i}: act bits {fx.act_bits}")
            if _bad_scale(fx.weight_scale) or _bad_scale(fx.in_scale):
                raise FormatError(f"layer {i}: non-positive or non-finite scale")
            if fx.act_bits and _bad_scale(fx.act_scale):
                raise FormatError(f"layer {i}: non-positive or non-finite output scale")
            shape = fx.weight_shape
            if n_w != math.prod(shape) or n_b != shape[0]:
                raise FormatError(
                    f"layer {i}: {n_w} weights and {n_b} biases for weights of "
                    f"shape {shape}"
                )
            fx.shift = None if shift == SHIFT_NONE else shift
            fx.codes = cur.take_array(_code_dtype(fx.weight_bits), n_w).reshape(shape)
            fx.bias_codes = cur.take_array("<i4", n_b)
            lo, hi = code_range(fx.weight_bits)
            if fx.codes.size and (fx.codes.min() < lo or fx.codes.max() > hi):
                raise FormatError(f"layer {i}: weight codes out of range")
        model.layers.append(fx)
    if cur.pos != len(buf):
        raise FormatError(f"{len(buf) - cur.pos} trailing bytes after layer data")
    stored = (bool(shift_only), [fx.shift for fx in model.param_layers])
    try:
        freeze(model)
    except ValueError as e:
        raise FormatError(str(e)) from None
    derived = (model.shift_only, [fx.shift for fx in model.param_layers])
    if stored != derived and stored != (False, [None] * len(stored[1])):
        raise FormatError(f"stored shifts {stored} are not the rescale exponents {derived}")
    return model
