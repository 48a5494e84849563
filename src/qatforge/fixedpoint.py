"""The quantized-model IR and integer-only inference.

FixedPointModel is the one representation of a quantized network: per
layer its geometry (the fields of its nn class), integer weight codes,
integer biases on the weight_scale * in_scale grid, and its scales.
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
fan_in * 2^(n-1) * (2^m - 1) + max|bias| per layer, and freeze refuses a
layer whose bound exceeds 2^31 - 1. The multiply-accumulate is exact
integer arithmetic, carried out in any arithmetic the bound proves exact:
every partial sum is an integer no larger than the bound, so a float32 GEMM
is exact below 2^24 and a float64 GEMM below 2^53, and both run on BLAS.
int64 is left for wider hand-built layers. infer and infer_shift run the
model's nn layers on its codes through Network.forward, the loop of training
and simulate_float. infer, infer_shift, simulate_float and predict take a
model and its images, which encode_input refuses unless they are integer
codes within input_bits. Each call builds one network on weights cast
once and runs it on tiles of TILE (64) images, whose columns stay cache-sized.

The bit plan (LayerBits), the scales (ScaleState), the input-step and
bias-grid rule and the quantizer tap (QuantTap) also live here, below
training: the training forward runs through QuantTap, and so does
simulate_float, the equivalence oracle for infer, which runs the same model
in real arithmetic as to_network() through that tap. The same bound decides
its arithmetic: when every scale is a power of two that float32 holds and
every layer's bound is below 2^24, each of its values is an integer below
2^24 times a power of two, so it runs in float32 and is exact; any other
model runs in float64.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import quantizers as qz
from .nn import Conv2d, Flatten, Linear, MaxPool2d, Network, ReLU, fan_in

INT32_MAX = 2**31 - 1
MAGIC = b"FXPM"
VERSION = 1
SHIFT_NONE = -(2**15)  # sentinel in the i16 shift slot
TILE = 64  # images per inference tile

# IR kind: (tag, geometry format, nn class) of a layer record, the same in
# FXPM and QZIP (docs/formats.md); the geometry is the class's fields
_RECORDS = {
    "conv": (1, "<HHBBB", Conv2d),
    "fc": (2, "<II", Linear),
    "relu": (3, "<", ReLU),
    "maxpool": (4, "<B", MaxPool2d),
    "flatten": (5, "<", Flatten),
}
_TAG_KINDS = {tag: kind for kind, (tag, _, _) in _RECORDS.items()}
_CLASS_KINDS = {cls: kind for kind, (_, _, cls) in _RECORDS.items()}


# --- the bit plan, the scales and the quantizer tap ------------------------


@dataclass(frozen=True)
class LayerBits:
    weights: int | None
    acts: int | None


@dataclass
class ScaleState:
    """Per-parameter-layer quantizer scales.

    weight_scales[l] is the weight cell size of layer l; act_scales[l] is the
    cell size of the quantized output block of layer l (the input of layer
    l+1), so the final slot exists but is never consumed. input_scale is the
    fixed encoding of the network input.
    """

    weight_scales: np.ndarray
    act_scales: np.ndarray
    input_scale: float


def input_step(plan, scales: ScaleState, idx):
    """Real value of one input code step of layer idx: the input encoding
    for the first layer, else the scale of the previous layer's quantized
    output, or 1.0 when that output stays in float (it has no grid)."""
    if idx == 0:
        return float(scales.input_scale)
    return float(scales.act_scales[idx - 1]) if plan[idx - 1].acts is not None else 1.0


def bias_grid_step(plan, scales: ScaleState, idx):
    """Bias grid of layer idx: delta_l times its input step, the step of one
    accumulator unit. Without an input grid biases ride the weight grid."""
    return float(scales.weight_scales[idx]) * input_step(plan, scales, idx)


class QuantTap:
    """Routes a forward pass through the quantizers.

    weights() substitutes grid values built from the float masters;
    activation() keeps the pre-tap values of every junction (for the
    activation MSQE, its scale gradient and init_scales' calibration) and
    quantizes those the plan gives bits; activation_backward() applies the
    straight-through mask. Each quantized tensor is divided by its scale
    once per step: the tap keeps t = x/delta and the codes of every weight
    tensor (wt, wcode) and junction (at, acode), and the grid biases (bq),
    and the regularizer terms and pass masks of the same step read them.
    """

    def __init__(self, plan, scales: ScaleState):
        self.plan = plan
        self.scales = scales
        n = len(plan)
        self.wt, self.wcode, self.bq = [None] * n, [None] * n, [None] * n
        self.pre_acts, self.at, self.acode = [None] * n, [None] * n, [None] * n

    def weights(self, idx, w, b):
        bits = self.plan[idx].weights
        if bits is None:
            return w, b
        d = float(self.scales.weight_scales[idx])
        t = qz.scaled(w, d, bits)
        code = qz.signed_code(t, bits)
        bq = qz.snap_to_grid(b, bias_grid_step(self.plan, self.scales, idx))
        self.wt[idx], self.wcode[idx], self.bq[idx] = t, code, bq
        return d * code, bq

    def activation(self, idx, x):
        self.pre_acts[idx] = x
        bits = self.plan[idx].acts
        if bits is None:
            return x
        d = float(self.scales.act_scales[idx])
        t = qz.scaled(x, d, bits)
        code = qz.unsigned_code(t, bits)
        self.at[idx], self.acode[idx] = t, code
        return d * code

    def activation_backward(self, idx, g):
        bits = self.plan[idx].acts
        if bits is None:
            return g
        return g * qz.activation_pass(self.at[idx], bits)


def code_range(bits):
    """Lowest and highest signed weight code of a bit-width; binary weights
    are the two codes -1 and +1."""
    half = 2 ** (bits - 1)
    return (-1, 1) if bits == 1 else (-half, half - 1)


@dataclass
class FxLayer:
    """One layer of the IR: the geometry of its kind and, for conv and fc,
    the codes, bit-widths and scales."""

    kind: str
    # geometry: the fields of the conv, fc and maxpool nn classes
    in_ch: int = 0
    out_ch: int = 0
    ksize: int = 0
    stride: int = 1
    pad: int = 0
    in_features: int = 0
    out_features: int = 0
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
    def params(self):
        """True for conv and fc, as the nn class says."""
        return _RECORDS[self.kind][2].params

    @property
    def geometry(self):
        """The values of the nn class's fields, in its constructor order."""
        return [getattr(self, f) for f in _RECORDS[self.kind][2].fields]

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
        return [l for l in self.layers if l.params]

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
        weight codes code_signed(W), bias codes round(b / bias_step), and the
        input step of each layer from input_step. It refuses a layer with no
        weight bit-width and, before the division or cast, a bad scale or a
        bias code outside int32; freeze checks the rest of the contract."""
        layers = [FxLayer(_CLASS_KINDS[type(l)], **{f: getattr(l, f) for f in l.fields})
                  for l in net.layers]
        model = cls(input_scale=float(scales.input_scale), layers=layers)
        for pidx, (src, layer) in enumerate(zip(net.param_layers, model.param_layers)):
            p = plan[pidx]
            if p.weights is None:
                raise ValueError(
                    f"layer {pidx} has no weight bit-width: integer-only "
                    "conversion needs every parameter layer quantized"
                )
            layer.weight_bits, layer.act_bits = p.weights, p.acts or 0
            layer.weight_scale = float(scales.weight_scales[pidx])
            layer.in_scale = input_step(plan, scales, pidx)
            if p.acts is not None:
                layer.act_scale = _scale(pidx, "act_scale", float(scales.act_scales[pidx]))
            layer.codes = _weight_codes(src.W, layer.weight_scale, p.weights)
            bias = src.b / _scale(pidx, "bias_step", layer.bias_step)
            if not (np.abs(bias) <= INT32_MAX).all():  # nan fails too
                raise ValueError(f"layer {pidx}: bias codes exceed 32-bit range")
            layer.bias_codes = qz.round_half_away(bias).astype(np.int64)
        return model

    def to_network(self):
        """A float network carrying the exact dequantized values."""
        return self._network((l.weights(), l.biases()) for l in self.param_layers)

    def _network(self, arrays):
        """The nn network of the layer records, its parameter layers holding
        the (W, b) pairs of arrays; to_network and the engine build here."""
        net = Network(_RECORDS[l.kind][2](*l.geometry) for l in self.layers)
        for layer, (w, b) in zip(net.param_layers, arrays):
            layer.W, layer.b = w, b
        return net


def _weight_codes(w, delta, bits):
    """code_signed(w) as int64. From 2 bits up code_signed(0) is 0, so only
    the nonzero weights are coded; the 1-bit code of 0 is +1."""
    if bits == 1:
        return qz.code_signed(w, delta, bits).astype(np.int64)
    codes = np.zeros(w.shape, dtype=np.int64)
    flat, nz = codes.reshape(-1), np.flatnonzero(w != 0)
    flat[nz] = qz.code_signed(w.reshape(-1)[nz], delta, bits)
    return codes


def encode_input(images, model: FixedPointModel):
    """uint8 images are already the input codes: pixel value = code, real
    value = code * input_scale. Returns the codes themselves, as NCHW for
    (n, h, w) images, once checked to be integers within input_bits."""
    codes = np.asarray(images)
    if codes.dtype.kind not in "ui":
        raise ValueError(f"input codes must be integers, not {codes.dtype}")
    if codes.size and (codes.min() < 0 or codes.max() > 2**model.input_bits - 1):
        raise ValueError("input codes outside the declared input bit-width")
    if codes.ndim == 3:
        codes = codes.reshape(codes.shape[0], 1, codes.shape[1], codes.shape[2])
    return codes


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
    returns the model. Its scales are positive and finite (act_scale where
    act_bits > 0); each parameter layer reads the codes the layer before
    writes (its in_scale is that layer's act_scale, input_scale for the
    first); every layer but the last requantizes its output and the last
    does not; bias codes fit int32; and accumulator_bound is at most
    2^31 - 1. shift is the exponent of each rescale when every one is a
    power of two (shift_only), else None everywhere."""
    params = model.param_layers
    in_bits, in_scale = model.input_bits, model.input_scale
    for l, fx in enumerate(params):
        for name in ("weight_scale", "in_scale", "act_scale")[: 3 if fx.act_bits else 2]:
            _scale(l, name, getattr(fx, name))
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
        bias = fx.bias_codes  # compared as Python ints: np.abs(-2**63) < 0 in int64
        if bias.size and max(-int(bias.min()), int(bias.max())) > INT32_MAX:
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
    bias = int(np.abs(fx.bias_codes).max()) if fx.bias_codes.size else 0
    return fan_in(fx.weight_shape) * 2 ** (fx.weight_bits - 1) * (2**in_bits - 1) + bias


def _acc_dtype(bound):
    """The cheapest dtype the bound proves exact: float32 holds every integer
    below 2^24, float64 every integer below 2^53."""
    return np.float32 if bound < 2**24 else np.float64 if bound < 2**53 else np.int64


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


class _Engine:
    """The integer engine of one infer or infer_shift call, called on each
    tile of codes: one network of the model's nn layers on each parameter
    layer's codes, in the dtype its accumulator_bound proves exact (on
    input_bits wide codes, then each layer's act_bits; an exact sum does
    not depend on its order), through this tap. weights
    passes the codes through; activation requantizes parameter layer idx's
    accumulator where the next one reads it, after any max-pool and ReLU,
    which gives the same codes: the rescale is monotone and clips at 0.
    shift, the only difference of infer_shift, picks the rescale."""

    def __init__(self, model: FixedPointModel, shift):
        self.params, self.shift = model.param_layers, shift
        arrays, in_bits = [], model.input_bits
        for i, fx in enumerate(model.layers):
            if fx.params and arrays and not in_bits:
                raise ValueError(f"layer {i} follows the final, unrequantized layer")
            if fx.params:
                dtype = _acc_dtype(accumulator_bound(fx, in_bits))
                arrays.append((fx.codes.astype(dtype), fx.bias_codes.astype(dtype)))
                in_bits = fx.act_bits
        if in_bits:
            raise ValueError("model has no final parameter layer")
        self.net = model._network(arrays)

    def __call__(self, codes):
        return self.logits(self.net.forward(codes, self)[0])

    def weights(self, idx, w, b):
        return w, b

    def activation(self, idx, x):
        return (_requant_shift if self.shift else _requant_mult)(x, self.params[idx])

    def logits(self, acc):
        """The real logits of the final layer's accumulator, in float64."""
        fx, y = self.params[-1], acc.astype(np.float64)
        return np.ldexp(y, -fx.shift) if self.shift else y * fx.logit_scale


def _tiles(run, x, model: FixedPointModel):
    """run on each TILE-image tile of x, the logits concatenated as
    float64; (0, classes) when x holds no image."""
    if not len(x):
        return np.zeros((0, model.param_layers[-1].weight_shape[0]))
    outs = [run(x[s : s + TILE]) for s in range(0, len(x), TILE)]
    return np.concatenate(outs, axis=0).astype(np.float64, copy=False)


def _infer(model: FixedPointModel, images, shift):
    codes = encode_input(images, model)
    return _tiles(_Engine(model, shift), codes, model)


def infer(model: FixedPointModel, images):
    """Integer-only forward; returns real logits (n, classes)."""
    return _infer(model, images, shift=False)


def infer_shift(model: FixedPointModel, images):
    """infer with every rescale done as an arithmetic shift (round half away
    from zero before truncation). Only valid when conversion found every
    multiplier to be a power of two."""
    if not model.shift_only:
        raise ValueError(
            "model has non-power-of-two rescale multipliers; shift inference "
            "is undefined"
        )
    return _infer(model, images, shift=True)


def _oracle_dtype(model: FixedPointModel):
    """float32 when it computes simulate_float exactly, else float64. It
    does when each layer reads the codes of the one before with an
    accumulator_bound below 2^24 (the in_bits walk of freeze, from the
    input codes encode_input admits), and every step (input_scale, each
    weight_scale, bias_step and requantized act_scale) is a power of two s
    with s and 2^24 * s in float32's normal range, 2^-126 .. 2^127. Every
    weight, bias, input and junction value is then an integer below
    2^24 times a step, and every partial sum an integer multiple of
    bias_step at most bound * bias_step, so each float32 product and sum is
    exact."""
    in_bits, in_scale, steps = model.input_bits, model.input_scale, [model.input_scale]
    for fx in model.param_layers:
        exact = in_bits and fx.in_scale == in_scale
        if not exact or _acc_dtype(accumulator_bound(fx, in_bits)) is not np.float32:
            return np.float64
        in_bits, in_scale = fx.act_bits, fx.act_scale
        steps += [fx.weight_scale, fx.bias_step] + ([fx.act_scale] if fx.act_bits else [])
    exact = all(qz.is_pow2(s) and 2.0**-126 <= s <= 2.0**103 for s in steps)
    return np.float32 if exact else np.float64


def simulate_float(model: FixedPointModel, images):
    """The same network in real arithmetic with quantizers applied: the
    training-time quantized forward, to_network() through a QuantTap, and
    the oracle infer must agree with. to_network() already holds the grid
    values of the weights and biases, so the tap only requantizes each
    junction, where the next layer reads it, after any max-pool; the
    quantizer is monotone, so pooling first gives the same values.

    It runs in float32 where _oracle_dtype proves that exact: power-of-two
    steps and every accumulator_bound below 2^24, as in a pow2 4/4 LeNet.
    Every sum is then exact, and the float64 logits equal infer's. Any other
    model runs in float64, and its logits differ from infer's only by the
    rounding of the float sums: round(logits / logit_scale) gives infer's
    accumulators, also for scales that are not powers of two, so the argmax
    can differ from infer's only where infer's logits tie exactly. It reads
    the same input codes as infer, through encode_input. Tiles of TILE
    images bound the columns of each conv forward; the float64 sums can
    round differently for another tile size."""
    params = model.param_layers
    tap = QuantTap(
        [LayerBits(None, l.act_bits or None) for l in params],
        ScaleState(
            np.array([l.weight_scale for l in params]),
            np.array([l.act_scale for l in params]),
            model.input_scale,
        ),
    )
    codes = encode_input(images, model)
    dtype = _oracle_dtype(model)
    net = model.to_network()
    for layer in net.param_layers:
        layer.W, layer.b = layer.W.astype(dtype, copy=False), layer.b.astype(dtype, copy=False)
    x = codes.astype(dtype) * dtype(model.input_scale)
    return _tiles(lambda t: net.forward(t, tap)[0], x, model)


def predict(model: FixedPointModel, images, shift=False):
    run = infer_shift if shift else infer
    return np.argmax(run(model, images), axis=1)


# --- serialization ----------------------------------------------------------


def _code_dtype(bits):
    return "<i1" if bits <= 8 else "<i2"


def _write_record(out, layer):
    """A layer record's kind tag and geometry, shared with QZIP."""
    tag, fmt, _ = _RECORDS[layer.kind]
    out += struct.pack("<B", tag)
    out += struct.pack(fmt, *layer.geometry)


def save_model(path_or_none, model: FixedPointModel):
    """Serialize to the FXPM container; returns the bytes, and writes them
    if a path is given. Round-trips byte-exactly."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HBBdH", VERSION, int(model.shift_only),
                       model.input_bits, model.input_scale, len(model.layers))
    for fx in model.layers:
        _write_record(out, fx)
        if fx.params:
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


def _scale(l, name, value):
    """value, once checked positive and finite; ValueError naming layer l."""
    if _bad_scale(value):
        raise ValueError(f"layer {l}: {name} {value!r} is not positive and finite")
    return value


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
        parameters. A kernel, stride or pool size of 0 is refused: the
        engine cannot run one."""
        (tag,) = self.take("<B")
        kind = _TAG_KINDS.get(tag)
        if kind is None:
            raise FormatError(f"layer {i}: unknown kind tag {tag}")
        _, fmt, cls = _RECORDS[kind]
        geometry = dict(zip(cls.fields, self.take(fmt)))
        for name in ("ksize", "stride", "size"):
            if geometry.get(name) == 0:
                raise FormatError(f"layer {i}: {kind} {name} is 0")
        return FxLayer(kind, **geometry)


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
        if fx.params:
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
