"""Entropy-coded archives of pruned, quantized networks.

The pipeline being served: prune (most weights exactly zero), quantize the
survivors onto the delta grid, then Huffman-code two streams over one shared
table each: the nonzero weight codes, and the gaps between nonzero positions
(a gap byte of 255 means "add 255 and keep reading", so arbitrary runs fit
in an 8-bit alphabet). Zeros are never stored; a position is zero exactly
when no code claims it, which makes pruning-induced and quantization-induced
zeros indistinguishable on purpose, both are free. Biases, scales, geometry
and the code tables ride uncompressed in the header and are charged to the
compressed size. decode restores every code and position exactly.

An archive is the second serialization of fixedpoint.FixedPointModel, next
to FXPM: encode_model builds the model with FixedPointModel.from_network and
decode_model returns one, and both formats share its layer records. The
byte layout is written down in docs/formats.md; encode/decode round-trips
bit-exactly and the report's component accounting sums to the file size.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
import struct

import numpy as np

from .fixedpoint import (
    FixedPointModel,
    FormatError,
    _bad_scale,
    _Cursor,
    _write_record,
    code_range,
)

MAGIC = b"QZIP"
VERSION = 1
GAP_CONT = 255  # continuation token of the gap alphabet
MAX_WEIGHT_BITS = 8  # weight codes are i8 symbols of the code table
MAX_LAYER_WEIGHTS = 1 << 26  # zeros are free, so the size fields alone bound a layer


# --- canonical Huffman ------------------------------------------------------


def huffman_build(counts):
    """Canonical prefix code from symbol counts: {symbol: (code, length)}.

    Optimal in expected length; ties in the merge order are broken by
    insertion order so the table is deterministic. A single-symbol alphabet
    gets a 1-bit code.
    """
    items = [(c, s) for s, c in counts.items() if c > 0]
    if not items:
        raise ValueError("cannot build a code over an empty histogram")
    if len(items) == 1:
        return {items[0][1]: (0, 1)}
    lengths = {s: 0 for _, s in items}
    heap = []
    for tie, (c, s) in enumerate(sorted(items, key=lambda t: (t[0], t[1]))):
        heap.append((c, tie, [s]))
    heapq.heapify(heap)
    tie = len(heap)
    while len(heap) > 1:
        c1, _, s1 = heapq.heappop(heap)
        c2, _, s2 = heapq.heappop(heap)
        for s in s1 + s2:
            lengths[s] += 1
        heapq.heappush(heap, (c1 + c2, tie, s1 + s2))
        tie += 1
    return canonical_from_lengths(lengths)


def canonical_from_lengths(lengths):
    """Assign canonical codewords: symbols sorted by (length, symbol), each
    codeword = previous + 1, left-shifted when the length grows."""
    code = 0
    prev_len = 0
    table = {}
    for sym in sorted(lengths, key=lambda s: (lengths[s], s)):
        length = lengths[sym]
        code <<= length - prev_len
        table[sym] = (code, length)
        code += 1
        prev_len = length
    return table


def check_prefix_free(table):
    codes = [(format(c, f"0{l}b")) for c, l in table.values()]
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            if i != j and b.startswith(a):
                return False
    return True


class BitWriter:
    """MSB-first bit accumulator."""

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code, length):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            self.buf.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def getvalue(self):
        # zero-pad the final partial byte
        if self.nbits:
            return bytes(self.buf) + bytes([(self.acc << (8 - self.nbits)) & 0xFF])
        return bytes(self.buf)

    @property
    def bits_written(self):
        return 8 * len(self.buf) + self.nbits


class BitReader:
    def __init__(self, data):
        self.data = data
        self.pos = 0  # bit position

    def read_bit(self):
        byte = self.pos >> 3
        if byte >= len(self.data):
            raise ValueError(f"bitstream exhausted at bit {self.pos}")
        bit = (self.data[byte] >> (7 - (self.pos & 7))) & 1
        self.pos += 1
        return bit


class _Decoder:
    def __init__(self, table):
        self.lookup = {(c, l): s for s, (c, l) in table.items()}
        self.max_len = max(l for _, l in table.values()) if table else 0

    def read_symbol(self, reader):
        code = 0
        for length in range(1, self.max_len + 1):
            code = (code << 1) | reader.read_bit()
            sym = self.lookup.get((code, length))
            if sym is not None:
                return sym
        raise ValueError(f"invalid codeword near bit {reader.pos}")


# --- varints for the bias sidecar -------------------------------------------


def _zigzag(v):
    return v * 2 if v >= 0 else -v * 2 - 1


def _unzigzag(z):
    return z // 2 if z % 2 == 0 else -(z // 2) - 1


def _write_varint(out, v):
    z = _zigzag(int(v))
    while True:
        byte = z & 0x7F
        z >>= 7
        if z:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(buf, pos):
    z = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise ValueError(f"truncated varint at offset {pos}")
        byte = buf[pos]
        pos += 1
        z |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            v = _unzigzag(z)
            if not -(1 << 63) <= v < 1 << 63:
                raise ValueError(f"varint outside the int64 range at offset {pos}")
            return v, pos
        if shift > 70:
            raise ValueError(f"varint too long at offset {pos}")


# --- archive ----------------------------------------------------------------


def _gap_tokens(gap):
    while gap >= GAP_CONT:
        yield GAP_CONT
        gap -= GAP_CONT
    yield gap


def encode_model(net, masks, scales, plan):
    """Archive bytes for a pruned+quantized network. masks (keep=True) are
    checked against the zeros rather than stored: pruned positions must have
    code 0, and decode recovers them as zeros."""
    model = FixedPointModel.from_network(net, scales, plan)
    layers = model.param_layers
    for l, (src, q) in enumerate(zip(net.param_layers, layers)):
        err = np.abs(src.W - q.weights())
        if err.size and err.max() > 1e-9 * q.weight_scale:
            raise ValueError(
                f"layer {l}: weights are not at quantization levels "
                f"(max residual {err.max():.3e}); run the training ramp to "
                "termination first"
            )
        berr = np.abs(src.b - q.biases())
        if berr.size and berr.max() > 1e-9 * q.bias_step:
            raise ValueError(f"layer {l}: biases are not on the bias grid")
    if len({q.weight_bits for q in layers}) != 1:
        raise ValueError("all layers must share one weight bit-width")
    weight_bits = model.weight_bits
    if not 1 <= weight_bits <= MAX_WEIGHT_BITS:
        raise ValueError(
            f"{weight_bits}-bit weights do not fit the 8-bit weight-code table "
            f"of QZIP; it holds 1..{MAX_WEIGHT_BITS}-bit weights"
        )
    if any(q.codes.size > MAX_LAYER_WEIGHTS for q in layers):
        raise ValueError(f"QZIP layers hold at most {MAX_LAYER_WEIGHTS} weights")
    if len({q.act_bits for q in layers if q.act_bits}) > 1:
        raise ValueError("all quantized outputs must share one bit-width")

    if masks is not None:
        for l, q in enumerate(layers):
            if np.any(q.codes[~masks[l]] != 0):
                raise ValueError(
                    f"layer {l}: mask marks positions as pruned but their "
                    "codes are nonzero"
                )

    code_counts = {}
    gap_counts = {}
    per_layer = []
    for q in layers:
        flat = q.codes.ravel()
        idx = np.flatnonzero(flat)
        per_layer.append((flat, idx))
        prev = -1
        for i in idx:
            for tok in _gap_tokens(int(i) - prev - 1):
                gap_counts[tok] = gap_counts.get(tok, 0) + 1
            sym = int(flat[i])
            code_counts[sym] = code_counts.get(sym, 0) + 1
            prev = int(i)

    code_table = huffman_build(code_counts) if code_counts else {}
    gap_table = huffman_build(gap_counts) if gap_counts else {}

    out = bytearray()
    out += MAGIC
    out += struct.pack(
        "<HBBBd", VERSION, len(model.layers), weight_bits, model.act_bits,
        model.input_scale,
    )
    pidx = 0
    for q in model.layers:
        _write_record(out, q)
        if q.kind in ("conv", "fc"):
            nnz = len(per_layer[pidx][1])
            out += struct.pack(
                "<dddII", q.weight_scale, q.bias_step, q.act_scale, nnz,
                q.bias_codes.size,
            )
            for v in q.bias_codes:
                _write_varint(out, v)
            pidx += 1
    header_bytes = len(out)

    # weight codes are signed bytes, gap tokens unsigned (0..255)
    for table, fmt in ((code_table, "<bB"), (gap_table, "<BB")):
        out += struct.pack("<H", len(table))
        for sym in sorted(table):
            out += struct.pack(fmt, sym, table[sym][1])
    table_bytes = len(out) - header_bytes

    writer = BitWriter()
    for flat, idx in per_layer:
        prev = -1
        for i in idx:
            for tok in _gap_tokens(int(i) - prev - 1):
                writer.write(*gap_table[tok])
            writer.write(*code_table[int(flat[i])])
            prev = int(i)
    payload = writer.getvalue()
    out += struct.pack("<I", len(payload))
    out += payload
    meta = {
        "header_bytes": header_bytes,
        "table_bytes": table_bytes,
        "payload_bytes": len(payload) + 4,
        "payload_bits_used": writer.bits_written,
    }
    return bytes(out), meta


def decode_model(archive):
    """The FixedPointModel an archive holds: the exact codes, positions,
    scales and topology. Every malformed archive raises ValueError; every
    count is checked against the geometry before anything is allocated from
    it, every scale must be positive and finite (act_scale may also be 0,
    for no requantization), and each bias_step must be weight_scale times
    the layer's input step."""
    return _decode(archive)[0]


def _decode(archive):
    """decode_model, plus the byte sizes of the header and of the tables."""
    cur = _Cursor(bytes(archive))
    (magic,) = cur.take("<4s")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, n_layers, weight_bits, act_bits, input_scale = cur.take("<HBBBd")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if not 1 <= weight_bits <= MAX_WEIGHT_BITS:
        raise FormatError(f"weight bit-width {weight_bits} outside 1..{MAX_WEIGHT_BITS}")
    if _bad_scale(input_scale):
        raise FormatError(f"input scale {input_scale!r} is not positive and finite")
    model = FixedPointModel(input_scale=input_scale)
    nnz_list = []
    in_scale = input_scale  # the input step of the next parameter layer
    for i in range(n_layers):
        layer = cur.take_record(i)
        if layer.kind in ("conv", "fc"):
            d, step, act_scale, nnz, n_bias = cur.take("<dddII")
            shape = layer.weight_shape
            size = math.prod(shape)
            if not 1 <= size <= MAX_LAYER_WEIGHTS:
                raise FormatError(f"layer {i}: {size} weights, outside 1..{MAX_LAYER_WEIGHTS}")
            if n_bias != shape[0]:
                raise FormatError(f"layer {i}: {n_bias} biases for {shape[0]} outputs")
            if nnz > size:
                raise FormatError(f"layer {i}: {nnz} nonzero codes in {size} weights")
            # act_scale 0.0 marks an output that is not requantized
            if any(_bad_scale(v) for v in (d, step, act_scale or 1.0)):
                raise FormatError(f"layer {i}: a scale is not positive and finite")
            if act_scale and not act_bits:
                raise FormatError(f"layer {i}: act_scale set, but act_bits is 0")
            layer.weight_bits, layer.act_bits = weight_bits, act_bits if act_scale else 0
            layer.weight_scale, layer.in_scale, layer.act_scale = d, in_scale, act_scale
            if step != layer.bias_step:
                raise FormatError(
                    f"layer {i}: bias_step {step!r} is not weight_scale times "
                    f"the input step {in_scale!r}"
                )
            in_scale = act_scale or 1.0
            bias = []
            for _ in range(n_bias):
                v, cur.pos = _read_varint(cur.buf, cur.pos)
                bias.append(v)
            layer.bias_codes = np.array(bias, dtype=np.int64)
            nnz_list.append(nnz)
        model.layers.append(layer)
    header_bytes = cur.pos

    tables = []
    for fmt in ("<bB", "<BB"):
        (n_sym,) = cur.take("<H")
        lengths = {}
        for _ in range(n_sym):
            sym, length = cur.take(fmt)
            if length < 1 or length > 64:
                raise FormatError(f"invalid code length {length}")
            lengths[sym] = length
        tables.append(canonical_from_lengths(lengths) if lengths else {})
    table_bytes = cur.pos - header_bytes
    code_table, gap_table = tables
    for name, table in (("weight-code", code_table), ("gap", gap_table)):
        kraft = sum(2.0 ** -l for _, l in table.values())
        if table and kraft > 1.0 + 1e-12:
            raise FormatError(f"{name} table violates the Kraft inequality")

    (payload_len,) = cur.take("<I")
    payload = cur.buf[cur.pos : cur.pos + payload_len]
    if len(payload) != payload_len:
        raise FormatError(
            f"truncated payload: header says {payload_len} bytes, "
            f"{len(payload)} present"
        )
    if cur.pos + payload_len != len(cur.buf):
        raise FormatError(f"{len(cur.buf) - cur.pos - payload_len} trailing bytes")

    reader = BitReader(payload)
    code_dec = _Decoder(code_table)
    gap_dec = _Decoder(gap_table)
    lo, hi = code_range(weight_bits)
    for layer, nnz in zip(model.param_layers, nnz_list):
        flat = np.zeros(math.prod(layer.weight_shape), dtype=np.int64)
        prev = -1
        for _ in range(nnz):
            gap = 0
            while True:
                tok = gap_dec.read_symbol(reader)
                gap += tok
                if tok != GAP_CONT:
                    break
            i = prev + 1 + gap
            if i >= flat.size:
                raise FormatError(
                    f"decoded position {i} outside layer of {flat.size} weights"
                )
            sym = code_dec.read_symbol(reader)
            if sym == 0 or sym < lo or sym > hi:
                raise FormatError(f"decoded weight code {sym} out of range")
            flat[i] = sym
            prev = i
        layer.codes = flat.reshape(layer.weight_shape)
    return model, header_bytes, table_bytes


# --- accounting -------------------------------------------------------------


@dataclass
class CompressionReport:
    original_bits: int
    compressed_bits: int
    ratio: float
    zero_fraction_before: float
    zero_fraction_after: float
    component_bits: dict

    def __str__(self):
        lines = [
            f"original:    {self.original_bits} bits",
            f"compressed:  {self.compressed_bits} bits",
            f"ratio:       {self.ratio:.1f}x",
            f"zeros before quantization: {self.zero_fraction_before:.4%}",
            f"zeros after quantization:  {self.zero_fraction_after:.4%}",
        ]
        for k, v in self.component_bits.items():
            lines.append(f"  {k}: {v} bits")
        return "\n".join(lines)


def report(archive, float_weights):
    """Bit accounting against the 32-bit float baseline.

    float_weights are the pre-quantization weight arrays (the pruned float
    model); zeros there are pruning zeros, zeros among the decoded codes add
    the quantization-induced ones.
    """
    decoded, header, tables = _decode(archive)
    n_weights = sum(int(w.size) for w in float_weights)
    n_dec = sum(int(l.codes.size) for l in decoded.param_layers)
    if n_weights != n_dec:
        raise ValueError(
            f"archive holds {n_dec} weights but the reference model has "
            f"{n_weights}"
        )
    zeros_before = sum(int(np.sum(w == 0.0)) for w in float_weights)
    zeros_after = sum(int(np.sum(l.codes == 0)) for l in decoded.param_layers)

    component_bits = {
        "header": 8 * header,
        "tables": 8 * tables,
        "payload": 8 * (len(archive) - header - tables),
    }
    compressed_bits = 8 * len(archive)
    return CompressionReport(
        original_bits=32 * n_weights,
        compressed_bits=compressed_bits,
        ratio=32 * n_weights / compressed_bits,
        zero_fraction_before=zeros_before / n_weights,
        zero_fraction_after=zeros_after / n_weights,
        component_bits=component_bits,
    )
