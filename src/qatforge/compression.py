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
from collections import Counter
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
        if self.nbits >= 32:  # flush whole bytes, keep the partial one
            whole, self.nbits = self.nbits >> 3, self.nbits & 7
            self.buf += (self.acc >> self.nbits).to_bytes(whole, "big")
            self.acc &= (1 << self.nbits) - 1

    def getvalue(self):
        # zero-pad the final partial byte
        pad = -self.nbits % 8
        return bytes(self.buf) + (self.acc << pad).to_bytes((self.nbits + pad) // 8, "big")

    @property
    def bits_written(self):
        return 8 * len(self.buf) + self.nbits


class BitReader:
    """MSB-first bit source over bytes, unpacked once to one byte per bit."""

    def __init__(self, data):
        self.bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tobytes()
        self.pos = 0  # bit position

    def read_bit(self):
        try:
            bit = self.bits[self.pos]
        except IndexError:
            raise ValueError(f"bitstream exhausted at bit {self.pos}") from None
        self.pos += 1
        return bit


class _Decoder:
    """Canonical decoding by per-length limits (Moffat and Turpin, 1997):
    an L-bit prefix that is not yet a codeword is at least first[L], the
    first canonical codeword of length L, so it is a codeword exactly when it
    is below limit[L] = first[L] + count[L]. Only the lengths are used."""

    def __init__(self, table):
        self.symbols = sorted(table, key=lambda s: (table[s][1], s))
        counts = Counter(length for _, length in table.values())
        self.levels = []  # per length 1..max: (limit, symbol index - codeword)
        code = index = 0
        for length in range(1, max(counts, default=0) + 1):
            count = counts[length]
            self.levels.append((code + count, index - code))
            code, index = (code + count) << 1, index + count

    def read_symbol(self, reader):
        read_bit = reader.read_bit
        code = 0
        for limit, base in self.levels:
            code = (code << 1) | read_bit()
            if code < limit:
                return self.symbols[code + base]
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


def _layer_stream(codes, nz):
    """The payload tokens of one layer, as arrays over its nonzero codes in
    row-major order: flat position, count of GAP_CONT tokens before the
    gap's final token, that final token (0..254), and the code. nz holds,
    in increasing order, every flat position whose code can be nonzero;
    only those codes are read."""
    codes = codes.ravel()[nz]
    keep = codes != 0
    idx = nz[keep]
    nfull, rest = np.divmod(np.diff(idx, prepend=-1) - 1, GAP_CONT)
    return idx, nfull, rest, codes[keep]


def _histogram(values):
    syms, counts = np.unique(values, return_counts=True)
    return dict(zip(syms.tolist(), counts.tolist()))


def encode_model(net, masks, scales, plan):
    """Archive bytes for a pruned+quantized network. masks (keep=True) are
    checked against the zeros rather than stored: pruned positions must have
    code 0, and decode recovers them as zeros."""
    model = FixedPointModel.from_network(net, scales, plan)
    layers = model.param_layers
    streams = []
    for l, (src, q) in enumerate(zip(net.param_layers, layers)):
        # from 2 bits up a zero weight has code 0 and sits on its level, so
        # one index of the nonzero weights serves the level check and the
        # stream; a 1-bit layer has no zero code and is read whole
        w = src.W.ravel()
        nz = np.flatnonzero(w != 0) if q.weight_bits > 1 else np.arange(w.size)
        err = np.abs(w[nz] - q.codes.ravel()[nz] * q.weight_scale)
        if err.size and err.max() > 1e-9 * q.weight_scale:
            raise ValueError(
                f"layer {l}: weights are not at quantization levels "
                f"(max residual {err.max():.3e}); run the training ramp to "
                "termination first"
            )
        streams.append(_layer_stream(q.codes, nz))
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
        for l, (q, (idx, *_)) in enumerate(zip(layers, streams)):
            mask = np.asarray(masks[l])
            if mask.shape != q.codes.shape:
                raise ValueError(f"layer {l}: mask shape {mask.shape} is not {q.codes.shape}")
            if not mask.ravel()[idx].all():
                raise ValueError(
                    f"layer {l}: mask marks positions as pruned but their "
                    "codes are nonzero"
                )

    nfull, rest, syms = (np.concatenate([s[k] for s in streams]) for k in (1, 2, 3))
    code_counts = _histogram(syms)
    gap_counts = _histogram(rest)
    if nfull.any():
        gap_counts[GAP_CONT] = int(nfull.sum())
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
        if q.params:
            nnz = len(streams[pidx][0])
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
    write, cont = writer.write, gap_table.get(GAP_CONT)
    for n, g, sym in zip(nfull.tolist(), rest.tolist(), syms.tolist()):
        for _ in range(n):
            write(*cont)
        write(*gap_table[g])
        write(*code_table[sym])
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
        if layer.params:
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
    lo, hi = code_range(weight_bits)
    read_gap, read_code = _Decoder(gap_table).read_symbol, _Decoder(code_table).read_symbol
    for layer, nnz in zip(model.param_layers, nnz_list):
        size = math.prod(layer.weight_shape)
        positions, codes = [], []
        i = -1
        for _ in range(nnz):
            gap = 0
            while (tok := read_gap(reader)) == GAP_CONT:
                gap += GAP_CONT
            i += 1 + gap + tok
            if i >= size:
                raise FormatError(f"decoded position {i} outside layer of {size} weights")
            sym = read_code(reader)
            if sym == 0 or sym < lo or sym > hi:
                raise FormatError(f"decoded weight code {sym} out of range")
            positions.append(i)
            codes.append(sym)
        flat = np.zeros(size, dtype=np.int64)
        flat[positions] = codes
        layer.codes = flat.reshape(layer.weight_shape)
    if len(payload) != (reader.pos + 7) // 8:
        raise FormatError(
            f"payload holds {len(payload)} bytes, its codes end at bit {reader.pos}"
        )
    if any(reader.bits[reader.pos :]):
        raise FormatError("nonzero pad bits after the last codeword")
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
