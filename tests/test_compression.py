"""Canonical Huffman coding, the sparse-weight archive format, and the bit
accounting of its reports."""

import struct

import numpy as np
import pytest

import oracles
from qatforge import compression as cz
from qatforge import fixedpoint as fx
from qatforge import quantizers as qz
from qatforge.models import net_from_spec
from qatforge.training import LayerBits, ScaleState, bias_grid_step


def _avg_length(table, counts):
    total = sum(counts.values())
    return sum(counts[s] * table[s][1] for s in counts) / total


def test_huffman_classic_example():
    counts = {"a": 4, "b": 2, "c": 1, "d": 1}
    table = cz.huffman_build(counts)
    lengths = sorted(l for _, l in table.values())
    assert lengths == [1, 2, 3, 3]
    assert table["a"][1] == 1
    assert table["b"][1] == 2
    assert _avg_length(table, counts) == 1.75
    assert abs(oracles.entropy_bits(counts) - 1.75) <= 1e-12
    assert cz.check_prefix_free(table)


def test_huffman_two_and_one_symbol():
    two = cz.huffman_build({"a": 1, "b": 1})
    assert sorted(l for _, l in two.values()) == [1, 1]
    one = cz.huffman_build({7: 1000})
    assert one == {7: (0, 1)}
    with pytest.raises(ValueError):
        cz.huffman_build({})
    with pytest.raises(ValueError):
        cz.huffman_build({"a": 0})


def test_huffman_optimal_within_one_bit_of_entropy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n_sym = int(rng.integers(2, 40))
        counts = {int(s): int(c) for s, c in enumerate(rng.integers(1, 1000, n_sym))}
        table = cz.huffman_build(counts)
        assert cz.check_prefix_free(table)
        h = oracles.entropy_bits(counts)
        avg = _avg_length(table, counts)
        assert h - 1e-9 <= avg <= h + 1.0
        # complete code: Kraft sum is exactly 1 for 2+ symbols
        assert abs(sum(2.0 ** -l for _, l in table.values()) - 1.0) <= 1e-12


def test_huffman_deterministic_under_insertion_order():
    a = cz.huffman_build({1: 5, 2: 5, 3: 5, 4: 5})
    b = cz.huffman_build({4: 5, 3: 5, 2: 5, 1: 5})
    assert a == b


def test_canonical_assignment():
    table = cz.canonical_from_lengths({"a": 1, "b": 2, "c": 3, "d": 3})
    assert table == {"a": (0b0, 1), "b": (0b10, 2), "c": (0b110, 3), "d": (0b111, 3)}


def test_bit_writer_msb_first_and_reader_round_trip():
    w = cz.BitWriter()
    w.write(0b101, 3)
    assert w.bits_written == 3
    data = w.getvalue()
    assert data == bytes([0b10100000])
    w.write(0b01, 2)
    w.write(0xFF, 8)
    data = w.getvalue()
    r = cz.BitReader(data)
    got = [r.read_bit() for _ in range(13)]
    assert got == [1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1]
    r2 = cz.BitReader(b"")
    with pytest.raises(ValueError):
        r2.read_bit()


def test_encoder_decoder_random_streams():
    rng = np.random.default_rng(1)
    counts = {int(s): int(c) for s, c in enumerate(rng.integers(1, 50, 12))}
    table = cz.huffman_build(counts)
    dec = cz._Decoder(table)
    stream = rng.integers(0, 12, 500).tolist()
    w = cz.BitWriter()
    for s in stream:
        w.write(*table[s])
    r = cz.BitReader(w.getvalue())
    assert [dec.read_symbol(r) for _ in stream] == stream


def test_varint_round_trip():
    out = bytearray()
    values = [0, 1, -1, 63, -64, 64, 127, 300, -100000, 2**40, -(2**40)]
    for v in values:
        cz._write_varint(out, v)
    pos = 0
    got = []
    for _ in values:
        v, pos = cz._read_varint(bytes(out), pos)
        got.append(v)
    assert got == values
    assert pos == len(out)
    with pytest.raises(ValueError):
        cz._read_varint(bytes(out[:1]) if out[0] & 0x80 else b"\x80", 0)


def test_gap_tokens():
    # gaps of 0, 254, 255, 300 and 510 zeros before each nonzero code
    gaps = [0, 254, 255, 300, 510]
    flat = np.zeros(sum(gaps) + len(gaps), dtype=np.int64)
    flat[np.cumsum(np.add(gaps, 1)) - 1] = [1, -2, 3, -4, 5]
    idx, nfull, rest, syms = cz._layer_stream(flat.reshape(1, -1), np.arange(flat.size))
    tokens = [[cz.GAP_CONT] * n + [r] for n, r in zip(nfull.tolist(), rest.tolist())]
    assert tokens == [[0], [254], [255, 0], [255, 45], [255, 255, 0]]
    assert syms.tolist() == [1, -2, 3, -4, 5]
    assert np.array_equal(flat[idx], syms)


def test_decoder_limits_reach_64_bit_codewords():
    # Kraft-complete: lengths 1..63 and a second 63, so 64 bits of prefix
    # state and codewords wider than a float mantissa
    lengths = {s: s + 1 for s in range(63)}
    lengths[63] = 63
    table = cz.canonical_from_lengths(lengths)
    assert table[63] == ((1 << 63) - 1, 63)
    stream = np.random.default_rng(6).permutation(np.repeat(np.arange(64), 3)).tolist()
    w = cz.BitWriter()
    for s in stream:
        w.write(*table[s])
    r = cz.BitReader(w.getvalue())
    dec = cz._Decoder(table)
    assert [dec.read_symbol(r) for _ in stream] == stream
    assert r.pos == w.bits_written


def test_decoder_rejects_unassigned_prefix():
    # an incomplete table: 0 and 10 are codewords, 11 is not
    dec = cz._Decoder(cz.canonical_from_lengths({"a": 1, "b": 2}))
    r = cz.BitReader(bytes([0b01011000]))
    assert [dec.read_symbol(r), dec.read_symbol(r)] == ["a", "b"]
    with pytest.raises(ValueError, match="invalid codeword"):
        dec.read_symbol(r)


def _model_from_codes(code_arrays, delta, bits, bias_steps=None):
    """A float net whose weights are exactly delta * codes."""
    spec = []
    for c in code_arrays:
        spec.append(["linear", c.shape[1], c.shape[0]])
        spec.append(["relu"])
    spec.pop()
    net = net_from_spec(spec)
    plan = [
        LayerBits(bits, 4 if l < len(code_arrays) - 1 else None)
        for l in range(len(code_arrays))
    ]
    scales = ScaleState(
        weight_scales=[delta] * len(code_arrays),
        act_scales=[0.125] * len(code_arrays),
        input_scale=1 / 255,
    )
    from qatforge.training import bias_grid_step

    rng = np.random.default_rng(99)
    for l, (layer, c) in enumerate(zip(net.param_layers, code_arrays)):
        layer.W = delta * c.astype(np.float64)
        step = bias_grid_step(plan, scales, l)
        layer.b = step * rng.integers(-20, 20, layer.b.shape).astype(np.float64)
    return net, scales, plan


def _random_codes(rng, shape, bits, sparsity):
    half = 2 ** (bits - 1)
    if bits == 1:
        c = rng.choice([-1, 1], size=shape)
    else:
        c = rng.integers(-half, half, shape)
    mask = rng.random(shape) < sparsity
    c = np.where(mask, 0, c)
    return c.astype(np.int64)


def test_round_trip_random_sparse_models():
    rng = np.random.default_rng(2)
    for trial in range(1000):
        bits = int(rng.choice([2, 3, 4, 8]))
        delta = float(rng.choice([0.05, 0.25, 0.4]))
        sparsity = float(rng.uniform(0, 0.98))
        out1, in1 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        shapes = [(out1, in1)]
        if trial % 3 == 0:
            # a second layer chained onto the first (in = previous out)
            shapes.append((int(rng.integers(2, 6)), out1))
        codes = [_random_codes(rng, sh, bits, sparsity) for sh in shapes]
        net, scales, plan = _model_from_codes(codes, delta, bits)
        blob, meta = cz.encode_model(net, None, scales, plan)
        decoded = cz.decode_model(blob)
        assert decoded.weight_bits == bits
        assert decoded.input_scale == scales.input_scale
        for src, dst in zip(codes, decoded.param_layers):
            assert np.array_equal(src, dst.codes)
        rebuilt = decoded.to_network()
        for a, b in zip(net.param_layers, rebuilt.param_layers):
            assert np.array_equal(a.W, b.W)
            assert np.array_equal(a.b, b.b)


def test_binary_codes_round_trip():
    # the two-level quantizer has no zero, so binary archives are dense
    rng = np.random.default_rng(3)
    codes = [_random_codes(rng, (6, 7), 1, 0.0)]
    net, scales, plan = _model_from_codes(codes, 0.3, 1)
    blob, _ = cz.encode_model(net, None, scales, plan)
    decoded = cz.decode_model(blob)
    assert np.array_equal(decoded.param_layers[0].codes, codes[0])


def test_large_gap_and_single_symbol_payload():
    # one nonzero weight 317 positions in: the gap needs a continuation
    # token and the code table degenerates to a single symbol
    flat = np.zeros(400, dtype=np.int64)
    flat[317] = 3
    codes = flat.reshape(20, 20)
    net, scales, plan = _model_from_codes([codes], 0.25, 3)
    blob, _ = cz.encode_model(net, None, scales, plan)
    decoded = cz.decode_model(blob)
    assert np.array_equal(decoded.param_layers[0].codes, codes)


def test_mask_consistency_enforced():
    rng = np.random.default_rng(4)
    codes = [_random_codes(rng, (5, 5), 4, 0.0)]
    codes[0][0, 0] = 2
    net, scales, plan = _model_from_codes(codes, 0.25, 4)
    masks = [np.ones((5, 5), dtype=bool)]
    masks[0][0, 0] = False  # pruned position with a nonzero code
    with pytest.raises(ValueError, match="mask"):
        cz.encode_model(net, masks, scales, plan)
    masks[0][0, 0] = True
    blob, _ = cz.encode_model(net, masks, scales, plan)
    assert cz.decode_model(blob) is not None
    for shape in [(25,), (6, 5)]:  # same element count, or more elements
        with pytest.raises(ValueError, match="mask shape"):
            cz.encode_model(net, [np.ones(shape, dtype=bool)], scales, plan)


def test_off_grid_weights_refused():
    rng = np.random.default_rng(5)
    codes = [_random_codes(rng, (5, 5), 4, 0.0)]
    net, scales, plan = _model_from_codes(codes, 0.25, 4)
    net.param_layers[0].W[0, 0] += 0.01
    with pytest.raises(ValueError, match="not at quantization levels"):
        cz.encode_model(net, None, scales, plan)


def test_all_zero_model_compresses_over_100x():
    codes = [np.zeros((100, 100), dtype=np.int64)]
    net, scales, plan = _model_from_codes(codes, 0.25, 3)
    blob, _ = cz.encode_model(net, None, scales, plan)
    rep = cz.report(blob, [l.W for l in net.param_layers])
    assert rep.original_bits == 32 * 10000
    assert rep.ratio > 100
    assert rep.zero_fraction_after == 1.0
    decoded = cz.decode_model(blob)
    assert np.all(decoded.param_layers[0].codes == 0)


def test_report_accounting():
    rng = np.random.default_rng(6)
    codes = [_random_codes(rng, (10, 10), 3, 0.8)]
    net, scales, plan = _model_from_codes(codes, 0.25, 3)
    blob, meta = cz.encode_model(net, None, scales, plan)
    rep = cz.report(blob, [l.W for l in net.param_layers])
    # exact identities, auditable against the blob itself
    assert rep.original_bits == 32 * 100
    assert rep.compressed_bits == 8 * len(blob)
    assert rep.ratio == rep.original_bits / rep.compressed_bits
    assert sum(rep.component_bits.values()) == rep.compressed_bits
    assert rep.component_bits["header"] == 8 * meta["header_bytes"]
    assert rep.component_bits["tables"] == 8 * meta["table_bytes"]
    assert rep.component_bits["payload"] == 8 * meta["payload_bytes"]
    zero_codes = int(np.sum(codes[0] == 0))
    assert rep.zero_fraction_after == zero_codes / 100
    assert rep.zero_fraction_before == zero_codes / 100  # same zeros in float
    s = str(rep)
    assert "ratio" in s and "zeros" in s


def test_report_counts_quantization_zeros_separately():
    # float weights: 80 pruning zeros; two survivors sit below delta/2 and
    # quantize to zero on top of them
    codes = [np.zeros((10, 10), dtype=np.int64)]
    keep = [(0, 0), (0, 1), (5, 5), (9, 9)]
    for i, j in keep:
        codes[0][i, j] = 3
    net, scales, plan = _model_from_codes(codes, 0.25, 3)
    w = net.param_layers[0].W
    w[5, 5] = 0.0
    w[9, 9] = 0.0
    codes[0][5, 5] = 0
    codes[0][9, 9] = 0
    net.param_layers[0].W = 0.25 * codes[0].astype(np.float64)
    # before: zeros in the float model are the 96 non-survivors
    float_ref = np.where(codes[0] != 0, 0.3, 0.0)  # 2 survivors
    float_ref[5, 5] = 0.1  # small float weight that quantizes to zero
    float_ref[9, 9] = -0.1
    blob, _ = cz.encode_model(net, None, scales, plan)
    rep = cz.report(blob, [float_ref])
    assert rep.zero_fraction_before == 0.96
    assert rep.zero_fraction_after == 0.98


def test_decode_rejects_malformed():
    rng = np.random.default_rng(7)
    codes = [_random_codes(rng, (6, 6), 4, 0.5)]
    net, scales, plan = _model_from_codes(codes, 0.25, 4)
    blob, _ = cz.encode_model(net, None, scales, plan)
    with pytest.raises(ValueError, match="magic"):
        cz.decode_model(b"NOPE" + blob[4:])
    with pytest.raises(ValueError, match="version"):
        bad = bytearray(blob)
        bad[4] = 99
        cz.decode_model(bytes(bad))
    with pytest.raises(ValueError, match="trailing"):
        cz.decode_model(blob + b"\x00")
    with pytest.raises(ValueError, match="truncated|exhausted"):
        cz.decode_model(blob[:-1])

    # every prefix, and four byte values at every header and table offset, of
    # a conv+fc archive: a reader raises ValueError and nothing else
    blob, meta = _conv_fc_archive()
    for n in range(len(blob)):
        with pytest.raises(ValueError):
            cz.decode_model(blob[:n])
    for offset in range(meta["header_bytes"] + meta["table_bytes"]):
        for byte in (0x00, 0x7F, 0x80, 0xFF):
            bad = bytearray(blob)
            bad[offset] = byte
            try:
                cz.decode_model(bytes(bad))
            except ValueError:
                pass
    # a negative input_scale (0xff on its sign byte, offset 16) and a
    # negative conv weight_scale (0x80 on its sign byte, offset 32) are
    # rejected, as are zero and non-finite scales
    for offset, byte in ((16, 0xFF), (32, 0x80)):
        bad = bytearray(blob)
        bad[offset] = byte
        with pytest.raises(ValueError, match="scale"):
            cz.decode_model(bytes(bad))
    for offset in (9, 25):
        for value in (0.0, np.inf, np.nan):
            bad = bytearray(blob)
            bad[offset : offset + 8] = np.float64(value).tobytes()
            with pytest.raises(ValueError, match="scale"):
                cz.decode_model(bytes(bad))
    # a varint past the int64 range
    with pytest.raises(ValueError, match="int64"):
        cz._read_varint(bytes([0xFF] * 9 + [0x7F]), 0)


def test_decode_refuses_a_zero_conv_stride():
    # the archive's first record is the conv layer: its tag at offset 17,
    # then in_ch (u16), out_ch (u16), ksize, stride and pad; freeze does not
    # look at the stride, and infer divides by it
    blob, _ = _conv_fc_archive()
    assert blob[17:25] == bytes([1, 1, 0, 3, 0, 3, 1, 0])
    bad = bytearray(blob)
    bad[23] = 0
    with pytest.raises(cz.FormatError, match="layer 0: conv stride is 0"):
        cz.decode_model(bytes(bad))


def test_decode_rejects_unread_payload():
    rng = np.random.default_rng(7)
    codes = [_random_codes(rng, (6, 6), 4, 0.5)]
    net, scales, plan = _model_from_codes(codes, 0.25, 4)
    blob, meta = cz.encode_model(net, None, scales, plan)
    start = meta["header_bytes"] + meta["table_bytes"]
    payload = blob[start + 4 :]
    assert cz.decode_model(blob) is not None
    for extra in (1, 3):
        longer = blob[:start] + struct.pack("<I", len(payload) + extra) + payload + bytes(extra)
        with pytest.raises(cz.FormatError, match="payload holds"):
            cz.decode_model(longer)
    assert meta["payload_bits_used"] % 8  # the last byte has pad bits
    padded = bytearray(blob)
    padded[-1] |= 1
    with pytest.raises(cz.FormatError, match="pad bits"):
        cz.decode_model(bytes(padded))


def test_decode_rejects_bias_step_off_the_input_step():
    # bias_step is weight_scale times the layer's input step: input_scale
    # for the conv layer, the conv layer's act_scale for the fc layer
    import struct

    blob, _ = _conv_fc_archive()
    for step, wrong in ((0.25 / 255, 0.25), (0.25 * 0.125, 0.25 * 0.5)):
        at = blob.find(struct.pack("<d", step))
        assert at > 0
        bad = blob[:at] + struct.pack("<d", wrong) + blob[at + 8 :]
        with pytest.raises(ValueError, match="bias_step"):
            cz.decode_model(bad)
    # after a float junction the input step is 1.0, so bias_step is delta
    rng = np.random.default_rng(22)
    codes = [_random_codes(rng, (4, 5), 4, 0.3), _random_codes(rng, (3, 4), 4, 0.3)]
    net, scales, plan = _model_from_codes(codes, 0.25, 4)
    plan = [LayerBits(4, None), LayerBits(4, None)]
    net.param_layers[1].b = 0.25 * rng.integers(-9, 9, 3).astype(np.float64)
    blob, _ = cz.encode_model(net, None, scales, plan)
    assert cz.decode_model(blob).param_layers[1].bias_step == 0.25
    at = blob.rfind(struct.pack("<d", 0.25))  # the fc layer's bias_step
    bad = blob[:at] + struct.pack("<d", 0.25 * 0.125) + blob[at + 8 :]
    with pytest.raises(ValueError, match="bias_step"):
        cz.decode_model(bad)


def _conv_fc_archive():
    rng = np.random.default_rng(21)
    net = net_from_spec(
        [["conv", 1, 3, 3, 1, 0], ["relu"], ["maxpool", 2], ["flatten"], ["linear", 27, 4]]
    )
    plan = [LayerBits(4, 4), LayerBits(4, None)]
    scales = ScaleState(np.array([0.25, 0.25]), np.array([0.125, 0.125]), 1 / 255)
    for l, layer in enumerate(net.param_layers):
        layer.W = 0.25 * _random_codes(rng, layer.W.shape, 4, 0.5).astype(np.float64)
        step = bias_grid_step(plan, scales, l)
        layer.b = step * rng.integers(-300, 300, layer.b.shape).astype(np.float64)
    return cz.encode_model(net, None, scales, plan)


def test_encode_refuses_weights_wider_than_8_bits():
    rng = np.random.default_rng(9)
    net, scales, plan = _model_from_codes([_random_codes(rng, (4, 4), 12, 0.0)], 0.0005, 12)
    with pytest.raises(ValueError, match="8-bit weight-code table"):
        cz.encode_model(net, None, scales, plan)


def test_encode_requires_uniform_bit_width():
    rng = np.random.default_rng(8)
    codes = [_random_codes(rng, (4, 4), 4, 0.0), _random_codes(rng, (3, 4), 4, 0.0)]
    net, scales, plan = _model_from_codes(codes, 0.25, 4)
    plan = [LayerBits(4, 4), LayerBits(3, None)]
    net.param_layers[1].W = 0.25 * np.clip(codes[1], -4, 3).astype(np.float64)
    with pytest.raises(ValueError, match="bit-width"):
        cz.encode_model(net, None, scales, plan)


def test_a_weight_that_codes_to_zero_encodes_as_an_exact_zero():
    rng = np.random.default_rng(10)
    codes = [_random_codes(rng, (20, 30), 4, 0.9)]
    net, scales, plan = _model_from_codes(codes, 0.25, 4)
    masks = [l.W != 0 for l in net.param_layers]
    want, _ = cz.encode_model(net, masks, scales, plan)
    zero = np.argwhere(codes[0] == 0)[3]
    net.param_layers[0].W[tuple(zero)] = 1e-15  # nonzero, code 0, on its level
    assert cz.encode_model(net, masks, scales, plan)[0] == want


def test_level_and_mask_checks_read_every_weight_that_can_be_off():
    rng = np.random.default_rng(11)
    # a binary layer has no zero level: an exact 0 is off the grid
    codes = [_random_codes(rng, (6, 7), 1, 0.0)]
    net, scales, plan = _model_from_codes(codes, 0.3, 1)
    net.param_layers[0].W[2, 3] = 0.0
    with pytest.raises(ValueError, match="not at quantization levels"):
        cz.encode_model(net, None, scales, plan)
    # in a sparse layer, a nonzero weight 0.3 delta from the zero level
    codes = [_random_codes(rng, (20, 30), 4, 0.9)]
    net, scales, plan = _model_from_codes(codes, 0.25, 4)
    zero = tuple(np.argwhere(codes[0] == 0)[5])
    net.param_layers[0].W[zero] = 0.3 * 0.25
    with pytest.raises(ValueError, match="not at quantization levels"):
        cz.encode_model(net, None, scales, plan)
    # and a mask that prunes one of the few nonzero codes
    net.param_layers[0].W[zero] = 0.0
    masks = [codes[0] != 0]
    masks[0][tuple(np.argwhere(codes[0] != 0)[-1])] = False
    with pytest.raises(ValueError, match="mask marks positions as pruned"):
        cz.encode_model(net, masks, scales, plan)


def test_freeze_refuses_an_archive_over_the_accumulator_bound():
    # layer 1 reads 16-bit codes: 300 * 2^7 * (2^16 - 1) exceeds 2^31 - 1;
    # the encoder stores it, and freeze refuses it as convert does
    rng = np.random.default_rng(12)
    codes = [_random_codes(rng, (300, 4), 8, 0.5), _random_codes(rng, (2, 300), 8, 0.9)]
    net, scales, plan = _model_from_codes(codes, 0.25, 8)
    plan = [LayerBits(8, 16), LayerBits(8, None)]
    archive, _ = cz.encode_model(net, None, scales, plan)
    with pytest.raises(ValueError, match="layer 1: worst-case accumulator") as by_convert:
        fx.convert(net, scales, plan)
    with pytest.raises(ValueError) as by_freeze:
        fx.freeze(cz.decode_model(archive))
    assert str(by_freeze.value) == str(by_convert.value)
