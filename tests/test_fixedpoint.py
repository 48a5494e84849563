"""Integer-only inference: hand-traced examples, conversion rules, the
float-simulation oracle, and the serialized model format."""

import numpy as np
import pytest

import oracles
from qatforge import fixedpoint as fx
from qatforge import quantizers as qz
from qatforge.models import net_from_spec
from qatforge.training import LayerBits, ScaleState


def _fc_layer(codes, bias, wbits, abits, d, din, dout):
    codes = np.asarray(codes, dtype=np.int64)
    return fx.FxLayer(
        kind="fc",
        in_features=codes.shape[1],
        out_features=codes.shape[0],
        codes=codes,
        bias_codes=np.asarray(bias, dtype=np.int64),
        weight_bits=wbits,
        act_bits=abits,
        weight_scale=d,
        in_scale=din,
        act_scale=dout,
    )


def test_int_tensor_range_validation():
    fx.IntTensor(np.array([-8, 7]), bits=4, signed=True)
    fx.IntTensor(np.array([0, 15]), bits=4, signed=False)
    with pytest.raises(ValueError):
        fx.IntTensor(np.array([8]), bits=4, signed=True)
    with pytest.raises(ValueError):
        fx.IntTensor(np.array([-1]), bits=4, signed=False)
    with pytest.raises(ValueError):
        fx.IntTensor(np.array([0]), bits=0, signed=True)


def test_hand_traced_single_multiply():
    # one input, one weight: weight code -1 at delta 0.5, input code 3 at
    # 0.25, bias code 2. acc = -1*3 + 2 = -1, logit scale 0.125 -> -0.125
    layer = _fc_layer([[-1]], [2], wbits=2, abits=0, d=0.5, din=0.25, dout=0.0)
    model = fx.FixedPointModel(input_scale=0.25, input_bits=8, layers=[layer])
    logits = fx.infer(model, fx.IntTensor(np.array([[3]]), 8, signed=False))
    assert logits.shape == (1, 1)
    assert logits[0, 0] == -0.125
    # with a requantizing output stage the negative value clips to code 0,
    # which is the fused ReLU
    layer2 = _fc_layer([[-1]], [2], wbits=2, abits=4, d=0.5, din=0.25, dout=0.125)
    acc = np.array([[3]]) @ layer2.codes.T + layer2.bias_codes
    assert acc[0, 0] == -1
    assert fx._requant_mult(acc, layer2)[0, 0] == 0


def test_identity_conv_passes_codes_through():
    codes = np.arange(16, dtype=np.int64).reshape(1, 1, 4, 4)
    layer = fx.FxLayer(
        kind="conv",
        in_ch=1,
        out_ch=1,
        ksize=1,
        codes=np.ones((1, 1, 1, 1), dtype=np.int64),
        bias_codes=np.zeros(1, dtype=np.int64),
        weight_bits=2,
        act_bits=8,
        weight_scale=1.0,
        in_scale=1.0,
        act_scale=1.0,
    )
    final = _fc_layer(np.eye(16, dtype=np.int64), np.zeros(16), 8, 0, 1.0, 1.0, 0.0)
    model = fx.FixedPointModel(
        input_scale=1.0,
        input_bits=8,
        layers=[layer, fx.FxLayer(kind="flatten"), final],
    )
    logits = fx.infer(model, fx.IntTensor(codes, 8, signed=False))
    assert np.array_equal(logits[0], np.arange(16.0))


def test_requant_shift_rounding():
    layer = _fc_layer([[1]], [0], 2, 8, 1.0, 1.0, 8.0)
    layer.shift = 3
    acc = np.array([[40], [36], [-36], [4]])
    got = fx._requant_shift(acc, layer)
    # 40/8 = 5; 36/8 = 4.5 rounds away to 5; negatives clip at 0
    assert got.tolist() == [[5], [5], [0], [1]]
    # shift 0 is the identity on non-negative accumulators
    layer.shift = 0
    acc2 = np.array([[7], [200]])
    assert fx._requant_shift(acc2, layer).tolist() == [[7], [200]]


def test_zero_input_yields_quantized_bias():
    d, din, dout, m = 0.5, 0.25, 0.2, 4
    bias = np.array([3, -2, 40], dtype=np.int64)
    layer = _fc_layer(np.zeros((3, 5), dtype=np.int64), bias, 4, m, d, din, dout)
    acc = np.zeros((1, 5), dtype=np.int64) @ layer.codes.T + bias
    out = fx._requant_mult(acc, layer)
    want = qz.code_unsigned(bias * (d * din), dout, m)
    assert np.array_equal(out[0], want)


def test_zero_weight_model_gives_zero_logits_both_paths():
    layer = _fc_layer(np.zeros((3, 4), dtype=np.int64), np.zeros(3), 4, 0, 0.5, 0.25, 0.0)
    model = fx.FixedPointModel(input_scale=0.25, input_bits=8, layers=[layer])
    rng = np.random.default_rng(0)
    flat_codes = rng.integers(0, 256, (5, 4)).astype(np.int64)
    flat = fx.IntTensor(flat_codes, 8, signed=False)
    assert np.all(fx.infer(model, flat) == 0.0)
    sim_in = flat_codes.astype(np.float64)
    x = sim_in * model.input_scale
    assert np.all(x @ (layer.codes * 0.5).T == 0.0)


def _tiny_quantized_net(rng, delta_w, act_scale, input_scale, wbits=4, abits=4):
    spec = [
        ["conv", 1, 2, 3, 1, 0],
        ["maxpool", 2],
        ["flatten"],
        ["linear", 2 * 3 * 3, 3],
    ]
    net = net_from_spec(spec, rng=rng)
    plan = [LayerBits(wbits, abits), LayerBits(wbits, None)]
    scales = ScaleState(
        weight_scales=[delta_w, delta_w],
        act_scales=[act_scale, 1.0],
        input_scale=input_scale,
    )
    for idx, layer in enumerate(net.param_layers):
        layer.W = qz.quantize_signed(
            rng.normal(0, 2 * delta_w, layer.W.shape), delta_w, wbits
        )
        step = delta_w * (input_scale if idx == 0 else act_scale)
        layer.b = qz.snap_to_grid(rng.normal(0, 5 * step, layer.b.shape), step)
    return net, scales, plan


def test_convert_frozen_code_examples():
    rng = np.random.default_rng(1)
    net, scales, plan = _tiny_quantized_net(rng, 0.5, 0.25, 0.25, wbits=2)
    conv = net.param_layers[0]
    conv.W[0, 0, 0, 0] = 0.5
    conv.W[0, 0, 0, 1] = -1.0
    conv.b[0] = 0.25  # step = 0.5 * 0.25 = 0.125 -> code 2
    model = fx.convert(net, scales, plan)
    assert model.layers[0].codes[0, 0, 0, 0] == 1
    assert model.layers[0].codes[0, 0, 0, 1] == -2
    assert model.layers[0].bias_codes[0] == 2
    # codes reproduce the levels exactly
    assert np.array_equal(
        model.layers[0].codes * 0.5, net.param_layers[0].W
    )


def test_convert_refuses_unconverged_weights():
    rng = np.random.default_rng(2)
    net, scales, plan = _tiny_quantized_net(rng, 0.5, 0.25, 0.25)
    net.param_layers[0].W[0, 0, 0, 0] += 0.2  # 0.4 * delta away
    with pytest.raises(ValueError, match="not converged"):
        fx.convert(net, scales, plan)


def test_convert_refuses_unquantized_plan():
    rng = np.random.default_rng(3)
    net, scales, plan = _tiny_quantized_net(rng, 0.5, 0.25, 0.25)
    with pytest.raises(ValueError, match="no weight bit-width"):
        fx.convert(net, scales, [LayerBits(None, None), LayerBits(None, None)])
    with pytest.raises(ValueError, match="no activation bit-width"):
        fx.convert(net, scales, [LayerBits(4, None), LayerBits(4, None)])


def test_convert_checks_accumulator_bound():
    rng = np.random.default_rng(4)
    net = net_from_spec([["linear", 70000, 2]], rng=rng)
    delta = 0.5
    net.param_layers[0].W = qz.quantize_signed(
        rng.normal(0, 1, (2, 70000)), delta, 8
    )
    net.param_layers[0].b = np.zeros(2)
    scales = ScaleState([delta], [1.0], 1 / 255)
    with pytest.raises(ValueError, match="accumulator"):
        fx.convert(net, scales, [LayerBits(8, None)])


def test_infer_matches_simulate_float_random_models():
    rng = np.random.default_rng(5)
    for delta_w, act_scale, input_scale in [
        (0.25, 0.5, 1 / 256),  # all powers of two
        (0.3, 0.17, 1 / 255),  # none
    ]:
        net, scales, plan = _tiny_quantized_net(rng, delta_w, act_scale, input_scale)
        model = fx.convert(net, scales, plan)
        images = rng.integers(0, 256, (64, 8, 8)).astype(np.uint8)
        logits = fx.infer(model, images, debug=True)
        sim = fx.simulate_float(model, images)
        assert np.array_equal(np.argmax(logits, 1), np.argmax(sim, 1))
        rel = np.max(np.abs(logits - sim)) / max(np.max(np.abs(sim)), 1e-12)
        assert rel <= 1e-6
        # the float logits round to infer's exact accumulators, also with
        # multipliers that are not powers of two
        step = model.param_layers[-1].logit_scale
        acc = np.round(logits / step)
        assert np.array_equal(acc * step, logits)
        assert np.array_equal(np.round(sim / step), acc)


def test_pow2_model_uses_shifts_and_matches_exactly():
    rng = np.random.default_rng(6)
    net, scales, plan = _tiny_quantized_net(rng, 0.25, 0.5, 1 / 256)
    model = fx.convert(net, scales, plan)
    assert model.shift_only
    for layer in model.param_layers:
        assert layer.shift is not None
        mult = layer.multiplier if layer.act_bits else layer.logit_scale
        assert mult == 2.0 ** (-layer.shift)
    images = rng.integers(0, 256, (32, 8, 8)).astype(np.uint8)
    a = fx.infer(model, images)
    b = fx.infer_shift(model, images)
    assert np.array_equal(a, b)
    # for power-of-two scales every simulated value is exact too
    assert np.array_equal(fx.simulate_float(model, images), a)


def test_non_pow2_model_rejects_shift_inference():
    rng = np.random.default_rng(7)
    net, scales, plan = _tiny_quantized_net(rng, 0.3, 0.17, 1 / 255)
    model = fx.convert(net, scales, plan)
    assert not model.shift_only
    assert all(l.shift is None for l in model.param_layers)
    with pytest.raises(ValueError, match="shift"):
        fx.infer_shift(model, np.zeros((1, 8, 8), dtype=np.uint8))


def test_debug_mode_reports_overflow():
    layer = _fc_layer([[2**20]], [0], 32, 0, 1.0, 1.0, 0.0)
    model = fx.FixedPointModel(input_scale=1.0, input_bits=16, layers=[layer])
    big = fx.IntTensor(np.array([[2**13]]), 16, signed=False)
    with pytest.raises(OverflowError):
        fx.infer(model, big, debug=True)
    # without debug the int64 accumulator silently carries it
    assert fx.infer(model, big)[0, 0] == float(2**33)


def test_encode_input_validates_range():
    model = fx.FixedPointModel(input_scale=1 / 255, input_bits=8)
    with pytest.raises(ValueError):
        fx.encode_input(np.full((1, 2, 2), 256), model)
    t = fx.encode_input(np.zeros((3, 4, 4), dtype=np.uint8), model)
    assert t.codes.shape == (3, 1, 4, 4)


def test_save_load_round_trip_byte_exact():
    rng = np.random.default_rng(8)
    net, scales, plan = _tiny_quantized_net(rng, 0.25, 0.5, 1 / 256)
    model = fx.convert(net, scales, plan)
    blob = fx.save_model(None, model)
    assert blob[:4] == fx.MAGIC
    again = fx.load_model(blob)
    assert fx.save_model(None, again) == blob
    images = rng.integers(0, 256, (16, 8, 8)).astype(np.uint8)
    assert np.array_equal(fx.infer(model, images), fx.infer(again, images))
    assert again.shift_only == model.shift_only


def test_save_load_file_path(tmp_path):
    rng = np.random.default_rng(9)
    net, scales, plan = _tiny_quantized_net(rng, 0.3, 0.17, 1 / 255)
    model = fx.convert(net, scales, plan)
    p = tmp_path / "model.fxpm"
    blob = fx.save_model(p, model)
    assert p.read_bytes() == blob
    again = fx.load_model(p)
    assert fx.save_model(None, again) == blob


def test_load_rejects_malformed_blobs():
    rng = np.random.default_rng(10)
    net, scales, plan = _tiny_quantized_net(rng, 0.25, 0.5, 1 / 256)
    blob = fx.save_model(None, fx.convert(net, scales, plan))
    with pytest.raises(fx.FormatError):
        fx.load_model(b"XXXX" + blob[4:])
    with pytest.raises(fx.FormatError):
        fx.load_model(blob[:-3])
    with pytest.raises(fx.FormatError):
        fx.load_model(blob + b"\x00")
    bad_version = bytearray(blob)
    bad_version[4] = 99
    with pytest.raises(fx.FormatError):
        fx.load_model(bytes(bad_version))
    with pytest.raises(fx.FormatError):
        fx.load_model(blob[:6])


def test_big_lenet_conversion_is_statically_safe():
    # the fixed topology with 8-bit weights and activations stays inside a
    # 32-bit accumulator by the static bound
    from qatforge.models import build_lenet

    rng = np.random.default_rng(11)
    net = build_lenet(rng)
    delta = 0.02
    plan = [LayerBits(8, 8), LayerBits(8, 8), LayerBits(8, 8), LayerBits(8, None)]
    for idx, layer in enumerate(net.param_layers):
        layer.W = qz.quantize_signed(layer.W, delta, 8)
        step = delta * (1 / 255 if idx == 0 else 0.1)
        layer.b = qz.snap_to_grid(layer.b, step)
    scales = ScaleState([delta] * 4, [0.1] * 4, 1 / 255)
    model = fx.convert(net, scales, plan)
    assert len(model.param_layers) == 4


# --- exactness of the BLAS accumulators against the int64 engine ------------


def _random_engine_model(rng, wbits, abits, in_bits, pow2):
    """conv(pad 1) - maxpool - conv(stride 2) - relu - flatten - fc - fc on
    1x12x12 inputs, random codes in range, multipliers that spread the codes
    over their range (powers of two when pow2)."""
    geometry = [
        dict(kind="conv", in_ch=1, out_ch=3, ksize=3, stride=1, pad=1),
        dict(kind="maxpool", size=2),
        dict(kind="conv", in_ch=3, out_ch=4, ksize=2, stride=2, pad=0),
        dict(kind="relu"),
        dict(kind="flatten"),
        dict(kind="fc", in_features=36, out_features=8),
        dict(kind="fc", in_features=8, out_features=3),
    ]
    layers, bits, in_scale = [], in_bits, 1.0
    half = 2 ** (wbits - 1)
    for g in geometry:
        layer = fx.FxLayer(**g)
        if layer.kind in ("conv", "fc"):
            final = layer.in_features == 8
            out_n = layer.out_ch or layer.out_features
            fan_in = layer.in_ch * layer.ksize**2 or layer.in_features
            layer.codes = rng.integers(-half, half, (out_n, fan_in))
            if layer.kind == "conv":
                k = layer.ksize
                layer.codes = layer.codes.reshape(out_n, layer.in_ch, k, k)
            reach = half * 2**bits * np.sqrt(fan_in) / 4
            layer.bias_codes = rng.integers(-int(reach / 4), int(reach / 4) + 1, out_n)
            mult = 2.0**abits / reach * rng.uniform(0.5, 2.0)
            if pow2:
                mult = 2.0 ** np.round(np.log2(mult))
            layer.weight_bits, layer.in_scale = wbits, in_scale
            if final:
                layer.weight_scale = mult / in_scale
            else:
                layer.act_bits, layer.act_scale = abits, 2.0**-abits
                layer.weight_scale = mult * layer.act_scale / in_scale
                bits, in_scale = abits, layer.act_scale
            if pow2:
                layer.shift = fx._shift_exponent(layer.logit_scale if final else layer.multiplier)
                assert layer.shift is not None
        layers.append(layer)
    model = fx.FixedPointModel(input_scale=1.0, input_bits=in_bits, layers=layers)
    model.shift_only = pow2
    return model


def _layer_dtypes(model, in_bits):
    out = []
    for layer in model.param_layers:
        out.append(fx._acc_dtype(fx.accumulator_bound(layer, in_bits)))
        in_bits = layer.act_bits or in_bits
    return out


@pytest.mark.parametrize(
    "wbits,abits,in_bits,dtype",
    [(4, 4, 8, np.float32), (8, 8, 8, np.float32),
     (12, 12, 12, np.float64), (16, 16, 16, np.float64)],
)
def test_engine_bit_identical_to_int64_oracle(wbits, abits, in_bits, dtype):
    rng = np.random.default_rng(wbits * 100 + in_bits)
    for pow2 in (False, True):
        model = _random_engine_model(rng, wbits, abits, in_bits, pow2)
        assert set(_layer_dtypes(model, in_bits)) == {dtype}
        codes = fx.IntTensor(rng.integers(0, 2**in_bits, (40, 1, 12, 12)), in_bits, False)
        got = fx.infer(model, codes, batch=16)
        want = oracles.int64_forward(model, codes.codes)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # the images stay apart: the codes are not all clipped to one rail
        assert np.unique(got).size > 60
        if pow2:
            shifted = fx.infer_shift(model, codes, batch=16)
            want_shift = oracles.int64_forward(model, codes.codes, shift=True)
            assert shifted.tobytes() == want_shift.tobytes()
            assert shifted.tobytes() == got.tobytes()


def test_int64_regime_matches_oracle():
    # 32-bit weights and inputs: the bound passes 2^53, so only int64 is exact
    rng = np.random.default_rng(30)
    layer = _fc_layer(rng.integers(-(2**20), 2**20, (3, 5)), [7, -9, 2**40], 32, 0, 1.0, 1.0, 0.0)
    model = fx.FixedPointModel(input_scale=1.0, input_bits=32, layers=[layer])
    assert _layer_dtypes(model, 32) == [np.int64]
    codes = fx.IntTensor(rng.integers(0, 2**22, (6, 5)), 32, signed=False)
    assert fx.infer(model, codes).tobytes() == oracles.int64_forward(model, codes.codes).tobytes()


def _rail_model(kind, target, wbits, in_bits):
    """One final layer whose bound is exactly target, reached by every output
    when every weight code is -2^(n-1) and every input code 2^m - 1."""
    half = 2 ** (wbits - 1)
    if kind == "conv":
        layer = fx.FxLayer(kind="conv", in_ch=2, out_ch=3, ksize=3)
        shape = (3, 2, 3, 3)
    else:
        layer = fx.FxLayer(kind="fc", in_features=18, out_features=3)
        shape = (3, 18)
    rails = 18 * half * (2**in_bits - 1)
    layer.codes = np.full(shape, -half, dtype=np.int64)
    layer.bias_codes = np.full(3, -(target - rails), dtype=np.int64)
    layer.weight_bits, layer.weight_scale, layer.in_scale = wbits, 1.0, 1.0
    layer.shift = 0
    layers = [layer] if kind == "conv" else [fx.FxLayer(kind="flatten"), layer]
    model = fx.FixedPointModel(1.0, in_bits, layers, shift_only=True)
    assert fx.accumulator_bound(layer, in_bits) == target
    return model


@pytest.mark.parametrize("kind", ["conv", "fc"])
@pytest.mark.parametrize(
    "target,wbits,in_bits,dtype",
    [(2**24 - 1, 8, 8, np.float32), (2**24, 8, 8, np.float64),
     (2**53 - 1, 16, 16, np.float64), (2**53, 16, 16, np.int64)],
)
def test_rail_inputs_reach_the_bound_exactly(kind, target, wbits, in_bits, dtype):
    model = _rail_model(kind, target, wbits, in_bits)
    assert _layer_dtypes(model, in_bits) == [dtype]
    codes = fx.IntTensor(np.full((2, 2, 3, 3), 2**in_bits - 1), in_bits, signed=False)
    got = fx.infer(model, codes)
    assert np.all(got == -float(target))
    assert got.tobytes() == oracles.int64_forward(model, codes.codes).tobytes()
    assert fx.infer_shift(model, codes).tobytes() == got.tobytes()


def test_accumulate_dtype_flips_exactly_at_the_bound():
    # float32 holds every integer up to 2^24 and loses 2^24 + 1; float64 the
    # same at 2^53, so a bound of 2^24 already needs float64
    assert float(np.float32(2**24 + 1)) != 2**24 + 1
    assert float(np.float64(2**53 + 1)) != 2**53 + 1
    assert fx._acc_dtype(2**24 - 1) is np.float32
    assert fx._acc_dtype(2**24) is np.float64
    assert fx._acc_dtype(2**53 - 1) is np.float64
    assert fx._acc_dtype(2**53) is np.int64
    # and the bound of a layer decides: one more unit of bias flips it
    model = _rail_model("fc", 2**24 - 1, 8, 8)
    layer = model.param_layers[0]
    assert fx._acc_dtype(fx.accumulator_bound(layer, 8)) is np.float32
    layer.bias_codes = layer.bias_codes - 1
    assert fx.accumulator_bound(layer, 8) == 2**24
    assert fx._acc_dtype(fx.accumulator_bound(layer, 8)) is np.float64


def test_load_rejects_layer_over_the_accumulator_bound(tmp_path):
    # a hand-built file: 16-bit inputs and weights on a 64-wide fc layer,
    # whose worst case 64 * 2^15 * (2^16 - 1) is far past 2^31 - 1
    layer = _fc_layer(np.ones((2, 64), dtype=np.int64), [0, 0], 16, 0, 1.0, 1.0, 0.0)
    model = fx.FixedPointModel(input_scale=1.0, input_bits=16, layers=[layer])
    path = tmp_path / "wide.fxpm"
    fx.save_model(path, model)
    with pytest.raises(fx.FormatError, match="accumulator"):
        fx.load_model(path)
    # 8-bit inputs and weights on the same layer are within the contract
    layer.weight_bits, model.input_bits = 8, 8
    again = fx.load_model(fx.save_model(None, model))
    assert fx.accumulator_bound(again.param_layers[0], 8) == 64 * 128 * 255


def test_load_rejects_in_scale_that_is_not_the_previous_output_scale():
    # a file whose fc layer reads its input codes at 0.125 while the conv
    # layer writes them at 0.5 would run, and infer and simulate_float would
    # disagree on it
    rng = np.random.default_rng(13)
    net, scales, plan = _tiny_quantized_net(rng, 0.25, 0.5, 1 / 256)
    model = fx.convert(net, scales, plan)
    conv, fc = model.param_layers
    assert fc.in_scale == conv.act_scale == 0.5
    fc.in_scale = 0.125
    with pytest.raises(fx.FormatError, match="in_scale"):
        fx.load_model(fx.save_model(None, model))
    fc.in_scale, conv.in_scale = 0.5, 2 * model.input_scale
    with pytest.raises(fx.FormatError, match="in_scale"):
        fx.load_model(fx.save_model(None, model))
    conv.in_scale = model.input_scale
    assert fx.save_model(None, fx.load_model(fx.save_model(None, model))) == (
        fx.save_model(None, model))


def _fc_16_8_8_5():
    """A frozen fc 16 -> 8 -> 8 -> 5 model on power-of-two scales, so every
    layer has a shift."""
    rng = np.random.default_rng(15)
    layers, in_scale = [], 1 / 256
    for n_in, n_out, act_bits in [(16, 8, 4), (8, 8, 4), (8, 5, 0)]:
        act_scale = 0.5 if act_bits else 0.0
        codes = rng.integers(-8, 8, (n_out, n_in))
        bias = rng.integers(-50, 51, n_out)
        layers.append(_fc_layer(codes, bias, 4, act_bits, 0.25, in_scale, act_scale))
        in_scale = act_scale
    return fx.freeze(fx.FixedPointModel(input_scale=1 / 256, layers=layers))


def test_infer_refuses_a_layer_after_the_final_one():
    # with the middle output left unrequantized, the last layer would read the
    # first layer's codes: the shapes match, and the logits would be wrong
    model = _fc_16_8_8_5()
    codes = fx.IntTensor(np.random.default_rng(16).integers(0, 256, (4, 16)), 8, False)
    assert fx.infer(model, codes).shape == (4, 5)
    model.layers[1].act_bits = 0
    with pytest.raises(ValueError, match="layer 2 follows the final, unrequantized layer"):
        fx.infer(model, codes)


@pytest.mark.parametrize(
    "layer,edits,match",
    [(1, {"act_bits": 0}, "layer 1 has no activation bit-width"),
     (0, {"shift": 10}, "stored shifts"),
     (2, {"act_bits": 4, "act_scale": 0.5}, "final layer requantizes")],
)
def test_load_rejects_models_outside_the_integer_contract(layer, edits, match):
    model = _fc_16_8_8_5()
    blob = fx.save_model(None, model)
    assert model.shift_only and model.layers[0].shift == 9
    for name, value in edits.items():
        setattr(model.layers[layer], name, value)
    with pytest.raises(fx.FormatError, match=match):
        fx.load_model(fx.save_model(None, model))
    assert fx.save_model(None, fx.load_model(blob)) == blob


def test_load_derives_the_shifts_a_file_does_not_store():
    model = _fc_16_8_8_5()
    blob = fx.save_model(None, model)
    for fc in model.layers:
        fc.shift = None
    model.shift_only = False
    assert fx.save_model(None, fx.load_model(fx.save_model(None, model))) == blob


def test_binary_weight_model_round_trips():
    # 1-bit codes are -1 and +1, both in range for the reader
    rng = np.random.default_rng(14)
    net, scales, plan = _tiny_quantized_net(rng, 0.5, 0.25, 0.25, wbits=1)
    model = fx.convert(net, scales, plan)
    assert set(np.unique(model.layers[0].codes)) <= {-1, 1}
    blob = fx.save_model(None, model)
    assert fx.save_model(None, fx.load_model(blob)) == blob


def test_load_rejects_non_finite_scales():
    rng = np.random.default_rng(12)
    net, scales, plan = _tiny_quantized_net(rng, 0.25, 0.5, 1 / 256)
    blob = fx.save_model(None, fx.convert(net, scales, plan))
    for value in (np.inf, np.nan, -0.5):
        bad = bytearray(blob)
        bad[8:16] = np.float64(value).tobytes()  # input_scale
        with pytest.raises(fx.FormatError):
            fx.load_model(bytes(bad))
