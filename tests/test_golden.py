"""Golden bytes: FXPM and QZIP files, and the logits and rebuilt networks
they give, pinned by sha256 on seeded models.

A refactor of the model representation or of either codec must leave every
digest here unchanged; a deliberate format change updates them in the same
change and says so.
"""

import hashlib

import numpy as np

from qatforge import compression as cz
from qatforge import fixedpoint as fx
from qatforge.models import net_from_spec
from qatforge.training import LayerBits, ScaleState, bias_grid_step

SPEC = [
    ["conv", 1, 4, 3, 1, 1],
    ["maxpool", 2],
    ["conv", 4, 6, 3, 1, 0],
    ["relu"],
    ["maxpool", 2],
    ["flatten"],
    ["linear", 24, 8],
    ["relu"],
    ["linear", 8, 5],
]


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _net_sha(net):
    return _sha(*[a for l in net.param_layers for a in (l.W, l.b)])


def _on_grid_net(seed, scales, plan, sparsity=0.0):
    """SPEC with weights delta * code and biases on their grid; a share of
    the codes set to zero when sparsity > 0."""
    rng = np.random.default_rng(seed)
    net = net_from_spec(SPEC)
    for l, layer in enumerate(net.param_layers):
        half = 2 ** (plan[l].weights - 1)
        codes = rng.integers(-half, half, layer.W.shape)
        codes[rng.random(layer.W.shape) < sparsity] = 0
        layer.W = float(scales.weight_scales[l]) * codes.astype(np.float64)
        step = bias_grid_step(plan, scales, l)
        layer.b = step * rng.integers(-40, 41, layer.b.shape).astype(np.float64)
    return net


def _images():
    return np.random.default_rng(99).integers(0, 256, (24, 12, 12)).astype(np.uint8)


MULT = ScaleState(np.array([0.3, 0.09, 0.35, 0.23]), np.array([0.37, 0.64, 0.11, 1.0]), 1 / 255)
POW2 = ScaleState(np.array([0.25, 0.0625, 0.125, 0.0625]), np.array([0.25, 4.0, 1.0, 1.0]), 1 / 256)
PLAN_4_4 = [LayerBits(4, 4)] * 3 + [LayerBits(4, None)]


def test_fxpm_multiplier_model_is_pinned():
    model = fx.convert(_on_grid_net(1, MULT, PLAN_4_4), MULT, PLAN_4_4)
    assert not model.shift_only
    blob = fx.save_model(None, model)
    assert _sha(blob) == "43ff63abdf512cbe"
    images = _images()
    logits = fx.infer(model, images)
    assert np.unique(np.argmax(logits, 1)).size >= 4
    assert _sha(logits) == "96751dd400eab4cf"
    assert _sha(fx.simulate_float(model, images)) == "80482fba8df0fa14"
    assert _sha(fx.simulate_float(fx.load_model(blob), images)) == "80482fba8df0fa14"


def test_fxpm_power_of_two_model_is_pinned():
    model = fx.convert(_on_grid_net(2, POW2, PLAN_4_4), POW2, PLAN_4_4)
    assert model.shift_only
    blob = fx.save_model(None, model)
    assert _sha(blob) == "d85d005b7fcd01b2"
    images = _images()
    logits = fx.infer(model, images)
    assert np.unique(np.argmax(logits, 1)).size >= 4
    assert _sha(logits) == "452598708f80e750"
    assert _sha(fx.infer_shift(model, images)) == "452598708f80e750"
    assert _sha(fx.simulate_float(model, images)) == "452598708f80e750"


def test_qzip_sparse_model_with_quantized_junctions_is_pinned():
    plan = [LayerBits(3, 4)] * 3 + [LayerBits(3, None)]
    net = _on_grid_net(3, MULT, plan, sparsity=0.8)
    masks = [l.W != 0 for l in net.param_layers]
    blob, meta = cz.encode_model(net, masks, MULT, plan)
    assert _sha(blob) == "ccd2a51686dc0cf1"
    assert meta["header_bytes"] + meta["table_bytes"] + meta["payload_bytes"] == len(blob)
    rebuilt = cz.decode_model(blob).to_network()
    assert _net_sha(rebuilt) == _net_sha(net) == "9582120c133891dc"


def test_qzip_model_with_float_junctions_is_pinned():
    # quantize_acts=False: after the first layer the biases ride the weight
    # grid, bias_step == weight_scale
    plan = [LayerBits(3, None)] * 4
    net = _on_grid_net(4, MULT, plan, sparsity=0.6)
    blob, _ = cz.encode_model(net, None, MULT, plan)
    assert _sha(blob) == "db70828d9c9b5f72"
    decoded = cz.decode_model(blob)
    assert decoded.act_bits == 0
    for layer in decoded.param_layers[1:]:
        assert layer.bias_step == layer.weight_scale
        assert layer.act_scale == 0.0
    rebuilt = decoded.to_network()
    assert _net_sha(rebuilt) == _net_sha(net) == "95b05b874687d473"
