"""Both readers under random damage: byte edits, insertions, deletions and
truncations of a valid FXPM file and a valid QZIP archive. A reader returns
a model or raises ValueError (FormatError is one); struct.error, IndexError,
OverflowError and MemoryError must never escape."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qatforge import compression as cz
from qatforge import fixedpoint as fx
from qatforge.models import net_from_spec
from qatforge.training import LayerBits, ScaleState, bias_grid_step

SPEC = [["conv", 1, 3, 3, 1, 0], ["relu"], ["maxpool", 2], ["flatten"], ["linear", 27, 4]]
PLAN = [LayerBits(4, 4), LayerBits(4, None)]
SCALES = ScaleState(np.array([0.25, 0.125]), np.array([0.5, 1.0]), 1 / 256)


def _net():
    rng = np.random.default_rng(31)
    net = net_from_spec(SPEC)
    for l, layer in enumerate(net.param_layers):
        codes = rng.integers(-8, 8, layer.W.shape)
        codes[rng.random(layer.W.shape) < 0.5] = 0
        layer.W = float(SCALES.weight_scales[l]) * codes.astype(np.float64)
        layer.b = bias_grid_step(PLAN, SCALES, l) * rng.integers(-300, 300, layer.b.shape)
    return net


FXPM = fx.save_model(None, fx.convert(_net(), SCALES, PLAN))
QZIP = cz.encode_model(_net(), None, SCALES, PLAN)[0]

# (operation, position, byte); positions wrap around the current length
EDITS = st.lists(
    st.tuples(st.sampled_from(["set", "insert", "delete"]),
              st.integers(0, 1 << 16), st.integers(0, 255)),
    min_size=1, max_size=4,
)
CUTS = st.none() | st.integers(0, 1 << 16)


def _damage(blob, edits, cut):
    b = bytearray(blob)
    for op, pos, byte in edits:
        i = pos % (len(b) + 1)
        if op == "insert":
            b.insert(i, byte)
        elif i < len(b):
            if op == "set":
                b[i] = byte
            else:
                del b[i]
    if cut is not None:
        del b[cut % (len(b) + 1):]
    return bytes(b)


def _read_or_value_error(read, data):
    try:
        read(data)
    except ValueError:
        pass


FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def test_fuzz_inputs_are_valid():
    assert fx.save_model(None, fx.load_model(FXPM)) == FXPM
    assert len(cz.decode_model(QZIP).param_layers) == 2


@FUZZ
@given(EDITS, CUTS)
def test_fxpm_reader_raises_only_value_error(edits, cut):
    _read_or_value_error(fx.load_model, _damage(FXPM, edits, cut))


@FUZZ
@given(EDITS, CUTS)
def test_qzip_reader_raises_only_value_error(edits, cut):
    _read_or_value_error(cz.decode_model, _damage(QZIP, edits, cut))
