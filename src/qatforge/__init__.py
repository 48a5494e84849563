"""Quantization-aware training with learned regularization strength,
learned per-layer scales, magnitude pruning, integer-only inference, and
entropy-coded model archives. The last two are the two serializations,
FXPM and QZIP, of one quantized model, fixedpoint.FixedPointModel."""

__version__ = "0.1.0"

from .quantizers import (
    QuantSpec,
    cell_boundaries,
    code_signed,
    code_unsigned,
    quantize_signed,
    quantize_unsigned,
    round_half_away,
    round_pow2,
    snap_to_grid,
    ste_activation_passmask,
    ste_weight_passmask,
)
from .regularizers import (
    activation_terms,
    grid_terms,
    msqe_weights,
    msqe_weights_grad,
    partial_l2,
    partial_l2_grad,
    pow2_penalty,
    pow2_penalty_grad,
    prune_masks,
    prune_threshold,
    scale_grad_weights,
    weight_terms,
)
from .nn import (
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Network,
    ReLU,
    softmax_xent,
)
from .models import build_lenet, net_from_spec, net_spec
from .mnist import MnistSet, data_root, load_mnist
from .training import (
    Adam,
    Checkpoint,
    RegState,
    TrainConfig,
    TrainLog,
    TrainResult,
    evaluate,
    grad_log_lambda,
    init_scales,
    load_checkpoint,
    quant_plan,
    save_checkpoint,
    snap_to_levels,
    train,
)
from .fixedpoint import (
    FixedPointModel,
    FxLayer,
    LayerBits,
    QuantTap,
    ScaleState,
    bias_grid_step,
    convert,
    freeze,
    infer,
    infer_shift,
    load_model,
    save_model,
    simulate_float,
)
from .compression import (
    CompressionReport,
    decode_model,
    encode_model,
    huffman_build,
    report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
