"""Follow one image through the integer-only engine, layer by layer.

Everything after the input is integer arithmetic: weights and activations
are small codes, each layer's multiply-accumulate is exact (statically
proven to fit 32 bits, and run as a float32 or float64 GEMM only where the
same bound proves that exact), and each junction requantizes with one
multiplier. The trace prints the accumulate type, the code ranges and the
accumulator extremes at every step, then checks the integer argmax against
the float simulation of the same quantized network on the whole test set.

Needs a quantized checkpoint; run 04_qat_4bit.py first (or pass --ckpt).
"""

import argparse

import numpy as np

import qatforge as qf
from qatforge import fixedpoint as fx
from qatforge.nn import max_pool


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ckpt", default="demo_qat4.npz")
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--data", default=None)
    args = ap.parse_args()

    ckpt = qf.load_checkpoint(args.ckpt)
    plan = qf.quant_plan(len(ckpt.net.param_layers), ckpt.config)
    model = qf.convert(ckpt.net, ckpt.scales, plan)
    data = qf.load_mnist(args.data)

    image = data.test_images[args.index:args.index + 1]
    print(f"image {args.index} (label {data.test_labels[args.index]})")
    x = fx.encode_input(image, model)
    print(f"input codes {x.min()}..{x.max()} "
          f"(scale {model.input_scale:.6f})")

    # replay the engine's own steps to expose the intermediate integers; the
    # engine keeps maps NHWC, and pools before it requantizes, which gives
    # the same codes because the rescale is monotone
    x = x.transpose(0, 2, 3, 1)
    kernels = iter(fx._kernels(model))
    for i, layer in enumerate(model.layers):
        if layer.params:
            kernel = next(kernels)
            acc = fx._mac(x, layer, kernel)
            head = (f"  {i}: {layer.kind:4} {np.dtype(kernel[0]).name:7} acc "
                    f"{acc.min():>9.0f}..{acc.max():<9.0f}")
            if layer.act_bits:
                x = fx._requant_mult(acc, layer)
                print(f"{head} -> requant codes {x.min():.0f}..{x.max():.0f}")
            else:
                print(f"{head} (final, scale {layer.logit_scale:.2e})")
                logits = acc
        elif layer.kind == "maxpool":
            x = max_pool(x, layer.size)
            print(f"  {i}: maxpool              -> codes {x.min():.0f}..{x.max():.0f}")
        elif layer.kind == "flatten":
            x = fx._flatten_int(x)

    pred = int(np.argmax(logits))
    ref = qf.simulate_float(model, image)
    print(f"\npredicted {pred}, float simulation says {int(np.argmax(ref))}")

    preds = fx.predict(model, data.test_images)
    sim = np.argmax(qf.simulate_float(model, data.test_images), axis=1)
    n = len(data.test_images)
    labels = data.test_labels.astype(np.int64)
    print(f"test set: integer engine {np.mean(preds == labels):.4f}, "
          f"agrees with float simulation on {int(np.sum(preds == sim))}/{n}")


if __name__ == "__main__":
    main()
