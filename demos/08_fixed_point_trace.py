"""Follow one image through the integer-only engine, layer by layer.

Everything after the input is integer arithmetic: weights and activations
are small codes, each layer's multiply-accumulate is exact (statically
proven to fit 32 bits, and run as a float32 or float64 GEMM only where the
same bound proves that exact), and each junction requantizes with one
multiplier. The trace runs infer's own layers and junction tap, and prints
the accumulate type, the accumulator extremes and the code ranges at every
junction, then checks the integer argmax against the float simulation of
the same quantized network on the whole test set.

Needs a quantized checkpoint; run 04_qat_4bit.py first (or pass --ckpt).
"""

import argparse

import numpy as np

import qatforge as qf
from qatforge import fixedpoint as fx


class Trace(fx._Engine):
    """infer's own engine, printing at each junction the accumulator range
    the requantizer reads (after the layers between, such as a max-pool) and
    the codes it passes on, and at the end the final accumulator's range."""

    def __init__(self, model):
        super().__init__(model, shift=False)
        self.kinds = [layer.kind for layer in model.layers]
        self.at = [i for i, layer in enumerate(model.layers) if layer.params]

    def activation(self, idx, x):
        codes = super().activation(idx, x)
        self.show(idx, x, f"-> codes {codes.min():.0f}..{codes.max():.0f}")
        return codes

    def logits(self, acc):
        self.show(len(self.at) - 1, acc, f"(final, scale {self.params[-1].logit_scale:.2e})")
        return super().logits(acc)

    def show(self, idx, acc, tail):
        start, stop = self.at[idx], (self.at[1:] + [len(self.kinds)])[idx]
        path = " > ".join(self.kinds[start:stop])
        dtype = self.net.param_layers[idx].W.dtype.name
        print(f"  {start}: {path:24} {dtype:7} acc {acc.min():>9.0f}..{acc.max():<9.0f} {tail}")


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

    logits = Trace(model)(x)

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
