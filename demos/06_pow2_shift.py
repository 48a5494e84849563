"""Power-of-two scales turn every rescale into an arithmetic shift.

Integer inference rescales each accumulator by weight_scale * in_scale /
act_scale. If all scales are powers of two that multiplier is 2^-s and the
rescale becomes add-round-shift, which is what small fixed-point hardware
wants. Training gets there with an extra penalty, gamma times the squared
distance of each scale to its nearest power of two, where gamma is learned
exactly like lambda.

The script trains with that penalty, converts, and proves the shift claim:
the shift-based engine produces bit-identical logits to the multiplier
engine on the whole test set.
"""

import argparse

import numpy as np

import qatforge as qf


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--epochs", type=int, default=6)
    ap.add_argument("--full", action="store_true")
    ap.add_argument("--data", default=None)
    args = ap.parse_args()

    data = qf.load_mnist(args.data)
    if not args.full:
        data = qf.MnistSet(data.train_images[:12000], data.train_labels[:12000],
                           data.test_images, data.test_labels)

    cfg = qf.TrainConfig(mode="qat_pow2", weight_bits=4, act_bits=4,
                         epochs=args.epochs,
                         lr_schedule=((args.epochs * 2 // 3, 0.1),))
    net = qf.build_lenet(np.random.default_rng(cfg.seed))
    result = qf.train(net, data, cfg)
    print(f"\ntest accuracy {result.final_accuracy:.4f}")
    print("learned scales (all exact powers of two after the terminal snap):")
    for l, s in enumerate(result.scales.weight_scales):
        print(f"  layer {l}: delta = {s} = 2^{int(np.log2(s))}")

    plan = qf.quant_plan(len(result.net.param_layers), cfg)
    model = qf.convert(result.net, result.scales, plan)
    print(f"\nconverted model shift_only = {model.shift_only}")
    for l, fx in enumerate(model.param_layers):
        if fx.act_bits:
            print(f"  layer {l}: multiplier {fx.multiplier:.6f} = 2^-{fx.shift}")

    logits_mult = qf.infer(model, data.test_images)
    logits_shift = qf.infer_shift(model, data.test_images)
    print("\nshift engine bit-identical to multiplier engine:",
          bool(np.array_equal(logits_mult, logits_shift)))


if __name__ == "__main__":
    main()
