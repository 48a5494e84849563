"""Command-line entry points and artifact plumbing.

Subcommands mirror the pipeline stages: train (float baseline), quantize
(QAT, from scratch or fine-tuning a checkpoint), prune (magnitude pruning,
produces a masked checkpoint), compress (entropy-coded archive + report),
convert (integer model file), eval (accuracy of any artifact), infer
(fixed-point prediction of one test image beside its float simulation).

Every training run leaves a self-describing output directory: the exact
config used, a manifest with content hashes of the input files, per-iteration
curves, per-epoch accuracy, weight histograms, and a checkpoint. Re-running
with the same config and seed reproduces the CSVs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import compression as cmp
from . import fixedpoint as fx
from .mnist import data_root, load_mnist
from .models import build_lenet
from .training import (
    Checkpoint,
    TrainConfig,
    evaluate,
    load_checkpoint,
    quant_plan,
    refuse_unknown_keys,
    save_checkpoint,
    train,
)


@dataclasses.dataclass
class ExperimentConfig:
    arch: str = "lenet5"
    data_dir: str | None = None
    out_dir: str = "runs/out"
    seed: int = 0
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)

    def validate(self):
        if self.arch != "lenet5":
            raise ValueError(f"unknown architecture {self.arch!r}")
        self.train.validate()
        return self

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["train"] = self.train.to_dict()
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        refuse_unknown_keys(cls, d)
        d["train"] = TrainConfig.from_dict(d.get("train", {}))
        return cls(**d)


def emit_curves(log, outdir):
    """TrainLog -> curves.csv / accuracy.csv / histograms.csv."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if not log.rows:
        raise ValueError("empty training log")
    with open(outdir / "curves.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(log.rows[0].keys()))
        writer.writeheader()
        writer.writerows(log.rows)
    with open(outdir / "accuracy.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "iteration", "accuracy"])
        writer.writerows(log.acc_rows)
    if log.hist_rows:
        with open(outdir / "histograms.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["iteration", "layer", "delta"] + [f"bin_{i}" for i in range(201)]
            )
            for it, layer, delta, counts in log.hist_rows:
                writer.writerow([it, layer, delta] + list(counts))


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _write_manifest(outdir, cfg: ExperimentConfig, root):
    inputs = {}
    for p in sorted(Path(root).iterdir()):
        if p.is_file():
            inputs[p.name] = _sha256(p)
    manifest = {
        "version": __version__,
        "seed": cfg.seed,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg.to_dict(), sort_keys=True).encode()
        ).hexdigest(),
        "inputs": inputs,
        # trained bits repeat per BLAS thread setting, so record it
        "numpy_version": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }
    with open(Path(outdir) / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def _build_experiment(args, mode):
    if args.config:
        with open(args.config) as f:
            cfg = ExperimentConfig.from_dict(json.load(f))
    else:
        cfg = ExperimentConfig()
    cfg.train.mode = mode
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.train.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.data is not None:
        cfg.data_dir = args.data
    t = cfg.train
    if getattr(args, "bits_w", None) is not None:
        t.weight_bits = args.bits_w
    if getattr(args, "bits_a", None) is not None:
        t.act_bits = args.bits_a
    if getattr(args, "no_acts", False):
        t.quantize_acts = False
    if getattr(args, "skip_first_last", False):
        t.skip_first_last = True
    if getattr(args, "quantize_all", False):
        t.skip_first_last = False
    if getattr(args, "prune_ratio", None) is not None:
        t.prune_ratio = args.prune_ratio
    if args.epochs is not None:
        t.epochs = args.epochs
    if args.lr is not None:
        t.lr = args.lr
    if args.batch_size is not None:
        t.batch_size = args.batch_size
    return cfg.validate()


def _run_training(cfg: ExperimentConfig, init_ckpt=None):
    root = data_root(cfg.data_dir)
    data = load_mnist(root)
    masks = None
    if init_ckpt is not None:
        start = load_checkpoint(init_ckpt)
        net = start.net
        masks = start.masks
    else:
        net = build_lenet(np.random.default_rng(cfg.seed))
    result = train(net, data, cfg.train, masks=masks)

    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "config.json", "w") as f:
        json.dump(cfg.to_dict(), f, indent=2, sort_keys=True)
    _write_manifest(outdir, cfg, root)
    emit_curves(result.log, outdir)
    # run time stays out of the checkpoint, so a rerun writes the same bytes
    meta = {
        "final_accuracy": result.final_accuracy,
        "diagnostics": result.diagnostics,
    }
    save_checkpoint(
        outdir / "checkpoint.npz",
        result.net,
        result.scales,
        result.reg,
        cfg.train,
        masks=result.prune_mask,
        meta=meta,
    )
    with open(outdir / "metrics.json", "w") as f:
        json.dump({**meta, "wall_seconds": result.wall_seconds}, f, indent=2, sort_keys=True)
    print(f"final accuracy {result.final_accuracy:.4f}")
    print(f"artifacts in {outdir}")
    return 0


def _eval_checkpoint(ckpt: Checkpoint, data):
    plan = quant_plan(len(ckpt.net.param_layers), ckpt.config)
    quantized = any(p.weights is not None or p.acts is not None for p in plan)
    tap = fx.QuantTap(plan, ckpt.scales) if quantized else None
    return evaluate(
        ckpt.net,
        data.test_images,
        data.test_labels.astype(np.int64),
        ckpt.scales.input_scale,
        tap,
    )


def cmd_train(args):
    cfg = _build_experiment(args, "float")
    return _run_training(cfg)


def cmd_quantize(args):
    mode = "qat_pow2" if args.pow2 else "qat"
    cfg = _build_experiment(args, mode)
    return _run_training(cfg, init_ckpt=args.init)


def cmd_prune(args):
    cfg = _build_experiment(args, "prune")
    if cfg.train.prune_ratio <= 0:
        print("prune needs --prune-ratio > 0", file=sys.stderr)
        return 2
    return _run_training(cfg, init_ckpt=args.init)


def cmd_convert(args):
    ckpt = load_checkpoint(args.ckpt)
    plan = quant_plan(len(ckpt.net.param_layers), ckpt.config)
    try:
        model = fx.convert(ckpt.net, ckpt.scales, plan)
    except ValueError as e:
        print(f"conversion refused: {e}", file=sys.stderr)
        return 2
    out = Path(args.out or ".") / "model.fxpm"
    out.parent.mkdir(parents=True, exist_ok=True)
    fx.save_model(out, model)
    kind = "shift" if model.shift_only else "multiplier"
    print(f"wrote {out} ({kind} rescale)")
    return 0


def cmd_compress(args):
    ckpt = load_checkpoint(args.ckpt)
    plan = quant_plan(len(ckpt.net.param_layers), ckpt.config)
    try:
        archive, _ = cmp.encode_model(ckpt.net, ckpt.masks, ckpt.scales, plan)
    except ValueError as e:
        print(f"compression refused: {e}", file=sys.stderr)
        return 2
    out = Path(args.out or ".") / "model.qzip"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(archive)
    if ckpt.masks is not None:
        before = [m.astype(np.float64) for m in ckpt.masks]
    else:
        before = [np.ones_like(l.W) for l in ckpt.net.param_layers]
    rep = cmp.report(archive, before)
    print(f"wrote {out}")
    print(rep)
    with open(out.with_suffix(".report.json"), "w") as f:
        json.dump(dataclasses.asdict(rep), f, indent=2, sort_keys=True)
    return 0


def cmd_eval(args):
    root = data_root(args.data)
    data = load_mnist(root)
    labels = data.test_labels.astype(np.int64)
    if args.ckpt:
        acc = _eval_checkpoint(load_checkpoint(args.ckpt), data)
        name = args.ckpt
    else:
        name = args.fxpm or args.qzip
        if args.fxpm:
            preds = fx.predict(fx.load_model(args.fxpm), data.test_images, shift=args.shift)
        else:
            model = cmp.decode_model(Path(args.qzip).read_bytes())
            preds = np.argmax(fx.simulate_float(model, data.test_images), axis=1)
        acc = float(np.mean(preds == labels))
    print(f"{name}: accuracy {acc:.4f}")
    return 0


def cmd_infer(args):
    root = data_root(args.data)
    data = load_mnist(root)
    model = fx.load_model(args.fxpm)
    labels = data.test_labels.astype(np.int64)
    if not 0 <= args.index < labels.size:
        raise ValueError(f"--index {args.index} is outside [0, {labels.size})")
    image = data.test_images[args.index : args.index + 1]
    run = fx.infer_shift if args.shift else fx.infer
    logits = run(model, image)
    ref = fx.simulate_float(model, image)
    pred = int(np.argmax(logits))
    print(
        f"index {args.index}: predicted {pred} (label {labels[args.index]}, "
        f"float-simulated {int(np.argmax(ref))})"
    )
    return 0


def _add_common(p, with_train_flags=True):
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="artifact directory")
    p.add_argument("--data", default=None, help="dataset root (else QATFORGE_DATA)")
    if with_train_flags:
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--batch-size", type=int, default=None)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qatforge",
        description="learned-scale quantization training, pruning, integer "
        "inference and compression for small convnets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the float baseline")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("quantize", help="quantization-aware training")
    _add_common(p)
    p.add_argument("--init", help="checkpoint to fine-tune from")
    p.add_argument("--bits-w", type=int, default=None)
    p.add_argument("--bits-a", type=int, default=None)
    p.add_argument("--pow2", action="store_true", help="pull scales to powers of two")
    p.add_argument("--no-acts", action="store_true", help="leave activations in float")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--quantize-all", action="store_true")
    group.add_argument("--skip-first-last", action="store_true")
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("prune", help="magnitude pruning stage")
    _add_common(p)
    p.add_argument("--init", help="checkpoint to start from")
    p.add_argument("--prune-ratio", type=float, default=None)
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("compress", help="entropy-code a quantized checkpoint")
    _add_common(p, with_train_flags=False)
    p.add_argument("--ckpt", required=True)
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser("convert", help="freeze a checkpoint into an integer model")
    _add_common(p, with_train_flags=False)
    p.add_argument("--ckpt", required=True)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("eval", help="test-set accuracy of any artifact")
    _add_common(p, with_train_flags=False)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ckpt")
    group.add_argument("--fxpm")
    group.add_argument("--qzip")
    p.add_argument("--shift", action="store_true", help="use shift rescaling")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("infer", help="fixed-point prediction of one test image")
    _add_common(p, with_train_flags=False)
    p.add_argument("--fxpm", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--shift", action="store_true")
    p.set_defaults(fn=cmd_infer)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
