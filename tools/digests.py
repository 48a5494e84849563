"""Print the byte-identity digests of one checkout, or diff two checkouts'.

    python tools/digests.py                      # this checkout
    python tools/digests.py --parent ../parent   # parent against this checkout
    python tools/digests.py --root ../other --seeds 1 2 7

One line per digest, "<name> <sha256 prefix>", over:
- toy training runs (float, qat, qat_pow2, prune, prune then masked qat and
  their variants, plus a conv qat_pow2 run): the curves, accuracy and
  histograms files emit_curves writes (of the prune stage too), the
  checkpoint's arrays, its config and the rest of its header, each on its
  own, and the console lines;
- the perfbench train workload's float, qat and prune digests per seed;
- the perfbench deploy workload per seed: the FXPM bytes, the QZIP archive
  and its decoded model, and the infer, infer_shift and simulate_float
  logits of the 512 deploy images.

--root imports qatforge and perfbench from another checkout. --parent runs
both sides in fresh processes, prints every digest that differs and counts
the equal ones. BLAS runs on one thread, as perfbench does.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sha(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else p.tobytes())
    return h.hexdigest()[:16]


def toy_runs(qf):
    """(name, run) pairs: each run returns (TrainResult, console text, the
    prune stage's TrainResult or None)."""
    import numpy as np

    tr = qf.training
    rng = np.random.default_rng(3)

    def make(n, size=8, classes=4):
        labels = rng.integers(0, classes, n).astype(np.uint8)
        images = rng.integers(0, 40, (n, size, size)).astype(np.uint8)
        band = size // classes
        for i, k in enumerate(labels):
            images[i, k * band : (k + 1) * band, :] = 220
        return images, labels

    data = qf.MnistSet(*make(256), *make(128))
    specs = {
        "fc": [["flatten"], ["linear", 64, 4]],
        "conv": [["conv", 1, 2, 3, 1, 0], ["relu"], ["flatten"], ["linear", 72, 4]],
    }
    mask_rng = np.random.default_rng(5)
    # the third entry is None, "mask" for random masks, or the options of a
    # prune stage whose mask the run then trains under
    runs = {
        "float": ("fc", dict(mode="float"), None),
        "qat": ("fc", dict(mode="qat"), None),
        "qat_pow2": ("fc", dict(mode="qat_pow2"), None),
        "qat_acts_off": ("conv", dict(mode="qat", quantize_acts=False), None),
        "qat_skip": ("conv", dict(mode="qat", skip_first_last=True), None),
        "qat_acts_off_skip": ("conv", dict(mode="qat", quantize_acts=False, skip_first_last=True), None),
        "qat_masked": ("conv", dict(mode="qat"), "mask"),
        "prune": ("fc", dict(mode="prune", prune_ratio=0.9), None),
        "prune_ignores_mask": ("fc", dict(mode="prune", prune_ratio=0.5), "mask"),
        "prune_then_qat": ("fc", dict(mode="qat", prune_ratio=0.9), dict(mode="prune", prune_ratio=0.9, epochs=1)),
        "conv_float": ("conv", dict(mode="float"), None),
        "conv_qat": ("conv", dict(mode="qat"), None),
        "conv_qat_pow2": ("conv", dict(mode="qat_pow2"), None),
        "conv_prune_schedule": ("conv", dict(mode="prune", prune_ratio=0.7, lr_schedule=((1, 0.5),)), None),
        "conv_prune_then_qat": ("conv", dict(mode="qat", prune_ratio=0.6), dict(mode="prune", prune_ratio=0.6, epochs=1)),
    }
    out = []
    for name, (spec, options, mask) in runs.items():
        def run(spec=spec, options=options, mask=mask):
            net = qf.models.net_from_spec(specs[spec], rng=np.random.default_rng(9))
            base = dict(epochs=2, batch_size=32, eval_batch=64, hist_every=4, seed=4)
            masks = stage = None
            if mask == "mask":
                masks = [mask_rng.random(l.W.shape) < 0.7 for l in net.param_layers]
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                if isinstance(mask, dict):
                    stage = tr.train(net, data, tr.TrainConfig(**{**base, **mask}))
                    masks = stage.prune_mask
                res = tr.train(net, data, tr.TrainConfig(**base, **options), masks=masks)
            return res, text.getvalue(), stage
        out.append((name, run))
    return out


def toy_digests(qf):
    import numpy as np

    for name, run in toy_runs(qf):
        res, text, stage = run()
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            qf.cli.emit_curves(res.log, d)
            if stage is not None:
                qf.cli.emit_curves(stage.log, d / "prune_stage")
            meta = {"final_accuracy": res.final_accuracy, "diagnostics": res.diagnostics}
            qf.training.save_checkpoint(d / "checkpoint.npz", res.net, res.scales, res.reg,
                                        res.config, masks=res.prune_mask, meta=meta)
            files = sorted(p for p in d.rglob("*.csv"))
            for p in files:
                yield f"toy.{name}.{p.relative_to(d).as_posix()}", sha(p.read_bytes())
            # the arrays, not the zip bytes: np.savez stamps each member
            # with the wall-clock time; the config and the rest of the
            # header apart, so a change to one shows as only that
            with np.load(d / "checkpoint.npz") as z:
                names = sorted(k for k in z.files if k != "header")
                yield f"toy.{name}.checkpoint.arrays", sha(*[k.encode() + z[k].tobytes() for k in names])
                header = json.loads(bytes(z["header"]).decode())
            config = header.pop("config")
            yield f"toy.{name}.checkpoint.config", sha(json.dumps(config, sort_keys=True).encode())
            yield f"toy.{name}.checkpoint.header", sha(json.dumps(header, sort_keys=True).encode())
        yield f"toy.{name}.stdout", sha(text.encode())


def bench_digests(seeds):
    import workloads

    for seed in seeds:
        with tempfile.TemporaryDirectory() as d:
            train = workloads.Train(seed, d)
            for op in train.ops():
                op.keep(op.run())
            for mode, values in train.digests.items():
                yield f"train.seed{seed}.{mode}", values[-1][:16]
        with tempfile.TemporaryDirectory() as d:
            deploy = workloads.Deploy(seed, d)
            yield f"deploy.seed{seed}.fxpm", sha(deploy.blob)
            archive = deploy.archive
            for op in archive.ops():
                op.keep(op.run())
            yield f"deploy.seed{seed}.qzip", sha(archive.archives[-1][0])
            yield f"deploy.seed{seed}.qzip_decoded", archive.decoded[-1][:16]
            for op in deploy.ops():
                if op.label in deploy.outputs:
                    yield f"deploy.seed{seed}.{op.label}", sha(op.run())


def digests(root, seeds):
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import qatforge
    import qatforge.cli

    if Path(qatforge.__file__).resolve().parent != root / "src" / "qatforge":
        raise SystemExit(f"qatforge was not imported from {root}")
    yield from toy_digests(qatforge)
    yield from bench_digests(seeds)


def run_side(root, seeds):
    cmd = [sys.executable, __file__, "--root", str(root), "--seeds", *map(str, seeds)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return dict(line.split() for line in out.splitlines())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, default=ROOT, help="checkout to digest")
    p.add_argument("--parent", type=Path, help="checkout to compare this one against")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 7])
    args = p.parse_args(argv)
    if args.parent is None:
        for name, value in digests(args.root.resolve(), args.seeds):
            print(name, value, flush=True)
        return 0
    parent = run_side(args.parent.resolve(), args.seeds)
    change = run_side(ROOT, args.seeds)
    same = 0
    for name in dict.fromkeys([*parent, *change]):
        a, b = parent.get(name, "-"), change.get(name, "-")
        if a == b:
            same += 1
        else:
            print(f"differs {name} {a} -> {b}")
    print(f"{same} of {len(dict.fromkeys([*parent, *change]))} digests equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
