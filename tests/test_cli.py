"""End-to-end runs of every CLI subcommand on a tiny synthetic dataset.

The dataset is random noise in the standard IDX layout, small enough that
each training invocation takes a couple of seconds.  Accuracy is meaningless
here; these tests check exit codes, artifact files, printed lines, config
precedence, and that the stages compose (train -> quantize -> convert ->
compress -> eval/infer).
"""

import json
import os
import re
import struct

import numpy as np
import pytest

from qatforge import mnist
from qatforge.cli import ExperimentConfig, emit_curves, main
from qatforge.training import TrainLog, load_checkpoint


def _write_idx(root, n_train=256, n_test=64, seed=0):
    rng = np.random.default_rng(seed)
    sets = [
        (mnist.TRAIN_IMAGES, mnist.TRAIN_LABELS, n_train),
        (mnist.TEST_IMAGES, mnist.TEST_LABELS, n_test),
    ]
    for img_name, lab_name, n in sets:
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        with open(root / img_name, "wb") as f:
            f.write(struct.pack(">IIII", 2051, n, 28, 28))
            f.write(images.tobytes())
        with open(root / lab_name, "wb") as f:
            f.write(struct.pack(">II", 2049, n))
            f.write(labels.tobytes())


@pytest.fixture(scope="module")
def ds(tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    _write_idx(root)
    return root


@pytest.fixture(scope="module")
def float_run(ds, tmp_path_factory):
    out = tmp_path_factory.mktemp("float")
    rc = main(
        ["train", "--data", str(ds), "--out", str(out), "--epochs", "1", "--seed", "0"]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def qat_run(ds, tmp_path_factory):
    out = tmp_path_factory.mktemp("qat")
    rc = main(
        [
            "quantize",
            "--data", str(ds),
            "--out", str(out),
            "--epochs", "2",
            "--seed", "0",
            "--bits-w", "4",
            "--bits-a", "4",
            "--quantize-all",
        ]
    )
    assert rc == 0
    return out


def test_train_artifacts(float_run, capsys):
    for name in ("config.json", "manifest.json", "curves.csv",
                 "accuracy.csv", "checkpoint.npz", "metrics.json"):
        assert (float_run / name).exists(), name
    # float runs carry no weight histograms
    assert not (float_run / "histograms.csv").exists()

    metrics = json.loads((float_run / "metrics.json").read_text())
    assert 0.0 <= metrics["final_accuracy"] <= 1.0
    assert metrics["wall_seconds"] > 0

    manifest = json.loads((float_run / "manifest.json").read_text())
    assert len(manifest["inputs"]) == 4
    for digest in manifest["inputs"].values():
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert manifest["seed"] == 0
    assert manifest["numpy_version"] == np.__version__
    assert manifest["cpu_count"] == os.cpu_count()
    assert manifest["blas_threads"] == {
        name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }

    cfg = ExperimentConfig.from_dict(
        json.loads((float_run / "config.json").read_text())
    )
    assert cfg.train.mode == "float"
    assert cfg.train.epochs == 1

    header = (float_run / "curves.csv").read_text().splitlines()[0]
    assert "cost" in header and "task" in header


def test_train_prints_summary(ds, tmp_path, capsys):
    rc = main(
        ["train", "--data", str(ds), "--out", str(tmp_path / "o"),
         "--epochs", "1", "--seed", "1"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert re.search(r"final accuracy \d\.\d{4}", captured.out)
    assert "artifacts in" in captured.out


def test_rerun_is_byte_identical(ds, float_run, tmp_path):
    out2 = tmp_path / "again"
    rc = main(
        ["train", "--data", str(ds), "--out", str(out2), "--epochs", "1",
         "--seed", "0"]
    )
    assert rc == 0
    for name in ("curves.csv", "accuracy.csv", "checkpoint.npz"):
        assert (out2 / name).read_bytes() == (float_run / name).read_bytes(), name


def test_config_file_and_flag_precedence(ds, tmp_path):
    cfg = ExperimentConfig()
    cfg.seed = 7
    cfg.train.epochs = 1
    cfg.train.lr = 2e-3
    cfg.out_dir = str(tmp_path / "from_file")
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg.to_dict()))

    out = tmp_path / "from_flag"
    rc = main(
        ["train", "--config", str(path), "--data", str(ds),
         "--out", str(out), "--seed", "3"]
    )
    assert rc == 0
    # --out and --seed override the file; lr and epochs come from the file
    assert out.exists() and not (tmp_path / "from_file").exists()
    saved = json.loads((out / "config.json").read_text())
    assert saved["seed"] == 3
    assert saved["train"]["seed"] == 3
    assert saved["train"]["lr"] == 2e-3
    assert saved["train"]["epochs"] == 1


def test_quantize_artifacts(qat_run):
    hist = (qat_run / "histograms.csv").read_text().splitlines()
    header = hist[0].split(",")
    assert header[:3] == ["iteration", "layer", "delta"]
    assert len(header) == 3 + 201

    cfg = json.loads((qat_run / "config.json").read_text())
    assert cfg["train"]["mode"] == "qat"
    assert cfg["train"]["weight_bits"] == 4
    assert cfg["train"]["act_bits"] == 4

    ckpt = load_checkpoint(qat_run / "checkpoint.npz")
    assert ckpt.scales.weight_scales.shape == (4,)


def test_eval_checkpoint(ds, qat_run, capsys):
    rc = main(
        ["eval", "--data", str(ds), "--ckpt", str(qat_run / "checkpoint.npz")]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert re.search(r"accuracy \d\.\d{4}", captured.out)


def test_eval_uses_env_data_root(qat_run, ds, monkeypatch, capsys):
    monkeypatch.setenv("QATFORGE_DATA", str(ds))
    rc = main(["eval", "--ckpt", str(qat_run / "checkpoint.npz")])
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out


def test_convert_compress_eval_infer(ds, qat_run, tmp_path, capsys):
    rc = main(
        ["convert", "--ckpt", str(qat_run / "checkpoint.npz"),
         "--out", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    fxpm = tmp_path / "model.fxpm"
    assert fxpm.exists()
    assert f"wrote {fxpm} (multiplier rescale)" in captured.out

    rc = main(["eval", "--data", str(ds), "--fxpm", str(fxpm)])
    captured = capsys.readouterr()
    assert rc == 0
    m = re.search(r"accuracy (\d\.\d{4})", captured.out)
    assert m, captured.out

    rc = main(["infer", "--data", str(ds), "--fxpm", str(fxpm), "--index", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    m = re.search(
        r"index 3: predicted (\d) \(label (\d), float-simulated (\d)\)",
        captured.out,
    )
    assert m, captured.out
    # integer inference must agree with its float simulation
    assert m.group(1) == m.group(3)

    # eval --fxpm gives the accuracy of the whole test set; infer has no --all
    with pytest.raises(SystemExit):
        main(["infer", "--data", str(ds), "--fxpm", str(fxpm), "--all"])
    capsys.readouterr()

    rc = main(
        ["compress", "--ckpt", str(qat_run / "checkpoint.npz"),
         "--out", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    qzip = tmp_path / "model.qzip"
    assert qzip.exists()
    assert f"wrote {qzip}" in captured.out
    rep = json.loads((tmp_path / "model.report.json").read_text())
    assert rep["original_bits"] > rep["compressed_bits"] > 0
    assert rep["ratio"] > 1.0
    assert sum(rep["component_bits"].values()) == rep["compressed_bits"]

    # the decoded archive evaluates to the same accuracy as the checkpoint
    rc = main(["eval", "--data", str(ds), "--ckpt", str(qat_run / "checkpoint.npz")])
    ckpt_out = capsys.readouterr().out
    assert rc == 0
    rc = main(["eval", "--data", str(ds), "--qzip", str(qzip)])
    qzip_out = capsys.readouterr().out
    assert rc == 0
    ckpt_acc = re.search(r"accuracy (\d\.\d{4})", ckpt_out).group(1)
    qzip_acc = re.search(r"accuracy (\d\.\d{4})", qzip_out).group(1)
    assert ckpt_acc == qzip_acc


def test_pow2_quantize_converts_to_shift_model(ds, tmp_path, capsys):
    out = tmp_path / "p2"
    rc = main(
        ["quantize", "--data", str(ds), "--out", str(out), "--epochs", "1",
         "--seed", "0", "--bits-w", "4", "--bits-a", "4", "--quantize-all",
         "--pow2"]
    )
    assert rc == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["train"]["mode"] == "qat_pow2"

    capsys.readouterr()
    rc = main(["convert", "--ckpt", str(out / "checkpoint.npz"),
               "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "(shift rescale)" in captured.out

    rc = main(["eval", "--data", str(ds), "--fxpm",
               str(tmp_path / "model.fxpm"), "--shift"])
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out


def test_prune_stage(ds, float_run, tmp_path, capsys):
    out = tmp_path / "pruned"
    rc = main(
        ["prune", "--data", str(ds), "--out", str(out), "--epochs", "1",
         "--seed", "0", "--init", str(float_run / "checkpoint.npz"),
         "--prune-ratio", "0.5"]
    )
    assert rc == 0
    header = (out / "curves.csv").read_text().splitlines()[0]
    assert "theta" in header and "prune_l2" in header
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["diagnostics"]["theta_final"] >= 0.0
    assert metrics["diagnostics"]["pruned_fraction"] > 0.3

    ckpt = load_checkpoint(out / "checkpoint.npz")
    assert ckpt.masks is not None
    zeros = sum(int((~m).sum()) for m in ckpt.masks)
    assert zeros > 0
    for layer, mask in zip(ckpt.net.param_layers, ckpt.masks):
        assert np.all(layer.W[~mask] == 0.0)


def test_prune_without_ratio_refused(ds, float_run, tmp_path, capsys):
    rc = main(
        ["prune", "--data", str(ds), "--out", str(tmp_path / "x"),
         "--epochs", "1", "--init", str(float_run / "checkpoint.npz")]
    )
    assert rc == 2
    assert "prune needs --prune-ratio > 0" in capsys.readouterr().err


def test_convert_refuses_unquantized_checkpoint(float_run, tmp_path, capsys):
    rc = main(["convert", "--ckpt", str(float_run / "checkpoint.npz"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "conversion refused" in capsys.readouterr().err
    assert not (tmp_path / "model.fxpm").exists()


def test_compress_refuses_unquantized_checkpoint(float_run, tmp_path, capsys):
    rc = main(["compress", "--ckpt", str(float_run / "checkpoint.npz"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "compression refused" in capsys.readouterr().err


def test_infer_refuses_an_index_outside_the_test_set(ds, qat_run, tmp_path, capsys):
    assert main(["convert", "--ckpt", str(qat_run / "checkpoint.npz"),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for index in ("64", "-1"):
        rc = main(["infer", "--data", str(ds), "--fxpm", str(tmp_path / "model.fxpm"),
                   "--index", index])
        assert rc == 2
        assert f"--index {index} is outside [0, 64)" in capsys.readouterr().err


def test_missing_checkpoint_reports_error(ds, capsys):
    rc = main(["eval", "--data", str(ds), "--ckpt", "no/such/file.npz"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_value_reports_error(ds, tmp_path, capsys):
    cfg = ExperimentConfig()
    cfg.arch = "resnet50"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg.to_dict()))
    rc = main(["train", "--config", str(path), "--data", str(ds),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown architecture" in capsys.readouterr().err


def test_emit_curves_rejects_empty_log(tmp_path):
    with pytest.raises(ValueError, match="empty training log"):
        emit_curves(TrainLog(), tmp_path)
