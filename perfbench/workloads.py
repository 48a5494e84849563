"""The two benchmark workloads and the round loop that times them.

A workload builds its inputs in set-up, then offers a list of Ops. One round
runs every Op once, in order; rounds repeat until the time budget is spent,
and the workload's `round_s` is the median round time. Checks run after the
last round, untimed, on what the Ops returned.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qatforge import compression, fixedpoint, mnist, models, quantizers, regularizers, training

import checks
import spans
import synth

IDX_NAMES = (mnist.TRAIN_IMAGES, mnist.TRAIN_LABELS, mnist.TEST_IMAGES, mnist.TEST_LABELS)
BATCH = 64
ACCURACY_FLOOR = 0.5  # chance is 0.1 on ten balanced classes


@dataclass
class Op:
    """One timed sample: run() performs `calls` operations and returns what
    keep() stores for the checks. verify(), if given, raises CheckFailed
    when the sample's output is wrong, and the sample's operations count as
    failed."""

    label: str
    run: Callable[[], object]
    keep: Callable[[object], None]
    calls: int = 1
    verify: Callable[[object], None] | None = None


def _lenet(seed, bias_std=0.0):
    rng = np.random.default_rng(seed)
    net = models.build_lenet(rng)
    for layer in net.param_layers:
        layer.b = rng.normal(0.0, bias_std, size=layer.b.shape)
    return net


def _plan(weight_bits, act_bits):
    cfg = training.TrainConfig(mode="qat", weight_bits=weight_bits, act_bits=act_bits)
    return training.quant_plan(4, cfg)


def _calibrated(net, plan, data, input_scale, masks=None, pow2=False):
    """Scales from one calibration pass, optionally rounded to powers of two,
    then the weights snapped onto them."""
    calib = data.train_images[:, None, :, :].astype(np.float64)
    scales = training.init_scales(net, plan, calib, input_scale, masks=masks)
    if pow2:
        scales.weight_scales = quantizers.round_pow2(scales.weight_scales)
        scales.act_scales = quantizers.round_pow2(scales.act_scales)
    training.snap_to_levels(net, scales, plan)
    return scales


class Workload:
    """Set-up in __init__; ops() for the rounds; check_list() for the checks
    after them; archive_bytes() for the size of the QZIP archive it wrote."""

    def archive_bytes(self):
        return 0


class Train(Workload):
    """LeNet from scratch, one epoch per sample, in three training modes."""

    N_TRAIN = 448
    N_TEST = 128
    MODES = (
        ("float", {}),
        ("qat", {"weight_bits": 4, "act_bits": 4}),
        ("prune", {"prune_ratio": 0.99}),
    )

    def __init__(self, seed, data_dir):
        synth.write_dataset(data_dir, seed, self.N_TRAIN, self.N_TEST, IDX_NAMES)
        self.data = mnist.load_mnist(data_dir)
        self.seed = seed
        self.digests = {mode: [] for mode, _ in self.MODES}
        self.last = {}

    def _train(self, mode, options):
        net = models.build_lenet(np.random.default_rng(self.seed))
        cfg = training.TrainConfig(
            mode=mode, epochs=1, batch_size=BATCH, seed=self.seed, **options
        )
        with contextlib.redirect_stdout(io.StringIO()):
            return training.train(net, self.data, cfg)

    def _keep(self, mode, result):
        self.digests[mode].append(
            checks.digest(result.net, result.scales, (result.final_accuracy, result.reg.lam))
        )
        self.last[mode] = result

    def ops(self):
        return [
            Op(
                mode,
                run=lambda m=mode, o=options: self._train(m, o),
                keep=lambda r, m=mode: self._keep(m, r),
                verify=self._verify_prune if mode == "prune" else None,
            )
            for mode, options in self.MODES
        ]

    @staticmethod
    def _verify_prune(result):
        # Fails on every input: the final mask keeps |w| >= theta, theta the
        # ceil(ratio*N)-th smallest magnitude, so it zeroes ceil(ratio*N) - 1
        # weights, one short of the ratio.
        checks.at_least("prune zero share", checks.zero_share(result.net),
                        result.config.prune_ratio)

    def check_list(self):
        out = [(f"{m} repeats byte-identical", lambda m=m: checks.identical_repeats(m, self.digests[m]))
               for m, _ in self.MODES]
        float_res, qat_res, prune_res = (self.last[m] for m, _ in self.MODES)
        out += [
            ("float test accuracy above chance",
             lambda: checks.at_least("float accuracy", float_res.final_accuracy, ACCURACY_FLOOR)),
            ("qat test accuracy above chance",
             lambda: checks.at_least("qat accuracy", qat_res.final_accuracy, ACCURACY_FLOOR)),
            # one epoch is too short for the partial-L2 pull to ready the net
            # for a 99% cut, so accuracy is checked before the final mask
            ("prune test accuracy above chance before the mask",
             lambda: checks.at_least("prune accuracy", prune_res.log.acc_rows[-1][2], ACCURACY_FLOOR)),
            ("qat lambda rises",
             lambda: checks.rises("lambda", qat_res.log.rows[0]["lam"], qat_res.reg.lam)),
            ("qat weights equal delta*code and convert", self._check_qat_grid),
        ]
        return out

    def _check_qat_grid(self):
        res = self.last["qat"]
        plan = training.quant_plan(len(res.net.param_layers), res.config)
        checks.layer_codes(res.net, res.scales, plan)
        fixedpoint.convert(res.net, res.scales, plan)


class Deploy(Workload):
    """The QZIP round trip of a pruned LeNet, then integer-only inference of
    a 4-bit power-of-two LeNet beside its float oracle, on the same images."""

    N_CALIB = 256
    N_IMAGES = 512
    N_ORACLE = 16
    INPUT_SCALE = 1.0 / 256.0

    def __init__(self, seed, data_dir):
        synth.write_dataset(data_dir, seed, self.N_CALIB, self.N_IMAGES, IDX_NAMES)
        data = mnist.load_mnist(data_dir)
        self.images = data.test_images
        self.net = _lenet([seed, 1], bias_std=0.05)
        self.plan = _plan(4, 4)
        self.scales = _calibrated(self.net, self.plan, data, self.INPUT_SCALE, pow2=True)
        self.blob = fixedpoint.save_model(None, fixedpoint.convert(self.net, self.scales, self.plan))
        self.model = fixedpoint.load_model(self.blob)
        self.outputs = {"infer": [], "infer_shift": [], "simulate_float": []}
        self.archive = SparseArchive(seed, data)

    def ops(self):
        return self.archive.ops() + [
            Op(
                name,
                run=lambda f=name: getattr(fixedpoint, f)(self.model, self.images),
                keep=self.outputs[name].append,
            )
            for name in self.outputs
        ]

    def macs_per_image(self):
        """Integer multiply-accumulates of one image, from the geometry."""
        side, total = self.images.shape[1], 0
        for fx in self.model.layers:
            if fx.kind == "conv":
                side = (side + 2 * fx.pad - fx.ksize) // fx.stride + 1
                total += fx.out_ch * side * side * fx.in_ch * fx.ksize**2
            elif fx.kind == "fc":
                total += fx.in_features * fx.out_features
            elif fx.kind == "maxpool":
                side //= fx.size
        return total

    def check_list(self):
        infer = self.outputs["infer"]
        out = [(f"{n} repeats byte-identical", lambda n=n, o=o: checks.identical_repeats(n, o))
               for n, o in self.outputs.items()]
        out += [
            ("infer equals the benchmark's integer forward", lambda: checks.equal_arrays(
                "infer logits",
                checks.integer_forward(self.net, self.scales, self.plan, self.images[: self.N_ORACLE]),
                infer[0][: self.N_ORACLE])),
            ("infer_shift equals infer",
             lambda: checks.equal_arrays("infer_shift logits", infer[0], self.outputs["infer_shift"][0])),
            ("simulate_float equals infer",
             lambda: checks.equal_arrays("simulate_float logits", infer[0], self.outputs["simulate_float"][0])),
            ("FXPM save-load-save byte-identical", lambda: checks.identical_repeats(
                "FXPM bytes", [self.blob, fixedpoint.save_model(None, self.model)])),
        ]
        return out + self.archive.check_list()

    def archive_bytes(self):
        return len(self.archive.archives[0][0]) if self.archive.archives else 0


class SparseArchive:
    """QZIP encode and decode of a 99%-pruned 3-bit LeNet, as in the paper's
    compression setting; each op runs CALLS calls, since one takes ~30 ms."""

    CALLS = 10
    INPUT_SCALE = 1.0 / 255.0
    PRUNE_RATIO = 0.99

    def __init__(self, seed, data):
        net = _lenet([seed, 3], bias_std=0.05)
        params = net.param_layers
        theta = regularizers.prune_threshold([layer.W for layer in params], self.PRUNE_RATIO)
        masks = [np.abs(layer.W) >= theta for layer in params]
        for layer, keep in zip(params, masks):
            layer.W[~keep] = 0.0
        plan = _plan(3, 4)
        scales = _calibrated(net, plan, data, self.INPUT_SCALE, masks=masks)
        # encode_model's arguments: network, keep-masks, scales, bit plan
        self.model = (net, masks, scales, plan)
        self.archives = []
        self.decoded = []
        self.last_decoded = None

    def _encode(self):
        for _ in range(self.CALLS):
            out = compression.encode_model(*self.model)
        return out

    def _decode(self):
        archive = self.archives[-1][0]
        for _ in range(self.CALLS):
            out = compression.decode_model(archive)
        return out

    def _keep_decoded(self, decoded):
        # a digest per repeat and only the newest model, not every copy
        self.decoded.append(checks.decoded_digest(decoded))
        self.last_decoded = decoded

    def ops(self):
        return [
            Op("sparse_encode", run=self._encode, keep=self.archives.append, calls=self.CALLS),
            Op("sparse_decode", run=self._decode, keep=self._keep_decoded, calls=self.CALLS),
        ]

    def check_list(self):
        net, _, scales, plan = self.model
        return [
            ("sparse archive repeats byte-identical", lambda: checks.identical_repeats(
                "sparse archive", [a for a, _ in self.archives])),
            ("sparse decode repeats identical", lambda: checks.identical_repeats(
                "sparse decode", self.decoded)),
            ("sparse decode restores codes, biases and scales", lambda: checks.decoded_matches(
                self.last_decoded, net, scales, plan, act_bits=4)),
            ("sparse payload bits equal the optimal prefix-code cost", lambda: checks.payload_is_optimal(
                *self.archives[0], [c for c, *_ in checks.layer_codes(net, scales, plan)])),
        ]


WORKLOADS = {"train": Train, "deploy": Deploy}


# --- measurement ------------------------------------------------------------


def _round(ops, tracer, log, failures):
    """One sample of every op, its seconds appended to log[label]; returns
    (wall seconds, attempted, failed). The reason of each failure is added
    to the set failures."""
    attempted = failed = 0
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.set_label(op.label)
        attempted += op.calls
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed op is counted and reported, the run goes on
            failed += op.calls
            failures.add(f"{op.label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            continue
        log[op.label].append(time.perf_counter() - t0)
        op.keep(out)
        if op.verify is not None:
            try:
                op.verify(out)
            except checks.CheckFailed as exc:
                failed += op.calls
                failures.add(f"{op.label}: {exc}")
    return time.perf_counter() - start, attempted, failed


def measure(ops, seconds, tracer=None):
    """Run whole rounds until the next one would overrun `seconds`; the
    first round warms caches and allocators and its times are dropped. With a
    tracer, each round is run twice, traced and untraced, in alternating
    order; only the untraced rounds feed the end-to-end metric. A round
    whose output fails verify() still counts its time: the work was done.
    Returns the untraced op samples {label: [seconds]}, the round times
    {traced: [seconds]}, attempted, failed and the failure reasons."""
    samples = {op.label: [] for op in ops}
    traced_samples = {op.label: [] for op in ops}
    round_s = {True: [], False: []}
    warmup = {op.label: [] for op in ops}
    failures = set()
    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    rounds = 0
    while True:
        order = (False,) if tracer is None else ((True, False) if rounds % 2 == 0 else (False, True))
        for traced in order:
            if traced:
                tracer.install("round" if rounds else "warmup")
            try:
                log = warmup if rounds == 0 else traced_samples if traced else samples
                wall, a, f = _round(ops, tracer if traced else None, log, failures)
            finally:
                if traced:
                    tracer.uninstall()
            if rounds:
                round_s[traced].append(wall)
            attempted += a
            failed += f
        rounds += 1
        now = time.perf_counter()
        if rounds >= 2 and now + (now - start) / rounds > deadline:
            break
    return samples, round_s, attempted, failed, failures


def per_layer(tracer, workload, rounds, round_s):
    """Per-layer metrics of a traced run: set-up functions as totals over
    the set-up, everything else as means per traced round."""
    setup = tracer.totals("setup")
    timed = tracer.totals("round")
    metrics = {}

    def total(table, name):
        s = sum(v[0] for (_, n), v in table.items() if n == name)
        c = sum(v[1] for (_, n), v in table.items() if n == name)
        return s, c

    for name in spans.SPAN_METRICS:
        if name in spans.SETUP_FUNCS:
            s, c = total(setup, name)
        else:
            s, c = total(timed, name)
            s, c = s / rounds, c / rounds
        metrics[f"{name}.self_ms"] = (1000.0 * s, "ms")
        metrics[f"{name}.calls"] = (c, "count")
    for name in spans.COUNT_METRICS:
        metrics[f"{name}.calls"] = (total(timed, name)[1] / rounds, "count")

    macs = 0.0
    infer_s = sum(end - start for name, start, end, _, phase, _ in tracer.spans
                  if name == "fixedpoint.infer" and phase == "round")
    if infer_s and isinstance(workload, Deploy):
        n_calls = total(timed, "fixedpoint.infer")[1]
        macs = n_calls * workload.N_IMAGES * workload.macs_per_image() / infer_s
    metrics["fixedpoint.infer.mac_per_s"] = (macs, "computed-MAC/s")
    metrics["compression.sparse_archive_bytes"] = (workload.archive_bytes(), "bytes")

    traced, untraced = statistics.median(round_s[True]), statistics.median(round_s[False])
    metrics["trace.overhead_ms"] = (1000.0 * (traced - untraced), "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    return metrics


def calls_by_label(tracer, prefixes):
    """{label: calls} of the timed-round spans whose names start with one of
    prefixes."""
    out = {}
    for (label, name), (_, calls) in tracer.totals("round").items():
        if name.startswith(prefixes):
            out[label] = out.get(label, 0) + calls
    return out


def trace_checks(tracer, workload):
    """Which layers a traced train run may touch in each mode."""
    if not isinstance(workload, Train):
        return []
    quant = calls_by_label(tracer, ("quantizers.",))
    other = calls_by_label(tracer, ("fixedpoint.", "compression."))

    def layer_split():
        for mode, _ in Train.MODES:
            n = quant.get(mode, 0)
            if (n > 0) != (mode == "qat"):
                raise checks.CheckFailed(f"{mode}: {n} quantizer calls")

    def no_deploy_code():
        if any(other.values()):
            raise checks.CheckFailed(f"fixedpoint/compression calls in train rounds: {other}")

    return [
        ("quantizers run under qat only", layer_split),
        ("no fixedpoint or compression calls in train rounds", no_deploy_code),
    ]
