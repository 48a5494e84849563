"""In-memory span tracing around the public functions of each qatforge layer.

The tracer patches module and class attributes from outside the package,
records one span (name, start, end, parent) per call while installed, and
restores every attribute on uninstall. Patching the defining module also
catches the module's own internal calls, because Python resolves globals at
call time; every other qatforge module that imported the same function by
name is patched as well. Two hot methods, BitWriter.write and
BitReader.read_bit, are only counted: a span per bit would cost more than
the decoder it measures.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Functions traced as spans, by (module, attribute path). The metric name is
# "<module>.<attribute path>".
SPAN_TARGETS = (
    ("nn", "softmax_xent"),
    ("mnist", "load_mnist"),
    ("quantizers", "code_signed"),
    ("quantizers", "code_unsigned"),
    ("quantizers", "quantize_unsigned"),
    ("quantizers", "snap_to_grid"),
    ("quantizers", "round_half_away"),
    ("quantizers", "ste_weight_passmask"),
    ("quantizers", "ste_activation_passmask"),
    ("quantizers", "on_cell_boundary"),
    ("quantizers", "on_cell_boundary_unsigned"),
    ("quantizers", "on_grid_midpoint"),
    ("regularizers", "prune_threshold"),
    ("regularizers", "partial_l2"),
    ("regularizers", "partial_l2_grad"),
    ("training", "train"),
    ("training", "Adam.step"),
    ("training", "evaluate"),
    ("training", "init_scales"),
    ("training", "QuantTap.weights"),
    ("training", "QuantTap.activation"),
    ("training", "QuantTap.activation_backward"),
    ("fixedpoint", "infer"),
    ("fixedpoint", "infer_shift"),
    ("fixedpoint", "simulate_float"),
    ("fixedpoint", "encode_input"),
    ("fixedpoint", "convert"),
    ("fixedpoint", "save_model"),
    ("fixedpoint", "load_model"),
    ("compression", "encode_model"),
    ("compression", "decode_model"),
    ("compression", "huffman_build"),
    ("compression", "canonical_from_lengths"),
)

COUNT_TARGETS = (
    ("compression", "BitWriter.write"),
    ("compression", "BitReader.read_bit"),
)

# nn layer methods are patched on the classes, so that the throw-away layers
# simulate_float builds are traced too; a call is named after the LeNet layer
# (models.build_lenet) it belongs to, told apart by input width.
NN_CLASSES = ("Conv2d", "Linear", "MaxPool2d", "ReLU")
NN_NAMES = {
    ("Conv2d", 1): "conv1",
    ("Conv2d", 20): "conv2",
    ("MaxPool2d", 20): "pool1",
    ("MaxPool2d", 50): "pool2",
    ("Linear", 800): "fc1",
    ("Linear", 500): "fc2",
    ("ReLU", 500): "relu",
}
NN_METRICS = tuple(
    f"nn.{layer}.{method}"
    for layer in ("conv1", "conv2", "pool1", "pool2", "fc1", "fc2", "relu")
    for method in ("forward", "backward")
)

# Functions that run in a workload's set-up, not in its timed rounds; their
# metrics are totals over the one set-up of a run.
SETUP_FUNCS = (
    "mnist.load_mnist",
    "fixedpoint.convert",
    "fixedpoint.save_model",
    "fixedpoint.load_model",
)

SPAN_METRICS = NN_METRICS + tuple(f"{mod}.{attr}" for mod, attr in SPAN_TARGETS)
COUNT_METRICS = tuple(f"{mod}.{attr}" for mod, attr in COUNT_TARGETS)


def _input_width(layer, args):
    kind = type(layer).__name__
    if kind == "Conv2d":
        return layer.in_ch
    if kind == "Linear":
        return layer.in_features
    if args:  # forward(x): channels of a feature map, features of a row
        return args[0].shape[1]
    saved = layer._in_shape if kind == "MaxPool2d" else layer._pass.shape
    return saved[1]


def _resolve(module, path):
    owner = module
    *heads, leaf = path.split(".")
    for head in heads:
        owner = getattr(owner, head)
    return owner, leaf


class Tracer:
    """Span recorder. spans holds [name, start, end, parent, phase, label]
    lists; phase is "setup", "warmup" or "round", label names the operation
    being timed."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))  # (phase, label) -> name -> n
        self.phase = "setup"
        self.label = ""
        self.current = self.counts[(self.phase, self.label)]
        self._stack = []
        self._patches = []

    # -- recording --------------------------------------------------------

    def _enter(self, name):
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, self.label]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _exit(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            record = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(record)

        return wrapper

    def _nn_span(self, kind, method, fn):
        def wrapper(layer, *args, **kwargs):
            layer_name = NN_NAMES.get((kind, _input_width(layer, args)), kind)
            record = self._enter(f"nn.{layer_name}.{method}")
            try:
                return fn(layer, *args, **kwargs)
            finally:
                self._exit(record)

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        def wrapper(*args):
            tracer.current[name] += 1
            return fn(*args)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, phase, label=""):
        """Start recording into phase; patches stay until uninstall()."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.phase, self.label = phase, label
        self.current = self.counts[(phase, label)]
        pkg = self.package
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == pkg.__name__ or name.startswith(pkg.__name__ + "."))
        ]
        for mod_name, path in SPAN_TARGETS:
            owner, leaf = _resolve(getattr(pkg, mod_name), path)
            original = owner.__dict__[leaf]
            wrapped = self._span(f"{mod_name}.{path}", original)
            self._patch(owner, leaf, wrapped)
            if "." not in path:  # re-bind `from x import f` copies too
                for mod in modules:
                    if mod is not owner and mod.__dict__.get(leaf) is original:
                        self._patch(mod, leaf, wrapped)
        for mod_name, path in COUNT_TARGETS:
            owner, leaf = _resolve(getattr(pkg, mod_name), path)
            self._patch(owner, leaf, self._counter(f"{mod_name}.{path}", owner.__dict__[leaf]))
        for kind in NN_CLASSES:
            cls = getattr(pkg.nn, kind)
            for method in ("forward", "backward"):
                self._patch(cls, method, self._nn_span(kind, method, cls.__dict__[method]))

    def set_label(self, label):
        self.label = label
        self.current = self.counts[(self.phase, label)]

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        self_s = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        return self_s

    def totals(self, phase):
        """{(label, name): [self seconds, calls]} over the spans and counters
        of one phase."""
        out = defaultdict(lambda: [0.0, 0])
        for record, self_s in zip(self.spans, self.self_times()):
            name, _, _, _, span_phase, label = record
            if span_phase == phase:
                acc = out[(label, name)]
                acc[0] += self_s
                acc[1] += 1
        for (count_phase, label), names in self.counts.items():
            if count_phase == phase:
                for name, n in names.items():
                    out[(label, name)][1] += n
        return out

    def write_spans(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w") as f:
            for i, (name, start, end, parent, phase, label) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "phase": phase, "label": label,
                }) + "\n")
