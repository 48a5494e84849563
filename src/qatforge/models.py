"""Reference topologies and structural (de)serialization of networks."""

from __future__ import annotations

from .nn import Conv2d, Flatten, Linear, MaxPool2d, Network, ReLU

_KINDS = {cls.kind: cls for cls in (Conv2d, Linear, ReLU, MaxPool2d, Flatten)}


def build_lenet(rng=None):
    """The desk-scale MNIST topology:
    conv(20, 5x5) - maxpool2 - conv(50, 5x5) - maxpool2 - FC(500) - ReLU - FC(10).
    430500 weights plus 580 biases across the four parameter layers.
    """
    return Network(
        [
            Conv2d(1, 20, 5, rng=rng),
            MaxPool2d(2),
            Conv2d(20, 50, 5, rng=rng),
            MaxPool2d(2),
            Flatten(),
            Linear(800, 500, rng=rng),
            ReLU(),
            Linear(500, 10, rng=rng),
        ]
    )


def net_spec(net):
    """JSON-friendly structure: per layer, its nn class's kind and fields."""
    return [[l.kind, *(getattr(l, f) for f in l.fields)] for l in net.layers]


def net_from_spec(spec, rng=None):
    """The network of a spec; a bad kind or value count (from disk) is a ValueError."""
    layers = []
    for kind, *args in spec:
        cls = _KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"unknown layer kind {kind!r}")
        if len(args) != len(cls.fields):
            raise ValueError(f"layer kind {kind!r} takes {len(cls.fields)} values, not {len(args)}")
        layers.append(cls(*map(int, args), **({"rng": rng} if cls.params else {})))
    return Network(layers)
