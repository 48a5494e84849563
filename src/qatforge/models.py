"""Reference topologies and structural (de)serialization of networks."""

from __future__ import annotations

from .nn import Conv2d, Flatten, Linear, MaxPool2d, Network, ReLU


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
    """Structural description of a network, JSON-friendly."""
    spec = []
    for layer in net.layers:
        if isinstance(layer, Conv2d):
            spec.append(
                ["conv", layer.in_ch, layer.out_ch, layer.ksize, layer.stride, layer.pad]
            )
        elif isinstance(layer, Linear):
            spec.append(["linear", layer.in_features, layer.out_features])
        elif isinstance(layer, MaxPool2d):
            spec.append(["maxpool", layer.size])
        elif isinstance(layer, ReLU):
            spec.append(["relu"])
        elif isinstance(layer, Flatten):
            spec.append(["flatten"])
        else:
            raise TypeError(f"unknown layer type {type(layer).__name__}")
    return spec


def net_from_spec(spec, rng=None):
    layers = []
    for entry in spec:
        kind, args = entry[0], entry[1:]
        if kind == "conv":
            layers.append(Conv2d(*map(int, args), rng=rng))
        elif kind == "linear":
            layers.append(Linear(*map(int, args), rng=rng))
        elif kind == "maxpool":
            layers.append(MaxPool2d(int(args[0])))
        elif kind == "relu":
            layers.append(ReLU())
        elif kind == "flatten":
            layers.append(Flatten())
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    return Network(layers)
