"""Seeded synthetic digit-like data in the four-file IDX layout of MNIST.

Every image is one of ten fixed class templates, shifted by up to one
pixel, scaled in brightness and covered in per-pixel noise. The templates
are smooth blobs drawn on a 7x7 grid and upsampled to 28x28, so the classes
are learnable by a small convolutional network within one epoch, unlike
uniformly random labels.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SIDE = 28
CLASSES = 10
MAX_SHIFT = 1
NOISE_STD = 30.0


def templates(rng):
    """Ten (28, 28) float templates in [0, 255]: thresholded 7x7 noise,
    upsampled 4x, with a blank four-pixel border so shifts never wrap ink."""
    coarse = rng.random((CLASSES, 7, 7)) > 0.55
    coarse[:, 0, :] = coarse[:, -1, :] = coarse[:, :, 0] = coarse[:, :, -1] = False
    fine = np.kron(coarse, np.ones((4, 4))) * 255.0
    return fine


def draw(rng, tmpl, count):
    """count (images, labels) pairs, uint8, labels balanced and shuffled."""
    labels = rng.permutation(np.arange(count) % CLASSES).astype(np.uint8)
    images = np.empty((count, SIDE, SIDE), dtype=np.uint8)
    shifts = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(count, 2))
    gains = rng.uniform(0.6, 1.0, size=count)
    noise = rng.normal(0.0, NOISE_STD, size=(count, SIDE, SIDE))
    for i in range(count):
        img = np.roll(tmpl[labels[i]], tuple(shifts[i]), axis=(0, 1)) * gains[i]
        images[i] = np.clip(np.rint(img + noise[i]), 0, 255).astype(np.uint8)
    return images, labels


def write_idx_images(path, images):
    n, rows, cols = images.shape
    Path(path).write_bytes(struct.pack(">iiii", 0x803, n, rows, cols) + images.tobytes())


def write_idx_labels(path, labels):
    Path(path).write_bytes(struct.pack(">ii", 0x801, labels.size) + labels.tobytes())


def write_dataset(root, seed, n_train, n_test, names):
    """Write the four IDX files under root. names is (train images, train
    labels, test images, test labels); the same seed gives the same bytes."""
    rng = np.random.default_rng([seed, 0x1DB])
    tmpl = templates(rng)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    train_img, train_lab, test_img, test_lab = names
    for (img_name, lab_name), count in (
        ((train_img, train_lab), n_train),
        ((test_img, test_lab), n_test),
    ):
        images, labels = draw(rng, tmpl, count)
        write_idx_images(root / img_name, images)
        write_idx_labels(root / lab_name, labels)
    return root
