"""Seeded input generators: the program sees only the files these write.

Both generators are pure functions of their seed and sizes, so the same
``--seed`` gives byte-identical inputs.
"""

from __future__ import annotations

import os

import numpy as np

CIFAR10_FILES = ("data_batch_1.bin", "data_batch_2.bin", "data_batch_3.bin",
                 "data_batch_4.bin", "data_batch_5.bin", "test_batch.bin")
CIFAR_PIXELS = 3072
CIFAR_NOISE_SD = 48.0


def write_cifar10(dirpath: str, seed: int, records_per_file: int) -> None:
    """Write the six CIFAR-10 binary batch files with learnable class structure.

    Each class has its own mean image, drawn uniformly in [48, 208];
    a record is its class mean plus Gaussian pixel noise, rounded and
    clipped to bytes. Labels are balanced and shuffled within each
    file.
    """
    rng = np.random.default_rng([seed, 10])
    means = rng.uniform(48.0, 208.0, size=(10, CIFAR_PIXELS))
    os.makedirs(dirpath, exist_ok=True)
    for name in CIFAR10_FILES:
        labels = rng.permutation(np.arange(records_per_file) % 10)
        pixels = means[labels] + rng.normal(0.0, CIFAR_NOISE_SD, size=(records_per_file, CIFAR_PIXELS))
        block = np.empty((records_per_file, 1 + CIFAR_PIXELS), dtype=np.uint8)
        block[:, 0] = labels
        block[:, 1:] = np.clip(np.rint(pixels), 0, 255)
        block.tofile(os.path.join(dirpath, name))


def projection_rows(seed: int, rows: int, dim: int) -> np.ndarray:
    """Isotropic directions with row norms log-uniform in [1e-2, 1e2]."""
    rng = np.random.default_rng([seed, 16])
    directions = rng.normal(size=(rows, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    norms = 10.0 ** rng.uniform(-2.0, 2.0, size=(rows, 1))
    return directions * norms


def write_projection_csv(path: str, X: np.ndarray) -> None:
    """One comma-separated row per point, 17 significant digits.

    17 digits round-trip float64 exactly, so the values the program
    parses are bit for bit the values in ``X``.
    """
    np.savetxt(path, X, fmt="%.17g", delimiter=",")
