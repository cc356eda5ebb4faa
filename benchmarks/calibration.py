"""Calibration kernels: fixed computations that show how fast the machine runs now.

On a small shared VM the same code runs 10-30% faster or slower from one
minute to the next, as neighbours come and go. A kernel timed between the
rounds of a run slows down and speeds up with it, so the end-to-end
figures are scaled by the kernel's median time in the run. The kernels
use numpy only, never spherehead, so a change to the program cannot move
them.

Two kernels match the two kinds of work: ``interpreter`` is a small
numpy MLP step driven from Python (the per-op overhead the B=32 and
per-row workloads spend their time in) and ``blas`` is a block of large
matrix products (where cifar-b512 spends its time).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the figures are scaled to a machine on which either kernel takes this long
REFERENCE_S = 0.025


class Calibration:
    """Samples of one kernel's time, taken at points spread over a run."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        if kind == "interpreter":
            self.data = (rng.normal(size=(32, 2)), rng.normal(size=(2, 64)), rng.normal(size=(64, 16)))
            self.kernel = self._interpreter
        elif kind == "blas":
            self.data = (rng.normal(size=(256, 1024)), rng.normal(size=(1024, 256)))
            self.kernel = self._blas
        else:
            raise ValueError(f"unknown calibration kernel {kind!r}")
        self.kind = kind
        self.samples: list[float] = []

    def _interpreter(self) -> None:
        X, W1, W2 = self.data
        for _ in range(550):
            h = X @ W1
            a = np.maximum(h, 0.0)
            o = a @ W2
            g = o / (1.0 + np.sum(o * o, axis=1, keepdims=True))
            (g @ W2.T) * (h > 0.0)
            a.T @ g
            total = 0.0
            for j in range(20):
                total += j * 0.5

    def _blas(self) -> None:
        A, B = self.data
        for _ in range(6):
            A @ B

    def point(self, repeats: int = 3) -> float:
        """Time the kernel ``repeats`` times; returns the median of these."""
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            self.kernel()
            times.append(perf_counter() - t0)
        self.samples.extend(times)
        return statistics.median(times)

    def kernel_s(self) -> float:
        return statistics.median(self.samples)

    def speed(self) -> float:
        """Reference time over the run's median kernel time: above 1 on a fast stretch."""
        return REFERENCE_S / self.kernel_s()


def speed_between(before_s: float, after_s: float) -> float:
    """Speed for work done between two kernel timings."""
    return REFERENCE_S / (0.5 * (before_s + after_s))
