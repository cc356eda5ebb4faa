"""Shared test utilities: central-difference gradients, error metrics and traced memory."""

import tracemalloc

import numpy as np

from spherehead.ndcore import Tensor, backward


def fd_gradients(fn, arrays, h=1e-6):
    """Central-difference gradient of a scalar function of numpy arrays.

    ``fn`` receives freshly built constant Tensors and returns a scalar
    Tensor; each input coordinate is wiggled by +-h in turn.
    """
    grads = []
    for k in range(len(arrays)):
        base = arrays[k]
        g = np.zeros_like(base)
        for i in range(base.size):
            bumped = [a.copy() for a in arrays]
            bumped[k].reshape(-1)[i] += h
            f_plus = fn(*[Tensor(a) for a in bumped]).item()
            bumped = [a.copy() for a in arrays]
            bumped[k].reshape(-1)[i] -= h
            f_minus = fn(*[Tensor(a) for a in bumped]).item()
            g.reshape(-1)[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def norm_rel_error(a, b):
    """Norm-relative disagreement, robust when both gradients are tiny."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def check_gradients(fn, arrays, tol=1e-5, h=1e-6):
    """Compare reverse-mode gradients of ``fn`` against central differences.

    Returns the worst norm-relative error over all inputs; asserts it is
    within ``tol``.
    """
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    loss = fn(*leaves)
    backward(loss)
    numeric = fd_gradients(fn, arrays, h=h)
    worst = 0.0
    for leaf, num in zip(leaves, numeric):
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        err = norm_rel_error(analytic, num)
        worst = max(worst, err)
        assert err <= tol, f"gradient mismatch {err:.3e} > {tol:.1e}\nanalytic={analytic}\nnumeric={num}"
    return worst


def traced_peak(fn):
    """``fn()``'s result and the peak bytes that tracemalloc traced while it ran.

    Only allocations made during the call count, numpy data buffers
    included; memory that existed before it is not part of the peak.
    """
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
