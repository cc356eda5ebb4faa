"""Stacked against sliced: each slice of a stack has the bytes of its own 2-D call.

The 2-D call runs on fresh arrays, as a batch's own call would. The
stacks have even heights B, so every slice starts 16-byte aligned, as a
fresh array does (the stack rule in ``spherehead.ndcore``). Three
checks, which ``tests/test_stack.py`` runs in-process, and under each
OpenBLAS kernel the CPU loads as ``python -m tests.stack_check`` (with
``OPENBLAS_CORETYPE`` set to force a kernel):

* :func:`check_primitives`: random stacks [S, B, n] (S 2-5, B 2-78, n
  and k 1-69) through the numpy operations the nodes are built from:
  ``np.matmul`` with shared and per-slice weights and ``.mT`` operands,
  ``np.vecdot`` and sums on the trailing axes;
* :func:`check_model`: ``mlp``, ``project_batch`` and ``head_forward``
  of one family on a stack, against each slice's 2-D chain: every node's
  value, and the gradient of every input and node that needs one. Shared
  weights are constants there, since a backward through them refuses a
  stack;
* :func:`check_initial_loss`: ``fit``'s stacked initial-loss pass
  against one 2-D call per batch (``oracles.per_batch_loss``), odd
  batches included.

A difference is an AssertionError that names what differs.
"""

import ctypes
import glob
import os
import sys

import numpy as np

from spherehead import train
from spherehead.data import gen_two_spirals
from spherehead.heads import FAMILIES, HeadWeights, MarginConfig, head_forward
from spherehead.ndcore import Tensor, backward, mlp
from spherehead.stereo import project_batch

from .oracles import per_batch_loss

# every family, queue-less, with the lift on and off, S in {2, 5}, weights per slice and shared
MODEL_CASES = [(family, projection, S, per_slice) for family in FAMILIES for projection in (True, False)
               for S in (2, 5) for per_slice in (True, False)]


def _same(what: str, s: int, stacked: np.ndarray, sliced: np.ndarray) -> None:
    if stacked.shape != sliced.shape or stacked.tobytes() != sliced.tobytes():
        raise AssertionError(f"{what}: slice {s} differs from its own 2-D call")


def _even_height(rng: np.random.Generator, high: int) -> int:
    return 2 * int(rng.integers(1, high // 2))


def check_primitives(rng: np.random.Generator, slices: int = 2132) -> int:
    """Random stacks until ``slices`` slices are checked; returns the count."""
    checked = 0
    while checked < slices:
        S, B, n, k = int(rng.integers(2, 6)), _even_height(rng, 80), int(rng.integers(1, 70)), int(rng.integers(1, 70))
        a, g = rng.normal(size=(S, B, n)), rng.normal(size=(S, B, k))
        W, Ws = rng.normal(size=(n, k)), rng.normal(size=(S, n, k))
        cases = {
            "a @ W": (a @ W, lambda a, g, Ws: a @ W),
            "a @ W[s]": (a @ Ws, lambda a, g, Ws: a @ Ws),
            "g @ W.mT": (g @ W.mT, lambda a, g, Ws: g @ W.T),
            "g @ W[s].mT": (g @ Ws.mT, lambda a, g, Ws: g @ Ws.T),
            "a.mT @ g": (a.mT @ g, lambda a, g, Ws: a.T @ g),
            "a.sum(axis=-2)": (a.sum(axis=-2, keepdims=True), lambda a, g, Ws: a.sum(axis=0, keepdims=True)),
            "a.sum(axis=-1)": (a.sum(axis=-1, keepdims=True), lambda a, g, Ws: a.sum(axis=1, keepdims=True)),
            "vecdot(a, a)": (np.vecdot(a, a), lambda a, g, Ws: np.vecdot(a, a)),
        }
        for s in range(S):
            fresh = a[s].copy(), g[s].copy(), Ws[s].copy()
            for name, (stacked, sliced) in cases.items():
                _same(f"{name} on {a.shape}, k {k}", s, stacked[s], sliced(*fresh))
        checked += S
    return checked


def stack_instance(rng: np.random.Generator, S: int, projection: bool, per_slice: bool):
    """Inputs X [S, B, n], encoder layers, head W and labels [S, B]; weights carry a leading S when ``per_slice``."""
    B, n, C = _even_height(rng, 40), int(rng.integers(2, 6)), int(rng.integers(2, 6))
    widths = (n, int(rng.integers(2, 9)), int(rng.integers(2, 9)), int(rng.integers(2, 6)))
    lead = (S,) if per_slice else ()
    layers = [(rng.uniform(-1.0, 1.0, size=lead + (a, b)), 0.1 * rng.normal(size=lead + (1, b)))
              for a, b in zip(widths, widths[1:])]
    W = rng.normal(size=lead + (widths[-1] + projection, C))
    X = rng.normal(size=(S, B, n)) * rng.uniform(0.1, 3.0)
    return X, layers, W, rng.integers(0, C, size=(S, B))


def model_nodes(X, layers, W, labels, cfg: MarginConfig, projection: bool, weights_grad: bool) -> list:
    """Run the chain and its backward; returns (name, value, grad) of its input, weights and nodes."""
    x = Tensor(X, requires_grad=True)
    params = [(Tensor(w, requires_grad=weights_grad), Tensor(b, requires_grad=weights_grad)) for w, b in layers]
    head_W = Tensor(W, requires_grad=weights_grad)
    h = mlp(x, params)
    features = project_batch(h) if projection else h
    loss = head_forward(features, HeadWeights(head_W), cfg, labels)
    backward(loss)
    named = [("x", x), ("mlp", h), *([("project_batch", features)] if projection else []), ("head", loss),
             ("head W", head_W), *((f"layer {i} {part}", t) for i, layer in enumerate(params) for part, t in zip("Wb", layer))]
    return [(name, t.data, t.grad) for name, t in named]


def check_model(rng: np.random.Generator, family: str, projection: bool, S: int, per_slice: bool) -> None:
    """One random stack through the chain, against each slice's 2-D chain, value and gradient."""
    cfg = MarginConfig.for_family(family, s=12.0)
    X, layers, W, labels = stack_instance(rng, S, projection, per_slice)
    stacked = model_nodes(X, layers, W, labels, cfg, projection, per_slice)

    def own(a, s):
        return a[s] if per_slice else a

    for s in range(S):
        sliced = model_nodes(X[s].copy(), [(own(w, s), own(b, s)) for w, b in layers], own(W, s), labels[s], cfg,
                             projection, per_slice)
        for (name, value, grad), (_, value_s, grad_s) in zip(stacked, sliced, strict=True):
            if value.ndim > value_s.ndim:  # a shared weight is the same array in every call
                _same(f"{family} {name} value", s, value[s], value_s)
            if grad is not None:
                _same(f"{family} {name} gradient", s, grad[s], grad_s)


def check_initial_loss(family: str, projection: bool) -> None:
    """``fit``'s initial loss of one model against one 2-D call per batch, bit for bit, at odd and even batch sizes."""
    ds = gen_two_spirals(150, 0.1, 3)
    cfg = train.ModelConfig(feature_dim=3, margin=MarginConfig.for_family(family, s=12.0), encoder_layers=(16,),
                            projection_enabled=projection)
    model = train.build_model(cfg, ds.dim, ds.class_count, 4)
    for batch_size in (7, 8, 32):
        got, want = train._dataset_loss(model, ds, batch_size), per_batch_loss(model, ds, batch_size)
        if got.hex() != want.hex():
            raise AssertionError(f"{family} initial loss at batch {batch_size}: {got.hex()} against {want.hex()}")


def kernel_name() -> str:
    """The OpenBLAS kernel numpy loaded, from its bundled library, or "unknown"."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so")
    for path in glob.glob(pattern):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return get().decode()
    return "unknown"


def main() -> int:
    rng = np.random.default_rng(2132)
    slices = check_primitives(rng)
    for case in MODEL_CASES:
        check_model(rng, *case)
    for family in FAMILIES:
        for projection in (True, False):
            check_initial_loss(family, projection)
    print(f"kernel {kernel_name()}: {slices} primitive slices, {len(MODEL_CASES)} model stacks and "
          f"{2 * len(FAMILIES)} initial-loss passes have their 2-D bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
