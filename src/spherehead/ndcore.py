"""Dense float64 tensors with reverse-mode automatic differentiation.

Small enough to read in one sitting: a :class:`Tensor` wraps a contiguous
row-major numpy float64 array, every differentiable operation attaches a
closure that pushes gradients back to its inputs, and :func:`backward`
replays those closures in reverse topological order. :func:`trace`
returns that order as an explicit :class:`Tape`.

Deliberate restrictions, chosen to remove whole classes of silent bugs:

* float64 only; row-major contiguous storage; no views or strides;
* no general ops: a node hands each input a gradient of the input's own
  shape, and nothing here broadcasts;
* a fixed subgradient convention: relu'(0) = 0 (inside :func:`mlp`).

Everything here is single-threaded per computation; independent graphs in
separate threads share no mutable state.

Fused nodes. A training step records three nodes: the encoder
:func:`mlp` (every ``h @ W + b`` and ReLU), ``stereo.project_batch`` when
the model lifts its features, and ``heads.head_forward``'s ``head`` (the
logits, softmax-NLL, margin and BroadFace queue block of one loss). The
primitive chains they stand for live in the tests, on
``tests/oracles.py``'s reference ops, which record through
:func:`_record` and :func:`_accumulate`.
Each fused node makes the same numpy float operations, in the same
order, as the tape of the primitive chain it replaces, so losses,
gradients and run records are bit for bit those of the chain:

* a tiling in the forward pass is numpy broadcasting, which is exact;
* a backward sum over a tiled axis stays the BLAS product with a ones
  vector that the tiling matmul's backward would make, because
  ``np.sum`` adds in another order;
* an input the chain uses more than once (``X * X`` uses it twice) gets
  each contribution by its own :func:`_accumulate` call, in the order the
  reverse tape of the chain would add them;
* an intermediate the node keeps to itself gets its first gradient as
  ``g + 0.0``, the way :func:`_accumulate` stores it (-0.0 becomes 0.0).

Why bit for bit: training is chaotic in the last bit. Summing the bias
gradient of an encoder layer with ``np.sum`` instead of the ones product moves
a step's gradients by 7e-17 relative, and criterion 7's cce mean accuracy
from 0.978 to 0.927 (seed 3: 1.00 to 0.85). Any change to the order of
float operations changes run records and accuracies, not only speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "TapeNode",
    "backward",
    "trace",
    "mlp",
]


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
        # ascontiguousarray would promote 0-d to 1-d, so guard the rank
        arr = np.ascontiguousarray(arr)
    return arr


class Tensor:
    """A dense float64 array that can participate in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self._op!r})"

    # -- gradient bookkeeping -------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None


@dataclass(frozen=True)
class TapeNode:
    """One recorded primitive: op id, input tensors, output tensor.

    Saved values for the backward rule live in the output's closure.
    """

    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor


class Tape:
    """Topologically ordered record of the ops reachable from one tensor.

    Every node's inputs are produced by earlier nodes or are leaves, so
    replaying ``nodes`` backwards visits consumers before producers.
    """

    def __init__(self, nodes: list[TapeNode]):
        self.nodes = nodes

    def __len__(self) -> int:
        return len(self.nodes)


def _post_order(root: Tensor) -> list[Tensor]:
    """The op tensors ``root`` depends on through requires-grad inputs, producers first.

    A depth-first walk that takes each tensor's inputs in order and
    lists a tensor once all of them are listed; leaves are not listed.
    """
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)] if root._parents else []
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
        elif t not in seen:
            seen.add(t)
            stack.append((t, True))
            for p in reversed(t._parents):
                if p._parents:
                    stack.append((p, False))
    return order


def trace(root: Tensor) -> Tape:
    """Collect the gradient-relevant ancestry of ``root`` in topological order."""
    return Tape([TapeNode(t._op, t._parents, t) for t in _post_order(root)])


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad tensor reachable from ``loss``.

    ``loss`` must be a scalar. Gradients accumulate additively across calls;
    callers zero them between steps. The walk is :func:`trace`'s order,
    reversed, with no :class:`TapeNode` built.
    """
    if loss.ndim != 0:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _post_order(loss)
    _accumulate(loss, np.ones(()))
    for t in reversed(order):
        if t.grad is not None:
            t._backward(t.grad)


# -- op plumbing ---------------------------------------------------------


def _record(
    op: str,
    parents: tuple[Tensor, ...],
    data: np.ndarray,
    backward_fn: Callable[[np.ndarray], None],
) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = _as_array(data)
    out.grad = None
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._op = op
            out._parents = parents
            out._backward = backward_fn
            return out
    # constants fold out of the tape entirely
    out.requires_grad = False
    out._op = "leaf"
    out._parents = ()
    out._backward = None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g``, of ``t``'s shape, into ``t.grad``; callers skip inputs that need no gradient.

    The first contribution is stored as a C-ordered ``g + 0.0``, which is
    bitwise equal to adding it to zeros, the sign of zero included.
    """
    if t.grad is None:
        # asarray: a 0-d sum comes back from numpy as a scalar
        t.grad = np.asarray(np.add(g, 0.0, order="C"))
    else:
        t.grad += g


def _check_2d(op: str, t: Tensor) -> None:
    if t.ndim != 2:
        raise ShapeError(f"{op} needs a 2-D tensor, got shape {t.shape}")


def mlp(x: Tensor, layers) -> Tensor:
    """The encoder ``h <- relu(h @ W + b)`` over ``layers``, the last one affine only, as one tape node.

    ``layers`` is a sequence of (W [n, k], b [1, k]) pairs. The floats
    are those of the chain of ``linear`` nodes (``h @ W`` plus the bias
    row as a ones product) and ReLU nodes (``z * (z > 0)``) it replaces:
    walking the layers backwards, a hidden layer's gradient is first
    masked and stored as ``g * mask + 0.0``; then the bias gets the
    ones-row product, the layer's input ``g @ W.T + 0.0`` and W
    ``h_in.T @ g``. Only the masks and each layer's input are kept.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    _check_2d("mlp", x)
    layers = tuple(layers)
    if not layers:
        raise ShapeError("mlp needs at least one layer")
    h = x.data
    inputs, masks = [], []
    for i, (W, b) in enumerate(layers):
        _check_2d("mlp", W)
        if h.shape[1] != W.shape[0]:
            raise ShapeError(f"mlp layer {i}: inner dimensions disagree, {h.shape} x {W.shape}")
        if b.shape != (1, W.shape[1]):
            raise ShapeError(f"mlp layer {i}: bias must be [1, {W.shape[1]}], got {b.shape}")
        inputs.append(h)
        h = h @ W.data + b.data
        if i < len(layers) - 1:
            mask = h > 0.0  # subgradient 0 at exactly 0
            masks.append(mask)
            h = h * mask
    rows = x.shape[0]

    def backward_fn(g: np.ndarray) -> None:
        for i in range(len(layers) - 1, -1, -1):
            W, b = layers[i]
            if i < len(masks):
                g = np.add(g * masks[i], 0.0, order="C")
            if b.requires_grad:
                _accumulate(b, np.ones((rows, 1)).T @ g)
            g_in = None
            if i > 0:
                g_in = g @ W.data.T + 0.0
            elif x.requires_grad:
                _accumulate(x, g @ W.data.T)
            if W.requires_grad:
                _accumulate(W, inputs[i].T @ g)
            g = g_in

    return _record("mlp", (x,) + tuple(p for layer in layers for p in layer), h, backward_fn)
