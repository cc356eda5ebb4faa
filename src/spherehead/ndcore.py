"""Dense float64 tensors with reverse-mode automatic differentiation.

Small enough to read in one sitting: a :class:`Tensor` wraps a contiguous
row-major numpy float64 array, every differentiable operation attaches a
closure that pushes gradients back to its inputs, and :func:`backward`
replays those closures in reverse topological order. :func:`trace`
returns that order as an explicit :class:`Tape`.

Deliberate restrictions, chosen to remove whole classes of silent bugs:

* float64 only; row-major contiguous storage; no views or strides;
* one broadcast rule: a binary op pairs equal shapes, a scalar with a
  tensor, or a [B, 1] column or [1, C] row with a [B, C] matrix, and
  backward sums a broadcast axis back as a product with a ones vector;
* a fixed subgradient convention: relu'(0) = 0 (inside :func:`mlp`).

Everything here is single-threaded per computation; independent graphs in
separate threads share no mutable state.

Fused nodes. The hot chains of a training step are single tape nodes:
the encoder :func:`mlp` (every ``h @ W + b`` and ReLU),
``stereo.project_batch``, ``heads.cosine_logits``, the softmax-NLL of
``heads`` (op ``softmax_nll``), the angular target swap of ``heads``
(op ``swap_target``), the BroadFace compensated queue block of
``heads`` (op ``compensate``). There is no linear, ReLU, transpose,
clamp, acos or cos op here; the chains in the tests build those on
:func:`_record`.
Each fused node makes the same numpy float operations, in the same
order, as the tape of the primitive chain it replaces, so losses,
gradients and run records are bit for bit those of the chain:

* a tiling in the forward pass is numpy broadcasting, which is exact;
* a backward sum over a tiled axis, in a fused node or in
  :func:`_accumulate`, stays the BLAS product with a ones vector that the
  tiling matmul's backward would make, because ``np.sum`` adds in another
  order;
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

from .errors import DomainError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "TapeNode",
    "backward",
    "trace",
    "matmul",
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

    def backward(self) -> None:
        backward(self)

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sqrt(self):
        return sqrt(self)

    def sum(self, axis: int | None = None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)


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
    """Add ``g`` into ``t.grad``; callers skip inputs that need no gradient.

    The first contribution is stored as a C-ordered ``g + 0.0``, which is
    bitwise equal to adding it to zeros, the sign of zero included.
    """
    if g.shape != t.data.shape:
        if t.ndim == 0:
            g = np.sum(g).reshape(())
        else:  # a broadcast column or row, summed as the tiling matmul's backward would
            if t.shape[1] == 1:
                g = g @ np.ones((1, g.shape[1])).T
            if t.shape[0] == 1:
                g = np.ones((g.shape[0], 1)).T @ g
    if t.grad is None:
        # asarray: a 0-d sum comes back from numpy as a scalar
        t.grad = np.asarray(np.add(g, 0.0, order="C"))
    else:
        t.grad += g


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return Tensor(float(x))
    raise TypeError(f"expected Tensor or scalar, got {type(x).__name__}")


def _check_pair(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    part, full = (a, b) if a.size < b.size else (b, a)
    if not (part.ndim == full.ndim == 2 and all(p in (1, f) for p, f in zip(part.shape, full.shape))):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} must match, or pair a scalar, "
                         f"[B, 1] or [1, C] with [B, C]")


def _check_2d(op: str, t: Tensor) -> None:
    if t.ndim != 2:
        raise ShapeError(f"{op} needs a 2-D tensor, got shape {t.shape}")


# -- elementwise binary ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_pair("add", a, b)

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _record("add", (a, b), a.data + b.data, backward_fn)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_pair("sub", a, b)

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -g)

    return _record("sub", (a, b), a.data - b.data, backward_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_pair("mul", a, b)

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _record("mul", (a, b), a.data * b.data, backward_fn)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_pair("div", a, b)
    if np.any(b.data == 0.0):
        raise DomainError("division by zero")
    out_data = a.data / b.data

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g / b.data)
        if b.requires_grad:
            _accumulate(b, -g * a.data / (b.data * b.data))

    return _record("div", (a, b), out_data, backward_fn)


# -- elementwise unary ----------------------------------------------------


def sqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        # derivative is unbounded at 0; callers guard degenerate inputs first
        raise DomainError("sqrt needs strictly positive input")
    out_data = np.sqrt(a.data)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g / (2.0 * out_data))

    return _record("sqrt", (a,), out_data, backward_fn)


# -- linear algebra --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_2d("matmul", a)
    _check_2d("matmul", b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _record("matmul", (a, b), a.data @ b.data, backward_fn)


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
    x = _as_tensor(x)
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


# -- reductions ------------------------------------------------------------


def reduce_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is not None:
        if not -a.ndim <= axis < a.ndim:
            raise ShapeError(f"sum: axis {axis} out of range for rank {a.ndim}")
        axis %= a.ndim
    shape = a.shape

    def backward_fn(g: np.ndarray) -> None:
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, shape))

    return _record("sum", (a,), np.sum(a.data, axis=axis, keepdims=keepdims), backward_fn)
