"""Dense float64 tensors with reverse-mode automatic differentiation.

Small enough to read in one sitting: a :class:`Tensor` wraps a contiguous
row-major numpy float64 array, every differentiable operation attaches a
closure that pushes gradients back to its inputs, and :func:`backward`
replays those closures in reverse topological order. A recorded op is
its output tensor, and :func:`trace` lists those tensors in that order.
It holds no config rules; those live in :mod:`spherehead.data`.

Deliberate restrictions, chosen to remove whole classes of silent bugs:

* float64 only; row-major contiguous storage, never strided; a
  parameter's ``data`` and ``grad`` may be contiguous views of the one
  flat arena that ``train.fit`` packs its parameters into, and its
  ``_grad_slot`` the view where its first gradient of a step is written;
* no general ops: a node hands each input a gradient of the input's own
  shape, and the one broadcast is a shared weight under a stack (below);
* a fixed subgradient convention: relu'(0) = 0 (inside :func:`mlp`).

Everything here is single-threaded per computation; independent graphs in
separate threads share no mutable state.

Fused nodes. A training step records three nodes: the encoder
:func:`mlp` (every ``h @ W + b`` and ReLU), ``stereo.project_batch`` when
the model lifts its features, and ``heads.head_forward``'s ``head`` (the
logits, softmax-NLL, margin and BroadFace queue block of one loss). Each
node's backward is its own closed form, and it accumulates one gradient
into each input. :func:`mlp` writes in place only into arrays it has
just made (each layer's ``h @ W`` and each lower layer's ``g @ W.mT``),
never into its inputs' data, its incoming gradient or a layer input it
keeps for backward. It keeps layer inputs and ReLU masks only when its
node is recorded; a forward-only pass on constant tensors keeps nothing
for a backward. The primitive chains the nodes stand for live in the
tests, on ``tests/oracles.py``'s reference ops, which record through
:func:`_record` and :func:`_accumulate`; they are tolerance references,
not bit-for-bit ones.

Checks and errstate. A training step runs each check once, in the public
function that owns it: :func:`mlp`'s per-layer shapes, the lift's
finiteness (``stereo.project_batch``), ``heads.head_forward``'s shapes,
label range and norm bounds, and ``train.sgd_step``'s shapes. With a
BroadFace queue, ``EmbeddingQueue.push_batch`` also checks the rows it
is handed, as it does for any caller. Backward runs no check but the
stack refusal below. ``train._batch_loss`` holds the step's
``np.errstate``, around the whole forward pass. The lift's and the
norms' private helpers (``stereo._lift``, ``heads._norms``) hold their
own as decorators, so that a direct call of a public function raises
its typed error and lets no warning escape.

Gradient slots. A tensor whose ``grad`` is None has no gradient yet.
Its first contribution is written as ``0.0 + g``: into a fresh array,
or into ``_grad_slot`` when the tensor has one, so a training step
makes no array the size of a parameter to hold a gradient it then
copies. :func:`mlp` computes each weight gradient straight into its
slot. Later contributions add, wherever the first one landed.

Training is chaotic in the last bit: a rounding-level change to a
node's float operations moves run records, digests and single-seed
accuracies, not only speed. The float order of each node is therefore
part of the determinism contract, and changing it means re-pinning
every golden digest on purpose. Stacking rows into one array keeps the
bits of elementwise ufuncs and row reductions, but not of a BLAS
product: OpenBLAS tiles rows by the product's height, and a row can round
differently in a taller product (``(A @ M)[:B]`` against ``A[:B] @ M``),
so stacked parts each keep their own products.

Stacks. Every node takes an optional leading stack axis: an [S, B, n]
input is S independent batches, and a [B, n] input is the S = 1 case of
the same code. Reductions name trailing axes (``axis=-1``, ``-2``) and
products are ``np.matmul`` with ``.mT``, which makes one BLAS product
per slice. So each slice has the bytes of its own 2-D call, provided it
starts 16-byte aligned, as a fresh array does; every slice of a stack of
even-height batches does. The Katmai kernel's ddot (``np.vecdot``, as
``OPENBLAS_CORETYPE=Prescott`` loads it) rounds by that alignment; the
SkylakeX and Haswell kernels round alike at every 8-byte offset. The
rule held for all 2134 slices of random stacks (S 2-5, even B 2-78, n
and k 1-69) under all three kernels, and ``tests/stack_check.py``
re-checks it under each kernel the CPU loads. A weight is shared, [n,
k], or one per slice, [S, n, k]. A shared weight that needs a gradient
is forward-only under a stack: a backward that reaches it raises
:class:`ShapeError`, and never sums over the stack. A stack's loss is
one loss per slice, [S], and ``backward`` seeds each with 1.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "trace",
    "mlp",
]


_FLOAT64 = np.dtype(np.float64)


def _float64(data, error: type[Exception], what: str) -> np.ndarray:
    """``data`` as a float64 array: the one gate of real input at every entry point.

    A float64 ndarray comes back as itself, checked by its dtype first.
    Boolean, integer and real float input converts. Complex, string,
    bytes and object input is ``error`` naming ``what``, never a real
    part or a parsed number.
    """
    if type(data) is np.ndarray and data.dtype is _FLOAT64:
        return data
    arr = np.asarray(data)
    if arr.dtype.kind not in "biuf":
        raise error(f"{what} must be real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


class Tensor:
    """A dense float64 array; a recorded op's output also holds its ``op`` and ``inputs``.

    Complex, string and object data is a :class:`DomainError`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_grad_slot", "op", "inputs", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = _float64(data, DomainError, "tensor data")
        if data.ndim and not data.flags.c_contiguous:
            # ascontiguousarray would promote 0-d to 1-d, so guard the rank
            data = np.ascontiguousarray(data)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._grad_slot: np.ndarray | None = None
        self.op = "leaf"
        self.inputs: tuple[Tensor, ...] = ()
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
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self.op!r})"

    # -- gradient bookkeeping -------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None


class Tape:
    """Topologically ordered op tensors reachable from one tensor.

    Every node's inputs are produced by earlier nodes or are leaves, so
    replaying ``nodes`` backwards visits consumers before producers.
    """

    def __init__(self, nodes: list[Tensor]):
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
    stack: list[tuple[Tensor, bool]] = [(root, False)] if root.inputs else []
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
        elif t not in seen:
            seen.add(t)
            stack.append((t, True))
            for p in reversed(t.inputs):
                if p.inputs:
                    stack.append((p, False))
    return order


def trace(root: Tensor) -> Tape:
    """Collect the gradient-relevant ancestry of ``root`` in topological order."""
    return Tape(_post_order(root))


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad tensor reachable from ``loss``.

    ``loss`` must be a scalar, or a stacked ``head`` node's one loss per
    slice [S], each seeded with 1. Gradients accumulate additively across
    calls; callers zero them between steps. The walk is :func:`trace`'s
    order, reversed.
    """
    if loss.data.ndim > (loss.op == "head"):
        raise ShapeError(f"backward needs a scalar loss or a head's one loss per slice, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _post_order(loss)
    _accumulate(loss, np.zeros(loss.data.shape) + 1.0)  # ones, without np.ones' Python wrapper
    for t in reversed(order):
        if t.grad is not None:
            t._backward(t.grad)


# -- op plumbing ---------------------------------------------------------


def _record(
    op: str,
    inputs: tuple[Tensor, ...],
    data: np.ndarray,
    backward_fn: Callable[[np.ndarray], None],
) -> Tensor:
    out = Tensor(data)
    for t in inputs:  # constants fold out of the tape entirely
        if t.requires_grad:
            out.requires_grad, out.op, out.inputs, out._backward = True, op, inputs, backward_fn
            break
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g``, of ``t``'s shape, into ``t.grad``; callers skip inputs that need no gradient.

    The first contribution is stored as ``g + 0.0``, which is bitwise
    equal to adding it to zeros, the sign of zero included: written into
    ``t._grad_slot`` when ``t`` has one, else into a new C-ordered array.
    """
    if t.grad is not None:
        t.grad += g
    else:
        # with no slot, asarray: a 0-d sum comes back from numpy as a scalar and an
        # F-ordered g's sum is F-ordered; asarray's order= is cheaper than np.add's
        t.grad = np.asarray(g + 0.0, order="C") if t._grad_slot is None else np.add(g, 0.0, out=t._grad_slot)


def _accumulate_matmul(t: Tensor, a: np.ndarray, b: np.ndarray) -> None:
    """``_accumulate(t, a @ b)``, with a first contribution computed straight into its slot or a new array.

    Either has the bytes of ``a @ b``, and the ``+= 0.0`` that follows
    gives the bits of ``0.0 + a @ b``, -0.0 included.
    """
    if t.grad is not None:
        t.grad += a @ b
    else:
        t.grad = np.matmul(a, b, out=t._grad_slot)
        t.grad += 0.0


def _check_stack(op: str, x: np.ndarray, W: np.ndarray) -> None:
    """A ShapeError unless ``x`` is a batch [B, n] or a stack [S, B, n], and W is shared [n, k] or [S, n, k]."""
    if W.ndim != 2 and (W.ndim != 3 or x.ndim != 3 or W.shape[0] != x.shape[0]) or x.ndim not in (2, 3):
        raise ShapeError(f"{op} needs a [B, n] batch or an [S, B, n] stack, and a weight [n, k] or one per "
                         f"slice [S, n, k], got {x.shape} and {W.shape}")


def _refuse_shared(op: str, stack: tuple, params) -> None:
    """A backward through ``op`` from a stack: a ShapeError if a shared (2-D) weight in ``params`` needs a gradient."""
    shared = [p.shape for p in params if p.ndim == 2 and p.requires_grad]
    if shared:
        raise ShapeError(f"{op}: backward from an {stack} stack reaches shared weights {shared}; "
                         f"give each slice its own [S, ...] weight")


def mlp(x: Tensor, layers) -> Tensor:
    """The encoder ``h <- relu(h @ W + b)`` over ``layers``, the last one affine only, as one tape node.

    ``x`` is [B, n] or a stack [S, B, n], and ``layers`` a sequence of
    (W [n, k], b [1, k]) pairs, shared by the slices, or of ([S, n, k],
    [S, 1, k]) pairs, one per slice, every layer alike. Walking the layers backwards, a
    hidden layer's gradient is first masked by its ReLU (``z * (z >
    0)``); then the bias gets the column sums of the gradient, the
    layer's input ``g @ W.mT`` and W ``h_in.mT @ g``, which a first
    contribution computes straight into W's gradient slot. Only the masks
    and each layer's input are kept, and only when the node is recorded
    (``x`` or a layer parameter requires grad); a forward-only call frees
    each layer's input once the next layer is made.

    Each layer's bias add and ReLU mask write in place into the fresh
    array of its ``h @ W``, and backward masks the fresh ``g @ W.mT`` of
    the layer above in place. ``x.data``, the parameters, the stored layer
    inputs and the node's incoming gradient are never written.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    layers = tuple(layers)
    if not layers:
        raise ShapeError("mlp needs at least one layer")
    h, w0 = x.data, layers[0][0].data
    _check_stack("mlp", h, w0)
    lead, last = w0.shape[:-2], len(layers) - 1  # lead: () when the layers are shared, (S,) when one per slice
    keep = x.requires_grad  # _record records the node when any input requires grad; only then keep for backward
    for W, b in layers:
        if W.requires_grad or b.requires_grad:
            keep = True
            break
    inputs, masks, params = [], [], ()
    for i, (W, b) in enumerate(layers):
        w, bias = W.data, b.data
        if w.ndim != w0.ndim or w.shape[:-2] != lead:
            raise ShapeError(f"mlp layer {i}: weight {w.shape} is not laid out as layer 0's {w0.shape}")
        if h.shape[-1] != w.shape[-2]:
            raise ShapeError(f"mlp layer {i}: inner dimensions disagree, {h.shape} x {w.shape}")
        if bias.shape != lead + (1, w.shape[-1]):
            raise ShapeError(f"mlp layer {i}: bias must be {[*lead, 1, w.shape[-1]]}, got {bias.shape}")
        if keep:
            inputs.append(h)
        params += (W, b)
        h = h @ w  # a fresh array: the adds and masks below write into it
        h += bias
        if i < last:
            mask = h > 0.0  # subgradient 0 at exactly 0
            h *= mask
            if keep:
                masks.append(mask)

    def backward_fn(g: np.ndarray) -> None:
        if g.ndim > 2:
            _refuse_shared("mlp", x.shape, params)
        for i in range(len(layers) - 1, -1, -1):
            W, b = layers[i]
            if i < len(masks):
                g *= masks[i]  # g is the fresh g @ W.mT of the layer above
            if b.requires_grad:
                _accumulate(b, np.add.reduce(g, axis=-2, keepdims=True))
            g_in = None
            if i > 0:
                g_in = g @ W.data.mT
            elif x.requires_grad:
                _accumulate(x, g @ W.data.mT)
            if W.requires_grad:
                _accumulate_matmul(W, inputs[i].mT, g)
            g = g_in

    return _record("mlp", (x,) + params, h, backward_fn)
