"""Independent reference implementations of the classification losses,
the one-row projection, the CLI's text rendering, the per-cell
delimited-text loader, the convert-then-subset CIFAR loader and the
BroadFace queue as a deque of row copies,
plus a sampled probe of the unit ball's convexity.

Written against the definitions directly, sample by sample, with no
shared code with the package: plain numpy, python loops, explicit
formulas. Tests compare the package's implementations to these.

Two exceptions sit on ``ndcore``'s own recording and accumulation:

* The reference tape ops: :func:`add`, :func:`sub`, :func:`mul`,
  :func:`div` (equal shapes, a scalar with a tensor, or a [B, 1] column
  or [1, C] row with a [B, C] matrix, whose gradient sums back as a
  product with a ones vector), :func:`sqrt`, :func:`matmul`,
  :func:`reduce_sum`, :func:`exp`, :func:`log`, :func:`concat`,
  :func:`clamp`, :func:`acos`, :func:`cos`, :func:`relu`,
  :func:`transpose`, :func:`row_sqnorms` and :func:`where`. The package
  records none of them; the primitive chains in ``tests/test_fused.py``
  do, to rebuild the tape that each fused node stands for, and they are
  the tolerance references the fused nodes are compared against.
* The head pieces on the tape: :func:`cosine_logits`, :func:`nll_sum`,
  :func:`swap_target`, :func:`compensated_block` and :func:`cce_loss`
  record one of ``heads``' numpy pieces as a node of its own, so that a
  piece can be checked alone against its chain and central differences.

Two more are bit references rather than formulas:

* :func:`two_pass_broadface_step` is the queued BroadFace step as two
  ArcFace passes, one over the batch and one over the queue block, each
  with its own products and sums, on ``heads``' unchanged pieces
  (``_norms``, ``_one_hot``, ``_swap_target``). The one-pass head must
  give its bits exactly.
* :func:`per_batch_loss` is ``fit``'s initial loss as one 2-D
  ``train._batch_loss`` call per batch, in order. The stacked pass must
  give its bits exactly.
* :func:`recorded_eval_hits` is ``evaluate``'s hit count through the
  recording forward, ``model.forward_features`` on the model's own
  parameters, one ``train._EVAL_CHUNK`` chunk at a time. The pass on
  constant tensors must score the same rows.
"""

from collections import deque
from typing import NamedTuple

import numpy as np

from spherehead import heads, train
from spherehead.errors import ConfigError, DegenerateInputError, DomainError, ParseError, ShapeError, StateError
from spherehead.ndcore import Tensor, _accumulate, _record


# -- reference tape ops ------------------------------------------------------


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


def _accumulate_broadcast(t: Tensor, g: np.ndarray) -> None:
    """``_accumulate`` after summing a broadcast scalar, column or row back, as the tiling matmul's backward would."""
    if g.shape != t.data.shape:
        if t.ndim == 0:
            g = np.sum(g).reshape(())
        else:
            if t.shape[1] == 1:
                g = g @ np.ones((1, g.shape[1])).T
            if t.shape[0] == 1:
                g = np.ones((g.shape[0], 1)).T @ g
    _accumulate(t, g)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_pair("add", a, b)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate_broadcast(a, g)
        if b.requires_grad:
            _accumulate_broadcast(b, g)

    return _record("add", (a, b), a.data + b.data, backward_fn)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_pair("sub", a, b)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate_broadcast(a, g)
        if b.requires_grad:
            _accumulate_broadcast(b, -g)

    return _record("sub", (a, b), a.data - b.data, backward_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_pair("mul", a, b)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate_broadcast(a, g * b.data)
        if b.requires_grad:
            _accumulate_broadcast(b, g * a.data)

    return _record("mul", (a, b), a.data * b.data, backward_fn)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_pair("div", a, b)
    if np.any(b.data == 0.0):
        raise DomainError("division by zero")

    def backward_fn(g):
        if a.requires_grad:
            _accumulate_broadcast(a, g / b.data)
        if b.requires_grad:
            _accumulate_broadcast(b, -g * a.data / (b.data * b.data))

    return _record("div", (a, b), a.data / b.data, backward_fn)


def sqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        # derivative is unbounded at 0; callers guard degenerate inputs first
        raise DomainError("sqrt needs strictly positive input")
    out_data = np.sqrt(a.data)

    def backward_fn(g):
        _accumulate(a, g / (2.0 * out_data))

    return _record("sqrt", (a,), out_data, backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D tensors, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _record("matmul", (a, b), a.data @ b.data, backward_fn)


def reduce_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is not None:
        if not -a.ndim <= axis < a.ndim:
            raise ShapeError(f"sum: axis {axis} out of range for rank {a.ndim}")
        axis %= a.ndim
    shape = a.shape

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, shape))

    return _record("sum", (a,), np.sum(a.data, axis=axis, keepdims=keepdims), backward_fn)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward_fn(g):
        _accumulate(a, g * out_data)

    return _record("exp", (a,), out_data, backward_fn)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log of non-positive input")

    def backward_fn(g):
        _accumulate(a, g / a.data)

    return _record("log", (a,), np.log(a.data), backward_fn)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise DomainError(f"clamp needs lo < hi, got [{lo}, {hi}]")
    mask = (a.data > lo) & (a.data < hi)  # gradient 0 at the bounds

    def backward_fn(g):
        _accumulate(a, g * mask)

    return _record("clamp", (a,), np.clip(a.data, lo, hi), backward_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0  # subgradient 0 at exactly 0

    def backward_fn(g):
        _accumulate(a, g * mask)

    return _record("relu", (a,), a.data * mask, backward_fn)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got shape {a.shape}")

    def backward_fn(g):
        _accumulate(a, g.T)

    return _record("transpose", (a,), a.data.T.copy(), backward_fn)


def cos(a: Tensor) -> Tensor:
    def backward_fn(g):
        _accumulate(a, -g * np.sin(a.data))

    return _record("cos", (a,), np.cos(a.data), backward_fn)


def acos(a: Tensor) -> Tensor:
    if np.any(np.abs(a.data) > 1.0):
        raise DomainError("acos input outside [-1, 1]")

    def backward_fn(g):
        # unbounded at |x| = 1; callers clamp to (-1, 1) first
        _accumulate(a, -g / np.sqrt(1.0 - a.data * a.data))

    return _record("acos", (a,), np.arccos(a.data), backward_fn)


def concat(tensors, axis: int = 0) -> Tensor:
    """Join tensors of one rank along ``axis``; each gets its slice back."""
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    rank = tensors[0].ndim
    if not -rank <= axis < rank:
        raise ShapeError(f"concat: axis {axis} out of range for rank {rank}")
    axis %= rank
    for t in tensors[1:]:
        if t.ndim != rank or any(t.shape[d] != tensors[0].shape[d] for d in range(rank) if d != axis):
            raise ShapeError(f"concat: shapes {tensors[0].shape} and {t.shape} differ off axis {axis}")
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward_fn(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * rank
            index[axis] = slice(start, stop)
            if t.requires_grad:
                _accumulate(t, g[tuple(index)])

    return _record("concat", tensors, np.concatenate([t.data for t in tensors], axis=axis), backward_fn)


def row_sqnorms(a: Tensor) -> Tensor:
    """Squared row norms [B, 1] as ``np.vecdot``; the backward of ``reduce_sum(mul(a, a), axis=1, keepdims=True)``.

    The sum's stored gradient is the column tiled across the row, and the
    product gives it to ``a`` once per operand.
    """
    def backward_fn(g):
        g_sq = np.broadcast_to(g, a.shape) + 0.0
        _accumulate(a, g_sq * a.data)
        _accumulate(a, g_sq * a.data)

    return _record("row_sqnorms", (a,), np.vecdot(a.data, a.data)[:, None], backward_fn)


def where(mask, a: Tensor, b: Tensor) -> Tensor:
    """``a`` where ``mask`` holds, else ``b``; each input gets the gradient of its own entries."""
    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g * mask)
        if b.requires_grad:
            _accumulate(b, g * ~mask)

    return _record("where", (a, b), np.where(mask, a.data, b.data), backward_fn)


# -- the head pieces on the tape ----------------------------------------------


def _piece_node(op: str, value, back, inputs: tuple) -> Tensor:
    """A numpy piece as one node: ``back(g)`` gives one gradient per input."""
    def backward_fn(g):
        for t, grad in zip(inputs, back(g)):
            if t.requires_grad:
                _accumulate(t, grad)

    return _record(op, inputs, value, backward_fn)


def head_cosines(f: np.ndarray, W: np.ndarray):
    """The head's clamped cosines between ``f``'s rows and W's columns, and ``back`` onto both."""
    return heads._unit_cosines(f, heads._norms(f, 1, "feature row"), W, heads._norms(W, 0, "weight column"),
                               (slice(None),))


def cosine_logits(features: Tensor, weights) -> Tensor:
    value, back = head_cosines(features.data, weights.W.data)
    return _piece_node("cosine_logits", value, back, (features, weights.W))


def nll_sum(logits: Tensor, onehot) -> Tensor:
    value, back = heads._nll_sum(logits.data, onehot)
    return _piece_node("softmax_nll", value, lambda g: (back(g),), (logits,))


def swap_target(cosines: Tensor, onehot, cfg) -> Tensor:
    value, back = heads._swap_target(cosines.data, onehot, cfg)
    return _piece_node("swap_target", value, lambda g: (back(g),), (cosines,))


def compensated_block(queue, weights):
    """The drift-corrected queue block [Q, d] as a node on W, and its one-hot labels."""
    value, onehot, back = heads._compensated_block(queue, weights.W.data)
    return _piece_node("compensate", value, lambda g: (back(g),), (weights.W,)), onehot


def cce_loss(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy over the batch."""
    onehot = heads._one_hot(labels, logits.shape[1])
    if onehot.shape[0] != logits.shape[0]:
        raise ShapeError(f"{logits.shape[0]} logit rows but {onehot.shape[0]} labels")
    return div(nll_sum(logits, onehot), float(logits.shape[0]))


def softmax_nll(logits_row, label):
    """-log softmax(logits)[label] for one sample, max-shifted."""
    row = np.asarray(logits_row, dtype=np.float64)
    shifted = row - np.max(row)
    return float(np.log(np.sum(np.exp(shifted))) - shifted[label])


def oracle_cosine_logits(X, W):
    """cos theta between each feature row and each weight column."""
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    out = np.empty((X.shape[0], W.shape[1]))
    for i in range(X.shape[0]):
        for j in range(W.shape[1]):
            xi = X[i] / np.linalg.norm(X[i])
            wj = W[:, j] / np.linalg.norm(W[:, j])
            out[i, j] = float(np.clip(np.dot(xi, wj), -1.0, 1.0))
    return out


def oracle_cce(logits, labels):
    logits = np.asarray(logits, dtype=np.float64)
    return float(np.mean([softmax_nll(logits[i], labels[i]) for i in range(len(labels))]))


def _psi_monotone(theta, m):
    k = int(np.floor(m * theta / np.pi))
    return ((-1.0) ** k) * np.cos(m * theta) - 2.0 * k


def oracle_sphereface(X, W, m, labels, use_monotone_psi=True):
    X = np.asarray(X, dtype=np.float64)
    cosines = oracle_cosine_logits(X, W)
    losses = []
    for i, y in enumerate(labels):
        norm = np.linalg.norm(X[i])
        row = norm * cosines[i]
        if m == 1:
            target = row[y]
        else:
            theta = np.arccos(np.clip(cosines[i, y], -1.0 + 1e-12, 1.0 - 1e-12))
            psi = _psi_monotone(theta, m) if use_monotone_psi else np.cos(m * theta)
            target = norm * psi
        row = row.copy()
        row[y] = target
        losses.append(softmax_nll(row, y))
    return float(np.mean(losses))


def oracle_cosface(X, W, s, m, labels):
    cosines = oracle_cosine_logits(X, W)
    losses = []
    for i, y in enumerate(labels):
        row = s * cosines[i].copy()
        row[y] = s * (cosines[i, y] - m)
        losses.append(softmax_nll(row, y))
    return float(np.mean(losses))


def arcface_persample(cos_row, y, s, m):
    """Target logit s cos(theta + m), or s (cos theta - m sin m) once theta + m passes pi."""
    row = s * np.asarray(cos_row, dtype=np.float64).copy()
    if m != 0.0:
        theta = np.arccos(np.clip(cos_row[y], -1.0 + 1e-12, 1.0 - 1e-12))
        row[y] = s * (cos_row[y] - m * np.sin(m) if theta > np.pi - m else np.cos(theta + m))
    return softmax_nll(row, y)


def oracle_arcface(X, W, s, m, labels):
    cosines = oracle_cosine_logits(X, W)
    return float(np.mean([arcface_persample(cosines[i], labels[i], s, m) for i in range(len(labels))]))


def oracle_compensate(b, w_snapshot, w_current):
    b = np.asarray(b, dtype=np.float64)
    w_snapshot = np.asarray(w_snapshot, dtype=np.float64)
    w_current = np.asarray(w_current, dtype=np.float64)
    ratio = np.linalg.norm(b) / np.linalg.norm(w_snapshot)
    return b + ratio * (w_current - w_snapshot)


class QueueEntry(NamedTuple):
    embedding: np.ndarray
    label: int
    snapshot_weight: np.ndarray


class DequeQueue:
    """The BroadFace queue as it was before the ring buffer: a deque of copied rows.

    ``stacked()`` restacks every entry on each call. Only the embedding
    shape is checked, against the first entry.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ConfigError(f"queue capacity must be non-negative, got {capacity!r}")
        self.capacity = int(capacity)
        self.entries: deque[QueueEntry] = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self.entries)

    def push(self, embedding, label, snapshot_weight) -> None:
        if self.entries and embedding.shape != self.entries[0].embedding.shape:
            raise StateError(
                f"embedding dim {embedding.shape} does not match queued {self.entries[0].embedding.shape}"
            )
        if self.capacity > 0:
            self.entries.append(QueueEntry(embedding.copy(), int(label), snapshot_weight.copy()))

    def stacked(self):
        emb = np.stack([e.embedding for e in self.entries])
        labels = np.array([e.label for e in self.entries], dtype=np.int64)
        snaps = np.stack([e.snapshot_weight for e in self.entries])
        return emb, labels, snaps


def compensate(entry: QueueEntry, current_W_column) -> np.ndarray:
    """Drift-corrected embedding of one queue entry: b + (|b| / |W_snap|) * (W_now - W_snap).

    Identity when the weight column has not moved; the correction scales
    with the embedding's own norm.
    """
    snap = np.asarray(entry.snapshot_weight, dtype=np.float64)
    snap_norm = float(np.linalg.norm(snap))
    if snap_norm == 0.0:
        raise DegenerateInputError("zero-norm snapshot weight column cannot anchor compensation")
    b = np.asarray(entry.embedding, dtype=np.float64)
    ratio = float(np.linalg.norm(b)) / snap_norm
    return b + ratio * (np.asarray(current_W_column, dtype=np.float64) - snap)


def oracle_broadface(X, W, s, m, labels, queue_entries):
    """Mixed-batch loss: current samples plus compensated queue entries.

    ``queue_entries`` is a list of (embedding, label, snapshot_column)
    triples; compensation uses the current W column for that label.
    """
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    total = 0.0
    for i, y in enumerate(labels):
        cos_row = oracle_cosine_logits(X[i : i + 1], W)[0]
        total += arcface_persample(cos_row, y, s, m)
    for b, y, w_snap in queue_entries:
        b_star = oracle_compensate(b, w_snap, W[:, y])
        cos_row = oracle_cosine_logits(b_star[None, :], W)[0]
        total += arcface_persample(cos_row, y, s, m)
    return total / (len(labels) + len(queue_entries))


def _two_pass_cosines(f, W):
    """Clamped cosines of f's rows and W's columns, one BLAS product over all rows, and ``back``."""
    norms, col_norms = heads._norms(f, 1, "feature row"), heads._norms(W, 0, "weight column")
    unit_features, unit_weights = f / norms, W / col_norms
    raw = unit_features @ unit_weights
    inside = (raw > -1.0) & (raw < 1.0)

    def back(g):
        g = g * inside
        g_rows, g_cols = g @ unit_weights.T, unit_features.T @ g
        return ((g_rows - (g_rows * unit_features).sum(axis=1, keepdims=True) * unit_features) / norms,
                (g_cols - (g_cols * unit_weights).sum(axis=0, keepdims=True) * unit_weights) / col_norms)

    return np.minimum(np.maximum(raw, -1.0), 1.0), back


def _two_pass_arcface(f, W, cfg, onehot):
    """ArcFace's summed loss over f's rows, and ``back(g)`` -> (gradient of f, of W)."""
    cosines, back_cosines = _two_pass_cosines(f, W)
    if cfg.m == 0.0:
        logits, back_margin = cosines * cfg.s, lambda g: g * cfg.s
    else:
        logits, back_margin = heads._swap_target(cosines, onehot, cfg)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    sum_e = e.sum(axis=1, keepdims=True)
    total = (np.log(sum_e) - (shifted * onehot).sum(axis=1, keepdims=True)).sum()
    return total, lambda g: back_cosines(back_margin(g * (e / sum_e - onehot)))


def two_pass_broadface_step(X, W, cfg, labels, queue):
    """One BroadFace step on a non-empty queue as two ArcFace passes, batch then block.

    The queue is read, not pushed. Returns the mean loss, the gradients
    of X and W for a unit upstream gradient, and the five arrays a push
    of the batch leaves: the last Q embeddings, labels and snapshots, and
    their norms by ``np.linalg.norm``.
    """
    onehot = heads._one_hot(labels, W.shape[1])
    total, back = _two_pass_arcface(X, W, cfg, onehot)
    emb, queued_labels, snaps = queue.stacked()
    ratios = (np.linalg.norm(emb, axis=1) / np.linalg.norm(snaps, axis=1))[:, None]
    block_onehot = heads._one_hot(queued_labels, W.shape[1])
    block = (emb - ratios * snaps) + ratios * (block_onehot @ W.T)
    block_total, back_block = _two_pass_arcface(block, W, cfg, block_onehot)
    count = float(len(labels) + len(queue))
    g = np.float64(1.0) / count
    g_x, g_w = back(g)
    g_block, g_block_w = back_block(g)
    g_w = g_w + g_block_w + (block_onehot.T @ (g_block * ratios)).T
    kept = [np.concatenate((old, new))[-queue.capacity:]
            for old, new in ((emb, X), (queued_labels, labels), (snaps, W[:, labels].T))]
    with np.errstate(over="ignore"):
        norms = [np.linalg.norm(kept[0], axis=1), np.linalg.norm(kept[2], axis=1)]
    return (total + block_total) / count, g_x, g_w, kept + norms


def per_batch_loss(model, ds, batch_size):
    """The sample-weighted mean of the queue-less batch losses, each batch its own 2-D call."""
    total = 0.0
    n = len(ds)
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        with np.errstate(over="ignore", invalid="ignore"):
            loss = train._batch_loss(model, ds.features.data[start:stop], ds.labels[start:stop], None)
        total += loss.item() * (stop - start)
    return total / n


def recorded_eval_hits(model, ds):
    """The rows ``evaluate`` scores right, from the argmax of ``model.forward_features(chunk).data`` per chunk."""
    W = model.head.W.data
    columns = W if model.config.margin.family == "cce" else W / heads._norms(W, 0, "weight column")
    hits = 0
    for start in range(0, len(ds), train._EVAL_CHUNK):
        chunk = slice(start, start + train._EVAL_CHUNK)
        with np.errstate(over="ignore", invalid="ignore"):
            feats = model.forward_features(ds.features.data[chunk])
        assert feats.requires_grad and feats.op in ("mlp", "project_batch")  # the recording path
        hits += int(np.sum(np.argmax(feats.data @ columns, axis=1) == ds.labels[chunk]))
    return hits


def oracle_lift_row(x):
    """phi(x) for one row: |x|^2 as the BLAS dot x @ x, then the formula."""
    x = np.asarray(x, dtype=np.float64)
    sq = float(x @ x)
    return np.concatenate([2.0 * x / (sq + 1.0), [(sq - 1.0) / (sq + 1.0)]])


def oracle_render_rows(rows, labels=None):
    """Comma-separated text, one value at a time with format(v, ".17g")."""
    lines = []
    for i, row in enumerate(rows):
        cells = [format(float(v), ".17g") for v in row]
        if labels is not None:
            cells.insert(0, str(int(labels[i])))
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def check_ball_convexity(sampler_seed: int, trials: int, dims=(2, 3, 16)) -> dict:
    """Sample segments between points of the closed unit ball and count escapes.

    Draws x, y with norm at most 1 and a mixing weight in [0, 1], then
    checks the combination stays inside the ball. The count of cases with
    norm exceeding 1 + 1e-12 comes back in the report; the ball is convex,
    so the expected count is zero. Trials are split evenly across ``dims``.
    """
    if trials < 1:
        raise DomainError("trials must be at least 1")
    rng = np.random.default_rng(sampler_seed)
    dims = tuple(int(d) for d in dims)
    violations = 0
    worst = 0.0
    per_dim = [trials // len(dims)] * len(dims)
    per_dim[-1] += trials - sum(per_dim)
    for dim, count in zip(dims, per_dim):
        if count == 0:
            continue
        # directions from an isotropic Gaussian, radii warped to be
        # uniform over the ball's volume
        def ball(k: int) -> np.ndarray:
            raw = rng.normal(size=(k, dim))
            unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            radii = rng.uniform(size=(k, 1)) ** (1.0 / dim)
            return unit * radii

        x, y = ball(count), ball(count)
        alpha = rng.uniform(size=(count, 1))
        mixed = alpha * x + (1.0 - alpha) * y
        norms = np.linalg.norm(mixed, axis=1)
        violations += int(np.sum(norms > 1.0 + 1e-12))
        worst = max(worst, float(np.max(norms)))
    return {"violations": violations, "trials": trials, "dims": list(dims), "max_norm": worst}


def oracle_load_delimited(path, delimiter=",", label_column=0, header=False):
    """(features, labels, class count) of a delimited file, one ``float()`` per cell.

    The loader as it was before the block parser: each cell is converted
    on its own, and labels are remapped in sorted order of the distinct
    raw values.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = 1 if header else 0
    rows = [(i + 1, line) for i, line in enumerate(lines[start:], start=start) if line.strip()]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = None
    raw_labels = []
    feature_rows = []
    for lineno, line in rows:
        cells = line.split(delimiter)
        if width is None:
            width = len(cells)
            if width < 2:
                raise ParseError(f"{path}:{lineno}: need a label column and at least one feature")
            if not -width <= label_column < width:
                raise ParseError(f"{path}: label column {label_column} out of range for {width} columns")
        elif len(cells) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} cells, found {len(cells)}")
        values = []
        for col, cell in enumerate(cells):
            try:
                values.append(float(cell))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: column {col + 1}: not a number: {cell.strip()!r}") from None
        label = values.pop(label_column % width)
        if label != int(label):
            raise ParseError(f"{path}:{lineno}: label column must be integer-valued, found {label!r}")
        raw_labels.append(label)
        feature_rows.append(values)
    distinct = sorted(set(raw_labels))
    remap = {v: i for i, v in enumerate(distinct)}
    labels = np.array([remap[v] for v in raw_labels], dtype=np.int64)
    return np.array(feature_rows), labels, len(distinct)


def oracle_load_cifar_binary(dir, which, subset_per_class=None, downsample_to=None, subset_seed=0):
    """(features, labels) of a CIFAR directory, every record converted before the subset is taken.

    The loader as it was before it chose the subset from the label
    bytes: all records become float64 pixels in [0, 1], are mean-pooled
    to k x k per plane, and only then are the subset's rows kept.
    """
    names = {"cifar10": ["data_batch_1.bin", "data_batch_2.bin", "data_batch_3.bin",
                         "data_batch_4.bin", "data_batch_5.bin", "test_batch.bin"],
             "cifar100": ["train.bin", "test.bin"]}[which]
    record = 3073 if which == "cifar10" else 3074
    records = np.concatenate([np.fromfile(f"{dir}/{name}", dtype=np.uint8).reshape(-1, record) for name in names])
    labels = records[:, record - 3073].astype(np.int64)
    planes = (records[:, -3072:].astype(np.float64) / 255.0).reshape(-1, 3, 32, 32)
    if downsample_to is not None:
        f = 32 // downsample_to
        planes = planes.reshape(-1, 3, downsample_to, f, downsample_to, f).mean(axis=(3, 5))
    features = planes.reshape(planes.shape[0], -1)
    if subset_per_class is not None:
        rng = np.random.default_rng(subset_seed)
        classes = 10 if which == "cifar10" else 100
        keep = [rng.choice(np.flatnonzero(labels == c), size=subset_per_class, replace=False) for c in range(classes)]
        order = np.sort(np.concatenate(keep))
        features, labels = features[order], labels[order]
    return features, labels
