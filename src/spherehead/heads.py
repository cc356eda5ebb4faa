"""Classification heads: cosine logits and the margin-based objectives.

Five objectives share one skeleton, :func:`head_forward`: build the
one-hot targets, turn features into logits the family's way, then take
softmax cross-entropy averaged over the rows. The families differ only
in their logits, one entry each in ``_LOGITS``:

    cce         raw linear logits features @ W, no normalization, no margin
    sphereface  |x| * cos theta, the target replaced by |x| * psi(m * theta)
    cosface     s * (cos theta - m * onehot)
    arcface     s * cos theta, the target replaced by s * cos(theta_y + m),
                or s * (cos theta_y - m sin m) past theta_y = pi - m
    broadface   arcface over the batch, plus arcface over a FIFO queue of
                past embeddings, each compensated for weight drift

A loss is one tape node, ``head``, with the features and W as its
inputs. Its pieces are plain numpy functions that return a value and a
``back`` function: the cosines, the softmax-NLL, the target swap of
sphereface, arcface and broadface, and broadface's drift-corrected queue
block. ``back(g)`` gives the gradient terms that the tape of the
primitive chain would add, in the order it would add them, so the node
has the floats of that chain. With the encoder as one ``mlp`` node and
the lift as one ``project_batch`` node, a training step records 3 tape
nodes (2 without the lift) in every family.

The queue keeps detached embeddings only; gradient from queue terms
reaches the weight matrix and nothing else. It is a ring of arrays
(embeddings [Q, d], labels [Q], snapshots [Q, d], and each row's
|embedding| and |snapshot| [Q], taken once when the row is pushed).
``head_forward`` writes a whole batch with one ``push_batch``, at most
two slice writes per array; ``push`` is its one-row case.
``stacked()`` and ``stacked_norms()`` return fresh copies, oldest
first. A batch whose embeddings are not [B, d] with snapshots of the
same shape, whose label count is not B, or whose d is not the queue's,
raises ``StateError`` before anything is written. ``sphereface_loss``,
``cosface_loss``, ``arcface_loss`` and ``broadface_step`` are
:func:`head_forward` behind a check of the config's family. All losses
are scalar tensors on the gradient tape.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .data import _checked_labels
from .errors import ConfigError, DegenerateInputError, ShapeError, StateError
from .ndcore import Tensor, _accumulate, _record

__all__ = [
    "FAMILIES",
    "MarginConfig",
    "HeadWeights",
    "EmbeddingQueue",
    "sphereface_loss",
    "cosface_loss",
    "arcface_loss",
    "broadface_step",
    "head_forward",
]

FAMILIES = ("cce", "sphereface", "cosface", "arcface", "broadface")

# cosines are pulled this far inside [-1, 1] before acos so the arccos
# derivative stays finite at exactly parallel features
COS_CLAMP = 1.0 - 1e-12

_DEFAULT_MARGIN = {"cce": 0.0, "sphereface": 2.0, "cosface": 0.35, "arcface": 0.5, "broadface": 0.5}
_DEFAULT_SCALE = 8.0
_DEFAULT_QUEUE_CAPACITY = 256


def _as_int(name: str, value) -> int:
    """``value`` as an int if it is an integer, Python or numpy but not bool; else a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class MarginConfig:
    """Hyperparameters of one head family.

    ``m`` is the multiplicative integer margin for sphereface and the
    additive margin in [0, 1] for cosface/arcface/broadface; ``s``
    scales cosine logits; ``queue_capacity`` sizes the broadface queue;
    ``use_monotone_psi`` selects the piecewise-monotone sphereface
    target curve instead of the bare cos(m * theta).
    """

    family: str
    m: float = 0.0
    s: float = _DEFAULT_SCALE
    queue_capacity: int = 0
    use_monotone_psi: bool = True

    def __post_init__(self):
        object.__setattr__(self, "queue_capacity", _as_int("queue_capacity", self.queue_capacity))
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if not 0.0 < self.s < np.inf:
            raise ConfigError(f"scale must be positive and finite, got {self.s!r}")
        if not np.isfinite(self.m):
            raise ConfigError(f"margin must be finite, got {self.m!r}")
        if self.family == "sphereface" and self.m not in (1, 2, 3, 4):
            raise ConfigError(f"sphereface margin must be an integer in 1..4, got {self.m!r}")
        if self.family in ("cosface", "arcface", "broadface") and not 0.0 <= self.m <= 1.0:
            raise ConfigError(f"{self.family} margin must be in [0, 1], got {self.m!r}")
        if self.queue_capacity < 0:
            raise ConfigError(f"queue capacity must be non-negative, got {self.queue_capacity!r}")
        if self.queue_capacity > 0 and self.family != "broadface":
            raise ConfigError(f"queue capacity is a broadface knob, not valid for {self.family!r}")

    @classmethod
    def for_family(cls, family: str, m: float | None = None, s: float | None = None,
                   queue_capacity: int | None = None, use_monotone_psi: bool = True) -> "MarginConfig":
        """Build a config with the per-family defaults filled in."""
        if family not in FAMILIES:
            raise ConfigError(f"unknown family {family!r}, expected one of {FAMILIES}")
        if m is None:
            m = _DEFAULT_MARGIN[family]
        if s is None:
            s = _DEFAULT_SCALE
        if queue_capacity is None:
            queue_capacity = _DEFAULT_QUEUE_CAPACITY if family == "broadface" else 0
        return cls(family=family, m=float(m), s=float(s),
                   queue_capacity=queue_capacity, use_monotone_psi=use_monotone_psi)


class HeadWeights:
    """The class-weight matrix W of shape [d, C], one column per class.

    Columns are L2-normalized inside the logit computation; the raw
    matrix is what the optimizer updates.
    """

    __slots__ = ("W",)

    def __init__(self, W: Tensor):
        if not isinstance(W, Tensor):
            W = Tensor(W, requires_grad=True)
        if W.ndim != 2:
            raise ShapeError(f"weights must be [d, C], got shape {W.shape}")
        self.W = W

    @property
    def dim(self) -> int:
        return self.W.shape[0]

    @property
    def class_count(self) -> int:
        return self.W.shape[1]


class EmbeddingQueue:
    """FIFO store of past (embedding, label, weight-snapshot) rows.

    A ring of five arrays: embeddings [Q, d], labels [Q], snapshots
    [Q, d], and the norms |embedding| and |snapshot| [Q] of each row,
    taken when it is pushed. The first non-empty push allocates the
    [Q, d] arrays, which fixes d. A push writes a whole batch, over the
    oldest rows once the queue is full, with at most two slice writes
    per array.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ConfigError(f"queue capacity must be non-negative, got {capacity!r}")
        self.capacity = int(capacity)
        self._emb = self._snaps = np.empty((self.capacity, 0))
        self._labels = np.empty(self.capacity, dtype=np.int64)
        self._emb_norms, self._snap_norms = np.empty(self.capacity), np.empty(self.capacity)
        self._next = 0  # the row the next push writes
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push(self, embedding: np.ndarray, label: int, snapshot_weight: np.ndarray) -> None:
        """Copy one row in: the one-row case of :meth:`push_batch`."""
        self.push_batch(embedding[None], [label], snapshot_weight[None])

    def push_batch(self, embeddings: np.ndarray, labels, snapshots: np.ndarray) -> None:
        """Copy B rows in, oldest first: embeddings [B, d], labels [B], snapshots [B, d].

        As B single pushes: past capacity only the last Q rows stay. A bad
        batch raises :class:`StateError` before anything is written.
        """
        labels = np.asarray(labels)
        if embeddings.ndim != 2 or snapshots.shape != embeddings.shape:
            raise StateError(f"a queue batch needs [B, d] embeddings and snapshots of their shape, "
                             f"got {embeddings.shape} and {snapshots.shape}")
        if labels.shape != embeddings.shape[:1]:
            raise StateError(f"{embeddings.shape[0]} queue rows but labels of shape {labels.shape}")
        if self._count and embeddings.shape[1] != self._emb.shape[1]:
            raise StateError(f"embedding dim {embeddings.shape[1]} does not match queued {self._emb.shape[1]}")
        B, Q = embeddings.shape[0], self.capacity
        if Q == 0 or B == 0:
            return
        if not self._count:  # the first row fixes d
            d = embeddings.shape[1]
            self._emb, self._snaps = np.empty((Q, d)), np.empty((Q, d))
        skip = max(B - Q, 0)  # rows a later row of the batch would evict
        emb = np.ascontiguousarray(embeddings[skip:], dtype=np.float64)
        snaps = np.ascontiguousarray(snapshots[skip:], dtype=np.float64)
        # norms of the contiguous rows have the bits of the norms of the stacked
        # queue; a row near 1e200 overflows to inf here, as it would there
        with np.errstate(over="ignore"):
            batch = (emb, labels[skip:], snaps, np.linalg.norm(emb, axis=1), np.linalg.norm(snaps, axis=1))
        start, n = (self._next + skip) % Q, B - skip
        first = min(n, Q - start)  # rows written before the ring wraps
        for ring, new in zip((self._emb, self._labels, self._snaps, self._emb_norms, self._snap_norms), batch):
            ring[start:start + first] = new[:first]
            ring[:n - first] = new[first:]
        self._next = (start + n) % Q
        self._count = min(self._count + n, Q)

    def _oldest_first(self, *arrays) -> tuple:
        n, c = self._next, self._count  # unwrapped, n == c; full, the oldest row is n
        return tuple(np.concatenate((a[n:c], a[:n])) for a in arrays)

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows oldest-first as fresh arrays: embeddings [Q, d], labels [Q], snapshots [Q, d]."""
        return self._oldest_first(self._emb, self._labels, self._snaps)

    def stacked_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows' norms oldest-first as fresh arrays: |embedding| [Q] and |snapshot| [Q]."""
        return self._oldest_first(self._emb_norms, self._snap_norms)


def _one_hot(labels, class_count: int) -> np.ndarray:
    labels = _checked_labels(labels, class_count)
    out = np.zeros((labels.size, class_count))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _gathered(terms: list) -> np.ndarray:
    """An intermediate's gradient from its terms, as :func:`_accumulate` stores it.

    The first term plus 0.0, then the others added in turn. A ``+ 0.0``
    on a gradient that already had one changes no bit, so where a chain
    node would only pass its gradient on, no second one is added.
    """
    g = np.add(terms[0], 0.0, order="C")
    for term in terms[1:]:
        g += term
    return g


def _unit_terms(t: np.ndarray, g_unit: np.ndarray, norms: np.ndarray, axis: int) -> list:
    """Gradient terms into ``t`` of t / norms, norms = sqrt(sum(t * t, axis)).

    Term by term, as the tape of div, tile, sqrt, sum and mul adds them;
    the tiled norms sum back as a ones product.
    """
    g_tiled = -g_unit * t / (norms * norms)
    if axis == 1:
        g_norms = g_tiled @ np.ones((1, t.shape[1])).T
    else:
        g_norms = np.ones((t.shape[0], 1)).T @ g_tiled
    g_sq = g_norms / (2.0 * norms) * t
    return [g_unit / norms, g_sq, g_sq]  # t * t contributes once per operand


def _cosine_logits(f: np.ndarray, W: np.ndarray):
    """cos theta between each feature row and each weight column, in [-1, 1].

    Unit rows times unit columns, clamped to [-1, 1]. Returns the
    cosines, the row norms |x| and ``back``: ``back(g)`` gives the
    gradient terms of ``f`` and of ``W``.
    """
    sq = np.sum(f * f, axis=1, keepdims=True)
    if np.any(sq == 0.0):
        raise DegenerateInputError("zero-norm feature row cannot be normalized")
    col_sq = np.sum(W * W, axis=0, keepdims=True)
    if np.any(col_sq == 0.0):
        raise DegenerateInputError("zero-norm weight column cannot be normalized")
    norms, col_norms = np.sqrt(sq), np.sqrt(col_sq)
    unit_features, unit_weights = f / norms, W / col_norms
    raw = unit_features @ unit_weights
    inside = (raw > -1.0) & (raw < 1.0)  # the clamp passes no gradient at its bounds

    def back(g):
        g = g * inside
        return _unit_terms(f, g @ unit_weights.T, norms, 1), _unit_terms(W, unit_features.T @ g, col_norms, 0)

    return np.clip(raw, -1.0, 1.0), norms, back


def _nll_sum(logits: np.ndarray, onehot: np.ndarray):
    """Summed -log softmax(logits)[target], max-shifted against overflow, and ``back``.

    The row maxima are constants: subtracting any constant from a row
    leaves softmax and its gradient unchanged. ``back(g)`` gives the one
    logits term g * (softmax - onehot), formed as the composed tape forms it.
    """
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    sum_e = np.sum(e, axis=1, keepdims=True)
    target = np.sum(shifted * onehot, axis=1, keepdims=True)
    return np.sum(np.log(sum_e) - target), lambda g: [-g * onehot + g / sum_e * e]


def _swap_target(cosines: np.ndarray, onehot: np.ndarray, cfg: MarginConfig):
    """Each row's target cosine t swapped for psi(t), and ``back``.

    Returns ``cosines + tile(psi(t) - t) * onehot``, times s for arcface
    and broadface. psi is arcface's cos(theta + m), or sphereface's
    psi(m * theta): monotone, (-1)^k cos(m * theta) - 2k on theta in
    [k pi/m, (k+1) pi/m] (the strictly decreasing extension, k a
    per-sample constant), or the literal cos(m * theta); at m = 1 both
    are the cosine itself. theta is the arccos of t clamped to
    [-COS_CLAMP, COS_CLAMP], with no gradient at the bounds. Past
    theta = pi - m, arcface falls back to t - m sin m (gradient 1 into
    t), which steps down by cos m + m sin m - 1 > 0 and keeps falling.

    ``back(g)`` gives the two cosine terms of the chain it replaces
    (target column, clamp, acos, angle, cos, fold or fallback select,
    sub, tile, mul, add, scale): each intermediate's first gradient is
    ``g + 0.0``, written only where it can change a bit, the target
    column gets the chain's terms in its reverse-tape order, and the
    tile sums back as a ones product.
    """
    arc = cfg.family != "sphereface"
    m = cfg.m if arc else int(cfg.m)
    columns = cosines.shape[1]
    t = np.sum(cosines * onehot, axis=1, keepdims=True)
    curve = arc or m > 1  # sphereface's psi at m = 1 is t itself
    fold = not arc and cfg.use_monotone_psi
    psi = t
    if curve:
        inside = (t > -COS_CLAMP) & (t < COS_CLAMP)
        clamped = np.clip(t, -COS_CLAMP, COS_CLAMP)
        theta = np.arccos(clamped)
        angle = theta + m if arc else theta * float(m)
        psi = np.cos(angle)
        if arc:
            fall = theta > np.pi - m
            psi = np.where(fall, t - m * np.sin(m), psi)
        elif fold:
            k = np.floor(m * theta / np.pi)
            sign = np.where(k % 2 == 0, 1.0, -1.0)
            psi = psi * sign - 2.0 * k
    out = cosines + (psi - t) * onehot
    if arc:
        out = out * cfg.s

    def back(g):
        if arc:
            g = g * cfg.s + 0.0
        g_delta = (g * onehot + 0.0) @ np.ones((1, columns)).T + 0.0
        if not curve:  # the chain's t - t: +g_delta first
            g_t = g_delta + 0.0
            g_t += -g_delta
        else:
            g_t = -g_delta + 0.0
            g_psi = g_delta
            if fold:
                g_psi = g_psi * sign + 0.0
            g_angle = -g_psi * np.sin(angle) + 0.0
            g_theta = g_angle if arc else g_angle * float(m) + 0.0
            g_curve = (-g_theta / np.sqrt(1.0 - clamped * clamped) + 0.0) * inside
            # a fallback row takes g_psi; the chain's other term there is +0.0,
            # which changes no bit of g_t, as g_t is never -0.0
            g_t += np.where(fall, g_psi, g_curve) if arc else g_curve
        return [g, g_t * onehot]

    return out, back


# Each family's logits: (features, W, cfg, onehot) -> (logits [B, C], back),
# where back(g) gives the gradient terms of the features and of W.


def _linear_logits(f: np.ndarray, W: np.ndarray, cfg: MarginConfig, onehot: np.ndarray):
    return f @ W, lambda g: ([g @ W.T], [f.T @ g])


def _sphereface_logits(f: np.ndarray, W: np.ndarray, cfg: MarginConfig, onehot: np.ndarray):
    cosines, norms, back_cosines = _cosine_logits(f, W)
    swapped, back_swap = _swap_target(cosines, onehot, cfg)

    def back(g):
        f_terms, w_terms = back_cosines(_gathered(back_swap(g * norms + 0.0)))
        # |x| = sqrt(sum(x * x)): the tiled column sums back as a ones product,
        # then x * x gives the features one term per operand
        g_sq = (g * swapped) @ np.ones((1, swapped.shape[1])).T / (2.0 * norms) + 0.0
        return f_terms + [g_sq * f, g_sq * f], w_terms

    return norms * swapped, back


def _cosface_logits(f: np.ndarray, W: np.ndarray, cfg: MarginConfig, onehot: np.ndarray):
    cosines, _, back_cosines = _cosine_logits(f, W)
    return (cosines - onehot * cfg.m) * cfg.s, lambda g: back_cosines(g * cfg.s + 0.0)


def _arcface_logits(f: np.ndarray, W: np.ndarray, cfg: MarginConfig, onehot: np.ndarray):
    cosines, _, back_cosines = _cosine_logits(f, W)
    if cfg.m == 0.0:
        return cosines * cfg.s, lambda g: back_cosines(g * cfg.s + 0.0)
    swapped, back_swap = _swap_target(cosines, onehot, cfg)
    return swapped, lambda g: back_cosines(_gathered(back_swap(g)))


_LOGITS = {
    "cce": _linear_logits,
    "sphereface": _sphereface_logits,
    "cosface": _cosface_logits,
    "arcface": _arcface_logits,
    "broadface": _arcface_logits,
}


def _compensated_block(queue: EmbeddingQueue, W: np.ndarray):
    """All queue embeddings, drift-corrected: [Q, d], their one-hot labels and ``back``.

    Row j is ``emb_j - r_j * snap_j + r_j * W[:, y_j]``, r_j = |emb_j| /
    |snap_j|, from the norms the queue stored at push. Embeddings and
    snapshots are constants, so ``back(g)``
    gives one term, into W alone. W's columns are gathered as the
    product ``onehot @ W.T``, whose signed zeros and ``0 * inf`` differ
    from fancy indexing; the term has the floats of the add, mul, matmul
    and transpose chain it replaces.
    """
    emb, labels, snaps = queue.stacked()
    if emb.shape[1] != W.shape[0]:
        raise StateError(f"queued embedding dim {emb.shape[1]} does not match weight dim {W.shape[0]}")
    emb_norms, snap_norms = queue.stacked_norms()
    if np.any(snap_norms == 0.0):
        raise DegenerateInputError("zero-norm snapshot weight column cannot anchor compensation")
    ratios = (emb_norms / snap_norms)[:, None]  # [Q, 1]
    onehot = _one_hot(labels, W.shape[1])
    out = (emb - ratios * snaps) + ratios * (onehot @ W.T)
    return out, onehot, lambda g: [(onehot.T @ (g * ratios + 0.0) + 0.0).T]


def head_forward(features: Tensor, weights: HeadWeights, cfg: MarginConfig,
                 labels, queue: EmbeddingQueue | None = None) -> Tensor:
    """The configured family's mean loss over the batch (and broadface queue), one ``head`` node.

    With a queue, broadface averages the margin loss over the live batch
    and the drift-corrected queue entries together, then pushes the
    batch's embeddings (detached) and current target weight columns,
    evicting oldest-first past capacity. Without one it is arcface, the
    empty-queue case, and keeps no state.

    The node's inputs are the features and W. Its backward takes g /
    count, then the queue block, then the batch, so W gets the block's
    cosine terms, the compensation term, then the batch's terms: the
    order in which the depth-first walk of the chain's tape added them.
    """
    if queue is not None and cfg.family != "broadface":
        raise ConfigError(f"a queue is a broadface knob, not valid for {cfg.family!r}")
    if not isinstance(features, Tensor):
        features = Tensor(features)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ShapeError(f"features must be [B, d] with B >= 1, got shape {features.shape}")
    if features.shape[1] != weights.dim:
        raise ShapeError(f"feature dim {features.shape[1]} does not match weight dim {weights.dim}")
    onehot = _one_hot(labels, weights.class_count)
    if onehot.shape[0] != features.shape[0]:
        raise ShapeError(f"{features.shape[0]} feature rows but {onehot.shape[0]} labels")
    W = weights.W
    logits, back_logits = _LOGITS[cfg.family](features.data, W.data, cfg, onehot)
    total, back_nll = _nll_sum(logits, onehot)
    count = onehot.shape[0]
    queued = queue is not None and len(queue) > 0
    if queued:
        block, block_onehot, back_block = _compensated_block(queue, W.data)
        block_logits, back_block_logits = _arcface_logits(block, W.data, cfg, block_onehot)
        block_total, back_block_nll = _nll_sum(block_logits, block_onehot)
        total = total + block_total
        count += len(queue)

    def backward_fn(g: np.ndarray) -> None:
        g = g / float(count) + 0.0
        w_terms = []
        if queued and W.requires_grad:
            block_terms, w_terms = back_block_logits(_gathered(back_block_nll(g)))
            w_terms += back_block(_gathered(block_terms))
        f_terms, batch_w_terms = back_logits(_gathered(back_nll(g)))
        if features.requires_grad:
            for term in f_terms:
                _accumulate(features, term)
        if W.requires_grad:
            for term in w_terms + batch_w_terms:
                _accumulate(W, term)

    loss = _record("head", (features, W), total / float(count), backward_fn)
    if queue is not None:
        labels = np.asarray(labels, dtype=np.int64)
        queue.push_batch(features.data, labels, W.data[:, labels].T)
    return loss


def _require_family(cfg: MarginConfig, family: str, name: str) -> None:
    if cfg.family != family:
        raise ConfigError(f"{name} needs a {family} config, got {cfg.family!r}")


def sphereface_loss(features: Tensor, weights: HeadWeights, cfg: MarginConfig, labels) -> Tensor:
    """Multiplicative angular margin: target exponent |x| * psi(m * theta)."""
    _require_family(cfg, "sphereface", "sphereface_loss")
    return head_forward(features, weights, cfg, labels)


def cosface_loss(features: Tensor, weights: HeadWeights, cfg: MarginConfig, labels) -> Tensor:
    """Additive cosine margin: target logit s * (cos theta - m)."""
    _require_family(cfg, "cosface", "cosface_loss")
    return head_forward(features, weights, cfg, labels)


def arcface_loss(features: Tensor, weights: HeadWeights, cfg: MarginConfig, labels) -> Tensor:
    """Additive angular margin: target logit s * cos(theta + m)."""
    _require_family(cfg, "arcface", "arcface_loss")
    return head_forward(features, weights, cfg, labels)


def broadface_step(batch_features: Tensor, weights: HeadWeights, cfg: MarginConfig,
                   labels, queue: EmbeddingQueue) -> tuple[Tensor, EmbeddingQueue]:
    """One mixed-batch loss evaluation plus queue bookkeeping; see :func:`head_forward`."""
    _require_family(cfg, "broadface", "broadface_step")
    return head_forward(batch_features, weights, cfg, labels, queue), queue
