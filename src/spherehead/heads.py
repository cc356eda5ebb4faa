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
    broadface   arcface over the batch rows and a FIFO queue of past
                embeddings, each compensated for weight drift, stacked
                into one pass with one BLAS product per part

A loss is one tape node, ``head``, with the features and W as its
inputs. Its pieces are plain numpy functions that return a value and a
``back`` function: the cosines, the softmax-NLL, the target swap of
sphereface, arcface and broadface, and broadface's drift-corrected queue
block. ``back(g)`` gives one gradient per input, each in closed form:
``(G - (G.u) u) / |x|`` through a normalisation, ``g (softmax -
onehot)`` through the softmax-NLL and one ``psi'(t)`` per row through
the target swap. With the encoder as one ``mlp`` node and the lift as
one ``project_batch`` node, a training step records 3 tape nodes (2
without the lift) in every family.

BroadFace's queue keeps detached embeddings only, so gradient from its
terms reaches W and nothing else. It is a window, not a ring: five
read-only arrays of the live rows, oldest first, which each
``push_batch`` replaces with the rows that stay followed by the batch.
``head_forward`` pushes each batch once, after its loss is built.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .data import _checked_labels
from .errors import ConfigError, DegenerateInputError, DomainError, LabelError, ShapeError, StateError
from .ndcore import Tensor, _accumulate, _float64, _record

__all__ = [
    "FAMILIES",
    "MarginConfig",
    "HeadWeights",
    "EmbeddingQueue",
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class EmbeddingQueue:
    """FIFO store of past (embedding, label, weight-snapshot) rows.

    Five read-only arrays hold the live rows, oldest first: embeddings
    [n, d], labels [n], snapshots [n, d], and the norms |embedding| and
    |snapshot| [n] of each row, taken when it is pushed. The first
    non-empty push fixes d. A push builds five new arrays and never
    writes into the old ones, so ``stacked()`` and ``stacked_norms()``
    return the arrays themselves and an array returned earlier keeps its
    rows.
    """

    def __init__(self, capacity: int):
        capacity = _as_int("queue capacity", capacity)
        if capacity < 0:
            raise ConfigError(f"queue capacity must be non-negative, got {capacity!r}")
        self.capacity = capacity
        self._emb = self._snaps = _read_only(np.empty((0, 0)))
        self._labels = _read_only(np.empty(0, dtype=np.int64))
        self._emb_norms = self._snap_norms = _read_only(np.empty(0))

    def __len__(self) -> int:
        return self._labels.shape[0]

    def push(self, embedding, label: int, snapshot_weight) -> None:
        """Copy one row in: the one-row case of :meth:`push_batch`."""
        self.push_batch([embedding], [label], [snapshot_weight])

    def push_batch(self, embeddings, labels, snapshots) -> None:
        """Copy B rows in, oldest first: embeddings [B, d], labels [B], snapshots [B, d].

        As B single pushes: past capacity only the last Q rows stay.
        Embeddings and snapshots may be any array-likes of real numbers;
        complex, string and object ones are refused. Labels pass
        ``data._checked_labels`` with no class bound. A bad batch raises
        :class:`StateError` before anything is written.
        """
        try:
            embeddings = _float64(embeddings, StateError, "queue embeddings")
            snapshots = _float64(snapshots, StateError, "queue snapshots")
        except (TypeError, ValueError) as err:  # ragged rows
            raise StateError(f"queue embeddings and snapshots must be arrays of floats: {err}") from err
        labels = np.asarray(labels)
        if embeddings.ndim != 2 or snapshots.shape != embeddings.shape:
            raise StateError(f"a queue batch needs [B, d] embeddings and snapshots of their shape, "
                             f"got {embeddings.shape} and {snapshots.shape}")
        if labels.shape != embeddings.shape[:1]:
            raise StateError(f"{embeddings.shape[0]} queue rows but labels of shape {labels.shape}")
        try:
            as_int = _checked_labels(labels, None)
        except LabelError as err:
            raise StateError(f"queue {err}") from err
        if len(self) and embeddings.shape[1] != self._emb.shape[1]:
            raise StateError(f"embedding dim {embeddings.shape[1]} does not match queued {self._emb.shape[1]}")
        B, Q = embeddings.shape[0], self.capacity
        if Q == 0 or B == 0:
            return
        if not len(self):  # the first row fixes d
            self._emb = self._snaps = np.empty((0, embeddings.shape[1]))
        skip = max(B - Q, 0)  # rows a later row of the batch would evict
        emb = np.ascontiguousarray(embeddings[skip:])
        snaps = np.ascontiguousarray(snapshots[skip:])
        # np.linalg.norm's formula for real rows, without its wrapper; norms of
        # the contiguous rows have the bits of the norms of the stacked queue,
        # and a row near 1e200 overflows to inf here, as it would there
        with np.errstate(over="ignore"):
            batch = (emb, as_int[skip:], snaps,
                     np.sqrt((emb * emb).sum(axis=1)), np.sqrt((snaps * snaps).sum(axis=1)))
        drop = max(len(self) + B - skip - Q, 0)  # the oldest rows the batch evicts
        old = (self._emb, self._labels, self._snaps, self._emb_norms, self._snap_norms)
        self._emb, self._labels, self._snaps, self._emb_norms, self._snap_norms = (
            _read_only(np.concatenate((rows[drop:], new))) for rows, new in zip(old, batch))

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows oldest-first, read-only: embeddings [n, d], labels [n], snapshots [n, d]."""
        return self._emb, self._labels, self._snaps

    def stacked_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows' norms oldest-first, read-only: |embedding| [n] and |snapshot| [n]."""
        return self._emb_norms, self._snap_norms


def _one_hot(labels, class_count: int) -> np.ndarray:
    labels = _checked_labels(labels, class_count)
    out = np.zeros((labels.size, class_count))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _norms(t: np.ndarray, axis: int, what: str) -> np.ndarray:
    """The L2 norms of ``t``'s rows (axis 1) or columns (axis 0), kept as a [B, 1] or [1, C] array.

    A non-finite entry or a squared norm past float64 raises
    :class:`DomainError`, and a zero norm :class:`DegenerateInputError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (t * t).sum(axis=axis, keepdims=True)
    if sq.size and sq.min() > 0.0 and sq.max() < np.inf:  # a NaN fails both comparisons
        return np.sqrt(sq)
    if not np.isfinite(sq).all():
        problem = "non-finite entries" if not np.isfinite(t).all() else "squared norm overflows float64"
        raise DomainError(f"{what}: {problem}")
    if np.any(sq == 0.0):
        raise DegenerateInputError(f"zero-norm {what} cannot be normalized")
    return np.sqrt(sq)


def _row_products(a: np.ndarray, b: np.ndarray, parts: tuple) -> np.ndarray:
    """``a @ b`` as one BLAS product per part of ``a``'s rows, written into one array.

    OpenBLAS tiles rows by a product's height, so a row may round
    differently inside a taller product: rows stacked from parts keep
    each part's bits only if no product spans two parts.
    """
    if len(parts) == 1:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    for part in parts:
        np.matmul(a[part], b, out=out[part])
    return out


def _unit_cosines(f: np.ndarray, norms: np.ndarray, W: np.ndarray, col_norms: np.ndarray, parts: tuple):
    """cos theta between ``f``'s rows and W's columns, given their norms, clamped to [-1, 1].

    ``parts`` are slices of the rows, and each part gets its own BLAS
    products (see :func:`_row_products`). Returns the cosines and
    ``back``: ``back(g)`` gives the rows' gradient, then W's gradient from
    each part, each ``(G - (G.u) u) / |x|`` for the gradient G of its
    unit vectors u.
    """
    unit_features, unit_weights = f / norms, W / col_norms
    raw = _row_products(unit_features, unit_weights, parts)
    inside = (raw > -1.0) & (raw < 1.0)  # the clamp passes no gradient at its bounds

    def back(g):
        g = g * inside
        g_rows = _row_products(g, unit_weights.T, parts)
        g_cols = [unit_features[part].T @ g[part] for part in parts]
        return ((g_rows - (g_rows * unit_features).sum(axis=1, keepdims=True) * unit_features) / norms,
                *((c - (c * unit_weights).sum(axis=0, keepdims=True) * unit_weights) / col_norms for c in g_cols))

    return np.minimum(np.maximum(raw, -1.0), 1.0), back


def _cosine_logits(f: np.ndarray, W: np.ndarray):
    """cos theta between each feature row and each weight column, in [-1, 1].

    Returns the cosines, the row norms |x| and ``back``: ``back(g)``
    gives the gradients of ``f`` and of ``W`` (see :func:`_unit_cosines`).
    """
    norms = _norms(f, 1, "feature row")
    cosines, back = _unit_cosines(f, norms, W, _norms(W, 0, "weight column"), (slice(None),))
    return cosines, norms, back


def _nll_sum(logits: np.ndarray, onehot: np.ndarray, parts: tuple = (slice(None),)):
    """Summed -log softmax(logits)[target], max-shifted against overflow, and ``back``.

    The rows of each of ``parts`` are summed on their own, and the part
    sums added in order. The row maxima are constants: subtracting any
    constant from a row leaves softmax and its gradient unchanged.
    ``back(g)`` gives the logits' gradient g * (softmax - onehot).
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    sum_e = e.sum(axis=1, keepdims=True)
    target = (shifted * onehot).sum(axis=1, keepdims=True)
    losses = np.log(sum_e) - target
    total = sum((losses[part].sum() for part in parts[1:]), losses[parts[0]].sum())
    return total, lambda g: g * (e / sum_e - onehot)


def _swap_target(cosines: np.ndarray, onehot: np.ndarray, cfg: MarginConfig):
    """Each row's target cosine t swapped for psi(t), and ``back``.

    Returns ``cosines + (psi(t) - t) * onehot``, times s for arcface
    and broadface. psi is arcface's cos(theta + m), or sphereface's
    psi(m * theta): monotone, (-1)^k cos(m * theta) - 2k on theta in
    [k pi/m, (k+1) pi/m] (the strictly decreasing extension, k a
    per-sample constant), or the literal cos(m * theta); at m = 1 both
    are the cosine itself. theta is the arccos of t clamped to
    [-COS_CLAMP, COS_CLAMP], with no gradient at the bounds. Past
    theta = pi - m, arcface falls back to t - m sin m (gradient 1 into
    t), which steps down by cos m + m sin m - 1 > 0 and keeps falling.

    ``back(g)`` passes g on (times s for arcface and broadface), each
    target entry times psi'(t). On a curve cos(angle), with angle =
    theta + m or m * theta, that is (dangle/dtheta) sin(angle) /
    sin(theta), signed by the fold; for arcface it is Deng et al.'s
    d cos(theta + m) / d cos theta. On a fallback row it is 1.
    """
    arc = cfg.family != "sphereface"
    m = cfg.m if arc else int(cfg.m)
    t = (cosines * onehot).sum(axis=1, keepdims=True)
    psi, slope = t, 1.0  # sphereface's psi at m = 1 is t itself
    if arc or m > 1:
        inside = (t > -COS_CLAMP) & (t < COS_CLAMP)
        clamped = np.minimum(np.maximum(t, -COS_CLAMP), COS_CLAMP)
        theta = np.arccos(clamped)
        angle = theta + m if arc else theta * float(m)
        psi = np.cos(angle)
        slope = (1.0 if arc else float(m)) * np.sin(angle) / np.sqrt(1.0 - clamped * clamped) * inside
        if arc:
            fall = theta > np.pi - m
            psi, slope = np.where(fall, t - m * np.sin(m), psi), np.where(fall, 1.0, slope)
        elif cfg.use_monotone_psi:
            k = np.floor(m * theta / np.pi)
            sign = np.where(k % 2 == 0, 1.0, -1.0)
            psi, slope = psi * sign - 2.0 * k, slope * sign
    out = cosines + (psi - t) * onehot
    scale = cfg.s if arc else 1.0
    target = onehot == 1.0

    def back(g):
        g = g * scale
        return np.where(target, g * slope, g)

    return out * scale, back


# Each family's logits: (features, W, cfg, onehot) -> (logits [B, C], back),
# where back(g) gives the gradients of the features and of W.


def _linear_logits(f: np.ndarray, W: np.ndarray, cfg: MarginConfig, onehot: np.ndarray):
    return f @ W, lambda g: (g @ W.T, f.T @ g)


def _sphereface_logits(f: np.ndarray, W: np.ndarray, cfg: MarginConfig, onehot: np.ndarray):
    cosines, norms, back_cosines = _cosine_logits(f, W)
    swapped, back_swap = _swap_target(cosines, onehot, cfg)

    def back(g):
        g_f, g_w = back_cosines(back_swap(g * norms))
        # d|x|/dx = x / |x|: one outer term of the rows' sums
        return g_f + (g * swapped).sum(axis=1, keepdims=True) / norms * f, g_w

    return norms * swapped, back


def _cosface_logits(f: np.ndarray, W: np.ndarray, cfg: MarginConfig, onehot: np.ndarray):
    cosines, _, back_cosines = _cosine_logits(f, W)
    return (cosines - onehot * cfg.m) * cfg.s, lambda g: back_cosines(g * cfg.s)


def _arc_margin(cosines: np.ndarray, onehot: np.ndarray, cfg: MarginConfig):
    """ArcFace's logits from its cosines, and ``back`` onto the cosines: s cos theta at m = 0, else the swap."""
    if cfg.m == 0.0:
        return cosines * cfg.s, lambda g: g * cfg.s
    return _swap_target(cosines, onehot, cfg)


def _arcface_logits(f: np.ndarray, W: np.ndarray, cfg: MarginConfig, onehot: np.ndarray):
    cosines, _, back_cosines = _cosine_logits(f, W)
    logits, back_margin = _arc_margin(cosines, onehot, cfg)
    return logits, lambda g: back_cosines(back_margin(g))


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
    |snap_j|, from the norms the queue stored at push. W's columns are
    gathered as the product ``onehot @ W.T``. Embeddings and snapshots
    are constants, so ``back(g)`` gives W's gradient alone,
    ``(onehot.T @ (g * r)).T``.
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
    return out, onehot, lambda g: (onehot.T @ (g * ratios)).T


def _broadface_logits(f: np.ndarray, W: np.ndarray, cfg: MarginConfig, onehot: np.ndarray,
                      queue: EmbeddingQueue, parts: tuple):
    """ArcFace logits of the batch rows and the queue's compensated block, stacked [B + Q, C].

    One pass: W's norms and unit columns once, and every elementwise op
    and row reduction once over all rows; ``parts`` splits the BLAS
    products (see :func:`_unit_cosines`). The batch rows and W's columns
    are checked before the block is built, so a bad W is a weight column
    error, not a block row error. Returns the logits, the stacked one-hots
    and ``back``: ``back(g)`` gives the gradients of ``f`` and of W, whose
    batch and block parts add before the block's compensation.
    """
    batch, block_rows = parts
    norms, col_norms = _norms(f, 1, "feature row"), _norms(W, 0, "weight column")
    block, block_onehot, back_block = _compensated_block(queue, W)
    norms = np.concatenate((norms, _norms(block, 1, "feature row")))
    cosines, back_cosines = _unit_cosines(np.concatenate((f, block)), norms, W, col_norms, parts)
    onehot = np.concatenate((onehot, block_onehot))
    logits, back_margin = _arc_margin(cosines, onehot, cfg)

    def back(g):
        g_rows, g_w, g_block_w = back_cosines(back_margin(g))
        return g_rows[batch], (g_w + g_block_w) + back_block(g_rows[block_rows])

    return logits, onehot, back


def head_forward(features: Tensor, weights: HeadWeights, cfg: MarginConfig,
                 labels, queue: EmbeddingQueue | None = None) -> Tensor:
    """The configured family's mean loss over the batch (and broadface queue), one ``head`` node.

    With a non-empty queue, broadface stacks the batch rows and the
    drift-corrected queue entries and averages ArcFace's loss over all of
    them in one pass (:func:`_broadface_logits`), with one BLAS product
    and one loss sum per part. It then pushes the batch's embeddings
    (detached) and current target weight columns, evicting oldest-first
    past capacity. Without one it is arcface, the empty-queue case, and
    keeps no state.

    The node's inputs are the features and W. Its backward takes g /
    count back through the pieces once and accumulates one gradient into
    each input.
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
    B = onehot.shape[0]
    if B != features.shape[0]:
        raise ShapeError(f"{features.shape[0]} feature rows but {B} labels")
    W = weights.W
    if queue is not None and len(queue) > 0:
        parts = (slice(0, B), slice(B, None))
        logits, onehot, back_logits = _broadface_logits(features.data, W.data, cfg, onehot, queue, parts)
    else:
        parts = (slice(None),)
        logits, back_logits = _LOGITS[cfg.family](features.data, W.data, cfg, onehot)
    total, back_nll = _nll_sum(logits, onehot, parts)
    count = onehot.shape[0]

    def backward_fn(g: np.ndarray) -> None:
        g_f, g_w = back_logits(back_nll(g / float(count)))
        if features.requires_grad:
            _accumulate(features, g_f)
        if W.requires_grad:
            _accumulate(W, g_w)

    loss = _record("head", (features, W), total / float(count), backward_fn)
    if queue is not None:
        labels = np.asarray(labels, dtype=np.int64)
        queue.push_batch(features.data, labels, W.data[:, labels].T)
    return loss


def broadface_step(batch_features: Tensor, weights: HeadWeights, cfg: MarginConfig,
                   labels, queue: EmbeddingQueue) -> tuple[Tensor, EmbeddingQueue]:
    """:func:`head_forward` with a queue, behind a broadface check, and the queue back.

    Nothing in the package calls it: it stays for the benchmark's
    replay of the training step, which imports it.
    """
    if cfg.family != "broadface":
        raise ConfigError(f"broadface_step needs a broadface config, got {cfg.family!r}")
    return head_forward(batch_features, weights, cfg, labels, queue), queue
