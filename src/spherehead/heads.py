"""Classification heads: cosine logits and the margin-based objectives.

Five objectives share one skeleton, :func:`head_forward`: build the
one-hot targets, turn features into logits, then take softmax
cross-entropy averaged over the rows. cce's logits are the raw linear
``features @ W``, with no normalization and no margin. The four angular
families run one pipeline, :func:`_angular_logits`: row and column
norms, the clamped cosines, then the family's margin, one entry each in
``_MARGINS``:

    sphereface  |x| * cos theta, the target replaced by |x| * psi(m * theta)
    cosface     s * (cos theta - m * onehot)
    arcface     s * cos theta, the target replaced by s * cos(theta_y + m),
                or s * (cos theta_y - m sin m) past theta_y = pi - m
    broadface   arcface; with a non-empty FIFO queue of past embeddings,
                the queue's rows, each compensated for weight drift, are
                appended to the batch's as a second part, with one BLAS
                product per part

A loss is one tape node, ``head``, with the features and W as its
inputs. Features may be a stack [S, B, d], with labels [S, B] and W
shared [d, C] or one per slice [S, d, C]; the loss is then one mean per
slice, [S], and each slice has the bytes of its own 2-D call (the stack
rule in :mod:`spherehead.ndcore`). Its pieces are plain numpy functions
that return a value and a ``back`` function: the cosines, the margin,
the softmax-NLL, the target swap of sphereface, arcface and broadface,
and broadface's drift-corrected queue block. ``back(g)`` gives one
gradient per input, each in closed form: ``(G - (G.u) u) / |x|``
through a normalisation, ``g (softmax - onehot)`` through the
softmax-NLL and one ``psi'(t)`` per row through the target swap. With
the encoder as one ``mlp`` node and the lift as one ``project_batch``
node, a training step records 3 tape nodes (2 without the lift) in
every family.

BroadFace's queue keeps detached embeddings only, so gradient from its
terms reaches W and nothing else. It is a window, not a ring: five
read-only arrays of the live rows, oldest first, which each
``push_batch`` replaces with the rows that stay followed by the batch.
``head_forward`` pushes each batch once, after its loss is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _as_bool, _as_int, _as_real, _check_fields, _checked, _checked_labels
from .errors import ConfigError, DegenerateInputError, DomainError, LabelError, ShapeError, StateError
from .ndcore import Tensor, _accumulate, _check_stack, _float64, _record, _refuse_shared

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


def _check_family(family) -> str:
    """``family`` if it is one of ``FAMILIES``; else a ConfigError listing them."""
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}, expected one of {FAMILIES}")
    return family


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
        _check_fields(self, {"queue_capacity": _as_int, "m": _as_real, "s": _as_real,
                             "use_monotone_psi": _as_bool})
        _check_family(self.family)
        if self.family == "sphereface" and self.m not in (1, 2, 3, 4):
            raise ConfigError(f"sphereface margin must be an integer in 1..4, got {self.m!r}")
        if self.family in ("cosface", "arcface", "broadface") and not 0.0 <= self.m <= 1.0:
            raise ConfigError(f"{self.family} margin must be in [0, 1], got {self.m!r}")
        if self.queue_capacity > 0 and self.family != "broadface":
            raise ConfigError(f"queue capacity is a broadface knob, not valid for {self.family!r}")

    @classmethod
    def for_family(cls, family: str, m: float | None = None, s: float | None = None,
                   queue_capacity: int | None = None, use_monotone_psi: bool = True) -> "MarginConfig":
        """Build a config with the per-family defaults filled in."""
        _check_family(family)
        if m is None:
            m = _DEFAULT_MARGIN[family]
        if s is None:
            s = _DEFAULT_SCALE
        if queue_capacity is None:
            queue_capacity = _DEFAULT_QUEUE_CAPACITY if family == "broadface" else 0
        return cls(family=family, m=float(m), s=float(s),
                   queue_capacity=queue_capacity, use_monotone_psi=use_monotone_psi)


class HeadWeights:
    """The class-weight matrix W of shape [d, C], one column per class, or one per stack slice, [S, d, C].

    Columns are L2-normalized inside the logit computation; the raw
    matrix is what the optimizer updates.
    """

    __slots__ = ("W",)

    def __init__(self, W: Tensor):
        if not isinstance(W, Tensor):
            W = Tensor(W, requires_grad=True)
        if W.ndim not in (2, 3):
            raise ShapeError(f"weights must be [d, C] or [S, d, C], got shape {W.shape}")
        self.W = W

    @property
    def dim(self) -> int:
        return self.W.shape[-2]

    @property
    def class_count(self) -> int:
        return self.W.shape[-1]


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
        self.capacity = _checked("queue_capacity", _as_int, capacity)
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

        As B single pushes: the old rows and the batch are joined and the
        last Q kept; only the batch rows' norms are taken. Embeddings and
        snapshots may be any array-likes of real numbers; complex, string
        and object ones are refused. Labels pass ``data._checked_labels``
        with no class bound. A bad batch raises :class:`StateError` before
        anything is written.
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
        if Q == 0 or B == 0:  # x[-0:] is all of x, so an empty queue keeps nothing here
            return
        if not len(self):  # the first row fixes d
            self._emb = self._snaps = np.empty((0, embeddings.shape[1]))
        emb = np.ascontiguousarray(embeddings)
        snaps = np.ascontiguousarray(snapshots)
        # np.linalg.norm's formula for real rows, without its wrapper; norms of
        # the contiguous rows have the bits of the norms of the stacked queue,
        # and a row near 1e200 overflows to inf here, as it would there
        with np.errstate(over="ignore"):
            batch = (emb, as_int, snaps,
                     np.sqrt((emb * emb).sum(axis=1)), np.sqrt((snaps * snaps).sum(axis=1)))
        old = (self._emb, self._labels, self._snaps, self._emb_norms, self._snap_norms)
        self._emb, self._labels, self._snaps, self._emb_norms, self._snap_norms = (
            _read_only(np.concatenate((rows, new))[-Q:]) for rows, new in zip(old, batch))

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows oldest-first, read-only: embeddings [n, d], labels [n], snapshots [n, d]."""
        return self._emb, self._labels, self._snaps

    def stacked_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows' norms oldest-first, read-only: |embedding| [n] and |snapshot| [n]."""
        return self._emb_norms, self._snap_norms


def _one_hot(labels, class_count: int) -> np.ndarray:
    """One-hot rows [B, C] of labels [B], or [S, B, C] of a stack's label array [S, B]."""
    if getattr(labels, "ndim", 1) == 2:
        return _one_hot(labels.reshape(-1), class_count).reshape(labels.shape + (class_count,))
    labels = _checked_labels(labels, class_count)
    out = np.zeros((labels.size, class_count))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _norms(t: np.ndarray, axis: int, what: str) -> np.ndarray:
    """The L2 norms of the rows (axis 1) or columns (axis 0) of ``t``'s matrices, kept as [..., B, 1] or [..., 1, C].

    ``axis`` counts in each matrix of a stack, so the sum is on the
    trailing axis ``axis - 2``.

    A non-finite entry or a squared norm past float64 raises
    :class:`DomainError`, and a zero norm :class:`DegenerateInputError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (t * t).sum(axis=axis - 2, keepdims=True)
    if sq.size and sq.min() > 0.0 and sq.max() < np.inf:  # a NaN fails both comparisons
        return np.sqrt(sq)
    if not np.isfinite(sq).all():
        problem = "non-finite entries" if not np.isfinite(t).all() else "squared norm overflows float64"
        raise DomainError(f"{what}: {problem}")
    if np.any(sq == 0.0):
        raise DegenerateInputError(f"zero-norm {what} cannot be normalized")
    return np.sqrt(sq)


def _row_products(a: np.ndarray, b: np.ndarray, parts: tuple) -> np.ndarray:
    """``a @ b`` as one BLAS product per part of ``a``'s rows (a stack is one part), written into one array.

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

    ``parts`` are slices of a 2-D batch's rows (a stack is one part), and
    each part gets its own BLAS products (see :func:`_row_products`).
    Returns the cosines and ``back``: ``back(g)`` gives the rows'
    gradient, then W's gradient from each part, each ``(G - (G.u) u) /
    |x|`` for the gradient G of its unit vectors u.
    """
    unit_features, unit_weights = f / norms, W / col_norms
    raw = _row_products(unit_features, unit_weights, parts)
    inside = (raw > -1.0) & (raw < 1.0)  # the clamp passes no gradient at its bounds

    def back(g):
        g = g * inside
        g_rows = _row_products(g, unit_weights.mT, parts)
        g_cols = [unit_features[part].mT @ g[part] for part in parts]
        return ((g_rows - (g_rows * unit_features).sum(axis=-1, keepdims=True) * unit_features) / norms,
                *((c - (c * unit_weights).sum(axis=-2, keepdims=True) * unit_weights) / col_norms for c in g_cols))

    return np.minimum(np.maximum(raw, -1.0), 1.0), back


def _nll_sum(logits: np.ndarray, onehot: np.ndarray, parts: tuple = (slice(None),)):
    """Summed -log softmax(logits)[target], max-shifted against overflow, and ``back``.

    The sum is one total, or one per slice of a stack [S, B, C]. The rows
    of each of ``parts`` (slices of a 2-D batch's rows; a stack is one
    part) are summed on their own, and the part sums added in order. The
    row maxima are constants: subtracting any constant from a row leaves
    softmax and its gradient unchanged. ``back(g)`` gives the logits'
    gradient g * (softmax - onehot), for g a scalar, or [S, 1, 1] for a
    stack.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    sum_e = e.sum(axis=-1, keepdims=True)
    target = (shifted * onehot).sum(axis=-1, keepdims=True)
    losses = np.log(sum_e) - target
    total = sum((losses[part].sum(axis=(-2, -1)) for part in parts[1:]), losses[parts[0]].sum(axis=(-2, -1)))
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
    t = (cosines * onehot).sum(axis=-1, keepdims=True)
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


# Each angular family's margin: (cosines, row norms |x|, onehot, cfg) -> (logits,
# back), where back(g) gives the gradients of the cosines and of the norms, None
# when the logits do not read the norms.


def _sphere_margin(cosines: np.ndarray, norms: np.ndarray, onehot: np.ndarray, cfg: MarginConfig):
    swapped, back_swap = _swap_target(cosines, onehot, cfg)
    return norms * swapped, lambda g: (back_swap(g * norms), (g * swapped).sum(axis=-1, keepdims=True))


def _cos_margin(cosines: np.ndarray, norms: np.ndarray, onehot: np.ndarray, cfg: MarginConfig):
    return (cosines - onehot * cfg.m) * cfg.s, lambda g: (g * cfg.s, None)


def _arc_margin(cosines: np.ndarray, norms: np.ndarray, onehot: np.ndarray, cfg: MarginConfig):
    """s cos theta at m = 0, else the target swap."""
    logits, back = (cosines * cfg.s, lambda g: g * cfg.s) if cfg.m == 0.0 else _swap_target(cosines, onehot, cfg)
    return logits, lambda g: (back(g), None)


_MARGINS = {"sphereface": _sphere_margin, "cosface": _cos_margin, "arcface": _arc_margin, "broadface": _arc_margin}


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


def _angular_logits(f: np.ndarray, W: np.ndarray, cfg: MarginConfig, onehot: np.ndarray,
                    queue: EmbeddingQueue | None):
    """An angular family's logits: cosines of the rows and W's columns, then the family's margin.

    The rows are the batch, then, when the queue has rows, its
    compensated block: one part each, with its own BLAS products and loss
    sum (see :func:`_unit_cosines`), and every elementwise op and row
    reduction once over all rows. The batch rows and W's columns are
    checked before the block is built, so a bad W is a weight column
    error, not a block row error. Returns the logits [rows, C], their
    one-hots, the parts and ``back``: ``back(g)`` gives the gradients of
    ``f`` and of W, whose batch and block parts add before the block's
    compensation.
    """
    norms, col_norms = _norms(f, 1, "feature row"), _norms(W, 0, "weight column")
    rows, parts, B = f, (slice(None),), f.shape[-2]
    if queue is not None and len(queue) > 0:
        block, block_onehot, back_block = _compensated_block(queue, W)
        rows, parts = np.concatenate((f, block)), (slice(0, B), slice(B, None))
        norms = np.concatenate((norms, _norms(block, 1, "feature row")))
        onehot = np.concatenate((onehot, block_onehot))
    cosines, back_cosines = _unit_cosines(rows, norms, W, col_norms, parts)
    logits, back_margin = _MARGINS[cfg.family](cosines, norms, onehot, cfg)

    def back(g):
        g_cosines, g_norms = back_margin(g)
        g_rows, g_w, *g_block_w = back_cosines(g_cosines)
        if g_norms is not None:  # d|x|/dx = x / |x|: one outer term of the rows' sums
            g_rows = g_rows + g_norms / norms * rows
        if not g_block_w:
            return g_rows, g_w
        return g_rows[:B], (g_w + g_block_w[0]) + back_block(g_rows[B:])

    return logits, onehot, parts, back


def head_forward(features: Tensor, weights: HeadWeights, cfg: MarginConfig,
                 labels, queue: EmbeddingQueue | None = None) -> Tensor:
    """The configured family's mean loss over the batch (and broadface queue), one ``head`` node.

    cce takes ``features @ W`` as its logits; every other family runs
    :func:`_angular_logits`. With a non-empty queue, broadface's rows are
    the batch and the drift-corrected queue entries, and the loss averages
    over all of them. It then pushes the batch's embeddings (detached) and
    current target weight columns, evicting oldest-first past capacity.
    Without one it is arcface, the empty-queue case, and keeps no state.

    The node's inputs are the features and W. Its backward takes g /
    count back through the pieces once and accumulates one gradient into
    each input.

    Features may also be a stack [S, B, d] with labels [S, B], and W one
    per slice [S, d, C] or shared [d, C]: the loss is then [S], one mean
    per slice. Shared weights are forward-only under a stack (a backward
    that reaches them raises ShapeError), and a stack takes no queue.
    """
    if queue is not None and cfg.family != "broadface":
        raise ConfigError(f"a queue is a broadface knob, not valid for {cfg.family!r}")
    if not isinstance(features, Tensor):
        features = Tensor(features)
    W, f, w = weights.W, features.data, weights.W.data
    _check_stack("head", f, w)
    if 0 in f.shape[:-1]:
        raise ShapeError(f"features must have B >= 1 rows, got shape {f.shape}")
    if f.shape[-1] != weights.dim:
        raise ShapeError(f"feature dim {f.shape[-1]} does not match weight dim {weights.dim}")
    if queue is not None and f.ndim > 2:
        raise ShapeError(f"an {f.shape} stack takes no queue: a queue holds the rows of [B, d] batches")
    onehot = _one_hot(labels, weights.class_count)
    if onehot.shape[:-1] != f.shape[:-1]:
        raise ShapeError(f"{f.shape[:-1]} feature rows but {onehot.shape[:-1]} labels")
    if cfg.family == "cce":
        logits, parts, back_logits = f @ w, (slice(None),), lambda g: (g @ w.mT, f.mT @ g)
    else:
        logits, onehot, parts, back_logits = _angular_logits(f, w, cfg, onehot, queue)
    total, back_nll = _nll_sum(logits, onehot, parts)
    count = onehot.shape[-2]

    def backward_fn(g: np.ndarray) -> None:
        if g.ndim:  # one loss per slice of a stack
            _refuse_shared("head", f.shape, (W,))
            g = g[:, None, None]
        g_f, g_w = back_logits(back_nll(g / float(count)))
        if features.requires_grad:
            _accumulate(features, g_f)
        if W.requires_grad:
            _accumulate(W, g_w)

    loss = _record("head", (features, W), total / float(count), backward_fn)
    if queue is not None:
        labels = np.asarray(labels, dtype=np.int64)
        queue.push_batch(f, labels, w[:, labels].T)
    return loss


def broadface_step(batch_features: Tensor, weights: HeadWeights, cfg: MarginConfig,
                   labels, queue: EmbeddingQueue) -> tuple[Tensor, EmbeddingQueue]:
    """:func:`head_forward` with a queue, and the queue back; a family other than broadface is refused there.

    Nothing in the package calls it: it stays for the benchmark's
    replay of the training step, which imports it.
    """
    return head_forward(batch_features, weights, cfg, labels, queue), queue
