"""Fused tape nodes against the primitive chains they stand for.

Each fused node (the encoder ``mlp``, ``project_batch`` and the whole
loss, ``head``), each numpy piece of the head (the cosines, the
softmax-NLL, the angular target swap and the BroadFace compensated
block, recorded alone by ``tests/oracles.py``), and a broadcast operand
of a binary op, must agree with its chain of primitives in the forward
value and every input gradient to ``AGREEMENT`` norm-relative, and match
central differences. A node's backward is its own closed form, so its
last bits differ from the chain's; the chains are tolerance references.
They are rebuilt here from the reference ops of ``tests/oracles.py``,
with the tiling written as a ``matmul`` with a ones tensor.
"""

import ast
import copy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import spherehead
from spherehead import heads, ndcore, stereo, train
from spherehead.errors import DegenerateInputError, ShapeError, StateError, TrainingDiverged
from spherehead.heads import COS_CLAMP, EmbeddingQueue, HeadWeights, MarginConfig, _one_hot, head_forward
from spherehead.ndcore import Tensor, backward, mlp, trace
from spherehead.stereo import project_batch
from spherehead.train import ModelConfig, build_model

from .helpers import check_gradients, norm_rel_error
from .oracles import (acos, add, clamp, compensated_block, concat, cos, cosine_logits, div, exp, head_cosines, log,
                      matmul, mul, nll_sum, reduce_sum, relu, row_sqnorms, sqrt, sub, swap_target, transpose, where)

TRIALS = 25

# how far a fused node's value or gradient may stray from its chain's, norm-relative
AGREEMENT = 1e-12


# -- the primitive chains --------------------------------------------------


def ones_cols(col, n):
    return matmul(col, Tensor(np.ones((1, n))))


def ones_rows(row, m):
    return matmul(Tensor(np.ones((m, 1))), row)


def chain_linear(x, W, b):
    return add(matmul(x, W), ones_rows(b, x.shape[0]))


def chain_mlp(x, layers):
    h = x
    for i, (W, b) in enumerate(layers):
        h = chain_linear(h, W, b)
        if i < len(layers) - 1:
            h = relu(h)
    return h


def chain_project_batch(X):
    # mul(X, 2.0) is created first, so a walk in reverse creation order adds
    # X's gradient terms in the depth-first walk's order, as the fused node does
    doubled = mul(X, 2.0)
    norm = row_sqnorms(X)
    denom = add(norm, 1.0)
    a = div(doubled, ones_cols(denom, X.shape[1]))
    b = div(sub(norm, 1.0), denom)
    return concat([a, b], axis=1)


def chain_cosine_logits(features, weights):
    W = weights.W
    norms = sqrt(reduce_sum(mul(features, features), axis=1, keepdims=True))
    unit_features = div(features, ones_cols(norms, features.shape[1]))
    col_norms = sqrt(reduce_sum(mul(W, W), axis=0, keepdims=True))
    unit_weights = div(W, ones_rows(col_norms, W.shape[0]))
    return clamp(matmul(unit_features, unit_weights), -1.0, 1.0)


def chain_nll_sum(logits, onehot):
    row_max = Tensor(np.max(logits.data, axis=1, keepdims=True))
    shifted = sub(logits, ones_cols(row_max, logits.shape[1]))
    lse = log(reduce_sum(exp(shifted), axis=1, keepdims=True))
    target = reduce_sum(mul(shifted, Tensor(onehot)), axis=1, keepdims=True)
    return reduce_sum(sub(lse, target))


def chain_target_column(cosines, onehot):
    return reduce_sum(mul(cosines, Tensor(onehot)), axis=1, keepdims=True)


def chain_replace_target(cosines, onehot, new_target, old_target):
    return add(cosines, mul(ones_cols(sub(new_target, old_target), cosines.shape[1]), Tensor(onehot)))


def chain_theta(cos_target):
    return acos(clamp(cos_target, -COS_CLAMP, COS_CLAMP))


def chain_psi_sphereface(cos_target, m, use_monotone_psi):
    if m == 1:
        return cos_target
    theta = chain_theta(cos_target)
    folded = cos(mul(theta, float(m)))
    if not use_monotone_psi:
        return folded
    k = np.floor(m * theta.data / np.pi)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    return sub(mul(folded, Tensor(sign)), Tensor(2.0 * k))


def chain_swap_target(cosines, onehot, cfg):
    cos_target = chain_target_column(cosines, onehot)
    if cfg.family == "sphereface":
        psi = chain_psi_sphereface(cos_target, int(cfg.m), cfg.use_monotone_psi)
        return chain_replace_target(cosines, onehot, psi, cos_target)
    theta = chain_theta(cos_target)
    # past theta = pi - m, cos(theta + m) turns back up; ArcFace falls back to cos theta - m sin m
    psi = where(theta.data > np.pi - cfg.m, sub(cos_target, cfg.m * np.sin(cfg.m)), cos(add(theta, cfg.m)))
    return mul(chain_replace_target(cosines, onehot, psi, cos_target), cfg.s)


def chain_compensated_block(queue, weights):
    emb, labels, snaps = queue.stacked()
    ratios = (np.linalg.norm(emb, axis=1) / np.linalg.norm(snaps, axis=1))[:, None]
    onehot = _one_hot(labels, weights.class_count)
    current_cols = matmul(Tensor(onehot), transpose(weights.W))
    constant_part = Tensor(emb - ratios * snaps)
    return add(constant_part, mul(Tensor(np.repeat(ratios, emb.shape[1], axis=1)), current_cols)), onehot


def chain_arcface_logits(features, weights, cfg, onehot):
    cosines = chain_cosine_logits(features, weights)
    return mul(cosines, cfg.s) if cfg.m == 0.0 else chain_swap_target(cosines, onehot, cfg)


def chain_sphereface_logits(features, weights, cfg, onehot):
    norms = sqrt(reduce_sum(mul(features, features), axis=1, keepdims=True))
    return mul(norms, chain_swap_target(chain_cosine_logits(features, weights), onehot, cfg))


CHAIN_LOGITS = {
    "cce": lambda f, w, cfg, onehot: matmul(f, w.W),
    "sphereface": chain_sphereface_logits,
    "cosface": lambda f, w, cfg, onehot: mul(sub(chain_cosine_logits(f, w), Tensor(onehot * cfg.m)), cfg.s),
    "arcface": chain_arcface_logits,
    "broadface": chain_arcface_logits,
}


def chain_head_forward(features, weights, cfg, labels, queue=None):
    """``head_forward`` as the tape of its chain: the chain pieces, joined by ``add`` and ``div``.

    A stack [S, B, d], as ``fit``'s initial-loss pass makes, goes one
    slice at a time, forward only: the loss is the slices' losses, [S].
    """
    if features.ndim == 3:
        return Tensor([chain_head_forward(Tensor(f), weights, cfg, y, queue).item()
                       for f, y in zip(features.data, labels)])
    onehot = _one_hot(labels, weights.class_count)
    total = chain_nll_sum(CHAIN_LOGITS[cfg.family](features, weights, cfg, onehot), onehot)
    count = onehot.shape[0]
    if queue is not None and len(queue) > 0:
        block, block_onehot = chain_compensated_block(queue, weights)
        total = add(total, chain_nll_sum(chain_arcface_logits(block, weights, cfg, block_onehot), block_onehot))
        count += len(queue)
    loss = div(total, float(count))
    if queue is not None:
        for i, y in enumerate(np.asarray(labels, dtype=np.int64)):
            queue.push(features.data[i], int(y), weights.W.data[:, y])
    return loss


# the margin curves of the swap: arcface's cos(theta + m) at s = 12, and
# sphereface's psi(m * theta), monotone and literal, at every m
SWAP_CONFIGS = ([MarginConfig("arcface", m=m, s=12.0) for m in (0.1, 0.5, 1.0)]
                + [MarginConfig("sphereface", m=m, use_monotone_psi=monotone)
                   for m in (1, 2, 3, 4) for monotone in (True, False)])


def swap_id(cfg):
    return f"{cfg.family}-m{cfg.m:g}-mono{cfg.use_monotone_psi:d}"


def swap_instance(rng):
    """Cosines [B, C] whose target entries include exactly +-1 and +-COS_CLAMP."""
    B, C = int(rng.integers(5, 9)), int(rng.integers(2, 6))
    cosines = rng.uniform(-1.0, 1.0, size=(B, C))
    labels = rng.integers(0, C, size=B)
    edges = rng.permutation([1.0, -1.0, COS_CLAMP, -COS_CLAMP])
    cosines[np.arange(4), labels[:4]] = edges
    return cosines, _one_hot(labels, C), Tensor(rng.normal(size=(B, C)))


# every family, with the margin variants of the swap and none at all
HEAD_CONFIGS = ([MarginConfig("cce")]
                + [MarginConfig("sphereface", m=m, use_monotone_psi=monotone)
                   for m in (1, 2, 3, 4) for monotone in (True, False)]
                + [MarginConfig("cosface", m=m, s=7.0) for m in (0.0, 0.35)]
                + [MarginConfig(family, m=m, s=12.0, queue_capacity=8 if family == "broadface" else 0)
                   for family in ("arcface", "broadface") for m in (0.0, 0.1, 0.5, 1.0)])


def head_instance(rng, B, cfg, offset):
    """Features [B, d], W [d, C] and labels; some rows of label 0 hit a chosen target cosine t.

    Such a row is (t, s, -0.0, ...) times 4 with t * t + s * s == 1 in
    floats, and W's column 0 is 2 e_0, so its norms are exact and its
    target cosine is t itself: +-1, +-COS_CLAMP, or 1/4 m on either side
    of theta = pi - m.
    """
    d, C = int(rng.integers(3, 7)), int(rng.integers(2, 5))
    X = rng.normal(size=(B, d)) * rng.uniform(0.1, 5.0)
    W = rng.normal(size=(d, C))
    W[:, 0], W[0, 0] = 0.0, 2.0
    W[1, rng.random(C) < 0.3] = -0.0
    labels = rng.integers(0, C, size=B)
    m = cfg.m if cfg.family != "sphereface" else 0.0
    targets = [1.0, -1.0, COS_CLAMP, -COS_CLAMP, np.cos(np.pi - 0.75 * m), np.cos(np.pi - 1.25 * m), None, None]
    for i in range(B):
        t = targets[(i + offset) % len(targets)]
        if t is not None:
            X[i], labels[i] = -0.0, 0
            X[i, :2] = 4.0 * t, 4.0 * np.sqrt(1.0 - t * t)
    return X, W, labels


# -- helpers ---------------------------------------------------------------


def bits(a):
    """Raw float64 bits, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def value_and_grads(fn, arrays, grad_mask=None):
    grad_mask = grad_mask or [True] * len(arrays)
    leaves = [Tensor(a.copy(), requires_grad=flag) for a, flag in zip(arrays, grad_mask)]
    loss = fn(*leaves)
    backward(loss)
    return loss.data, [leaf.grad for leaf, flag in zip(leaves, grad_mask) if flag]


def assert_close(a, b):
    """Non-finite entries equal and in the same places, the finite ones within ``AGREEMENT``."""
    finite = np.isfinite(a)
    assert_array_equal(finite, np.isfinite(b))
    assert_array_equal(a[~finite], b[~finite])
    assert norm_rel_error(a[finite], b[finite]) <= AGREEMENT


def assert_agrees(fused, chain, arrays, grad_mask=None):
    value_f, grads_f = value_and_grads(fused, arrays, grad_mask)
    value_c, grads_c = value_and_grads(chain, arrays, grad_mask)
    assert_close(value_f, value_c)
    for g_f, g_c in zip(grads_f, grads_c):
        assert g_f is not None and g_c is not None
        assert_close(g_f, g_c)


def two_training_steps(family, projection, walk=backward):
    """Two SGD steps of a small model; yields each loss and the parameters after its backward.

    ``walk(loss)`` is the backward pass.
    """
    cfg = ModelConfig(feature_dim=5, encoder_layers=(7,), projection_enabled=projection,
                      margin=MarginConfig.for_family(family, s=6.0, queue_capacity=8 if family == "broadface" else None))
    model = build_model(cfg, 3, 4, seed=5)
    queue = EmbeddingQueue(cfg.margin.queue_capacity) if family == "broadface" else None
    rng = np.random.default_rng(77)
    for _ in range(2):
        loss = train._batch_loss(model, rng.normal(size=(6, 3)), rng.integers(0, 4, size=6), queue)
        for p in model.parameters():
            p.zero_grad()
        walk(loss)
        yield loss, model.parameters()
        for p in model.parameters():
            p.data -= 0.1 * p.grad


def step_values(family, projection, walk=backward):
    """Copies of each loss and parameter gradient of ``two_training_steps``."""
    out = []
    for loss, params in two_training_steps(family, projection, walk):
        out.append(loss.data.copy())
        out.extend(p.grad.copy() for p in params)
    return out


def instance(rng, B=None, d=None, C=None):
    B = int(rng.integers(2, 7)) if B is None else B
    d = int(rng.integers(2, 9)) if d is None else d
    C = int(rng.integers(2, 6)) if C is None else C
    return rng.normal(size=(B, d)) * rng.uniform(0.1, 5.0), rng.normal(size=(d, C)), rng.integers(0, C, size=B)


def mlp_instance(rng, depth):
    """Input and layers whose first pre-activation row is exactly -0.0, then 0.0, in its first columns.

    Row 0 of x is 1e-200 and the first two columns of W are -+1e-200, so
    every product underflows to a zero of the column's sign; the bias adds
    -0.0 and 0.0.
    """
    widths = [int(w) for w in rng.integers(2, 9, size=depth + 1)]
    x = rng.normal(size=(int(rng.integers(1, 41)), widths[0]))
    layers = [(rng.normal(size=(n, k)), rng.normal(size=(1, k))) for n, k in zip(widths[:-1], widths[1:])]
    W, b = layers[0]
    x[0] = 1e-200
    W[:, 0], W[:, 1] = -1e-200, 1e-200
    b[0, :2] = -0.0, 0.0
    return x, [a for layer in layers for a in layer]


def pairs(flat):
    return list(zip(flat[::2], flat[1::2]))


def filled_queue(rng, W, Q):
    """A queue of Q rows for W's classes: random embeddings and snapshots, some entries -0.0."""
    d, C = W.shape
    queue = EmbeddingQueue(Q)
    for _ in range(Q):
        emb, snap = rng.normal(size=d), rng.normal(size=d)
        emb[1:][rng.random(d - 1) < 0.2] = -0.0
        snap[0] = -0.0
        snap[-1] = 1.0  # never an all-zero snapshot
        queue.push(emb, int(rng.integers(0, C)), snap)
    return queue


# -- agreement with the chains ------------------------------------------------


class TestSameBitsAsChain:
    """Agreement with the chains to ``AGREEMENT``; the class keeps the name of the bitwise checks it replaced."""

    def test_expand(self):
        """A broadcast column or row sums its gradient back as the tiling matmul's backward does."""
        rng = np.random.default_rng(70)
        for _ in range(TRIALS):
            col, row, R = rng.normal(size=(4, 1)), rng.normal(size=(1, 7)), Tensor(rng.normal(size=(4, 7)))
            assert_agrees(lambda c: reduce_sum(mul(c, R)), lambda c: reduce_sum(mul(ones_cols(c, 7), R)), [col])
            assert_agrees(lambda r: reduce_sum(div(R, r)), lambda r: reduce_sum(div(R, ones_rows(r, 4))), [row])

    @pytest.mark.parametrize("grad_mask", [[True, True, True], [False, True, True]])
    def test_linear(self, grad_mask):
        """A one-layer ``mlp`` is the affine map alone."""
        rng = np.random.default_rng(71)
        for _ in range(TRIALS):
            x, W, _ = instance(rng, B=int(rng.integers(1, 40)))
            b = rng.normal(size=(1, W.shape[1]))
            R = Tensor(rng.normal(size=(x.shape[0], W.shape[1])))
            assert_agrees(lambda x_, W_, b_: reduce_sum(mul(relu(mlp(x_, [(W_, b_)])), R)),
                          lambda x_, W_, b_: reduce_sum(mul(relu(chain_linear(x_, W_, b_)), R)),
                          [x, W, b], grad_mask)

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_mlp(self, x_grad):
        rng = np.random.default_rng(79)
        signs = set()
        for trial in range(3 * TRIALS):
            x, params = mlp_instance(rng, depth=trial % 3 + 1)
            W, b = params[0], params[1]
            signs |= set(np.signbit((x @ W + b)[0, :2]).tolist())
            R = Tensor(rng.normal(size=(x.shape[0], params[-1].shape[1])))
            assert_agrees(lambda x_, *p: reduce_sum(mul(mlp(x_, pairs(p)), R)),
                          lambda x_, *p: reduce_sum(mul(chain_mlp(x_, pairs(p)), R)),
                          [x] + params, [x_grad] + [True] * len(params))
        assert signs == {True, False}  # pre-activations of -0.0 and 0.0 both occurred

    def test_project_batch(self):
        rng = np.random.default_rng(72)
        for _ in range(TRIALS):
            X, _, _ = instance(rng)
            X[0] = 0.0  # the origin lands on the south pole
            R = Tensor(rng.normal(size=(X.shape[0], X.shape[1] + 1)))
            assert_agrees(lambda t: reduce_sum(mul(project_batch(t), R)),
                          lambda t: reduce_sum(mul(chain_project_batch(t), R)), [X])

    def test_cosine_logits(self):
        rng = np.random.default_rng(73)
        for _ in range(TRIALS):
            X, W, _ = instance(rng)
            X[0] = W[:, 0] * 3.0  # parallel to a column: the clamp bound is hit
            R = Tensor(rng.normal(size=(X.shape[0], W.shape[1])))
            fused = lambda f, w: reduce_sum(mul(cosine_logits(f, HeadWeights(w)), R))
            chain = lambda f, w: reduce_sum(mul(chain_cosine_logits(f, HeadWeights(w)), R))
            assert_agrees(fused, chain, [X, W])
            assert_agrees(fused, chain, [X, W], [False, True])

    def test_cosine_logits_features_with_second_consumer(self):
        """As in sphereface: the row norms of the features scale the cosines."""
        rng = np.random.default_rng(74)

        def scaled(cos_fn, tile):
            def fn(f, w):
                norms = sqrt(reduce_sum(mul(f, f), axis=1, keepdims=True))
                return reduce_sum(mul(mul(tile(norms, w.shape[1]), cos_fn(f, HeadWeights(w))), R))
            return fn

        for _ in range(TRIALS):
            X, W, _ = instance(rng)
            R = Tensor(rng.normal(size=(X.shape[0], W.shape[1])))
            assert_agrees(scaled(cosine_logits, lambda norms, _: norms),
                          scaled(chain_cosine_logits, ones_cols), [X, W])

    def test_cosine_logits_weights_with_second_consumer(self):
        """As in BroadFace: W feeds the batch cosines, the compensated queue block and its cosines."""
        rng = np.random.default_rng(75)

        def two_blocks(cos_fn, block_fn):
            def fn(f, w):
                head = HeadWeights(w)
                block, _ = block_fn(queue, head)
                return add(reduce_sum(mul(cos_fn(f, head), R)), reduce_sum(mul(cos_fn(block, head), S)))
            return fn

        for _ in range(TRIALS):
            X, W, _ = instance(rng)
            W[0, rng.random(W.shape[1]) < 0.3] = -0.0
            Q = int(rng.integers(1, 6))
            queue = filled_queue(rng, W, Q)
            R = Tensor(rng.normal(size=(X.shape[0], W.shape[1])))
            S = Tensor(rng.normal(size=(Q, W.shape[1])))
            assert_agrees(two_blocks(cosine_logits, compensated_block),
                          two_blocks(chain_cosine_logits, chain_compensated_block), [X, W])

    def test_compensated_block(self):
        """Signed zeros and a 0 * inf in W gather as in the chain's product with the one-hot labels, inf and NaN in place."""
        rng = np.random.default_rng(69)
        for trial in range(TRIALS):
            _, W, _ = instance(rng)
            W[rng.random(W.shape) < 0.3] = -0.0
            if trial % 5 == 0:
                W[0, -1] = np.inf
            Q = int(rng.integers(1, 9))
            queue = filled_queue(rng, W, Q)
            S = Tensor(rng.normal(size=(Q, W.shape[0])))
            with np.errstate(invalid="ignore"):
                assert_agrees(lambda w: reduce_sum(mul(compensated_block(queue, HeadWeights(w))[0], S)),
                              lambda w: reduce_sum(mul(chain_compensated_block(queue, HeadWeights(w))[0], S)), [W])

    def test_softmax_nll(self):
        rng = np.random.default_rng(76)
        for _ in range(TRIALS):
            X, W, labels = instance(rng)
            logits = X @ W * 4.0
            onehot = _one_hot(labels, W.shape[1])
            assert_agrees(lambda z: div(nll_sum(z, onehot), 3.0),
                          lambda z: div(chain_nll_sum(z, onehot), 3.0), [logits])

    @pytest.mark.parametrize("cfg", SWAP_CONFIGS, ids=swap_id)
    def test_swap_target(self, cfg):
        rng = np.random.default_rng(78)
        for _ in range(TRIALS):
            cosines, onehot, R = swap_instance(rng)
            assert_agrees(lambda c: reduce_sum(mul(swap_target(c, onehot, cfg), R)),
                          lambda c: reduce_sum(mul(chain_swap_target(c, onehot, cfg), R)), [cosines])

    @pytest.mark.parametrize("cfg", HEAD_CONFIGS, ids=swap_id)
    def test_head_forward(self, cfg):
        """The one ``head`` node against its chain: B = 1 to 6, edge targets, a filled queue with -0.0 entries."""
        rng = np.random.default_rng(88)
        targets, angles = set(), set()
        for trial in range(2 * TRIALS):
            B = trial % 6 + 1
            X, W, labels = head_instance(rng, B, cfg, trial // 6)
            queue = filled_queue(rng, W, int(rng.integers(1, 9))) if cfg.family == "broadface" else None
            assert_agrees(
                lambda f, w: head_forward(f, HeadWeights(w), cfg, labels, copy.deepcopy(queue)),
                lambda f, w: chain_head_forward(f, HeadWeights(w), cfg, labels, copy.deepcopy(queue)), [X, W])
            target = head_cosines(X, W)[0][np.arange(B), labels]
            targets |= set(target.tolist())
            angles |= set(np.sign(np.arccos(target) - (np.pi - cfg.m)).tolist())
        assert {1.0, -1.0, COS_CLAMP, -COS_CLAMP} <= targets
        if cfg.family in ("arcface", "broadface") and cfg.m > 0.0:
            assert {-1.0, 1.0} <= angles  # target angles before and past pi - m

    @pytest.mark.parametrize("family", heads.FAMILIES)
    @pytest.mark.parametrize("projection", [True, False])
    def test_training_step_of_every_family(self, family, projection, monkeypatch):
        """Two steps of a model, fused against every chain swapped back in."""
        fused = step_values(family, projection)
        monkeypatch.setattr(train, "mlp", chain_mlp)
        monkeypatch.setattr(train, "project_batch", chain_project_batch)
        monkeypatch.setattr(train, "head_forward", chain_head_forward)
        chained = step_values(family, projection)
        assert len(fused) == len(chained)
        for f, c in zip(fused, chained):
            assert_close(f, c)


@pytest.mark.parametrize("family", heads.FAMILIES)
@pytest.mark.parametrize("projection", [True, False])
def test_reverse_creation_order_walk_gives_the_same_bits(family, projection, monkeypatch):
    """Backward without the depth-first trace: each step's nodes, newest first, as ``_record`` made them.

    Each node accumulates one gradient per input, so the walk's order
    must not change a bit of any parameter's gradient.
    """
    expected = step_values(family, projection)
    created = []
    real_record = ndcore._record

    def recording(op, parents, data, backward_fn):
        out = real_record(op, parents, data, backward_fn)
        if out.inputs:
            created.append(out)
        return out

    def creation_order_walk(loss):
        nodes = created[:]
        created.clear()
        ndcore._accumulate(loss, np.ones(()))
        for t in reversed(nodes):
            if t.grad is not None:
                t._backward(t.grad)

    for module in (ndcore, heads, stereo):
        monkeypatch.setattr(module, "_record", recording)
    walked = step_values(family, projection, creation_order_walk)
    assert len(walked) == len(expected)
    for w, e in zip(walked, expected):
        assert_array_equal(bits(w), bits(e))


# -- finite differences --------------------------------------------------------


class TestFiniteDifferences:
    """``project_batch`` and broadcasting are checked in test_stereo and test_tensor."""

    def test_linear(self):
        rng = np.random.default_rng(80)
        for _ in range(TRIALS):
            x, W, _ = instance(rng)
            b = rng.normal(size=(1, W.shape[1]))
            R = Tensor(rng.normal(size=(x.shape[0], W.shape[1])))
            check_gradients(lambda x_, W_, b_: reduce_sum(mul(mlp(x_, [(W_, b_)]), R)), [x, W, b], tol=1e-5)

    def test_mlp(self):
        """Depth 1 to 3; a draw with a pre-activation near a ReLU kink is skipped."""
        rng = np.random.default_rng(85)
        checked = 0
        for trial in range(TRIALS):
            depth = trial % 3 + 1
            widths = rng.integers(2, 6, size=depth + 1)
            x = rng.normal(size=(int(rng.integers(1, 6)), widths[0]))
            params = [a for n, k in zip(widths[:-1], widths[1:]) for a in (rng.normal(size=(n, k)), rng.normal(size=(1, k)))]
            h = x
            for W, b in pairs(params)[:-1]:
                h = h @ W + b
                if np.min(np.abs(h)) < 1e-3:
                    break
                h = np.maximum(h, 0.0)
            else:
                R = Tensor(rng.normal(size=(x.shape[0], widths[-1])))
                check_gradients(lambda x_, *p: reduce_sum(mul(mlp(x_, pairs(p)), R)), [x] + params, tol=1e-5)
                checked += 1
        assert checked >= TRIALS // 2

    def test_compensated_block(self):
        rng = np.random.default_rng(86)
        for _ in range(TRIALS):
            _, W, _ = instance(rng)
            Q = int(rng.integers(1, 9))
            queue = filled_queue(rng, W, Q)
            S = Tensor(rng.normal(size=(Q, W.shape[0])))
            check_gradients(lambda w: reduce_sum(mul(compensated_block(queue, HeadWeights(w))[0], S)), [W], tol=1e-5)

    def test_cosine_logits(self):
        rng = np.random.default_rng(82)
        for _ in range(TRIALS):
            X, W, _ = instance(rng)
            if np.max(np.abs(chain_cosine_logits(Tensor(X), HeadWeights(Tensor(W))).data)) > 0.97:
                continue  # the clamp's kink is not differentiable
            R = Tensor(rng.normal(size=(X.shape[0], W.shape[1])))
            check_gradients(lambda f, w: reduce_sum(mul(cosine_logits(f, HeadWeights(w)), R)), [X, W], tol=1e-5)

    def test_softmax_nll(self):
        rng = np.random.default_rng(83)
        for _ in range(TRIALS):
            X, W, labels = instance(rng)
            onehot = _one_hot(labels, W.shape[1])
            check_gradients(lambda z: nll_sum(z, onehot), [X @ W * 3.0], tol=1e-5)

    @pytest.mark.parametrize("cfg", SWAP_CONFIGS, ids=swap_id)
    def test_swap_target(self, cfg):
        """Target cosines inside (-0.95, 0.95): the clamp's kinks stay out of the stencil."""
        rng = np.random.default_rng(84)
        for _ in range(TRIALS):
            cosines, onehot, R = swap_instance(rng)
            cosines = np.clip(cosines, -0.95, 0.95)
            check_gradients(lambda c: reduce_sum(mul(swap_target(c, onehot, cfg), R)), [cosines], tol=1e-5)

    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0])
    def test_swap_target_on_both_sides_of_the_arcface_fallback(self, m):
        """Target angles 1e-3 to m/2 before and past theta = pi - m, where the curve switches."""
        rng = np.random.default_rng(87)
        cfg = MarginConfig("arcface", m=m, s=12.0)
        for _ in range(TRIALS):
            B, C = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            cosines = rng.uniform(-0.95, 0.95, size=(B, C))
            labels = rng.integers(0, C, size=B)
            sides = np.where(np.arange(B) % 2 == 0, -1.0, 1.0)
            cosines[np.arange(B), labels] = np.cos(np.pi - m + sides * rng.uniform(1e-3, m / 2.0, size=B))
            R = Tensor(rng.normal(size=(B, C)))
            check_gradients(lambda c: reduce_sum(mul(swap_target(c, _one_hot(labels, C), cfg), R)), [cosines], tol=1e-5)


    @pytest.mark.parametrize("family", heads.FAMILIES)
    @pytest.mark.parametrize("projection", [True, False])
    def test_training_step(self, family, projection):
        """``train._batch_loss`` over every parameter: encoder, lift and head composed, a filled queue for broadface.

        A draw with a pre-activation near a ReLU kink, a cosine near the
        clamp, or a target angle near psi's fold or arcface's fallback is
        skipped.
        """
        rng = np.random.default_rng(81)
        margin = MarginConfig.for_family(family, s=6.0, queue_capacity=6 if family == "broadface" else None)
        cfg = ModelConfig(feature_dim=3, encoder_layers=(4,), projection_enabled=projection, margin=margin)
        checked = 0
        for trial in range(TRIALS):
            model = build_model(cfg, 3, 3, seed=trial)
            for _, b in model.layers:
                b.data = rng.normal(size=b.shape)
            X, y = rng.normal(size=(5, 3)), rng.integers(0, 3, size=5)
            queue = filled_queue(rng, model.head.W.data, 6) if family == "broadface" else None
            if near_a_kink(model, X, y, queue):
                continue

            def step_loss(*params):
                tensors = list(params)
                step_model = train.Model(cfg, pairs(tensors[:-1]), HeadWeights(tensors[-1]), 3)
                return train._batch_loss(step_model, X, y, copy.deepcopy(queue))

            check_gradients(step_loss, [p.data for p in model.parameters()], tol=1e-5)
            checked += 1
        assert checked >= TRIALS // 2


def near_a_kink(model, X, y, queue, margin=0.02):
    """Whether a step's loss has a kink within reach of central differences.

    A hidden pre-activation within 1e-3 of 0 (ReLU), a cosine within 1e-3
    of +-1 (the clamp), or a target angle within ``margin`` of psi's fold,
    m theta = k pi, or of arcface's fallback at theta = pi - m.
    """
    h = X
    for W, b in model.layers[:-1]:
        h = h @ W.data + b.data
        if np.min(np.abs(h)) < 1e-3:
            return True
        h = np.maximum(h, 0.0)
    cfg, W = model.config.margin, model.head.W.data
    if cfg.family == "cce":
        return False
    rows = [(model.forward_features(Tensor(X)).data, y)]
    if queue is not None:
        rows.append((heads._compensated_block(queue, W)[0], queue.stacked()[1]))
    kinks = np.arange(1, cfg.m) * np.pi / cfg.m if cfg.family == "sphereface" else np.array([np.pi - cfg.m])
    for features, labels in rows:
        cosines = head_cosines(features, W)[0]
        theta = np.arccos(cosines[np.arange(len(labels)), labels])
        if np.max(np.abs(cosines)) > 1.0 - 1e-3 or (kinks.size and np.min(np.abs(theta[:, None] - kinks)) < margin):
            return True
    return False


# -- tape size ------------------------------------------------------------------


# The nodes of one B=32 step on spirals features, encoder [64, 32] into 16
# features, with the lift on and off: the encoder as one mlp node, the
# projection, then the head. BroadFace is counted with its queue holding a
# previous batch.
TAPE_NODES = {True: ["mlp", "project_batch", "head"], False: ["mlp", "head"]}


def spirals_step_loss(family, projection):
    """The loss of one B=32 step of ``test_tape_size_of_a_spirals_step``'s model."""
    train_ds, _ = train.build_datasets(train.DataConfig("two_spirals", {"n_per_class": 100}), seed=1)
    margin = MarginConfig.for_family(family, s=12.0)
    model = build_model(ModelConfig(feature_dim=16, margin=margin, encoder_layers=(64, 32),
                                    projection_enabled=projection),
                        train_ds.dim, train_ds.class_count, seed=2)
    queue = EmbeddingQueue(margin.queue_capacity) if family == "broadface" else None
    X, y = train_ds.features.data, train_ds.labels
    if queue is not None:
        train._batch_loss(model, X[32:64], y[32:64], queue)
    return train._batch_loss(model, X[:32], y[:32], queue)


@pytest.mark.parametrize("family", heads.FAMILIES)
def test_tape_size_of_a_spirals_step(family):
    for projection, ops in TAPE_NODES.items():
        assert [node.op for node in trace(spirals_step_loss(family, projection)).nodes] == ops


@pytest.mark.parametrize("family", ["arcface", "sphereface", "broadface"])
@pytest.mark.parametrize("swap", ["fused", "chain"])
def test_nan_cosine_ends_fit_as_training_diverged(family, swap, monkeypatch):
    """A NaN target cosine passes the swap as NaN, so the loss check catches it.

    ``fused`` poisons the head's numpy cosine piece; ``chain`` trains
    through ``chain_head_forward`` and poisons its chain cosines.
    """
    if swap == "fused":
        real_unit_cosines = heads._unit_cosines

        def poisoned(*args):
            cosines, back = real_unit_cosines(*args)
            cosines[0] = np.nan
            return cosines, back

        monkeypatch.setattr(heads, "_unit_cosines", poisoned)
    else:
        real_chain = chain_cosine_logits

        def poisoned_chain(features, weights):
            out = real_chain(features, weights)
            out.data[0] = np.nan
            return out

        monkeypatch.setitem(globals(), "chain_cosine_logits", poisoned_chain)
        monkeypatch.setattr(train, "head_forward", chain_head_forward)
    train_ds, _ = train.build_datasets(train.DataConfig("two_spirals", {"n_per_class": 20}), seed=1)
    model = build_model(ModelConfig(feature_dim=4, margin=MarginConfig.for_family(family), encoder_layers=(8,)),
                        train_ds.dim, train_ds.class_count, seed=2)
    with pytest.raises(TrainingDiverged) as excinfo:
        train.fit(model, train_ds, train.OptimConfig(learning_rate=1e-3, epochs=2, batch_size=8))
    assert (excinfo.value.epoch, excinfo.value.batch) == (1, 0)
    assert np.isnan(excinfo.value.loss_trajectory[-1])


def test_linear_rejects_mismatched_shapes():
    """Every layer of ``mlp`` is checked, not only the first."""
    x, W, b = Tensor(np.ones((4, 3))), Tensor(np.ones((3, 2))), Tensor(np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        mlp(x, [(Tensor(np.ones((2, 2))), b)])
    with pytest.raises(ShapeError):
        mlp(x, [(W, Tensor(np.zeros((4, 2))))])
    with pytest.raises(ShapeError):
        mlp(Tensor(np.ones(3)), [(W, b)])
    with pytest.raises(ShapeError):
        mlp(x, [(W, b), (Tensor(np.ones((3, 2))), b)])
    with pytest.raises(ShapeError):
        mlp(x, [(W, b), (Tensor(np.ones(2)), b)])
    with pytest.raises(ShapeError):
        mlp(x, [(W, b), (Tensor(np.ones((2, 2))), Tensor(np.zeros((1, 3))))])
    with pytest.raises(ShapeError):
        mlp(x, [])


def test_compensated_block_rejects_bad_queues():
    W = HeadWeights(np.ones((3, 2)))
    wrong_dim = EmbeddingQueue(4)
    wrong_dim.push(np.ones(4), 0, np.ones(4))
    with pytest.raises(StateError):
        compensated_block(wrong_dim, W)
    zero_snapshot = EmbeddingQueue(4)
    zero_snapshot.push(np.ones(3), 0, np.ones(3))
    zero_snapshot.push(np.ones(3), 1, np.zeros(3))
    with pytest.raises(DegenerateInputError):
        compensated_block(zero_snapshot, W)


# -- op inventory -----------------------------------------------------------------


def recorded_op_names():
    """The op names of every ``_record("<op>", ...)`` call in the package."""
    names = set()
    for path in Path(spherehead.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_record"
                    and node.args and isinstance(node.args[0], ast.Constant)):
                names.add(node.args[0].value)
    return names


def test_every_recorded_op_is_run_by_training():
    """Training steps of every family, lifted or not, record each op the package defines.

    An op that no step records is dead code in ``ndcore`` or a head.
    """
    seen = set()
    for family in heads.FAMILIES:
        for projection in (True, False):
            for loss, _ in two_training_steps(family, projection):
                seen |= {node.op for node in trace(loss).nodes}
    assert seen == recorded_op_names()


# -- what the encoder writes ---------------------------------------------------


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def closure_of(fn):
    return dict(zip(fn.__code__.co_freevars, (cell.cell_contents for cell in fn.__closure__)))


@pytest.mark.parametrize("hidden", [1, 3])
def test_mlp_writes_only_arrays_it_made(hidden):
    """Forward and backward leave x, the parameters, the kept layer inputs and the incoming gradient as they were.

    The kept inputs and the output have the bits of ``h @ W + b`` then
    ``h * (h > 0)`` per layer; the first pre-activations include -0.0 and 0.0.
    """
    rng = np.random.default_rng(93 + hidden)
    x_data, params = mlp_instance(rng, depth=hidden + 1)
    x = Tensor(x_data, requires_grad=True)
    layers = [(Tensor(W, requires_grad=True), Tensor(b, requires_grad=True)) for W, b in pairs(params)]
    leaves = [x] + [p for layer in layers for p in layer]
    before = [t.data.copy() for t in leaves]
    out = mlp(x, layers)
    kept = closure_of(out._backward)["inputs"]
    h, chain = x.data, []
    for i, (W, b) in enumerate(layers):
        chain.append(h)
        h = h @ W.data + b.data
        if i < hidden:
            h = h * (h > 0.0)
    assert len(kept) == hidden + 1 and kept[0] is x.data
    assert all(same_bits(a, c) for a, c in zip(kept, chain)) and same_bits(out.data, h)
    kept_before, out_before = [a.copy() for a in kept], out.data.copy()
    g = rng.normal(size=out.shape)
    g[0, 0] = -0.0
    g_before = g.copy()
    out._backward(g)
    assert same_bits(g, g_before) and same_bits(out.data, out_before)
    assert all(same_bits(a, c) for a, c in zip(kept, kept_before))
    assert all(same_bits(t.data, c) for t, c in zip(leaves, before))
    assert all(t.grad is not None for t in leaves)


def test_mlp_forward_makes_no_layer_sized_temporaries():
    """Beyond what it keeps, forward on [4096, 2] through widths [64, 32, 16] peaks under one [4096, 8] array.

    numpy reports its data buffers to tracemalloc. An ``h @ W + b`` or an
    ``h * mask`` that allocates instead of writing in place shows up as a
    transient of at least one [4096, 16] output (512 KiB); the transient
    is the traced peak minus the bytes still held after ``mlp`` returns.
    """
    rng = np.random.default_rng(97)
    widths = [2, 64, 32, 16]
    layers = [(Tensor(rng.normal(size=(n, k)), requires_grad=True), Tensor(rng.normal(size=(1, k)), requires_grad=True))
              for n, k in zip(widths[:-1], widths[1:])]
    x = Tensor(rng.normal(size=(4096, 2)))
    tracemalloc.start()
    try:
        out = mlp(x, layers)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (4096, 16)
    assert peak - held < 4096 * 8 * 8
