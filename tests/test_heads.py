"""Margin losses: frozen values, oracle agreement, reductions, gradients."""

import copy
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spherehead import train
from spherehead.data import Dataset
from spherehead.errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    LabelError,
    ShapeError,
    StateError,
)
from spherehead.heads import (
    EmbeddingQueue,
    HeadWeights,
    MarginConfig,
    _norms,
    broadface_step,
    head_forward,
)
from spherehead.ndcore import Tensor, backward
from .helpers import check_gradients
from .oracles import (
    DequeQueue,
    QueueEntry,
    cce_loss,
    compensate,
    compensated_block,
    cosine_logits,
    matmul,
    mul,
    oracle_arcface,
    oracle_broadface,
    oracle_cce,
    oracle_compensate,
    oracle_cosface,
    oracle_cosine_logits,
    oracle_sphereface,
    swap_target,
    two_pass_broadface_step,
)
from spherehead import heads


# signed zeros, subnormals, the float64 extremes and non-finite values
SPECIAL_FLOATS = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                           np.inf, -np.inf, np.nan])


@st.composite
def queue_pushes(draw):
    """(capacity, embeddings [n, d], labels [n], snapshots [n, d]) for n pushes.

    Values are normals scaled by 10**k for k in [-300, 300), a fifth of
    them replaced by ``SPECIAL_FLOATS``.
    """
    capacity, n, d = draw(st.integers(0, 9)), draw(st.integers(0, 40)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(2, n, d)) * 10.0 ** rng.integers(-300, 300, size=(2, n, d))
    special = rng.random((2, n, d)) < 0.2
    values[special] = rng.choice(SPECIAL_FLOATS, size=int(special.sum()))
    return capacity, values[0], rng.integers(0, 20, size=n), values[1]


@st.composite
def queue_batches(draw):
    """(capacity, prefill, embeddings [n, d], labels [n], snapshots [n, d]) for one batch after a prefill.

    The first ``prefill`` rows (0 to 2Q) leave the ring short of full or
    full at any write offset; the batch is the other 1 to Q + 3 rows.
    d is 1 to 64 and entries are normals scaled by 10**k for k in
    [-5, 5], a tenth of them -0.0.
    """
    capacity = draw(st.integers(0, 9))
    prefill, batch, d = draw(st.integers(0, 2 * capacity)), draw(st.integers(1, capacity + 3)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = prefill + batch
    values = rng.normal(size=(2, n, d)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(2, n, d))
    values[rng.random((2, n, d)) < 0.1] = -0.0
    return capacity, prefill, values[0], rng.integers(0, 20, size=n), values[1]


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def random_instance(rng, batch=3, dim=4, classes=3):
    X = rng.normal(size=(batch, dim)) * rng.uniform(0.5, 2.0)
    W = rng.normal(size=(dim, classes))
    labels = rng.integers(0, classes, size=batch)
    return X, W, labels


class TestMarginConfig:
    def test_family_validated(self):
        with pytest.raises(ConfigError):
            MarginConfig(family="softmax")

    def test_sphereface_margin_must_be_small_integer(self):
        MarginConfig(family="sphereface", m=2.0)
        with pytest.raises(ConfigError):
            MarginConfig(family="sphereface", m=1.5)
        with pytest.raises(ConfigError):
            MarginConfig(family="sphereface", m=0.0)
        with pytest.raises(ConfigError):
            MarginConfig(family="sphereface", m=5.0)

    def test_additive_margin_range(self):
        MarginConfig(family="cosface", m=0.0)
        MarginConfig(family="arcface", m=1.0)
        with pytest.raises(ConfigError):
            MarginConfig(family="cosface", m=1.2)
        with pytest.raises(ConfigError):
            MarginConfig(family="arcface", m=-0.1)

    def test_scale_positive(self):
        with pytest.raises(ConfigError):
            MarginConfig(family="cce", s=0.0)

    @pytest.mark.parametrize("family", ["cce", "sphereface", "cosface", "arcface", "broadface"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_margin_and_scale_rejected(self, family, value):
        with pytest.raises(ConfigError):
            MarginConfig.for_family(family, m=value)
        with pytest.raises(ConfigError):
            MarginConfig.for_family(family, s=value)

    def test_queue_capacity_only_for_broadface(self):
        MarginConfig(family="broadface", m=0.5, queue_capacity=16)
        with pytest.raises(ConfigError):
            MarginConfig(family="arcface", m=0.5, queue_capacity=16)
        with pytest.raises(ConfigError):
            MarginConfig(family="broadface", m=0.5, queue_capacity=-1)
        with pytest.raises(ConfigError, match="queue_capacity must be an integer"):
            MarginConfig(family="broadface", m=0.5, queue_capacity=1.5)
        with pytest.raises(ConfigError, match="queue_capacity must be an integer"):
            MarginConfig.for_family("broadface", queue_capacity=1.5)

    @pytest.mark.parametrize("field, value, message", [
        ("m", "0.35", "m must be a real number"),
        ("m", None, "m must be a real number"),
        ("s", True, "s must be a real number"),
        ("use_monotone_psi", "no", "use_monotone_psi must be a bool"),
        ("use_monotone_psi", 0, "use_monotone_psi must be a bool"),
    ])
    def test_field_types_checked_at_construction(self, field, value, message):
        """A string psi flag once selected the monotone psi; a string margin was a bare TypeError."""
        with pytest.raises(ConfigError, match=message):
            MarginConfig(**dict({"family": "sphereface", "m": 2.0}, **{field: value}))

    @pytest.mark.parametrize("field", ["m", "s"])
    @pytest.mark.parametrize("value", [10**400, -10**400, 10**5000], ids=["1e400", "-1e400", "1e5000"])
    def test_integer_too_large_for_a_float_rejected(self, field, value):
        """m was a bare TypeError; s constructed, then head_forward raised a bare OverflowError."""
        with pytest.raises(ConfigError, match=f"{field} must fit a float64"):
            MarginConfig(**{"family": "cosface", field: value})

    def test_numpy_scalars_stored_as_python_values(self):
        cfg = MarginConfig("sphereface", m=np.int64(3), s=np.float32(8.0), use_monotone_psi=np.False_)
        assert [type(v) for v in (cfg.m, cfg.s, cfg.use_monotone_psi)] == [int, float, bool]
        assert cfg == MarginConfig("sphereface", m=3, s=8.0, use_monotone_psi=False)

    def test_for_family_defaults(self):
        assert MarginConfig.for_family("sphereface").m == 2.0
        assert MarginConfig.for_family("cosface").m == 0.35
        assert MarginConfig.for_family("arcface").m == 0.5
        assert MarginConfig.for_family("broadface").m == 0.5
        assert MarginConfig.for_family("broadface").queue_capacity == 256
        assert MarginConfig.for_family("cosface").queue_capacity == 0
        assert MarginConfig.for_family("arcface", m=0.2, s=4.0).s == 4.0


class TestCosineLogits:
    def test_axis_aligned(self):
        w = HeadWeights(Tensor(np.eye(2)))
        logits = cosine_logits(Tensor([[1.0, 0.0]]), w)
        assert_array_equal(logits.data, [[1.0, 0.0]])

    def test_parallel_and_orthogonal(self):
        w = HeadWeights(Tensor(np.array([[2.0, 0.0], [0.0, 3.0]])))
        logits = cosine_logits(Tensor([[5.0, 0.0]]), w)
        assert logits.data[0, 0] == 1.0
        assert logits.data[0, 1] == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            X, W, _ = random_instance(rng, batch=4, dim=5, classes=3)
            ours = cosine_logits(Tensor(X), HeadWeights(Tensor(W))).data
            assert_allclose(ours, oracle_cosine_logits(X, W), rtol=0, atol=1e-14)

    def test_range_clamped(self):
        rng = np.random.default_rng(43)
        X, W, _ = random_instance(rng, batch=50, dim=3, classes=4)
        logits = cosine_logits(Tensor(X), HeadWeights(Tensor(W))).data
        assert np.all(logits >= -1.0) and np.all(logits <= 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(44)
        X, W, _ = random_instance(rng)
        w = HeadWeights(Tensor(W))
        base = cosine_logits(Tensor(X), w).data
        for c in (1e-3, 0.5, 7.0, 1e3):
            scaled = cosine_logits(Tensor(c * X), w).data
            assert_allclose(scaled, base, rtol=0, atol=1e-12)

    def test_zero_norm_rejected(self):
        w = HeadWeights(Tensor(np.eye(2)))
        with pytest.raises(DegenerateInputError):
            cosine_logits(Tensor([[0.0, 0.0]]), w)
        bad_w = HeadWeights(Tensor(np.array([[1.0, 0.0], [0.0, 0.0]])))
        with pytest.raises(DegenerateInputError):
            cosine_logits(Tensor([[1.0, 1.0]]), bad_w)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("rows, error, message", [
        ([[np.nan, 1.0], [0.0, 0.0]], DomainError, "^thing: non-finite entries$"),
        ([[1e200, 1.0], [0.0, 0.0]], DomainError, "^thing: squared norm overflows float64$"),
        ([[0.0, 0.0]], DegenerateInputError, "^zero-norm thing cannot be normalized$"),
    ])
    def test_norm_errors_come_in_order(self, axis, rows, error, message):
        """A non-finite entry, then an overflowing norm, then a zero norm, with no warning on the way."""
        t = np.array(rows) if axis == 1 else np.array(rows).T
        with pytest.raises(error, match=message):
            _norms(t, axis, "thing")

    @pytest.mark.filterwarnings("error")
    def test_norms_of_no_columns_are_empty(self):
        assert _norms(np.empty((3, 0)), 0, "weight column").shape == (1, 0)

    def test_dim_mismatch(self):
        """Checked by ``head_forward``, the cosines' one caller, for every family."""
        for family in ("cce", "sphereface", "cosface", "arcface", "broadface"):
            with pytest.raises(ShapeError):
                head_forward(Tensor([[1.0, 2.0, 3.0]]), HeadWeights(Tensor(np.eye(2))),
                             MarginConfig.for_family(family), [0])


class TestCceLoss:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 5, 10):
            loss = cce_loss(Tensor(np.zeros((3, c))), [0] * 3)
            assert loss.item() == pytest.approx(np.log(c), abs=1e-15)

    def test_saturated_logits_no_overflow(self):
        loss = cce_loss(Tensor([[1000.0, 0.0]]), [0])
        assert loss.item() == 0.0
        loss = cce_loss(Tensor([[1e4, -1e4]]), [1])
        assert np.isfinite(loss.item())

    def test_frozen_three_logit_example(self):
        loss = cce_loss(Tensor([[1.0, 2.0, 3.0]]), [2])
        assert loss.item() == pytest.approx(0.4076059644443804, abs=1e-15)

    def test_matches_oracle(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            logits = rng.normal(size=(4, 5)) * 3.0
            labels = rng.integers(0, 5, size=4)
            assert cce_loss(Tensor(logits), labels).item() == pytest.approx(
                oracle_cce(logits, labels), abs=1e-13
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            logits = rng.normal(size=(3, 4)) * 10.0
            assert cce_loss(Tensor(logits), rng.integers(0, 4, size=3)).item() >= 0.0

    def test_label_validation(self):
        with pytest.raises(LabelError):
            cce_loss(Tensor([[0.0, 0.0]]), [2])
        with pytest.raises(LabelError):
            cce_loss(Tensor([[0.0, 0.0]]), [-1])
        with pytest.raises(LabelError):
            cce_loss(Tensor([[0.0, 0.0]]), [0.5])
        with pytest.raises(ShapeError):
            cce_loss(Tensor([[0.0, 0.0]]), [0, 1])


class TestSpherefaceLoss:
    def test_frozen_worked_example(self):
        # x = (2, 0), target angle 0, m = 2, literal psi:
        # -log(e^2 / (e^2 + e^0)), up to the acos clamp's 1e-12 nudge
        w = HeadWeights(Tensor(np.eye(2)))
        cfg = MarginConfig(family="sphereface", m=2.0, use_monotone_psi=False)
        loss = head_forward(Tensor([[2.0, 0.0]]), w, cfg, [0])
        assert loss.item() == pytest.approx(0.12692801104297252, abs=1e-11)
        assert loss.item() == pytest.approx(0.12692801104392604, abs=1e-14)

    def test_m1_reduces_to_cce_on_norm_scaled_cosines(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            X, W, labels = random_instance(rng)
            w = HeadWeights(Tensor(W))
            cfg = MarginConfig(family="sphereface", m=1.0)
            ours = head_forward(Tensor(X), w, cfg, labels).item()
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            ref = cce_loss(Tensor(norms * cosine_logits(Tensor(X), w).data), labels).item()
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_matches_oracle_both_psi_forms(self):
        rng = np.random.default_rng(48)
        for _ in range(20):
            X, W, labels = random_instance(rng, batch=4, dim=3, classes=4)
            w = HeadWeights(Tensor(W))
            for m in (2.0, 3.0, 4.0):
                for monotone in (True, False):
                    cfg = MarginConfig(family="sphereface", m=m, use_monotone_psi=monotone)
                    ours = head_forward(Tensor(X), w, cfg, labels).item()
                    ref = oracle_sphereface(X, W, int(m), labels, use_monotone_psi=monotone)
                    assert ours == pytest.approx(ref, abs=1e-12)

    def test_monotone_psi_decreases_in_theta(self):
        # psi must fall as the target angle grows, across the kink at pi/m;
        # the competitor class sits on an orthogonal axis so its cosine
        # stays 0 and the loss isolates the target curve
        W = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        w = HeadWeights(Tensor(W))
        cfg = MarginConfig(family="sphereface", m=2.0, use_monotone_psi=True)
        losses = []
        for angle in np.linspace(0.1, np.pi - 0.1, 30):
            x = np.array([[np.cos(angle), np.sin(angle), 0.0]]) * 2.0
            losses.append(head_forward(Tensor(x), w, cfg, [0]).item())
        assert np.all(np.diff(losses) > 0.0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(m=st.sampled_from([2, 3, 4]), thetas=st.lists(st.floats(1e-5, np.pi - 1e-5), min_size=2, max_size=2))
    def test_monotone_psi_strictly_decreasing_through_the_swap(self, m, thetas):
        # the swap node's target entry is psi(m * theta) of the target
        # cosine; a gap of 1e-4 keeps the flat tangents where the pieces
        # meet (m * theta = k pi) above rounding
        small, large = sorted(thetas)
        assume(large - small >= 1e-4)
        cfg = MarginConfig(family="sphereface", m=m, use_monotone_psi=True)
        cosines = Tensor([[np.cos(small), 0.0], [np.cos(large), 0.0]])
        psi = swap_target(cosines, np.array([[1.0, 0.0], [1.0, 0.0]]), cfg).data[:, 0]
        assert psi[0] > psi[1]

    def test_literal_psi_not_monotone_for_m2(self):
        # the bare cos(m * theta) target curve turns back up past theta = pi/2
        W = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        w = HeadWeights(Tensor(W))
        cfg = MarginConfig(family="sphereface", m=2.0, use_monotone_psi=False)
        losses = []
        for angle in np.linspace(0.1, np.pi - 0.1, 30):
            x = np.array([[np.cos(angle), np.sin(angle), 0.0]]) * 2.0
            losses.append(head_forward(Tensor(x), w, cfg, [0]).item())
        diffs = np.diff(losses)
        assert np.any(diffs > 0.0) and np.any(diffs < 0.0)


class TestCosfaceLoss:
    def test_frozen_worked_example(self):
        # cos theta = (1, 0), label 0, s = 4, m = 0.35:
        # -log(e^{4 * 0.65} / (e^{2.6} + e^0)) = log1p(e^{-2.6})
        w = HeadWeights(Tensor(np.eye(2)))
        cfg = MarginConfig(family="cosface", m=0.35, s=4.0)
        loss = head_forward(Tensor([[1.0, 0.0]]), w, cfg, [0])
        assert loss.item() == pytest.approx(0.07164469196766982, abs=1e-14)

    def test_m0_reduces_to_cce_on_scaled_cosines(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            X, W, labels = random_instance(rng)
            w = HeadWeights(Tensor(W))
            cfg = MarginConfig(family="cosface", m=0.0, s=8.0)
            ours = head_forward(Tensor(X), w, cfg, labels).item()
            ref = cce_loss(mul(cosine_logits(Tensor(X), w), 8.0), labels).item()
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            X, W, labels = random_instance(rng, batch=5, dim=4, classes=3)
            cfg = MarginConfig(family="cosface", m=0.4, s=6.0)
            ours = head_forward(Tensor(X), HeadWeights(Tensor(W)), cfg, labels).item()
            assert ours == pytest.approx(oracle_cosface(X, W, 6.0, 0.4, labels), abs=1e-12)

    def test_loss_strictly_increases_with_margin(self):
        rng = np.random.default_rng(51)
        X, W, labels = random_instance(rng)
        w = HeadWeights(Tensor(W))
        losses = [
            head_forward(Tensor(X), w, MarginConfig(family="cosface", m=m, s=8.0), labels).item()
            for m in (0.0, 0.1, 0.25, 0.5, 0.9)
        ]
        assert np.all(np.diff(losses) > 0.0)


class TestArcfaceLoss:
    def test_frozen_worked_example(self):
        # target angle pi/3, margin pi/6, s = 1, other cosine 0:
        # target logit cos(pi/2) = 0 so the loss is exactly ln 2
        x = np.array([[0.5, np.sqrt(3.0) / 2.0, 0.0]])
        W = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        cfg = MarginConfig(family="arcface", m=np.pi / 6.0, s=1.0)
        loss = head_forward(Tensor(x), HeadWeights(Tensor(W)), cfg, [0])
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-14)

    def test_m0_reduces_to_cce_on_scaled_cosines(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            X, W, labels = random_instance(rng)
            w = HeadWeights(Tensor(W))
            ours = head_forward(Tensor(X), w, MarginConfig(family="arcface", m=0.0, s=8.0), labels).item()
            ref = cce_loss(mul(cosine_logits(Tensor(X), w), 8.0), labels).item()
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            X, W, labels = random_instance(rng, batch=4, dim=5, classes=4)
            cfg = MarginConfig(family="arcface", m=0.5, s=8.0)
            ours = head_forward(Tensor(X), HeadWeights(Tensor(W)), cfg, labels).item()
            assert ours == pytest.approx(oracle_arcface(X, W, 8.0, 0.5, labels), abs=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(m=st.sampled_from([0.1, 0.5, 1.0]), thetas=st.lists(st.floats(1e-5, np.pi - 1e-5), min_size=2, max_size=2))
    @example(m=0.5, thetas=[np.pi - 0.5 - 1e-3, np.pi - 0.5 + 1e-3])
    def test_target_strictly_decreasing_through_the_fallback(self, m, thetas):
        # cos(theta + m) turns back up past theta = pi - m; the fallback
        # t - m sin m steps down there by cos m + m sin m - 1 > 0 and keeps
        # falling, so the target entry falls over all of [0, pi]
        small, large = sorted(thetas)
        assume(large - small >= 1e-4)
        cfg = MarginConfig(family="arcface", m=m, s=1.0)
        cosines = Tensor([[np.cos(small), 0.0], [np.cos(large), 0.0]])
        psi = swap_target(cosines, np.array([[1.0, 0.0], [1.0, 0.0]]), cfg).data[:, 0]
        assert psi[0] > psi[1]

    def test_large_scale_no_overflow(self):
        rng = np.random.default_rng(54)
        X, W, labels = random_instance(rng)
        cfg = MarginConfig(family="arcface", m=0.5, s=1e4)
        loss = head_forward(Tensor(X), HeadWeights(Tensor(W)), cfg, labels)
        assert np.isfinite(loss.item()) and loss.item() >= 0.0


class TestCompensate:
    def test_identity_when_weights_static(self):
        entry = QueueEntry(np.array([1.0, 2.0]), 0, np.array([0.5, 0.5]))
        assert_array_equal(compensate(entry, np.array([0.5, 0.5])), [1.0, 2.0])

    def test_frozen_rotation_example(self):
        # unit embedding, weight swings (1,0) -> (0,1): b* follows exactly
        entry = QueueEntry(np.array([1.0, 0.0]), 0, np.array([1.0, 0.0]))
        assert_array_equal(compensate(entry, np.array([0.0, 1.0])), [0.0, 1.0])

    def test_correction_scales_with_embedding_norm(self):
        rng = np.random.default_rng(55)
        b = rng.normal(size=3)
        snap = rng.normal(size=3)
        cur = rng.normal(size=3)
        base = compensate(QueueEntry(b, 0, snap), cur) - b
        for c in (2.0, 5.0):
            scaled = compensate(QueueEntry(c * b, 0, snap), cur) - c * b
            assert_allclose(scaled, c * base, rtol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            b, snap, cur = rng.normal(size=(3, 4))
            ours = compensate(QueueEntry(b, 0, snap), cur)
            assert_allclose(ours, oracle_compensate(b, snap, cur), rtol=0, atol=1e-15)

    def test_zero_snapshot_rejected(self):
        entry = QueueEntry(np.array([1.0, 0.0]), 0, np.zeros(2))
        with pytest.raises(DegenerateInputError):
            compensate(entry, np.array([1.0, 0.0]))

    def test_block_matches_reference_per_entry(self):
        rng = np.random.default_rng(58)
        W = rng.normal(size=(4, 3))
        q = EmbeddingQueue(6)
        for _ in range(9):  # wrapped, so the block must read oldest-first
            q.push(rng.normal(size=4), int(rng.integers(0, 3)), rng.normal(size=4))
        block, onehot = compensated_block(q, HeadWeights(Tensor(W)))
        emb, labels, snaps = q.stacked()
        assert_array_equal(onehot.argmax(axis=1), labels)
        for row, b, y, snap in zip(block.data, emb, labels, snaps):
            assert_allclose(row, compensate(QueueEntry(b, y, snap), W[:, y]), rtol=1e-12, atol=1e-15)

    def test_block_rejects_zero_snapshot(self):
        q = EmbeddingQueue(2)
        q.push(np.array([1.0, 0.0]), 0, np.zeros(2))
        with pytest.raises(DegenerateInputError):
            compensated_block(q, HeadWeights(Tensor(np.eye(2))))


class TestEmbeddingQueue:
    def test_fifo_eviction(self):
        q = EmbeddingQueue(capacity=3)
        for i in range(5):
            q.push(np.array([float(i), 0.0]), i % 2, np.array([1.0, 0.0]))
        assert len(q) == 3
        emb, labels, _ = q.stacked()
        assert emb[:, 0].tolist() == [2.0, 3.0, 4.0]
        assert labels.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("capacity", [2.5, 2.0, True, "4", None])
    def test_capacity_that_is_not_an_integer_is_a_config_error(self, capacity):
        with pytest.raises(ConfigError, match="queue_capacity must be an integer"):
            EmbeddingQueue(capacity)

    def test_numpy_integer_capacity(self):
        assert EmbeddingQueue(np.int64(3)).capacity == 3 and type(EmbeddingQueue(np.int64(3)).capacity) is int

    @pytest.mark.filterwarnings("error")
    def test_array_likes_are_pushed_as_arrays(self):
        lists, arrays = EmbeddingQueue(3), EmbeddingQueue(3)
        lists.push_batch([[1.0, 2.0], [3, 4]], [0, 1], [[1.0, 1.0], [2.0, 0.5]])
        lists.push([5.0, 6.0], 2, (1.0, 3.0))
        arrays.push_batch(np.array([[1.0, 2.0], [3.0, 4.0]]), [0, 1], np.array([[1.0, 1.0], [2.0, 0.5]]))
        arrays.push(np.array([5.0, 6.0]), 2, np.array([1.0, 3.0]))
        for ours, ref in zip(lists.stacked() + lists.stacked_norms(), arrays.stacked() + arrays.stacked_norms()):
            assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("embeddings, snapshots", [
        ([[1.0, 2.0], [3.0]], [[1.0, 1.0], [1.0, 1.0]]),  # ragged
        ([["a", "b"], ["c", "d"]], [[1.0, 1.0], [1.0, 1.0]]),
        ([[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0]),  # snapshots not [B, d]
        ([1.0, 2.0], [[1.0, 1.0]]),
    ])
    def test_bad_array_likes_are_a_state_error(self, embeddings, snapshots):
        q = EmbeddingQueue(3)
        with pytest.raises(StateError):
            q.push_batch(embeddings, [0, 1], snapshots)
        assert len(q) == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("embedding, snapshot", [
        ([1.0, [2.0]], [1.0, 1.0]),  # ragged
        (["a", "b"], [1.0, 1.0]),
        ([1.0, 2.0], [1.0]),  # not of the embedding's shape
        (1.0, 1.0),  # not a row
    ])
    def test_a_bad_array_like_row_is_a_state_error(self, embedding, snapshot):
        q = EmbeddingQueue(3)
        with pytest.raises(StateError):
            q.push(embedding, 0, snapshot)
        assert len(q) == 0

    def test_capacity_zero_stays_empty(self):
        q = EmbeddingQueue(capacity=0)
        q.push(np.array([1.0]), 0, np.array([1.0]))
        assert len(q) == 0

    def test_length_is_min_of_pushed_and_capacity(self):
        for capacity in (2, 5, 50):
            q = EmbeddingQueue(capacity)
            for step in range(1, 8):
                for _ in range(3):  # batch of 3 per step
                    q.push(np.ones(2), 0, np.ones(2))
                assert len(q) == min(step * 3, capacity)

    def test_entries_are_copies(self):
        q = EmbeddingQueue(capacity=2)
        emb = np.array([1.0, 2.0])
        q.push(emb, 0, np.array([1.0, 0.0]))
        emb[0] = 99.0
        assert q.stacked()[0][0, 0] == 1.0

    def test_dimension_mismatch_rejected(self):
        q = EmbeddingQueue(capacity=4)
        q.push(np.ones(2), 0, np.ones(2))
        with pytest.raises(StateError):
            q.push(np.ones(3), 0, np.ones(3))

    @pytest.mark.parametrize("embedding, snapshot", [
        (np.ones((1, 2)), np.ones((1, 2))),  # not 1-D
        (np.ones(3), np.ones(3)),  # not the queue's d
        (np.ones(2), np.ones(1)),  # would broadcast into the row
        (np.ones(2), np.ones(3)),
        (np.ones(2), np.ones((2, 1))),
    ])
    def test_bad_row_rejected_before_any_write(self, embedding, snapshot):
        q = EmbeddingQueue(capacity=2)
        for i in range(3):  # wrapped: the next push would overwrite a live row
            q.push(np.array([float(i), 1.0]), i, np.array([1.0, float(i)]))
        before = q.stacked()
        with pytest.raises(StateError):
            q.push(embedding, 1, snapshot)
        assert len(q) == 2
        for held, now in zip(before, q.stacked()):
            assert_array_equal(held, now)

    def test_capacity_zero_rejects_a_bad_row_and_stores_nothing(self):
        q = EmbeddingQueue(capacity=0)
        q.push(np.ones(2), 0, np.ones(2))
        q.push(np.ones(5), 0, np.ones(5))  # capacity 0 never fixes d
        with pytest.raises(StateError):
            q.push(np.ones(2), 0, np.ones(1))
        assert len(q) == 0
        assert [a.shape[0] for a in q.stacked()] == [0, 0, 0]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=queue_pushes())
    @example(case=(1, np.array([[1.0], [-0.0], [5e-324]]), np.array([3, 0, 7]), np.array([[2.0], [1.0], [-1.0]])))
    @example(case=(4, np.arange(8.0).reshape(4, 2), np.arange(4), np.ones((4, 2))))
    def test_ring_matches_deque_oracle_after_every_push(self, case):
        capacity, embeddings, labels, snapshots = case
        ring, oracle = EmbeddingQueue(capacity), DequeQueue(capacity)
        for row in zip(embeddings, labels, snapshots):
            ring.push(*row)
            oracle.push(*row)
            assert len(ring) == len(oracle)
            got = ring.stacked()
            if len(oracle):
                for ours, ref in zip(got, oracle.stacked()):
                    assert ours.dtype == ref.dtype and ours.shape == ref.shape
                    assert_array_equal(ours.view(np.int64), ref.view(np.int64))
            else:
                assert [a.shape[0] for a in got] == [0, 0, 0]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=queue_batches())
    @example(case=(0, 0, np.ones((3, 2)), np.arange(3), np.ones((3, 2))))
    @example(case=(3, 2, np.arange(18.0).reshape(9, 2), np.arange(9), np.ones((9, 2))))
    def test_push_batch_is_single_pushes_and_stores_their_norms(self, case):
        """One ``push_batch`` holds the bits of B ``push`` calls and of the deque oracle.

        The stored norms are the bits of ``np.linalg.norm`` over the
        stacked rows. The batch's snapshots come as a transposed view, as
        ``head_forward`` passes W's columns.
        """
        capacity, prefill, embeddings, labels, snapshots = case
        batched, single, oracle = EmbeddingQueue(capacity), EmbeddingQueue(capacity), DequeQueue(capacity)
        batched.push_batch(embeddings[:prefill], labels[:prefill], snapshots[:prefill])
        batched.push_batch(embeddings[prefill:], labels[prefill:], np.asfortranarray(snapshots[prefill:]))
        for row in zip(embeddings, labels, snapshots):
            single.push(*row)
            oracle.push(*row)
        assert len(batched) == len(single) == len(oracle) == min(capacity, len(labels))
        got = batched.stacked()
        if not len(oracle):
            assert [a.shape[0] for a in got + batched.stacked_norms()] == [0] * 5
            return
        for ours, one_by_one, ref in zip(got, single.stacked(), oracle.stacked()):
            assert ours.dtype == ref.dtype and ours.shape == ref.shape
            assert_array_equal(bits(ours), bits(ref))
            assert_array_equal(bits(one_by_one), bits(ref))
        for stored, one_by_one, rows in zip(batched.stacked_norms(), single.stacked_norms(), (got[0], got[2])):
            assert_array_equal(bits(stored), bits(np.linalg.norm(rows, axis=1)))
            assert_array_equal(bits(one_by_one), bits(stored))

    @pytest.mark.parametrize("embeddings, labels, snapshots", [
        (np.ones(2), [0], np.ones(2)),  # not 2-D
        (np.ones((1, 1, 2)), [0], np.ones((1, 1, 2))),
        (np.ones((2, 2)), [0, 1], np.ones((2, 1))),  # snapshots of another shape
        (np.ones((2, 2)), [0, 1], np.ones((3, 2))),
        (np.ones((2, 2)), [0], np.ones((2, 2))),  # a label count that is not B
        (np.ones((2, 2)), [[0, 1]], np.ones((2, 2))),
        (np.ones((2, 3)), [0, 1], np.ones((2, 3))),  # not the queue's d
        (np.ones((2, 2)), [1.7, -2.2], np.ones((2, 2))),  # labels that are not non-negative integers
        (np.ones((2, 2)), [1, -2], np.ones((2, 2))),
        (np.ones((2, 2)), [np.nan, 1.0], np.ones((2, 2))),
    ])
    def test_bad_batch_rejected_before_any_write(self, embeddings, labels, snapshots):
        q = EmbeddingQueue(capacity=3)
        q.push_batch(np.arange(8.0).reshape(4, 2), [0, 1, 2, 3], np.ones((4, 2)))  # wrapped
        before = q.stacked() + q.stacked_norms()
        with pytest.raises(StateError):
            q.push_batch(embeddings, labels, snapshots)
        assert len(q) == 3
        for held, now in zip(before, q.stacked() + q.stacked_norms()):
            assert_array_equal(held, now)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("labels", [[1.7, -2.2], [1.7, 2.0], [np.inf, 1.0], ["1", "2"]])
    def test_labels_that_are_not_non_negative_integers_leave_the_queue_empty(self, labels):
        """1.7 is not class 1 and -2 is no class: the first push is refused, so d stays open."""
        q = EmbeddingQueue(capacity=4)
        with pytest.raises(StateError, match="^queue labels must (be integers|lie in \\[0, inf\\))"):
            q.push_batch(np.ones((2, 3)), labels, np.ones((2, 3)))
        assert len(q) == 0 and all(a.size == 0 for a in q.stacked() + q.stacked_norms())
        q.push_batch(np.ones((2, 2)), [1.0, 2.0], np.ones((2, 2)))
        assert q.stacked()[1].tolist() == [1, 2] and q.stacked()[1].dtype == np.int64

    def test_a_row_whose_norm_overflows_is_pushed_without_a_warning(self):
        """|x| near 1e200 squares past float64: the stored norm is inf, as the stacked rows' norm is.

        The block that reads the row has the inf ratio and the floats of
        norms taken over the stacked rows.
        """
        emb, snap = np.array([1e200, -3e199, 2.0]), np.array([0.5, 1.0, -2.0])
        q = EmbeddingQueue(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q.push(emb, 1, snap)
            q.push_batch(np.vstack([emb * 1e-200, emb]), [0, 1], np.vstack([snap, snap]))
        rows, labels, snaps = q.stacked()
        with np.errstate(over="ignore", invalid="ignore"):
            emb_norms = np.linalg.norm(rows, axis=1)
            assert_array_equal(q.stacked_norms()[0], emb_norms)
            assert emb_norms.tolist()[::2] == [np.inf, np.inf]
            W = np.random.default_rng(59).normal(size=(3, 2))
            ratios = (emb_norms / np.linalg.norm(snaps, axis=1))[:, None]
            onehot = np.eye(2)[labels]
            expected = (rows - ratios * snaps) + ratios * (onehot @ W.T)
            block, _ = compensated_block(q, HeadWeights(Tensor(W)))
        assert_array_equal(bits(block.data), bits(expected))
        assert not np.all(np.isfinite(block.data[0]))

    def test_fit_raises_before_an_overflowing_row_is_pushed(self):
        """A feature row near 1e200 ends fit with DomainError in the initial loss pass: no batch is pushed."""
        rng = np.random.default_rng(60)
        X = rng.normal(size=(12, 3))
        X[5] = 1e200
        ds = Dataset(X, np.arange(12) % 2, 2, "overflow")
        cfg = train.ModelConfig(feature_dim=3, margin=MarginConfig.for_family("broadface", queue_capacity=16),
                                encoder_layers=(4,), projection_enabled=False)
        model = train.build_model(cfg, 3, 2, seed=3)
        pushed = []
        real_push_batch = EmbeddingQueue.push_batch

        def recording(queue, embeddings, labels, snapshots):
            pushed.append(len(labels))
            real_push_batch(queue, embeddings, labels, snapshots)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(EmbeddingQueue, "push_batch", recording)
            with pytest.raises(DomainError, match="feature row: squared norm overflows"):
                train.fit(model, ds, train.OptimConfig(learning_rate=1e-3, epochs=3, batch_size=4))
        assert pushed == []

    def test_head_forward_pushes_once_per_batch(self):
        """Every batch is one ``push_batch``, never a ``push`` per row, B past Q included."""

        class SpyQueue(EmbeddingQueue):
            def __init__(self, capacity):
                super().__init__(capacity)
                self.calls = []

            def push(self, *row):
                self.calls.append("push")
                super().push(*row)

            def push_batch(self, *batch):
                self.calls.append("push_batch")
                super().push_batch(*batch)

        rng = np.random.default_rng(61)
        cfg = MarginConfig(family="broadface", m=0.5, s=8.0, queue_capacity=6)
        queue = SpyQueue(6)
        for batch in (3, 5, 9):
            X, W, labels = random_instance(rng, batch=batch)
            head_forward(Tensor(X), HeadWeights(Tensor(W)), cfg, labels, queue)
            broadface_step(Tensor(X), HeadWeights(Tensor(W)), cfg, labels, queue)
        assert queue.calls == ["push_batch"] * 6

    def test_stacked_arrays_survive_later_pushes(self):
        rng = np.random.default_rng(57)
        q = EmbeddingQueue(capacity=5)
        held = []
        for step in range(12):  # holds copies unwrapped, at capacity and wrapped
            q.push(rng.normal(size=3), step, rng.normal(size=3))
            arrays = q.stacked()
            held.append((arrays, [a.copy() for a in arrays]))
        for arrays, copies in held:
            for a, c in zip(arrays, copies):
                assert_array_equal(a, c)

    def test_stacked_arrays_are_read_only(self):
        q = EmbeddingQueue(capacity=3)
        for step in range(2):  # empty, then holding rows
            for a in q.stacked() + q.stacked_norms():
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0
            q.push_batch(np.ones((2, 2)), [0, 1], np.ones((2, 2)))

    @pytest.mark.parametrize("batch", [2, 7])  # into a full queue of 4, and more rows than it holds
    def test_arrays_held_before_a_push_keep_their_bits(self, batch):
        rng = np.random.default_rng(62)
        q = EmbeddingQueue(capacity=4)
        q.push_batch(rng.normal(size=(4, 3)), [0, 1, 2, 3], rng.normal(size=(4, 3)))
        held = q.stacked() + q.stacked_norms()
        copies = [bits(a).copy() for a in held]
        q.push_batch(rng.normal(size=(batch, 3)), np.arange(batch), rng.normal(size=(batch, 3)))
        assert len(q) == 4
        for a, c in zip(held, copies):
            assert_array_equal(bits(a), c)
        assert not np.array_equal(q.stacked()[0], held[0])


class TestBroadfaceStep:
    def test_empty_queue_equals_arcface(self):
        rng = np.random.default_rng(57)
        X, W, labels = random_instance(rng)
        w = HeadWeights(Tensor(W))
        cfg = MarginConfig(family="broadface", m=0.5, s=8.0, queue_capacity=16)
        queue = EmbeddingQueue(16)
        loss = head_forward(Tensor(X), w, cfg, labels, queue)
        ref = head_forward(Tensor(X), w, MarginConfig(family="arcface", m=0.5, s=8.0), labels)
        assert loss.item() == pytest.approx(ref.item(), abs=1e-12)
        assert len(queue) == len(labels)

    def test_capacity_zero_equals_arcface_always(self):
        rng = np.random.default_rng(58)
        cfg = MarginConfig(family="broadface", m=0.3, s=4.0, queue_capacity=0)
        queue = EmbeddingQueue(0)
        for _ in range(3):
            X, W, labels = random_instance(rng)
            w = HeadWeights(Tensor(W))
            loss = head_forward(Tensor(X), w, cfg, labels, queue)
            ref = head_forward(Tensor(X), w, MarginConfig(family="arcface", m=0.3, s=4.0), labels)
            assert loss.item() == pytest.approx(ref.item(), abs=1e-12)
            assert len(queue) == 0

    def test_two_step_frozen_weights_equals_joint_arcface(self):
        # with W unchanged between steps, compensation is the identity, so
        # step 2 must equal plain arcface over both batches pooled
        rng = np.random.default_rng(59)
        X1, W, labels1 = random_instance(rng, batch=3)
        X2, _, labels2 = random_instance(rng, batch=4)
        w = HeadWeights(Tensor(W))
        cfg = MarginConfig(family="broadface", m=0.5, s=8.0, queue_capacity=32)
        queue = EmbeddingQueue(32)
        head_forward(Tensor(X1), w, cfg, labels1, queue)
        loss2 = head_forward(Tensor(X2), w, cfg, labels2, queue)
        pooled = np.vstack([X2, X1])
        pooled_labels = np.concatenate([labels2, labels1])
        ref = head_forward(Tensor(pooled), w, MarginConfig(family="arcface", m=0.5, s=8.0), pooled_labels)
        assert loss2.item() == pytest.approx(ref.item(), abs=1e-12)

    def test_matches_oracle_after_weight_drift(self):
        rng = np.random.default_rng(60)
        X1, W1, labels1 = random_instance(rng, batch=3, dim=4, classes=3)
        X2, W2, labels2 = random_instance(rng, batch=3, dim=4, classes=3)
        cfg = MarginConfig(family="broadface", m=0.4, s=6.0, queue_capacity=16)
        queue = EmbeddingQueue(16)
        w1 = HeadWeights(Tensor(W1))
        head_forward(Tensor(X1), w1, cfg, labels1, queue)
        w2 = HeadWeights(Tensor(W2))  # weights moved between steps
        loss = head_forward(Tensor(X2), w2, cfg, labels2, queue)
        entries = list(zip(*queue.stacked()))[:3]
        ref = oracle_broadface(X2, W2, 6.0, 0.4, labels2, entries)
        assert loss.item() == pytest.approx(ref, abs=1e-12)

    def test_queue_gradient_reaches_only_weights(self):
        rng = np.random.default_rng(61)
        X1, W, labels1 = random_instance(rng)
        X2, _, labels2 = random_instance(rng)
        w = HeadWeights(W)  # raw array promotes to a trainable tensor
        cfg = MarginConfig(family="broadface", m=0.5, s=8.0, queue_capacity=16)
        queue = EmbeddingQueue(16)
        feat1 = Tensor(X1, requires_grad=True)
        loss1 = head_forward(feat1, w, cfg, labels1, queue)
        backward(loss1)
        w.W.zero_grad()
        feat1.zero_grad()
        feat2 = Tensor(X2, requires_grad=True)
        loss2 = head_forward(feat2, w, cfg, labels2, queue)
        backward(loss2)
        assert w.W.grad is not None and np.any(w.W.grad != 0.0)
        assert feat2.grad is not None
        assert feat1.grad is None  # past batch stays out of the tape

    def test_queue_dim_mismatch_rejected(self):
        rng = np.random.default_rng(62)
        X, W, labels = random_instance(rng, dim=4)
        cfg = MarginConfig(family="broadface", m=0.5, queue_capacity=8)
        queue = EmbeddingQueue(8)
        head_forward(Tensor(X), HeadWeights(Tensor(W)), cfg, labels, queue)
        W5 = np.random.default_rng(0).normal(size=(5, 3))
        X5 = np.random.default_rng(1).normal(size=(2, 5))
        with pytest.raises(StateError):
            head_forward(Tensor(X5), HeadWeights(Tensor(W5)), cfg, [0, 1], queue)


def filled_queue(rng, capacity, fill, dim, classes):
    """A queue of ``capacity`` holding ``fill`` rows pushed in batches of up to 5, snapshots of a drifting W."""
    queue = EmbeddingQueue(capacity)
    while fill > 0:
        n = min(fill, 5)
        queue.push_batch(rng.normal(size=(n, dim)) * rng.uniform(0.5, 3.0), rng.integers(0, classes, size=n),
                         rng.normal(size=(n, dim)))
        fill -= n
    return queue


def queued_step(X, W, cfg, labels, queue):
    """One head_forward with a queue and its backward: loss, gradients of X and W."""
    f, w = Tensor(X, requires_grad=True), Tensor(W, requires_grad=True)
    loss = head_forward(f, HeadWeights(w), cfg, labels, queue)
    backward(loss)
    return loss.item(), f.grad, w.grad


class TestOnePassBroadface:
    """A queued step stacks the batch and the block into one ArcFace pass and keeps every bit."""

    # (capacity, rows queued before the step): part full, full, and smaller than most batches
    QUEUES = [(48, 30), (48, 48), (4, 4)]

    @pytest.mark.parametrize("classes", [2, 9])
    @pytest.mark.parametrize("m", [0.0, 0.5])
    @pytest.mark.parametrize("batch", [1, 7, 23, 33])
    def test_matches_the_two_pass_head_bit_for_bit(self, batch, m, classes):
        """Loss, both gradients and the queue after the push, at sizes the goldens do not reach.

        One BLAS product over the stacked rows moves some rows' last bits;
        one sum over all rows moves the loss's.
        """
        cfg = MarginConfig(family="broadface", m=m, s=12.0, queue_capacity=48)
        for seed, (capacity, fill) in enumerate(self.QUEUES):
            for dim in (5, 17):
                rng = np.random.default_rng([batch, classes, int(m * 10), seed, dim])
                queue = filled_queue(rng, capacity, fill, dim, classes)
                X = rng.normal(size=(batch, dim)) * rng.uniform(0.5, 3.0)
                W = rng.normal(size=(dim, classes))
                labels = rng.integers(0, classes, size=batch)
                ref_loss, ref_gx, ref_gw, ref_queue = two_pass_broadface_step(X, W, cfg, labels, queue)
                loss, g_x, g_w = queued_step(X, W, cfg, labels, queue)
                assert loss.hex() == float(ref_loss).hex()
                assert g_x.tobytes() == ref_gx.tobytes() and g_w.tobytes() == ref_gw.tobytes()
                for ours, ref in zip(queue.stacked() + queue.stacked_norms(), ref_queue):
                    assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()

    @staticmethod
    def _queued(rng, dim=4, classes=3):
        queue = filled_queue(rng, 8, 8, dim, classes)
        return queue, rng.normal(size=(5, dim)), rng.normal(size=(dim, classes)), rng.integers(0, classes, size=5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, 1e200, np.inf])
    def test_a_bad_weight_column_is_a_weight_column_error(self, bad):
        """W feeds the block too, but its columns are checked before the block is built."""
        queue, X, W, labels = self._queued(np.random.default_rng(81))
        W[1, queue.stacked()[1][-1]] = bad  # a column the block gathers
        with pytest.raises(DomainError, match="^weight column: "):
            head_forward(Tensor(X), HeadWeights(Tensor(W)), MarginConfig.for_family("broadface"), labels, queue)
        assert len(queue) == 8

    @pytest.mark.filterwarnings("error")
    def test_batch_rows_are_checked_first(self):
        queue, X, W, labels = self._queued(np.random.default_rng(82))
        X[3] = 0.0
        W[0, 0] = np.nan
        with pytest.raises(DegenerateInputError, match="zero-norm feature row"):
            head_forward(Tensor(X), HeadWeights(Tensor(W)), MarginConfig.for_family("broadface"), labels, queue)
        X[3] = np.nan
        with pytest.raises(DomainError, match="^feature row: non-finite entries"):
            head_forward(Tensor(X), HeadWeights(Tensor(W)), MarginConfig.for_family("broadface"), labels, queue)

    @pytest.mark.filterwarnings("error")
    def test_a_zero_snapshot_still_raises_from_the_block(self):
        queue, X, W, labels = self._queued(np.random.default_rng(83))
        queue.push(np.ones(4), 1, np.zeros(4))
        with pytest.raises(DegenerateInputError, match="zero-norm snapshot"):
            head_forward(Tensor(X), HeadWeights(Tensor(W)), MarginConfig.for_family("broadface"), labels, queue)

    @pytest.mark.filterwarnings("error")
    def test_a_zero_block_row_is_a_feature_row_error(self):
        """A zero embedding has ratio 0, so its compensated row is zero and cannot be normalized."""
        queue, X, W, labels = self._queued(np.random.default_rng(84))
        queue.push(np.zeros(4), 0, np.ones(4))
        with pytest.raises(DegenerateInputError, match="zero-norm feature row"):
            head_forward(Tensor(X), HeadWeights(Tensor(W)), MarginConfig.for_family("broadface"), labels, queue)

    def test_one_pass_of_each_piece(self, monkeypatch):
        """A queued step swaps targets, takes the softmax-NLL and W's column norms once, not once per part."""
        calls = {"swap": 0, "nll": 0, "columns": 0}
        real_swap, real_nll, real_norms = heads._swap_target, heads._nll_sum, heads._norms

        def count(key, real):
            def counted(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            return counted

        def norms(t, axis, what):
            calls["columns"] += axis == 0
            return real_norms(t, axis, what)

        monkeypatch.setattr(heads, "_swap_target", count("swap", real_swap))
        monkeypatch.setattr(heads, "_nll_sum", count("nll", real_nll))
        monkeypatch.setattr(heads, "_norms", norms)
        queue, X, W, labels = self._queued(np.random.default_rng(85))
        queued_step(X, W, MarginConfig.for_family("broadface"), labels, queue)
        assert calls == {"swap": 1, "nll": 1, "columns": 1}


class TestHeadForward:
    def test_cce_uses_raw_linear_logits(self):
        rng = np.random.default_rng(63)
        X, W, labels = random_instance(rng)
        cfg = MarginConfig(family="cce")
        ours = head_forward(Tensor(X), HeadWeights(Tensor(W)), cfg, labels).item()
        assert ours == pytest.approx(oracle_cce(X @ W, labels), abs=1e-13)

    def test_broadface_without_queue_is_arcface(self):
        rng = np.random.default_rng(65)
        X, W, labels = random_instance(rng)
        w = HeadWeights(Tensor(W))
        cfg = MarginConfig(family="broadface", m=0.5, s=8.0, queue_capacity=8)
        ours = head_forward(Tensor(X), w, cfg, labels).item()
        ref = head_forward(Tensor(X), w, MarginConfig(family="arcface", m=0.5, s=8.0), labels).item()
        assert ours == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("family", ["sphereface", "cosface", "arcface", "broadface"])
    def test_one_pass_of_each_piece(self, family, monkeypatch):
        """Every angular family runs one pipeline: the cosines, the softmax-NLL and W's column norms once each."""
        calls = {"cosines": 0, "nll": 0, "columns": 0}
        real_cosines, real_nll, real_norms = heads._unit_cosines, heads._nll_sum, heads._norms

        def count(key, real):
            def counted(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            return counted

        def norms(t, axis, what):
            calls["columns"] += axis == 0
            return real_norms(t, axis, what)

        monkeypatch.setattr(heads, "_unit_cosines", count("cosines", real_cosines))
        monkeypatch.setattr(heads, "_nll_sum", count("nll", real_nll))
        monkeypatch.setattr(heads, "_norms", norms)
        rng = np.random.default_rng(86)
        X, W, labels = random_instance(rng, batch=5)
        queue = filled_queue(rng, 8, 8, 4, 3) if family == "broadface" else None
        queued_step(X, W, MarginConfig.for_family(family), labels, queue)
        assert calls == {"cosines": 1, "nll": 1, "columns": 1}

    def test_all_families_on_one_instance_match_oracles(self):
        rng = np.random.default_rng(66)
        X, W, labels = random_instance(rng, batch=4, dim=5, classes=4)
        w = HeadWeights(Tensor(W))
        checks = [
            (MarginConfig(family="cce"), oracle_cce(X @ W, labels)),
            (MarginConfig(family="sphereface", m=3.0), oracle_sphereface(X, W, 3, labels)),
            (MarginConfig(family="cosface", m=0.35, s=8.0), oracle_cosface(X, W, 8.0, 0.35, labels)),
            (MarginConfig(family="arcface", m=0.5, s=8.0), oracle_arcface(X, W, 8.0, 0.5, labels)),
            (MarginConfig(family="broadface", m=0.5, s=8.0), oracle_arcface(X, W, 8.0, 0.5, labels)),
        ]
        for cfg, expected in checks:
            assert head_forward(Tensor(X), w, cfg, labels).item() == pytest.approx(expected, abs=1e-12)


    def test_broadface_without_queue_is_arcface_bit_for_bit(self, monkeypatch):
        pushes = []
        monkeypatch.setattr(EmbeddingQueue, "push", lambda self, *entry: pushes.append(entry))
        rng = np.random.default_rng(67)
        X, W, labels = random_instance(rng, batch=5, dim=4, classes=3)
        results = []
        for cfg in (MarginConfig(family="broadface", m=0.5, s=8.0, queue_capacity=8),
                    MarginConfig(family="arcface", m=0.5, s=8.0)):
            f, w = Tensor(X, requires_grad=True), Tensor(W, requires_grad=True)
            loss = head_forward(f, HeadWeights(w), cfg, labels)
            backward(loss)
            results.append((loss.data, f.grad, w.grad))
        for broad, arc in zip(*results):
            assert_array_equal(np.asarray(broad).view(np.int64), np.asarray(arc).view(np.int64))
        assert pushes == []

    def test_broadface_with_queue_keeps_its_bits(self):
        """Loss and gradient bits of a second BroadFace step: the loss as the per-family code gave it, the gradients of the closed-form head."""
        rng = np.random.default_rng(2024)
        W = rng.normal(size=(5, 4))
        X1, X2 = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        y1, y2 = rng.integers(0, 4, size=6), rng.integers(0, 4, size=6)
        cfg = MarginConfig.for_family("broadface", queue_capacity=8)
        outcomes = []
        for step in (broadface_step, lambda *args: (head_forward(*args), None)):
            queue = EmbeddingQueue(8)
            step(Tensor(X1), HeadWeights(Tensor(W)), cfg, y1, queue)
            f, w = Tensor(X2, requires_grad=True), Tensor(W, requires_grad=True)
            loss, _ = step(f, HeadWeights(w), cfg, y2, queue)
            backward(loss)
            assert len(queue) == 8
            assert loss.item().hex() == "0x1.a41eae44cf168p+2"
            assert hashlib.sha256(w.grad.tobytes()).hexdigest()[:16] == "31d45db6cffc72e8"
            assert hashlib.sha256(f.grad.tobytes()).hexdigest()[:16] == "7f9694a8cb78ce72"
            outcomes.append(queue.stacked())
        for a, b in zip(*outcomes):
            assert_array_equal(a, b)

    # broadface_step is the one family alias left; the benchmark's replay imports it
    @pytest.mark.parametrize("alias, family", [(broadface_step, "broadface")])
    def test_aliases_reject_other_families(self, alias, family):
        rng = np.random.default_rng(68)
        X, W, labels = random_instance(rng)
        for other in ("cce", "sphereface", "cosface", "arcface", "broadface"):
            if other != family:
                with pytest.raises(ConfigError, match=family):
                    alias(Tensor(X), HeadWeights(Tensor(W)), MarginConfig.for_family(other), labels, EmbeddingQueue(4))

    def test_queue_only_for_broadface(self):
        rng = np.random.default_rng(69)
        X, W, labels = random_instance(rng)
        with pytest.raises(ConfigError):
            head_forward(Tensor(X), HeadWeights(Tensor(W)), MarginConfig.for_family("arcface"), labels,
                         EmbeddingQueue(4))

    @pytest.mark.parametrize("family", ["sphereface", "cosface", "arcface", "broadface"])
    def test_zero_feature_row_rejected(self, family):
        """Every angular family rejects a zero row with the cosines' error, sphereface included."""
        rng = np.random.default_rng(72)
        X, W, labels = random_instance(rng)
        X[1] = 0.0
        with pytest.raises(DegenerateInputError, match="zero-norm feature row"):
            head_forward(Tensor(X), HeadWeights(Tensor(W)), MarginConfig.for_family(family), labels)

    @pytest.mark.parametrize("family", ["sphereface", "cosface", "arcface", "broadface"])
    @pytest.mark.parametrize("where", ["feature row", "weight column"])
    def test_overflowing_norm_rejected_under_fit_errstate(self, family, where):
        """A row or column whose squared norm overflows is a DomainError, not cosines of 0, with warnings off as in fit."""
        rng = np.random.default_rng(74)
        X, W, labels = random_instance(rng)
        if where == "feature row":
            X[1] = 1e160
        else:
            W[:, 1] = -1e160
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match=f"{where}: squared norm overflows"):
                head_forward(Tensor(X), HeadWeights(Tensor(W)), MarginConfig.for_family(family), labels)
            X[1], W[:, 1] = np.nan, 1.0
            with pytest.raises(DomainError, match="feature row: non-finite entries"):
                head_forward(Tensor(X), HeadWeights(Tensor(W)), MarginConfig.for_family(family), labels)

    def test_empty_batch_rejected(self):
        """An empty batch is a ShapeError, not a 0 / 0 loss."""
        for family in ("cce", "sphereface", "cosface", "arcface", "broadface"):
            with pytest.raises(ShapeError):
                head_forward(Tensor(np.zeros((0, 2))), HeadWeights(Tensor(np.eye(2))),
                             MarginConfig.for_family(family), [])

    def test_cce_accepts_a_zero_feature_row(self):
        rng = np.random.default_rng(73)
        X, W, labels = random_instance(rng)
        X[1] = 0.0
        assert np.isfinite(head_forward(Tensor(X), HeadWeights(Tensor(W)), MarginConfig("cce"), labels).item())

    @pytest.mark.parametrize("family", ["cce", "sphereface", "cosface", "arcface", "broadface"])
    def test_label_count_must_match_rows(self, family):
        rng = np.random.default_rng(70)
        X, W, labels = random_instance(rng, batch=4)
        with pytest.raises(ShapeError):
            head_forward(Tensor(X), HeadWeights(Tensor(W)), MarginConfig.for_family(family), labels[:3])


class TestLossGradients:
    """Every loss family agrees with central finite differences."""

    def _safe_instance(self, rng):
        # keep cosines away from +-1 and sphereface theta away from kinks
        while True:
            X = rng.normal(size=(3, 4)) + 0.1
            W = rng.normal(size=(4, 3)) + 0.1
            cosines = oracle_cosine_logits(X, W)
            if np.all(np.abs(cosines) < 0.97):
                return X, W, rng.integers(0, 3, size=3)

    def test_cce_gradient(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            X, W, labels = self._safe_instance(rng)
            check_gradients(
                lambda f, w: cce_loss(matmul(f, w), labels),
                [X, W],
                tol=1e-5,
            )

    def test_cosface_gradient(self):
        rng = np.random.default_rng(68)
        cfg = MarginConfig(family="cosface", m=0.35, s=8.0)
        for _ in range(10):
            X, W, labels = self._safe_instance(rng)
            check_gradients(
                lambda f, w: head_forward(f, HeadWeights(w), cfg, labels),
                [X, W],
                tol=1e-5,
            )

    def test_arcface_gradient(self):
        rng = np.random.default_rng(69)
        cfg = MarginConfig(family="arcface", m=0.5, s=8.0)
        for _ in range(10):
            X, W, labels = self._safe_instance(rng)
            check_gradients(
                lambda f, w: head_forward(f, HeadWeights(w), cfg, labels),
                [X, W],
                tol=1e-5,
            )

    def test_sphereface_gradient_away_from_kinks(self):
        rng = np.random.default_rng(70)
        for monotone in (True, False):
            cfg = MarginConfig(family="sphereface", m=2.0, use_monotone_psi=monotone)
            done = 0
            while done < 10:
                X, W, labels = self._safe_instance(rng)
                # the psi pieces meet where m*theta crosses pi; stay clear
                cosines = oracle_cosine_logits(X, W)
                thetas = np.arccos(cosines[np.arange(3), labels])
                if np.any(np.abs(2.0 * thetas - np.pi) < 0.05):
                    continue
                check_gradients(
                    lambda f, w: head_forward(f, HeadWeights(w), cfg, labels),
                    [X, W],
                    tol=1e-5,
                )
                done += 1

    def test_broadface_gradient_with_queue(self):
        # queue entries are constants of the per-step loss: snapshots come
        # from a past weight state, built once and frozen, so the finite
        # differences wiggle only the live weights
        rng = np.random.default_rng(71)
        cfg = MarginConfig(family="broadface", m=0.4, s=6.0, queue_capacity=8)
        for _ in range(5):
            X1, W_past, labels1 = self._safe_instance(rng)
            X2, W, labels2 = self._safe_instance(rng)
            seed_queue = EmbeddingQueue(8)
            head_forward(Tensor(X1), HeadWeights(Tensor(W_past)), cfg, labels1, seed_queue)

            def loss_fn(f, w):
                queue = copy.deepcopy(seed_queue)
                return head_forward(f, HeadWeights(w), cfg, labels2, queue)

            check_gradients(loss_fn, [X2, W], tol=1e-5)
