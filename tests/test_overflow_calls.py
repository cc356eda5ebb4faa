"""Public functions called directly, outside any ``np.errstate``, on rows near 1e200.

A training step holds one ``np.errstate`` for all of its nodes, and the
nodes' own contexts and checks sit under it. Called on their own, the
public functions must still raise their typed errors, with their
messages, and let no ``RuntimeWarning`` escape where they let none
escape before (pytest turns one into an error). ``mlp`` and cce's raw
logits hold no context of their own, so their overflow still warns.
"""

import numpy as np
import pytest

from spherehead.data import Dataset
from spherehead.errors import DomainError
from spherehead.heads import FAMILIES, EmbeddingQueue, HeadWeights, MarginConfig, head_forward
from spherehead.ndcore import Tensor, mlp
from spherehead.stereo import project_batch, project_rows
from spherehead.train import ModelConfig, build_model, evaluate

HUGE = 1e200
ANGULAR = [family for family in FAMILIES if family != "cce"]


def _rows(rng, huge_row=1):
    X = rng.normal(size=(4, 3))
    X[huge_row] = HUGE
    return X


@pytest.mark.parametrize("family", ANGULAR)
def test_head_forward_feature_rows(family):
    rng = np.random.default_rng(1)
    W = HeadWeights(Tensor(rng.normal(size=(3, 2)), requires_grad=True))
    with pytest.raises(DomainError, match="^feature row: squared norm overflows float64$"):
        head_forward(Tensor(_rows(rng), requires_grad=True), W, MarginConfig.for_family(family), [0, 1, 0, 1])


@pytest.mark.parametrize("family", ANGULAR)
def test_head_forward_weight_columns(family):
    rng = np.random.default_rng(2)
    W = rng.normal(size=(3, 2))
    W[:, 1] = HUGE
    with pytest.raises(DomainError, match="^weight column: squared norm overflows float64$"):
        head_forward(Tensor(rng.normal(size=(4, 3))), HeadWeights(Tensor(W)), MarginConfig.for_family(family),
                     [0, 1, 0, 1])


def test_head_forward_queued_block_row():
    """A queued row near 1e200 has an infinite stored norm, so its compensated row is not finite.

    The block is built outside any context, so its inf - inf warns, then its norms raise.
    """
    rng = np.random.default_rng(3)
    queue = EmbeddingQueue(8)
    queue.push_batch(np.full((2, 3), HUGE), [0, 1], rng.normal(size=(2, 3)))
    with pytest.warns(RuntimeWarning), pytest.raises(DomainError, match="^feature row: non-finite entries$"):
        head_forward(Tensor(rng.normal(size=(4, 3))), HeadWeights(Tensor(rng.normal(size=(3, 2)))),
                     MarginConfig.for_family("broadface"), [0, 1, 0, 1], queue)


def test_head_forward_cce_takes_rows_near_1e200():
    """cce normalizes nothing: rows near 1e200 against unit-scale weights give a finite loss, silently."""
    loss = head_forward(Tensor(np.full((4, 3), HUGE)), HeadWeights(Tensor(np.ones((3, 2)))),
                        MarginConfig.for_family("cce"), [0, 1, 0, 1])
    assert loss.item() == np.log(2.0)
    with pytest.warns(RuntimeWarning) as caught:
        head_forward(Tensor(np.full((4, 3), HUGE)), HeadWeights(Tensor(np.full((3, 2), HUGE))),
                     MarginConfig.for_family("cce"), [0, 1, 0, 1])
    assert "overflow encountered in matmul" in [str(w.message) for w in caught]


def test_mlp_overflow_still_warns():
    """``mlp`` holds no context: a caller that wants its overflow quiet holds one, as ``fit`` does."""
    layers = [(Tensor(np.full((3, 2), HUGE)), Tensor(np.zeros((1, 2))))]
    with pytest.warns(RuntimeWarning, match="overflow"):
        mlp(np.full((4, 3), HUGE), layers)


@pytest.mark.parametrize("rows, message", [
    (1, "^squared norm overflows float64$"),
    (4, r"^squared norm overflows float64 \(first in row 1\)$"),
])
def test_project_batch(rows, message):
    X = _rows(np.random.default_rng(5))[:rows] if rows > 1 else np.full((1, 3), HUGE)
    with pytest.raises(DomainError, match=message):
        project_batch(Tensor(X, requires_grad=True))


def test_project_batch_stack_names_its_row_through_the_stack():
    X = np.random.default_rng(6).normal(size=(2, 4, 3))
    X[1, 2] = HUGE
    with pytest.raises(DomainError, match=r"\(first in row 6\)$"):
        project_batch(Tensor(X))


def test_project_rows():
    with pytest.raises(DomainError, match=r"^squared norm overflows float64 \(first in row 1\)$") as info:
        project_rows(_rows(np.random.default_rng(7)))
    assert info.value.row == 1


@pytest.mark.parametrize("family, projection", [("cce", True), ("arcface", True), ("arcface", False)])
def test_evaluate_overflowing_features(family, projection):
    """Rows near 1e200 through the encoder give features whose lift or norms overflow."""
    rng = np.random.default_rng(8)
    ds = Dataset(_rows(rng), [0, 1, 0, 1], 2, "huge")
    cfg = ModelConfig(feature_dim=3, margin=MarginConfig.for_family(family), encoder_layers=(4,),
                      projection_enabled=projection)
    model = build_model(cfg, 3, 2, 0)
    if projection:
        with pytest.raises(DomainError, match=r"^squared norm overflows float64 \(first in row 1\)$"):
            evaluate(model, ds)
    else:
        assert 0.0 <= evaluate(model, ds) <= 1.0


@pytest.mark.parametrize("family", ANGULAR)
def test_evaluate_overflowing_weight_columns(family):
    rng = np.random.default_rng(9)
    ds = Dataset(rng.normal(size=(4, 3)), [0, 1, 0, 1], 2, "toy")
    model = build_model(ModelConfig(feature_dim=3, margin=MarginConfig.for_family(family), encoder_layers=(4,)),
                        3, 2, 0)
    model.head.W.data[:, 0] = HUGE
    with pytest.raises(DomainError, match="^weight column: squared norm overflows float64$"):
        evaluate(model, ds)


def test_push_batch_stores_infinite_norms_silently():
    rng = np.random.default_rng(10)
    queue = EmbeddingQueue(8)
    emb, snaps = _rows(rng), rng.normal(size=(4, 3))
    snaps[2] = HUGE
    queue.push_batch(emb, [0, 1, 0, 1], snaps)
    emb_norms, snap_norms = queue.stacked_norms()
    assert np.isinf(emb_norms).tolist() == [False, True, False, False]
    assert np.isinf(snap_norms).tolist() == [False, False, True, False]
