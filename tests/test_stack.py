"""The stack rule: each slice of a stacked node has the bytes of its own 2-D call.

The checks live in ``tests/stack_check.py``; here they run in-process,
and once per OpenBLAS kernel the CPU can load in a subprocess. The rest
are the rule's edges: a shared weight is forward-only under a stack, a
stack takes no queue, and errors name their row through the stack.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spherehead.errors import DomainError, ShapeError
from spherehead.heads import FAMILIES, EmbeddingQueue, HeadWeights, MarginConfig, head_forward
from spherehead.ndcore import Tensor, backward, mlp
from spherehead.stereo import project_batch

from .stack_check import MODEL_CASES, check_model, check_primitives

ROOT = Path(__file__).resolve().parent.parent


def test_primitives_keep_each_slices_bytes():
    assert check_primitives(np.random.default_rng(5)) >= 2132


@pytest.mark.parametrize("family, projection, S, per_slice", MODEL_CASES,
                         ids=[f"{f}-{'lift' if p else 'nolift'}-S{S}-{'own' if o else 'shared'}"
                              for f, p, S, o in MODEL_CASES])
def test_each_node_keeps_each_slices_bytes(family, projection, S, per_slice):
    """Values always; with weights of its own per slice, every gradient too."""
    check_model(np.random.default_rng(MODEL_CASES.index((family, projection, S, per_slice))),
                family, projection, S, per_slice)


# the kernel OpenBLAS names when one is forced: a forced Prescott loads the Katmai kernel
FORCED = {"Haswell": ("Haswell",), "Prescott": ("Prescott", "Katmai")}


def _forced_kernels() -> list:
    """Each kernel the CPU can load when forced; Haswell's needs AVX2."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            avx2 = "avx2" in fh.read().split()
    except OSError:
        avx2 = False
    return [*(["Haswell"] if avx2 else []), "Prescott"]


def _stack_check(kernel) -> str:
    """Run ``python -m tests.stack_check`` with ``OPENBLAS_CORETYPE`` unset or set to ``kernel``; the name of the kernel it ran on."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    proc = subprocess.run([sys.executable, "-m", "tests.stack_check"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{kernel or 'default'} kernel:\n{proc.stdout}{proc.stderr}"
    return proc.stdout.split(":")[0].removeprefix("kernel ")


def test_stack_rule_on_every_kernel():
    """The checks under the default kernel, then under each forced kernel that it is not, each confirmed loaded."""
    default = _stack_check(None)
    if default == "unknown":
        pytest.skip("the default kernel passed; numpy's OpenBLAS names no kernel, so a forced one cannot be confirmed")
    for kernel in _forced_kernels():
        if default not in FORCED[kernel]:
            name = _stack_check(kernel)
            assert name in FORCED[kernel], f"OPENBLAS_CORETYPE={kernel} ran on the {name} kernel"


def _head(rng, W_shape, requires_grad=True):
    return HeadWeights(Tensor(rng.normal(size=W_shape), requires_grad=requires_grad))


class TestSharedWeightsAreForwardOnly:
    def test_backward_through_shared_encoder_weights_raises(self):
        rng = np.random.default_rng(7)
        layers = [(Tensor(rng.normal(size=(2, 5)), requires_grad=True), Tensor(np.zeros((1, 5)), requires_grad=True))]
        features = mlp(Tensor(rng.normal(size=(3, 4, 2))), layers)
        loss = head_forward(features, _head(rng, (3, 5, 2)), MarginConfig("cce"), rng.integers(0, 2, size=(3, 4)))
        with pytest.raises(ShapeError, match="shared weights"):
            backward(loss)
        assert all(p.grad is None for layer in layers for p in layer)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_backward_through_a_shared_head_raises(self, family):
        rng = np.random.default_rng(8)
        features, head = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True), _head(rng, (3, 4))
        loss = head_forward(features, head, MarginConfig.for_family(family), rng.integers(0, 4, size=(2, 6)))
        assert loss.shape == (2,)
        with pytest.raises(ShapeError, match="shared weights"):
            backward(loss)
        assert head.W.grad is None and features.grad is None

    def test_shared_constants_pass_gradient_to_the_input(self):
        """A shared weight that needs no gradient is a constant, and the stack's own input still gets one."""
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
        layers = [(Tensor(rng.normal(size=(2, 3))), Tensor(np.zeros((1, 3))))]
        loss = head_forward(mlp(x, layers), _head(rng, (3, 2), requires_grad=False), MarginConfig("cosface"),
                            rng.integers(0, 2, size=(2, 4)))
        backward(loss)
        assert x.grad.shape == (2, 4, 2)


@pytest.mark.parametrize("filled", [True, False])
def test_a_stack_takes_no_queue(filled):
    rng = np.random.default_rng(10)
    queue = EmbeddingQueue(8)
    if filled:
        queue.push_batch(rng.normal(size=(4, 3)), [0, 1, 0, 1], rng.normal(size=(4, 3)))
    with pytest.raises(ShapeError, match="takes no queue"):
        head_forward(Tensor(rng.normal(size=(2, 4, 3))), _head(rng, (3, 2)), MarginConfig.for_family("broadface"),
                     rng.integers(0, 2, size=(2, 4)), queue)
    assert len(queue) == (4 if filled else 0)


def test_backward_takes_one_loss_per_slice_from_a_head_only():
    rng = np.random.default_rng(11)
    features = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
    backward(head_forward(features, _head(rng, (2, 2), requires_grad=False), MarginConfig("cce"),
                          rng.integers(0, 2, size=(2, 3))))
    assert features.grad.shape == (2, 3, 2)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    with pytest.raises(ShapeError, match="a scalar loss or a head's one loss per slice"):
        backward(project_batch(x))


@pytest.mark.parametrize("x_shape, W_shape", [((3, 4, 2), (2, 2, 5)), ((4, 2), (3, 2, 5)),
                                              ((2, 3, 4, 2), (2, 5)), ((2,), (2, 5))])
def test_weights_must_be_shared_or_one_per_slice(x_shape, W_shape):
    rng = np.random.default_rng(12)
    W = Tensor(rng.normal(size=W_shape))
    with pytest.raises(ShapeError):
        mlp(Tensor(np.ones(x_shape)), [(W, Tensor(np.zeros(W_shape[:-2] + (1, W_shape[-1]))))])
    with pytest.raises(ShapeError):
        head_forward(Tensor(np.ones(x_shape)), HeadWeights(W), MarginConfig("cce"), np.zeros(x_shape[:-1], dtype=int))


def test_a_stack_needs_labels_of_its_rows():
    rng = np.random.default_rng(13)
    with pytest.raises(ShapeError, match="feature rows"):
        head_forward(Tensor(rng.normal(size=(2, 4, 3))), _head(rng, (3, 2)), MarginConfig("arcface"),
                     rng.integers(0, 2, size=(4, 2)))


@pytest.mark.parametrize("value, message", [(np.nan, "non-finite entries"), (1e200, "squared norm overflows float64")])
def test_a_stacked_lift_names_its_row_through_the_stack(value, message):
    """Slice 1, row 2 of a stack of 4-row batches is row 1 * 4 + 2 = 6."""
    X = np.ones((3, 4, 2))
    X[1, 2, 0] = value
    with pytest.raises(DomainError) as info:
        project_batch(Tensor(X))
    assert str(info.value) == f"{message} (first in row 6)" and info.value.row == 6


def test_every_encoder_layer_is_laid_out_as_the_first():
    """Layers are all shared or all one per slice; a shared layer after a per-slice one would broadcast."""
    rng = np.random.default_rng(14)
    layers = [(Tensor(rng.normal(size=(3, 2, 4))), Tensor(np.zeros((3, 1, 4)))),
              (Tensor(rng.normal(size=(4, 2))), Tensor(np.zeros((1, 2))))]
    with pytest.raises(ShapeError, match="laid out as layer 0's"):
        mlp(Tensor(rng.normal(size=(3, 5, 2))), layers)
