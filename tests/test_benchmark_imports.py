"""The package names the benchmark uses, checked in the fast suite.

``benchmarks/training.py`` and ``benchmarks/projection.py`` import
``spherehead`` names at module level and read module attributes such as
``cli.main`` when they run. A rename that breaks either fails here
rather than only when the benchmark runs. The benchmark's traced
BroadFace queue is checked against the package's queue too: its push
and eviction counters rest on ``push``, ``len`` and ``capacity``. So is
its tape counter, which reads ``trace(loss).nodes``, ``.op`` and
``.inputs``. And its traced replay of ``fit`` must keep ``fit``'s epoch
history bit for bit, or the traced run reports no spans.
"""

import importlib
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from spherehead.heads import FAMILIES, EmbeddingQueue, MarginConfig
from spherehead.ndcore import trace
from spherehead.train import DataConfig, ModelConfig, OptimConfig, build_datasets, build_model, fit, init_seed

from .test_fused import TAPE_NODES, spirals_step_loss

ROOT = Path(__file__).resolve().parents[1]

# Imports each named benchmark module, then checks that every
# ``module.attr`` it reads on a spherehead module exists.
PROBE = """
import ast, importlib, sys, types
sys.path[:0] = sys.argv[1:3]
missing = []
for name in sys.argv[3:]:
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = getattr(module, node.value.id, None)
            if (isinstance(owner, types.ModuleType) and owner.__name__.startswith("spherehead")
                    and not hasattr(owner, node.attr)):
                missing.append(f"{name}: {owner.__name__}.{node.attr}")
print("\\n".join(missing))
sys.exit(1 if missing else 0)
"""


def test_benchmark_modules_import_and_find_their_names():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "benchmarks"), "training", "projection"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


class _StubRecorder:
    """Stands in for ``spans.SpanRecorder``: keeps span names, times nothing."""

    def __init__(self):
        self.names = []

    def span(self, name):
        self.names.append(name)
        return nullcontext()


@pytest.fixture
def benchmark_training(monkeypatch):
    """``benchmarks/training.py`` imported in-process, writing no bytecode."""
    bench_dir = str(ROOT / "benchmarks")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(bench_dir)
    before = set(sys.modules)
    yield importlib.import_module("training")
    for name in set(sys.modules) - before:
        if os.path.dirname(getattr(sys.modules[name], "__file__", None) or "") == bench_dir:
            del sys.modules[name]


def test_traced_queue_counts_pushes_and_evictions(benchmark_training):
    rec = _StubRecorder()
    traced, base = benchmark_training.TracedQueue(8, rec), EmbeddingQueue(8)
    rng = np.random.default_rng(40)
    for _ in range(40):
        row = (rng.normal(size=3), int(rng.integers(0, 4)), rng.normal(size=3))
        traced.push(*row)
        base.push(*row)
    assert (traced.pushes, traced.evictions, len(traced)) == (40, 32, 8)
    for ours, ref in zip(traced.stacked(), base.stacked()):
        assert_array_equal(ours, ref)
    assert rec.names == ["heads.queue_push"] * 40 + ["heads.queue_stacked"]


@pytest.mark.parametrize("family", FAMILIES)
def test_tape_counts_see_one_node_per_stage(benchmark_training, family):
    """``_tape_counts`` reads 3 nodes a step with the lift and 2 without, in every family."""
    for projection, ops in TAPE_NODES.items():
        nodes, _, _ = benchmark_training._tape_counts(trace(spirals_step_loss(family, projection)))
        assert nodes == len(ops)


@pytest.mark.parametrize("family, queue", [("cosface", None), ("broadface", 16)])
def test_traced_replay_reproduces_fit_bit_for_bit(benchmark_training, family, queue):
    """``replay_fit`` keeps ``fit``'s epoch losses and accuracies bit for bit, as the traced run checks.

    The replay's parameters have no gradient slots, so it is the one
    training loop on ``ndcore``'s unslotted first contribution; a
    BroadFace replay pushes its batches through ``TracedQueue``.
    """
    bench = benchmark_training
    model_cfg = ModelConfig(feature_dim=4, margin=MarginConfig.for_family(family, s=12.0, queue_capacity=queue),
                            encoder_layers=(8,))
    opt = OptimConfig(learning_rate=4e-3, epochs=2, batch_size=16, seed=7)
    train_ds, _ = build_datasets(DataConfig("two_spirals", {"n_per_class": 40, "noise_sd": 0.1}), 7)

    def untrained():
        return build_model(model_cfg, train_ds.dim, train_ds.class_count, init_seed(7))

    ref_model, ref = fit(untrained(), train_ds, opt)
    assert len(ref["epoch_loss"]) == 2
    model = untrained()
    history, traced_queue = bench.replay_fit(model, train_ds, opt, 2, bench.SpanRecorder(), family, [])
    for key in ("epoch_loss", "epoch_accuracy"):
        assert bench._bits(history[key]) == bench._bits(ref[key]), key
    assert bench._bits([history["initial_loss"]]) == bench._bits([ref["initial_loss"]])
    # a last-bit gradient difference can round away before it reaches a loss, not a parameter
    for got, want in zip(model.parameters(), ref_model.parameters(), strict=True):
        assert got.data.tobytes() == want.data.tobytes()
    assert (traced_queue is None) == (queue is None)
    if queue is not None:
        assert len(traced_queue) == queue
