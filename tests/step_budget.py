"""What one warmed B = 32 training step costs the interpreter, counted and timed.

A B = 32 step is bound by Python, not arithmetic, so the number of calls
it makes is the figure a change to the step's plumbing can show exactly.
:func:`fit_step` runs the body of ``train.fit``'s step loop on two-spirals
data: the batch loss (encoder, lift, head), ``backward``, the zero-fill of
unreached gradient slots and the arena update through ``sgd_step``. After
warm-up steps, which also fill a BroadFace queue, :func:`count_step`
counts one step with ``sys.setprofile``: the Python frames of spherehead's
own code and of numpy's wrappers, and the C calls the profiler sees. A
generator counts once per resume, as the profiler reports it.

Run as ``python -m tests.step_budget``. It prints one row per
configuration: cce without the lift, then each angular family with the
lift, broadface with a queue of 256. Each row has the frame counts and a
best-of step time in microseconds. ``tests/test_step_budget.py`` pins the
spherehead frame counts as ceilings; numpy's frames depend on the numpy
version, so only this script reports them.
"""

import math
import os
import sys
from time import perf_counter

import numpy as np

import spherehead
from spherehead import train
from spherehead.data import gen_two_spirals
from spherehead.heads import EmbeddingQueue, MarginConfig
from spherehead.ndcore import Tensor, backward

# (family, lift): cce without the lift, then every angular family with it
CONFIGS = (("cce", False), ("sphereface", True), ("cosface", True), ("arcface", True), ("broadface", True))
BATCH = 32
QUEUE = 256
WARM_STEPS = 2 * QUEUE // BATCH  # the queue is full well before the counted step
OWN_DIR = os.path.dirname(spherehead.__file__) + os.sep
NUMPY_DIR = os.path.dirname(np.__file__) + os.sep


def spirals_model(family: str, lift: bool, seed: int = 0):
    """The spirals-b32 model of one configuration, its training set and its ``OptimConfig``."""
    margin = MarginConfig.for_family(family, s=None if family == "cce" else 12.0,
                                     queue_capacity=QUEUE if family == "broadface" else None)
    cfg = train.ModelConfig(feature_dim=16, margin=margin, encoder_layers=(64, 32), projection_enabled=lift)
    ds = gen_two_spirals(500, 0.1, seed)
    model = train.build_model(cfg, ds.dim, ds.class_count, train.init_seed(seed))
    opt = train.OptimConfig(learning_rate=3e-2 if family == "cce" else 3e-3, epochs=1, batch_size=BATCH, seed=seed)
    return model, ds, opt


def fit_step(model, ds, opt):
    """``fit``'s step on ``model``, packed as ``fit`` packs it: each call trains the next batch of its epoch-1 order.

    The batches wrap around at the end of the epoch. Returns the step.
    """
    params = model.parameters()
    theta, grad = train._pack_parameters(params)
    flat_params, flat_grads = [Tensor(theta)], [grad]
    cfg = model.config.margin
    queue = EmbeddingQueue(cfg.queue_capacity) if cfg.family == "broadface" else None
    X_all, y_all, n = ds.features.data, ds.labels, len(ds)
    perm = np.random.default_rng((opt.seed, 1)).permutation(n)
    starts = range(0, n, opt.batch_size)
    state = {"step": 0, "velocities": None}

    def step() -> float:
        start = starts[state["step"] % len(starts)]
        state["step"] += 1
        idx = perm[start:start + opt.batch_size]
        loss = train._batch_loss(model, X_all[idx], y_all[idx], queue)
        value = loss.item()
        if not math.isfinite(value):
            raise AssertionError(f"step {state['step']} diverged: loss {value}")
        for p in params:
            p.grad = None
        backward(loss)
        del loss
        for p in params:
            if p.grad is None:
                p._grad_slot.fill(0.0)
                p.grad = p._grad_slot
        state["velocities"] = train.sgd_step(flat_params, flat_grads, state["velocities"], opt)
        return value

    return step


def count_step(step) -> dict:
    """Run ``step`` once under ``sys.setprofile``: spherehead's frames, numpy's frames and C calls."""
    counts = {"spherehead": 0, "numpy": 0, "c_calls": 0}

    def profile(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename
            if path.startswith(OWN_DIR):
                counts["spherehead"] += 1
            elif path.startswith(NUMPY_DIR):
                counts["numpy"] += 1
        elif event == "c_call":
            counts["c_calls"] += 1

    sys.setprofile(profile)
    try:
        step()
    finally:
        sys.setprofile(None)
    return counts


def warmed_step(family: str, lift: bool):
    """A configuration's step after ``WARM_STEPS`` steps."""
    step = fit_step(*spirals_model(family, lift))
    for _ in range(WARM_STEPS):
        step()
    return step


def best_step_us(step, repeats: int = 7, number: int = 200) -> float:
    """The fastest mean step time over ``repeats`` runs of ``number`` steps, in microseconds."""
    best = math.inf
    for _ in range(repeats):
        started = perf_counter()
        for _ in range(number):
            step()
        best = min(best, (perf_counter() - started) / number)
    return best * 1e6


def main() -> int:
    print(f"{'configuration':<22} {'spherehead':>10} {'numpy':>6} {'C calls':>8} {'step us':>8}")
    for family, lift in CONFIGS:
        step = warmed_step(family, lift)
        counts = count_step(step)
        name = f"{family} {'+ lift' if lift else 'no lift'}" + (f" Q {QUEUE}" if family == "broadface" else "")
        print(f"{name:<22} {counts['spherehead']:>10} {counts['numpy']:>6} {counts['c_calls']:>8} "
              f"{best_step_us(step):>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
