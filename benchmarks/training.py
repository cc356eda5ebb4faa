"""Training workloads: spirals-b32, cifar-b512 and broadface-q256.

A workload is a list of jobs, one per (family, projection) config. A
round builds every job's datasets and model, then trains each job the
way ``run_experiment`` trains one seed: ``fit``, ``evaluate`` on the
test side, ``results.save_run`` and ``results.record_digest``. Rounds
repeat with the same run seed until the measuring time is spent, so
each later round re-checks the first round's record digests.

The traced mode trains each job twice: once through ``fit`` untraced,
and once through :func:`replay_fit`, which drives the same public
functions step by step with a span around each layer. The replay must
reproduce ``fit``'s epoch history bit for bit before any of its spans
are reported.
"""

from __future__ import annotations

import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from spherehead import results
from spherehead.errors import TrainingDiverged
from spherehead.heads import FAMILIES, EmbeddingQueue, MarginConfig, broadface_step, head_forward
from spherehead.ndcore import Tensor, backward, trace
from spherehead.stereo import project_batch
from spherehead.train import (
    DataConfig,
    Model,
    ModelConfig,
    OptimConfig,
    build_datasets,
    build_model,
    evaluate,
    experiment_name,
    fit,
    sgd_step,
)

from calibration import Calibration, speed_between
from checks import Checks
from inputs import write_cifar10
from spans import SpanRecorder

SPIRAL_DATA = {"n_per_class": 500, "noise_sd": 0.1}
SPIRAL_EPOCHS = 10
# (family, scale, learning rate), the acceptance protocol's settings
SPIRAL_FAMILIES = (("cce", None, 3e-2), ("sphereface", 12.0, 3e-3),
                   ("cosface", 12.0, 3e-3), ("arcface", 12.0, 3e-3))
BROADFACE_EPOCHS = 20
CIFAR_RECORDS_PER_FILE = 500
CIFAR_EPOCHS = 6

# Test-accuracy floors per job at the epoch budgets above, about 0.15
# below the lowest value seen over seeds 0..19 (0..15 for cifar). Two-class
# spirals is balanced, so 0.5 is chance there; arcface and sphereface
# without projection sit near or below chance this early in training, so
# their floors only catch a collapse.
FLOORS = {
    "cce-proj": 0.40, "cce-noproj": 0.35,
    "sphereface-proj": 0.35, "sphereface-noproj": 0.30,
    "cosface-proj": 0.40, "cosface-noproj": 0.45,
    "arcface-proj": 0.20, "arcface-noproj": 0.15,
    "broadface-proj": 0.40,
    "cifar-cosface-proj": 0.30,
}


@dataclass(frozen=True)
class Job:
    label: str
    model: ModelConfig
    data: DataConfig
    opt: OptimConfig

    @property
    def family(self) -> str:
        return self.model.margin.family


def _spiral_model(family: str, s, proj: bool, queue=None) -> ModelConfig:
    margin = MarginConfig.for_family(family, s=s, queue_capacity=queue)
    return ModelConfig(feature_dim=16, margin=margin, encoder_layers=(64, 32), projection_enabled=proj)


def spirals_b32(seed: int, scratch: str) -> list[Job]:
    data = DataConfig("two_spirals", dict(SPIRAL_DATA))
    jobs = []
    for family, s, lr in SPIRAL_FAMILIES:
        for proj in (True, False):
            label = f"{family}-{'proj' if proj else 'noproj'}"
            opt = OptimConfig(learning_rate=lr, epochs=SPIRAL_EPOCHS, batch_size=32, seed=seed)
            jobs.append(Job(label, _spiral_model(family, s, proj), data, opt))
    return jobs


def broadface_q256(seed: int, scratch: str) -> list[Job]:
    data = DataConfig("two_spirals", dict(SPIRAL_DATA))
    opt = OptimConfig(learning_rate=4e-3, epochs=BROADFACE_EPOCHS, batch_size=32, seed=seed)
    return [Job("broadface-proj", _spiral_model("broadface", 12.0, True, queue=256), data, opt)]


def cifar_b512(seed: int, scratch: str) -> list[Job]:
    write_cifar10(scratch, seed, CIFAR_RECORDS_PER_FILE)
    data = DataConfig("cifar10", {"dir": scratch})
    model = ModelConfig(feature_dim=16, margin=MarginConfig.for_family("cosface"),
                        encoder_layers=(512, 256), projection_enabled=True)
    opt = OptimConfig(learning_rate=3e-3, epochs=CIFAR_EPOCHS, batch_size=512, seed=seed)
    return [Job("cifar-cosface-proj", model, data, opt)]


WORKLOADS = {"spirals-b32": spirals_b32, "cifar-b512": cifar_b512, "broadface-q256": broadface_q256}


def init_seed(seed: int) -> int:
    """The weight-init seed ``run_experiment`` derives from a run seed."""
    return int(np.random.SeedSequence(seed).generate_state(3)[2])


def _record(job: Job, seed: int, history: dict, test_acc: float, wall: float) -> dict:
    """The run record ``run_experiment`` saves for one seed."""
    return {
        "experiment": experiment_name(job.model, job.data),
        "seed": seed,
        "config": {"model": job.model.to_dict(), "data": job.data.to_dict(), "optim": job.opt.to_dict()},
        "wall_time_s": wall,
        "initial_loss": history["initial_loss"],
        "final_train_accuracy": history["epoch_accuracy"][-1],
        "final_test_accuracy": test_acc,
        "stopped_early_at": history.get("stopped_early_at"),
        "epoch_loss": history["epoch_loss"],
        "epoch_accuracy": history["epoch_accuracy"],
    }


def _steps(history: dict, n: int, batch: int) -> int:
    return len(history["epoch_loss"]) * -(-n // batch)


def _build(jobs: list[Job], seed: int, rec: SpanRecorder | None = None):
    """Datasets and models for every job, with their set-up seconds."""
    built, setup_s = [], 0.0
    if rec is not None:
        rec.begin("setup", "round")
    for job in jobs:
        t0 = perf_counter()
        with rec.span("data.build") if rec is not None else nullcontext():
            train_ds, test_ds = build_datasets(job.data, seed)
        model = build_model(job.model, train_ds.dim, train_ds.class_count, init_seed(seed))
        setup_s += perf_counter() - t0
        built.append((train_ds, test_ds, model))
    return built, setup_s


# -- untraced rounds -------------------------------------------------------


def _untraced_round(jobs: list[Job], seed: int, out_dir: str, checks: Checks) -> dict:
    """One round; its datasets and models are freed when it returns."""
    built, setup_s = _build(jobs, seed)
    outcomes = {}
    for job, (train_ds, test_ds, model) in zip(jobs, built):
        t0 = perf_counter()
        try:
            model, history = fit(model, train_ds, job.opt)
        except TrainingDiverged as err:
            checks.check(False, f"{job.label}: fit diverged: {err}")
            continue
        wall = perf_counter() - t0
        checks.check(True, "fit")
        test_acc = evaluate(model, test_ds)
        record = _record(job, seed, history, test_acc, wall)
        results.save_run(out_dir, record)
        outcomes[job.label] = {
            "fit_s": wall,
            "samples": len(history["epoch_loss"]) * len(train_ds),
            "losses": (history["initial_loss"], history["epoch_loss"][-1]),
            "test_accuracy": test_acc,
            "digest": results.record_digest(record),
            "steps": _steps(history, len(train_ds), job.opt.batch_size),
        }
    return {"setup_s": setup_s, "outcomes": outcomes}


def run_untraced(jobs: list[Job], seed: int, seconds: float, out_dir: str, checks: Checks,
                 calibration: Calibration) -> dict:
    """Rounds until ``seconds`` are spent (at least two); user-visible figures.

    Every round repeats the same work, so throughput takes each job's
    median ``fit`` time over the rounds: one slow stretch of the machine
    then moves one sample of one job, not the figure. Each ``fit`` time
    is also scaled by the calibration kernel timed on both sides of its
    round. Peak memory is read after the first two rounds, a fixed amount
    of work; later rounds only add allocator fragmentation, which varies
    with their number.
    """
    rounds = []
    before = calibration.point()
    started = perf_counter()
    while len(rounds) < 2 or perf_counter() - started < seconds:
        rounds.append(_untraced_round(jobs, seed, out_dir, checks))
        after = calibration.point()
        rounds[-1]["speed"] = speed_between(before, after)
        before = after
        if len(rounds) == 2:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = rounds[0]["outcomes"]
    for job in jobs:
        if job.label not in first:
            continue
        acc = first[job.label]["test_accuracy"]
        checks.check(acc >= FLOORS[job.label],
                     f"{job.label}: test accuracy {acc:.4f} below floor {FLOORS[job.label]}")
        initial, final = first[job.label]["losses"]
        checks.check(final < initial, f"{job.label}: final epoch loss {final} not below initial loss {initial}")
        digests = {r["outcomes"].get(job.label, {}).get("digest") for r in rounds}
        checks.check(len(digests) == 1, f"{job.label}: record digest differs between rounds")
    samples = sum(o["samples"] for o in first.values())
    fit_s = sum(statistics.median(r["outcomes"][label]["fit_s"] for r in rounds if label in r["outcomes"])
                for label in first)
    scaled_fit_s = sum(
        statistics.median(r["outcomes"][label]["fit_s"] * r["speed"] for r in rounds if label in r["outcomes"])
        for label in first)
    return {
        "throughput": samples / fit_s if fit_s else 0.0,
        "scaled_throughput": samples / scaled_fit_s if scaled_fit_s else 0.0,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": peak_rss_mb,
        "counters": {"steps": {label: o["steps"] for label, o in first.items()}},
    }


# -- traced replay -----------------------------------------------------------


class TracedQueue(EmbeddingQueue):
    """The BroadFace queue with a span around each push and stack.

    Counts pushes and the evictions they cause (a push into a full
    queue drops its oldest entry).
    """

    def __init__(self, capacity: int, rec: SpanRecorder):
        super().__init__(capacity)
        self.rec = rec
        self.pushes = 0
        self.evictions = 0

    def push(self, embedding, label, snapshot_weight) -> None:
        if self.capacity > 0:
            self.pushes += 1
            self.evictions += len(self) == self.capacity
        with self.rec.span("heads.queue_push"):
            super().push(embedding, label, snapshot_weight)

    def stacked(self):
        with self.rec.span("heads.queue_stacked"):
            return super().stacked()


def _tape_counts(tape) -> tuple[int, int, int]:
    """Tape nodes, matmuls, and matmuls without a constant ones row or column.

    ``expand_cols`` and ``expand_rows`` broadcast by multiplying with such
    a constant, so their matmuls do no useful arithmetic.
    """
    matmuls = [node for node in tape.nodes if node.op == "matmul"]
    broadcast = sum(
        1 for node in matmuls
        if any(not t.requires_grad and 1 in t.shape and bool(np.all(t.data == 1.0)) for t in node.inputs)
    )
    return len(tape.nodes), len(matmuls), len(matmuls) - broadcast


def replay_fit(model: Model, train_ds, opt: OptimConfig, epochs: int, rec: SpanRecorder,
               label: str, tape_counts: list) -> tuple[dict, TracedQueue | None]:
    """``fit`` for ``epochs`` epochs, one public call per span.

    The encoder is ``forward_features`` of the same layers with the
    projection switched off, followed by ``project_batch`` when the
    model projects; that is the order ``forward_features`` applies them.
    """
    cfg = model.config.margin
    broadface = cfg.family == "broadface"
    encoder = Model(replace(model.config, projection_enabled=False), model.layers, model.head, model.class_count)
    projected = model.config.projection_enabled
    params = model.parameters()
    velocities = None
    queue = TracedQueue(cfg.queue_capacity, rec) if broadface else None
    X_all, y_all, n, batch = train_ds.features.data, train_ds.labels, len(train_ds), opt.batch_size

    def batch_loss(X, y, q):
        with rec.span("train.encoder_fwd"):
            h = encoder.forward_features(Tensor(X))
        if projected:
            with rec.span("stereo.project_batch"):
                h = project_batch(h)
        with rec.span("heads.loss_fwd"):
            if q is not None:
                return broadface_step(h, model.head, cfg, y, q)[0]
            return head_forward(h, model.head, cfg, y)

    rec.begin("initial", label)
    total = 0.0
    for start in range(0, n, batch):
        stop = min(start + batch, n)
        scratch_queue = EmbeddingQueue(cfg.queue_capacity) if broadface else None
        total += batch_loss(X_all[start:stop], y_all[start:stop], scratch_queue).item() * (stop - start)
    history = {"initial_loss": total / n, "epoch_loss": [], "epoch_accuracy": [], "stopped_early_at": None}

    for epoch in range(1, epochs + 1):
        perm = None
        epoch_total = 0.0
        for batch_index, start in enumerate(range(0, n, batch)):
            rec.begin("step", label)
            with rec.span("train.step"):
                with rec.span("train.batch_gather"):
                    if perm is None:
                        perm = np.random.default_rng((opt.seed, epoch)).permutation(n)
                    idx = perm[start:start + batch]
                    X, y = X_all[idx], y_all[idx]
                with np.errstate(over="ignore", invalid="ignore"):
                    loss = batch_loss(X, y, queue)
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingDiverged(epoch, batch_index, [value])
                with rec.span("ndcore.trace"):
                    tape = trace(loss)
                with rec.span("train.sgd"):
                    for p in params:
                        p.zero_grad()
                with rec.span("ndcore.backward"):
                    backward(loss)
                with rec.span("train.sgd"):
                    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
                    velocities = sgd_step(params, grads, velocities, opt)
            tape_counts.append(_tape_counts(tape))
            epoch_total += value * idx.shape[0]
        history["epoch_loss"].append(epoch_total / n)
        rec.begin("eval", label)
        with rec.span("train.evaluate"):
            history["epoch_accuracy"].append(evaluate(model, train_ds))
    return history, queue


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _traced_round(jobs: list[Job], seed: int, out_dir: str, checks: Checks, rec: SpanRecorder,
                  overheads: list, unverified: set) -> dict:
    """One round of (fit, traced replay, bitwise comparison); returns its counters."""
    built, _ = _build(jobs, seed, rec)
    counters = {"steps": {}, "nodes": {}, "queue": {}}
    for job, (train_ds, test_ds, model) in zip(jobs, built):
        t0 = perf_counter()
        try:
            ref_model, ref = fit(model, train_ds, job.opt)
        except TrainingDiverged as err:
            checks.check(False, f"{job.label}: fit diverged: {err}")
            continue
        fit_s = perf_counter() - t0
        replay_model = build_model(job.model, train_ds.dim, train_ds.class_count, init_seed(seed))
        tape_counts: list = []
        t0 = perf_counter()
        try:
            history, queue = replay_fit(replay_model, train_ds, job.opt, len(ref["epoch_loss"]),
                                        rec, job.label, tape_counts)
        except TrainingDiverged as err:
            checks.check(False, f"{job.label}: replay diverged where fit did not: {err}")
            continue
        replay_s = perf_counter() - t0
        # the replay ran exactly as many epochs as fit, so fit's plateau stop stands
        history["stopped_early_at"] = ref["stopped_early_at"]
        same = (_bits(history["epoch_loss"]) == _bits(ref["epoch_loss"])
                and _bits(history["epoch_accuracy"]) == _bits(ref["epoch_accuracy"]))
        if not checks.check(same, f"{job.label}: traced replay does not reproduce fit's epoch history"):
            unverified.add(job.label)
            continue
        overheads.append(replay_s / fit_s - 1.0)
        ref_record = _record(job, seed, ref, evaluate(ref_model, test_ds), fit_s)
        record = _record(job, seed, history, evaluate(replay_model, test_ds), replay_s)
        rec.begin("job", job.label)
        with rec.span("results.save"):
            results.save_run(out_dir, record)
        checks.check(results.record_digest(record) == results.record_digest(ref_record),
                     f"{job.label}: replay record digest differs from fit's")
        counters["steps"][job.label] = _steps(ref, len(train_ds), job.opt.batch_size)
        counters["nodes"][job.label] = [statistics.median_low(c[i] for c in tape_counts) for i in range(3)]
        if queue is not None:
            counters["queue"][job.label] = [queue.pushes, queue.evictions]
    return counters


def run_traced(jobs: list[Job], seed: int, seconds: float, out_dir: str, checks: Checks,
               rec: SpanRecorder) -> dict:
    """Traced rounds until ``seconds`` are spent (at least two)."""
    overheads, round_counters, unverified = [], [], set()
    started = perf_counter()
    while len(round_counters) < 2 or perf_counter() - started < seconds:
        round_counters.append(_traced_round(jobs, seed, out_dir, checks, rec, overheads, unverified))
    for counters in round_counters[1:]:
        checks.check(counters == round_counters[0], "deterministic counters differ between rounds")
    verified = {job.label for job in jobs} - unverified
    return {"overheads": overheads, "counters": round_counters[0], "verified": verified}


def _median(values, scale: float = 1.0) -> float:
    values = list(values)
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(jobs: list[Job], rec: SpanRecorder, traced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of verified jobs; 0 where the workload bypasses a layer."""
    steps = [s for s in rec.by_step("step") if s[0] in traced["verified"]]
    evals = [s for s in rec.by_step("eval") if s[0] in traced["verified"]]
    family_of = {job.label: job.family for job in jobs}

    def per_step(name: str, family: str | None = None, own: bool = True) -> list[float]:
        return [(o if own else t)[name] for label, o, t in steps
                if name in t and (family is None or family_of[label] == family)]

    step_totals = per_step("train.step", own=False)
    out = {
        "ndcore.backward_us": (_median(per_step("ndcore.backward"), 1e6), "us"),
        "ndcore.trace_us": (_median(per_step("ndcore.trace"), 1e6), "us"),
        "stereo.project_batch_us": (_median(per_step("stereo.project_batch"), 1e6), "us"),
        "heads.queue_push_us": (_median(per_step("heads.queue_push"), 1e6), "us"),
        "heads.queue_stacked_us": (_median(per_step("heads.queue_stacked"), 1e6), "us"),
        "train.encoder_fwd_us": (_median(per_step("train.encoder_fwd"), 1e6), "us"),
        "train.sgd_us": (_median(per_step("train.sgd"), 1e6), "us"),
        "train.batch_gather_us": (_median(per_step("train.batch_gather"), 1e6), "us"),
        "train.step_us.p50": (_median(step_totals, 1e6), "us"),
        "train.step_us.p99": (float(np.percentile(step_totals, 99)) * 1e6 if step_totals else 0.0, "us"),
        "train.steps_traced": (float(len(step_totals)), "count"),
        "train.evaluate_ms": (_median((t["train.evaluate"] for _, _, t in evals), 1e3), "ms"),
        "data.build_s": (_median(t["data.build"] for _, _, t in rec.by_step("setup")), "s"),
        "results.save_ms": (_median((t["results.save"] for _, _, t in rec.by_step("job")), 1e3), "ms"),
        "trace_overhead_frac": (_median(traced["overheads"]), "ratio"),
        "train.steps": (float(sum(traced["counters"]["steps"].values())), "count"),
    }
    queue = next(iter(traced["counters"]["queue"].values()), [0, 0])
    out["heads.queue_pushes"] = (float(queue[0]), "count")
    out["heads.queue_evictions"] = (float(queue[1]), "count")
    for family in FAMILIES:
        out[f"heads.loss_fwd_us.{family}"] = (_median(per_step("heads.loss_fwd", family), 1e6), "us")
        nodes = next((traced["counters"]["nodes"][job.label] for job in jobs
                      if job.family == family and job.model.projection_enabled
                      and job.label in traced["counters"]["nodes"]), [0, 0, 0])
        out[f"ndcore.nodes_per_step.{family}"] = (float(nodes[0]), "count")
        out[f"ndcore.matmuls_per_step.{family}"] = (float(nodes[1]), "count")
        out[f"ndcore.useful_matmul_ratio.{family}"] = (nodes[2] / nodes[1] if nodes[1] else 0.0, "ratio")
    return out
