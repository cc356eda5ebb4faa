"""Model assembly, SGD training loop, evaluation, and multi-seed runs.

A model is a ReLU MLP encoder, an optional unit-sphere embedding step on
its output features, and a classification head consumed by one of the
loss families in :mod:`spherehead.heads`. Everything downstream of a
seed is deterministic: dataset draw, split, parameter init, and the
per-epoch shuffles are all keyed off explicit integers, so a run can be
reproduced exactly from its config echo and seed alone. The data side,
:class:`~spherehead.data.DataConfig` and
:func:`~spherehead.data.build_datasets`, lives in :mod:`spherehead.data`
and is re-exported here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import results as results_store
from .data import (DataConfig, Dataset, _as_bool, _as_int, _as_ints, _as_real, _as_seed, _check_fields, _checked,
                   _seed_streams, build_datasets)
from .errors import (ConfigError, DomainError, LayoutError, ParseError, SphereheadError, StateError,
                     TrainingDiverged)
from .heads import FAMILIES, EmbeddingQueue, HeadWeights, MarginConfig, _check_family, _norms, head_forward
from .ndcore import Tensor, _float64, backward, mlp
from .stereo import project_batch

__all__ = [
    "ModelConfig",
    "OptimConfig",
    "DataConfig",
    "configs_from_echo",
    "Model",
    "RunReport",
    "default_learning_rate",
    "init_seed",
    "build_model",
    "build_datasets",
    "seeded_run",
    "sgd_step",
    "fit",
    "evaluate",
    "run_experiment",
    "experiment_name",
    "emit_table",
]

# Plateau rule: stop once the best epoch loss has gone PLATEAU_WINDOW
# consecutive epochs without improving by a relative PLATEAU_REL.
PLATEAU_REL = 1e-4
PLATEAU_WINDOW = 10


def default_learning_rate(family: str) -> float:
    """Family-conditional default step size.

    The margin families train on a compact logit range (cosines scaled
    by s), where larger steps oscillate; the raw-logit baseline
    tolerates a 10x larger step.
    """
    return 1e-3 if _check_family(family) == "cce" else 1e-4


@dataclass(frozen=True)
class ModelConfig:
    """Architecture: encoder widths, feature width, embedding toggle."""

    feature_dim: int
    margin: MarginConfig
    encoder_layers: tuple = (512, 256)
    projection_enabled: bool = True

    def __post_init__(self):
        _check_fields(self, {"encoder_layers": lambda name, widths: _as_ints(name, widths, "encoder width"),
                             "feature_dim": _as_int, "projection_enabled": _as_bool})
        if not isinstance(self.margin, MarginConfig):
            raise ConfigError("margin must be a MarginConfig")

    @property
    def head_dim(self) -> int:
        """Width the head sees: feature_dim plus the sphere's extra axis."""
        return self.feature_dim + 1 if self.projection_enabled else self.feature_dim

    def to_dict(self) -> dict:
        return dict(dataclasses.asdict(self), encoder_layers=list(self.encoder_layers))


@dataclass(frozen=True)
class OptimConfig:
    """SGD-with-momentum settings plus the run seed, which passes the one seed rule (``data._as_seed``)."""

    learning_rate: float
    epochs: int
    momentum: float = 0.92
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, {"learning_rate": _as_real, "epochs": _as_int, "momentum": _as_real,
                             "batch_size": _as_int, "seed": _as_int})

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _from_echo(cls, echo, where: str, **nested):
    """``cls`` from ``echo``, a dict of exactly its fields, else a ParseError; ``nested`` types fields."""
    names = {f.name for f in dataclasses.fields(cls)}
    if not isinstance(echo, dict) or echo.keys() != names:
        got = sorted(echo) if isinstance(echo, dict) else echo
        raise ParseError(f"config echo {where} must have exactly the keys {sorted(names)}, not {got!r}")
    fields = {k: _from_echo(nested[k], v, f"{where}.{k}") if k in nested else v for k, v in echo.items()}
    try:
        return cls(**fields)
    except TypeError as err:
        raise ParseError(f"config echo {where}: {err}") from err


def configs_from_echo(echo: dict) -> tuple[ModelConfig, DataConfig, OptimConfig]:
    """The inverse of the ``to_dict``s: the configs a run's config echo was made from.

    The ``opt.seed`` returned is the echo's base seed; :func:`seeded_run`
    sets each run's own. A missing or unknown key is a ParseError, as is a
    ``kind`` a config cannot look up (a list, say). A field or data param
    of the wrong type (a string margin, say), an unknown or missing data
    param, or a value out of range, is a ConfigError.
    """
    if not isinstance(echo, dict) or echo.keys() != {"model", "data", "optim"}:
        raise ParseError("config echo must have exactly the keys ['data', 'model', 'optim']")
    return (_from_echo(ModelConfig, echo["model"], "model", margin=MarginConfig),
            _from_echo(DataConfig, echo["data"], "data"), _from_echo(OptimConfig, echo["optim"], "optim"))


class Model:
    """Encoder layers, optional sphere embedding, classification head."""

    __slots__ = ("config", "layers", "head", "class_count")

    def __init__(self, config: ModelConfig, layers: list, head: HeadWeights, class_count: int):
        self.config = config
        self.layers = layers
        self.head = head
        self.class_count = int(class_count)

    def parameters(self) -> list:
        return [p for W, b in self.layers for p in (W, b)] + [self.head.W]

    def forward_features(self, X) -> Tensor:
        """Encode a [B, n] batch into head-ready features.

        Hidden layers are affine + ReLU; the final feature layer stays
        linear so features cover all of feature space, and the sphere
        embedding (when enabled) is applied last. The layers are one
        tape node, :func:`~spherehead.ndcore.mlp`.
        """
        h = mlp(X, self.layers)
        if self.config.projection_enabled:
            h = project_batch(h)
        return h


def init_seed(seed: int) -> int:
    """The weight-init seed of a run seed: the third stream of its SeedSequence.

    The first two streams draw and split the data (:func:`build_datasets`).
    """
    return _seed_streams(seed)[2]


def build_model(config: ModelConfig, input_dim: int, class_count: int, seed: int) -> Model:
    """Deterministic init: uniform(+-sqrt(6/fan_in)) weights, zero biases; a bad dim, class count or seed is a ConfigError."""
    input_dim = _checked("input_dim", _as_int, input_dim)
    class_count = _checked("classes", _as_int, class_count)
    rng = np.random.default_rng(_as_seed(seed))
    widths = (input_dim,) + config.encoder_layers + (config.feature_dim,)
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / fan_in)
        W = Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)), requires_grad=True)
        b = Tensor(np.zeros((1, fan_out)), requires_grad=True)
        layers.append((W, b))
    head_limit = np.sqrt(6.0 / config.head_dim)
    head = HeadWeights(rng.uniform(-head_limit, head_limit, size=(config.head_dim, class_count)))
    return Model(config, layers, head, class_count)


# elements per block of sgd_step: a 256 KiB scratch, and a block of each
# operand stays in cache across the update's three passes
_UPDATE_BLOCK = 32768


def _heavy_ball(p: np.ndarray, g: np.ndarray, v: np.ndarray, opt: OptimConfig, scratch: np.ndarray | None) -> None:
    """v <- mu v + g, p <- p - lr v, in place; ``lr v`` is written into ``scratch`` (a new array when None)."""
    v *= opt.momentum
    v += g
    p -= np.multiply(v, opt.learning_rate, out=scratch)


def sgd_step(params: list, grads: list, velocities: list | None, opt: OptimConfig) -> list:
    """One heavy-ball update in place: v <- mu v + g, p <- p - lr v.

    Elementwise, so any grouping of parameters gives the same bits:
    :func:`fit` passes its whole arena as one parameter and one gradient.
    A parameter of more than ``_UPDATE_BLOCK`` elements is updated one
    block at a time through one block-sized scratch for ``lr v``, so the
    update allocates nothing the size of the arena; the bits are the
    unblocked formula's. A gradient that is not real numbers is a
    StateError. Returns the updated velocity buffers (created on first
    call).
    """
    if len(params) != len(grads):
        raise StateError(f"{len(params)} parameters but {len(grads)} gradients")
    if velocities is None:
        velocities = [np.zeros_like(p.data) for p in params]
    if len(velocities) != len(params):
        raise StateError(f"{len(params)} parameters but {len(velocities)} velocity buffers")
    for p, g, v in zip(params, grads, velocities):
        g = _float64(g, StateError, "gradient")
        if g.shape != p.data.shape or v.shape != p.data.shape:
            raise StateError(
                f"shape mismatch in update: param {p.data.shape}, grad {g.shape}, velocity {v.shape}"
            )
        if v.size <= _UPDATE_BLOCK or not (p.data.flags.c_contiguous and v.flags.c_contiguous):
            # one block; reshape(-1) would copy what is not contiguous, and the update would be lost
            _heavy_ball(p.data, g, v, opt, None)
            continue
        p_flat, g_flat, v_flat = p.data.reshape(-1), g.reshape(-1), v.reshape(-1)
        scratch = np.empty(_UPDATE_BLOCK)
        for start in range(0, v.size, _UPDATE_BLOCK):
            block = slice(start, start + _UPDATE_BLOCK)
            v_block = v_flat[block]
            _heavy_ball(p_flat[block], g_flat[block], v_block, opt, scratch[:v_block.size])
    return velocities


# rows per call of evaluate's forward and of the initial-loss pass's stacks
_EVAL_CHUNK = 4096


def _constant(model: Model) -> Model:
    """``model`` on its parameter arrays as constant Tensors, for forward-only passes.

    Each Tensor takes its C-contiguous float64 array as itself, so nothing
    is copied. No node of a pass through it is recorded, so ``mlp`` keeps
    no layer input or ReLU mask, and no closure outlives the call.
    """
    layers = [(Tensor(W.data), Tensor(b.data)) for W, b in model.layers]
    return Model(model.config, layers, HeadWeights(Tensor(model.head.W.data)), model.class_count)


# an overflow surfaces as a non-finite feature, so the warnings are noise
@np.errstate(over="ignore", invalid="ignore")
def _finite_features(model: Model, X: np.ndarray) -> np.ndarray:
    """``model``'s features of the rows ``X``; a DomainError if any entry is non-finite."""
    feats = model.forward_features(X).data
    if not np.isfinite(feats).all():
        raise DomainError("evaluation features: non-finite entries")
    return feats


# a blow-up surfaces as a non-finite loss, so the intermediate overflow
# warnings are pure noise
@np.errstate(over="ignore", invalid="ignore")
def _batch_loss(model: Model, X: np.ndarray, y: np.ndarray, queue: EmbeddingQueue | None) -> Tensor:
    return head_forward(model.forward_features(X), model.head, model.config.margin, y, queue)


def _dataset_loss(model: Model, ds: Dataset, batch_size: int) -> float:
    """Sample-weighted mean loss over the dataset's batches in order, no parameter updates.

    Full batches of an even size go as views into stacks [S, batch_size,
    n] of at most ``_EVAL_CHUNK`` rows, one :func:`_batch_loss` call per
    stack; an even size keeps every slice 16-byte aligned, as the stack
    rule in ``ndcore`` needs. Every other batch (odd, alone in its stack,
    or the last partial one) is a 2-D call. Each slice
    has the bits of its own 2-D call, and the batch losses times their
    sizes add in batch order. broadface is measured without a queue (its
    empty-queue loss), so the measurement never touches training state.
    The model runs on constant Tensors (:func:`_constant`), so no node is
    recorded and no layer input or mask is kept for a backward.
    """
    model = _constant(model)
    X, y, n = ds.features.data, ds.labels, len(ds)
    full = n - n % batch_size
    rows = max(_EVAL_CHUNK // batch_size, 1) * batch_size if batch_size % 2 == 0 else batch_size
    bounds = [*range(0, full, rows), full]
    batches = [(X[a:b], y[a:b]) if b - a == batch_size else
               (X[a:b].reshape(-1, batch_size, X.shape[1]), y[a:b].reshape(-1, batch_size))
               for a, b in zip(bounds, bounds[1:])]
    if full < n:
        batches.append((X[full:], y[full:]))
    total = 0.0
    for X_batches, y_batches in batches:
        losses = _batch_loss(model, X_batches, y_batches, None).data
        for loss in losses.reshape(-1).tolist():
            total += loss * y_batches.shape[-1]
    return total / n


def _pack_parameters(params: list) -> tuple[np.ndarray, np.ndarray]:
    """Copy ``params`` into one flat arena; returns its values and its gradient.

    Each parameter keeps its Tensor, but its ``data`` and ``_grad_slot``
    become C-contiguous views of its slice of the two arrays, and its
    ``grad`` is unset. The gradient arena starts uninitialized: a step
    writes every slot before the update reads it.
    """
    theta = np.concatenate([p.data.reshape(-1) for p in params])
    grad = np.empty_like(theta)
    start = 0
    for p in params:
        stop = start + p.size
        p.data = theta[start:stop].reshape(p.shape)
        p._grad_slot = grad[start:stop].reshape(p.shape)
        p.grad = None
        start = stop
    return theta, grad


def _check_dataset(model: Model, ds: Dataset, verb: str) -> None:
    """A ConfigError unless ``ds`` has rows and the model's class count."""
    if len(ds) == 0:
        raise ConfigError(f"cannot {verb} on an empty dataset")
    if ds.class_count != model.class_count:
        raise ConfigError(f"model has {model.class_count} classes but dataset has {ds.class_count}")


def fit(model: Model, train_ds: Dataset, opt: OptimConfig) -> tuple[Model, dict]:
    """Train in place; returns the model and its epoch history.

    Each epoch reshuffles with a generator seeded by (run seed, epoch),
    so histories are bitwise reproducible. Training stops early once the
    loss plateaus, and raises TrainingDiverged the moment a batch loss
    goes non-finite.

    The parameters are first packed into one flat arena, so a step
    updates every parameter with one :func:`sgd_step`. Each step unsets
    the gradients, and ``backward`` writes each parameter's first
    contribution straight into its slot of the gradient arena, with the
    bits of adding it to zeros; a slot no contribution reached is
    zero-filled before the update. The step drops its loss, and with it
    the tape, before the update. The model keeps its Tensor objects, now
    views of the arena.
    """
    _check_dataset(model, train_ds, "fit")
    cfg = model.config.margin
    params = model.parameters()
    theta, grad = _pack_parameters(params)
    flat_params, flat_grads = [Tensor(theta)], [grad]
    velocities: list | None = None
    queue = EmbeddingQueue(cfg.queue_capacity) if cfg.family == "broadface" else None
    n = len(train_ds)
    X_all = train_ds.features.data
    y_all = train_ds.labels

    history = {
        "initial_loss": _dataset_loss(model, train_ds, opt.batch_size),
        "epoch_loss": [],
        "epoch_accuracy": [],
        "stopped_early_at": None,
    }
    trajectory: list[float] = [history["initial_loss"]]
    best_loss = np.inf
    stale_epochs = 0

    for epoch in range(1, opt.epochs + 1):
        perm = np.random.default_rng((opt.seed, epoch)).permutation(n)
        epoch_total = 0.0
        for batch_index, start in enumerate(range(0, n, opt.batch_size)):
            idx = perm[start : start + opt.batch_size]
            loss = _batch_loss(model, X_all[idx], y_all[idx], queue)
            value = loss.item()
            trajectory.append(value)
            if not math.isfinite(value):
                raise TrainingDiverged(epoch, batch_index, trajectory)
            for p in params:
                p.grad = None
            backward(loss)
            del loss  # frees the tape, the batch gather included, before the update
            for p in params:
                if p.grad is None:  # no contribution reached it
                    p._grad_slot.fill(0.0)
                    p.grad = p._grad_slot
            velocities = sgd_step(flat_params, flat_grads, velocities, opt)
            epoch_total += value * idx.shape[0]
        epoch_loss = epoch_total / n
        history["epoch_loss"].append(epoch_loss)
        history["epoch_accuracy"].append(evaluate(model, train_ds))
        if not np.isfinite(best_loss) or epoch_loss < best_loss - PLATEAU_REL * max(abs(best_loss), 1e-12):
            best_loss = epoch_loss
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= PLATEAU_WINDOW:
                history["stopped_early_at"] = epoch
                break
    return model, history


def evaluate(model: Model, ds: Dataset) -> float:
    """Top-1 accuracy under the head's decision rule.

    Margin families classify by angle, so scores use unit weight
    columns; any train-time scale or margin shift cancels at argmax. The
    raw-logit baseline keeps its weights as trained. A row whose
    features come out non-finite, from finite weights too large, say,
    raises DomainError rather than being scored. The encoder and lift run
    on constant Tensors (:func:`_constant`), so they record nothing and
    keep no layer input or mask for a backward.
    """
    _check_dataset(model, ds, "evaluate")
    W = model.head.W.data
    columns = W if model.config.margin.family == "cce" else W / _norms(W, 0, "weight column")
    model = _constant(model)
    hits = 0
    for start in range(0, len(ds), _EVAL_CHUNK):
        stop = min(start + _EVAL_CHUNK, len(ds))
        pred = np.argmax(_finite_features(model, ds.features.data[start:stop]) @ columns, axis=1)
        hits += int(np.sum(pred == ds.labels[start:stop]))
    return hits / len(ds)


def seeded_run(model_cfg: ModelConfig, data_cfg: DataConfig, opt: OptimConfig,
               seed: int) -> tuple[Model, OptimConfig, Dataset, Dataset]:
    """Everything a run seed pins: (untrained model, its OptimConfig, train set, test set).

    The dataset draw, split and weight init derive from ``seed``, and
    ``opt.seed`` is set to it, so the epoch shuffles do too. The model
    comes back untrained, so a caller can tell data errors from failed
    training.
    """
    train_ds, test_ds = build_datasets(data_cfg, seed)
    model = build_model(model_cfg, train_ds.dim, train_ds.class_count, init_seed(seed))
    return model, dataclasses.replace(opt, seed=seed), train_ds, test_ds


def experiment_name(model_cfg: ModelConfig, data_cfg: DataConfig) -> str:
    proj = "proj" if model_cfg.projection_enabled else "noproj"
    return f"{data_cfg.kind}-{model_cfg.margin.family}-{proj}"


@dataclass(frozen=True)
class RunReport:
    """Aggregate of one experiment over its seeds.

    Accuracies and digests are keyed by seed and cover only the seeds
    that finished; ``failures`` maps each seed that diverged or raised
    another library error to how it failed ("diverged" or "failed:
    <error>"), in seed order. Wall time and failure texts are
    bookkeeping, not identity: fingerprint() ignores them.
    """

    experiment: str
    config: dict
    seeds: tuple
    accuracies: dict
    record_digests: dict
    wall_time_s: float
    failures: dict = field(default_factory=dict)

    @property
    def failed_seeds(self) -> tuple:
        return tuple(self.failures)

    @property
    def mean_accuracy(self) -> float:
        if not self.accuracies:
            return float("nan")
        return float(np.mean([self.accuracies[s] for s in sorted(self.accuracies)]))

    @property
    def std_accuracy(self) -> float:
        if not self.accuracies:
            return float("nan")
        # numpy's default is the population form: divide by N, not N - 1
        return float(np.std([self.accuracies[s] for s in sorted(self.accuracies)]))

    def fingerprint(self) -> str:
        """sha256 over everything reproducible: config, seeds, outcomes."""
        payload = {
            "experiment": self.experiment,
            "config": self.config,
            "seeds": list(self.seeds),
            "accuracies": {str(s): format(a, ".17g") for s, a in sorted(self.accuracies.items())},
            "failed_seeds": list(self.failed_seeds),
            "record_digests": {str(s): d for s, d in sorted(self.record_digests.items())},
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _checked_seeds(seeds) -> tuple:
    """``seeds`` as a tuple of ints, each through the one seed rule; a non-sequence, none or a duplicate is a ConfigError."""
    seeds = _as_ints("seeds", seeds, "seed")
    if not seeds:
        raise ConfigError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"duplicate seeds in {seeds}")
    return seeds


def run_experiment(model_cfg: ModelConfig, data_cfg: DataConfig, opt: OptimConfig,
                   seeds, results_dir: str | None = None) -> RunReport:
    """Train once per seed, persist each run record under :func:`experiment_name`, aggregate.

    Per seed, :func:`seeded_run` derives the dataset draw, split,
    parameter init and shuffles from that seed, so one integer pins the
    whole run. A seed whose training or evaluation raises a library
    error (a divergence, a degenerate input, a domain error) is reported
    as failed rather than aborting the batch.
    """
    seeds = _checked_seeds(seeds)
    name = experiment_name(model_cfg, data_cfg)
    out_dir = results_dir if results_dir is not None else results_store.default_results_dir()
    config_echo = {"model": model_cfg.to_dict(), "data": data_cfg.to_dict(), "optim": opt.to_dict()}
    accuracies: dict[int, float] = {}
    digests: dict[int, str] = {}
    failures: dict[int, str] = {}
    total_wall = 0.0
    for seed in seeds:
        started = time.perf_counter()
        model, seed_opt, train_ds, test_ds = seeded_run(model_cfg, data_cfg, opt, seed)
        try:
            model, history = fit(model, train_ds, seed_opt)
            test_acc = evaluate(model, test_ds)
        except SphereheadError as err:
            failures[seed] = "diverged" if isinstance(err, TrainingDiverged) else f"failed: {err}"
            total_wall += time.perf_counter() - started
            continue
        wall = time.perf_counter() - started
        total_wall += wall
        record = {
            "experiment": name,
            "seed": seed,
            "config": config_echo,
            "wall_time_s": wall,
            "initial_loss": history["initial_loss"],
            "final_train_accuracy": history["epoch_accuracy"][-1],
            "final_test_accuracy": test_acc,
            "stopped_early_at": history["stopped_early_at"],
            "epoch_loss": history["epoch_loss"],
            "epoch_accuracy": history["epoch_accuracy"],
        }
        results_store.save_run(out_dir, record)
        accuracies[seed] = test_acc
        digests[seed] = results_store.record_digest(record)
    return RunReport(
        experiment=name,
        config=config_echo,
        seeds=seeds,
        accuracies=accuracies,
        record_digests=digests,
        wall_time_s=total_wall,
        failures=failures,
    )


def _table_key(report: RunReport) -> tuple[str, str, bool]:
    model = report.config["model"]
    return (report.config["data"]["kind"], model["margin"]["family"], bool(model["projection_enabled"]))


def emit_table(reports) -> str:
    """Render mean+-std accuracy as a with/without-embedding comparison.

    Every (dataset, family) needs both embedding settings; the strictly
    better mean in a pair is starred. Rows follow the canonical family
    order, datasets sort by name.
    """
    reports = list(reports)
    if not reports:
        raise LayoutError("no reports to tabulate")
    cells: dict[tuple[str, str, bool], RunReport] = {}
    for report in reports:
        key = _table_key(report)
        if key in cells:
            raise LayoutError(
                f"duplicate report for dataset {key[0]!r}, family {key[1]!r}, projection={key[2]}"
            )
        if not report.accuracies:
            raise LayoutError(f"report {report.experiment!r} has no finished seeds")
        cells[key] = report
    for dataset, family in sorted({key[:2] for key in cells}):
        for flag, label in ((True, "on"), (False, "off")):
            if (dataset, family, flag) not in cells:
                raise LayoutError(
                    f"dataset {dataset!r}, family {family!r} is missing its projection={label} run"
                )

    def cell(report: RunReport, other: RunReport) -> str:
        text = f"{100.0 * report.mean_accuracy:.2f}+-{100.0 * report.std_accuracy:.2f}"
        if report.mean_accuracy > other.mean_accuracy:
            text += "*"
        return text

    lines = ["test accuracy, mean+-std over seeds (percent); * marks the better mean"]
    for dataset in sorted({key[0] for key in cells}):
        lines.append("")
        lines.append(f"dataset: {dataset}")
        lines.append(f"{'loss':<12} {'projection on':>16} {'projection off':>16}")
        for family in FAMILIES:
            if (dataset, family, True) not in cells:
                continue
            on, off = cells[dataset, family, True], cells[dataset, family, False]
            lines.append(f"{family:<12} {cell(on, off):>16} {cell(off, on):>16}")
    return "\n".join(lines) + "\n"
