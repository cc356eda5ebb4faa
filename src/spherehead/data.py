"""Dataset construction: synthetic 2D benchmarks, delimited text, CIFAR bytes.

The loaders return a :class:`Dataset` holding a constant feature tensor
and integer labels. Construction validates shapes, label ranges, and
finiteness once so downstream code can trust them. :func:`read_delimited`
is the one delimited-text parser, shared by :func:`load_delimited` and
``spherehead project``. All generators and
loaders are deterministic functions of their arguments, seeds included.

A :class:`DataConfig` is checked against one table of each kind's params
(check and default) when it is made; :func:`build_datasets` turns it and
a run seed into a train and a test set.

Every config rule of the package lives here: the ``_as_*`` type checks
and ``_BOUNDS``, the range of each bounded field, param and argument.
One function, :func:`_checked`, applies both, for every config (through
:func:`_check_fields`) and argument check alike, so each rule has one wording.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from itertools import compress, count

import numpy as np

from .errors import ConfigError, DomainError, FormatError, LabelError, ParseError, ShapeError
from .ndcore import Tensor, _float64

__all__ = [
    "Dataset",
    "SplitSpec",
    "DataConfig",
    "build_datasets",
    "gen_two_spirals",
    "gen_gaussian_blobs",
    "load_delimited",
    "read_delimited",
    "load_cifar_binary",
    "split",
]

# each flavour's (batch files, class count, label byte); a record is its label bytes, then the pixels
_CIFAR = {
    "cifar10": (["data_batch_1.bin", "data_batch_2.bin", "data_batch_3.bin",
                 "data_batch_4.bin", "data_batch_5.bin", "test_batch.bin"], 10, 0),
    "cifar100": (["train.bin", "test.bin"], 100, 1),
}
_CIFAR_PIXELS = 3072  # 3 planes of 32 x 32
_CIFAR_SIDE = 32


def _checked_labels(labels, class_count: int | None) -> np.ndarray:
    """Labels as a new flat int64 array, checked to be integers in [0, class_count).

    Integer and boolean dtypes pass, and floats that are finite integers;
    NaN, inf, fractions and any other dtype are a :class:`LabelError`.
    ``class_count=None`` checks only that no label is negative.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be a flat sequence, got shape {labels.shape}")
    integral = labels.dtype.kind in "biu"
    if labels.dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # NaN, inf and |x| >= 2**63 cast to integers they do not equal
            integral = bool(np.all(labels == labels.astype(np.int64)))
    if not integral:
        raise LabelError("labels must be integers")
    labels = labels.astype(np.int64)
    high = np.inf if class_count is None else class_count
    if labels.size and (labels.min() < 0 or labels.max() >= high):
        raise LabelError(f"labels must lie in [0, {high}), got range [{labels.min()}, {labels.max()}]")
    return labels


def _as_int(name: str, value) -> int:
    """``value`` as an int if it is an integer, Python or numpy but not bool; else a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_real(name: str, value):
    """``value`` if it is a real number that fits a float64 but not a bool, a numpy scalar as its Python value.

    Anything else is a ConfigError; an int kept as given is one that
    converts to a float64 without overflow.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        # no repr: a Python int past 4300 digits cannot be printed
        raise ConfigError(f"{name} must fit a float64, got a number too large for one") from None
    return value.item() if isinstance(value, np.generic) else value


def _as_bool(name: str, value) -> bool:
    """``value`` as a bool if it is one, Python or numpy; else a ConfigError."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _as_str(name: str, value) -> str:
    """``value`` if it is a str; else a ConfigError."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _as_optional_int(name: str, value) -> int | None:
    return value if value is None else _as_int(name, value)


def _as_ints(name: str, values, item: str) -> tuple:
    """``values``, a sequence (not a string) of integers, as a tuple of ints, each :func:`_checked` as ``item``."""
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise ConfigError(f"{name} must be a sequence of integers, got {values!r}")
    return tuple(_checked(item, _as_int, v) for v in values)


# the range of every bounded config field, data param and argument, by the name its errors give it:
# name -> (test a value must pass, what the error says it must do)
_BOUNDS = {
    **dict.fromkeys(["n_per_class", "subset_per_class", "feature_dim", "encoder width", "epochs", "batch_size",
                     "input_dim", "class count"], (lambda n: n >= 1, "be at least 1")),
    "classes": (lambda c: c >= 2, "be at least 2"),
    **dict.fromkeys(["learning_rate", "noise_sd", "spread"],
                    (lambda x: 0.0 <= x < math.inf, "be finite and non-negative")),
    "momentum": (lambda x: 0.0 <= x < 1.0, "be in [0, 1)"),
    "s": (lambda x: 0.0 < x < math.inf, "be positive and finite"),
    **dict.fromkeys(["m", "radius"], (math.isfinite, "be finite")),
    "downsample_to": (lambda k: k >= 1 and _CIFAR_SIDE % k == 0, f"divide {_CIFAR_SIDE}"),
    "seed": (lambda s: s >= 0, "be non-negative"),
    "train fraction": (lambda f: 0.0 < f < 1.0, "be in (0, 1)"),
    "queue_capacity": (lambda q: q >= 0, "be non-negative"),
}


def _checked(name: str, check, value, what: str | None = None):
    """``value`` through the type check ``check``, then, unless it is None, the range ``_BOUNDS`` gives ``name``.

    Either failing is a ConfigError naming ``name`` (``what``, if given, for the type).
    """
    value = check(what or name, value)
    if value is not None and name in _BOUNDS:
        test, must = _BOUNDS[name]
        if not test(value):
            raise ConfigError(f"{name} must {must}, got {value}")
    return value


def _check_fields(obj, checks: dict) -> None:
    """Store in each field of the frozen ``obj`` what :func:`_checked` returns for it, in ``checks``' order.

    ``checks`` maps a field to its type check, or to (rule name, check) where the names differ.
    """
    for name, check in checks.items():
        rule, check = check if isinstance(check, tuple) else (name, check)
        object.__setattr__(obj, name, _checked(rule, check, getattr(obj, name)))


def _as_seed(value) -> int:
    """The one seed rule, for run and shuffle seeds alike: a non-negative integer, else a ConfigError."""
    return _checked("seed", _as_int, value)


class Dataset:
    """Immutable bundle of features [N, n], labels [N], and class count.

    Features that are not finite real numbers (complex, string or object
    ones included) or not [N, n] are a :class:`ShapeError`, and a class
    count that is not an integer of at least 1 a :class:`ConfigError`.
    """

    __slots__ = ("features", "labels", "class_count", "name")

    def __init__(self, features, labels, class_count: int, name: str):
        if isinstance(features, Tensor):
            features = features.data
        features = _float64(features, ShapeError, "features")
        if features.ndim != 2:
            raise ShapeError(f"features must be [N, n], got shape {features.shape}")
        if not np.all(np.isfinite(features)):
            raise ShapeError("features contain non-finite values")
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ShapeError(
                f"{features.shape[0]} feature rows need {features.shape[0]} labels, got shape {labels.shape}"
            )
        class_count = _checked("class count", _as_int, class_count)
        self.features = Tensor(features)
        self.labels = _checked_labels(labels, class_count)
        self.class_count = class_count
        self.name = str(name)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        """Row subset as a new dataset; class count and name carry over."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features.data[indices], self.labels[indices], self.class_count, self.name)


@dataclass(frozen=True)
class SplitSpec:
    """How to partition a dataset: fraction to train, in (0, 1), and shuffle seed (:func:`_as_seed`)."""

    train_fraction: float
    shuffle_seed: int

    def __post_init__(self):
        _check_fields(self, {"train_fraction": ("train fraction", _as_real), "shuffle_seed": ("seed", _as_int)})


def gen_two_spirals(n_per_class: int, noise_sd: float, seed: int) -> Dataset:
    """Two interleaved spirals around the origin, one per class.

    Class 0 follows r(t) = t (cos t, sin t) for t in [pi/2, 4 pi];
    class 1 is its point-wise negation, which puts opposite-class arms
    about pi apart along any ray. Gaussian noise is added to every
    point, then features are standardized to zero mean and unit
    per-axis variance. The mean is summed half by half so that with
    zero noise the exact negation symmetry cancels and the centering is
    an exact no-op.
    """
    n_per_class = _checked("n_per_class", _as_int, n_per_class)
    noise_sd = _checked("noise_sd", _as_real, noise_sd)
    rng = np.random.default_rng(_as_seed(seed))
    t = rng.uniform(np.pi / 2.0, 4.0 * np.pi, size=n_per_class)
    base = t[:, None] * np.stack([np.cos(t), np.sin(t)], axis=1)
    features = np.vstack([base, -base])
    features = features + rng.normal(0.0, noise_sd, size=features.shape)
    halves = features[:n_per_class].sum(axis=0) + features[n_per_class:].sum(axis=0)
    features = features - halves / (2.0 * n_per_class)
    sd = features.std(axis=0)
    features = features / np.where(sd > 0.0, sd, 1.0)
    labels = np.repeat([0, 1], n_per_class)
    return Dataset(features, labels, 2, "two-spirals")


def gen_gaussian_blobs(C: int, n_per_class: int, spread: float, radius: float, seed: int) -> Dataset:
    """C isotropic Gaussian clusters, means equally spaced on a circle.

    Mean of class c sits at radius * (cos(2 pi c / C), sin(2 pi c / C));
    features are centered on their empirical mean afterwards.
    """
    C = _checked("classes", _as_int, C)
    n_per_class = _checked("n_per_class", _as_int, n_per_class)
    spread = _checked("spread", _as_real, spread)
    radius = _checked("radius", _as_real, radius)
    rng = np.random.default_rng(_as_seed(seed))
    angles = 2.0 * np.pi * np.arange(C) / C
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    features = np.repeat(means, n_per_class, axis=0)
    features = features + rng.normal(0.0, spread, size=features.shape)
    features = features - features.mean(axis=0)
    labels = np.repeat(np.arange(C), n_per_class)
    return Dataset(features, labels, C, "blobs")


def _read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file; a byte that is not UTF-8 is a ParseError naming its line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read().splitlines()
        except UnicodeDecodeError as err:
            # read() decodes the whole file in one call, so err.object holds all of its bytes
            lineno = len((err.object[:err.start].decode("utf-8") + "x").splitlines())
            raise ParseError(f"{path}:{lineno}: not UTF-8 text: {err.reason}") from err


# rows per numpy parse call and per formatted write; whole-file blocks
# would hold a Python string per cell of the file at once
_BLOCK_ROWS = 2048


def read_delimited(path: str, delimiter: str = ",", header: bool = False):
    """Parse the non-blank lines of a delimited numeric file into float64 [N, width].

    Returns the array and a sequence holding the 1-based line number of
    each row. With ``header`` the first line is skipped. The first row
    sets the width; no rows give a [0, 0] array. Each block of lines is
    joined, split into cells and converted by one numpy call, which
    accepts and rounds each cell exactly as ``float()`` does. If a block
    fails, the rows are parsed again one line at a time, which raises
    :class:`ParseError` at ``path:lineno`` for a ragged row or a cell
    that is not a number, as does a byte that is not UTF-8. An empty
    delimiter is a :class:`ConfigError`.
    """
    if not delimiter:
        raise ConfigError(f"{path}: the delimiter must be a non-empty string, got {delimiter!r}")
    first = 2 if header else 1  # line number of the first line read
    lines = _read_lines(path)[first - 1:]
    rows = list(filter(str.strip, lines))
    if len(rows) == len(lines):
        linenos = range(first, first + len(rows))
    else:  # blank lines: number the rows in one pass that runs in C
        linenos = list(compress(count(first), map(str.strip, lines)))
    if not rows:
        return np.empty((0, 0)), linenos
    width = rows[0].count(delimiter) + 1
    X = np.empty((len(rows), width))
    try:
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            if any(line.count(delimiter) != width - 1 for line in block):
                raise ValueError("ragged rows")
            cells = np.array(delimiter.join(block).split(delimiter), dtype=np.float64)
            X[start:start + len(block)] = cells.reshape(len(block), width)
    except ValueError:
        X = np.array([_parse_line(path, lineno, line, delimiter, width)
                      for lineno, line in zip(linenos, rows)])
    return X, linenos


def _parse_line(path: str, lineno: int, line: str, delimiter: str, width: int) -> list:
    """One row's cells as floats, or :class:`ParseError` naming the line and column."""
    cells = line.split(delimiter)
    if len(cells) != width:
        raise ParseError(f"{path}:{lineno}: expected {width} columns, got {len(cells)}")
    values = []
    for col, cell in enumerate(cells, start=1):
        try:
            values.append(float(cell))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: column {col}: not a number: {cell.strip()!r}") from None
    return values


def load_delimited(path: str, delimiter: str = ",", label_column: int = 0,
                   header: bool = False) -> Dataset:
    """Read a rectangular numeric text file; one column holds the labels.

    Rows come from :func:`read_delimited`. Labels are remapped to a dense
    [0, C) range in sorted order of the distinct raw values. Errors name
    the 1-based line: :class:`ParseError` for a bad cell (with its
    column), a ragged row or a label that is not integer-valued, and
    :class:`DomainError` for a non-finite feature.
    """
    X, linenos = read_delimited(path, delimiter, header)
    if not len(X):
        raise ParseError(f"{path}: no data rows")
    width = X.shape[1]
    if width < 2:
        raise ParseError(f"{path}:{linenos[0]}: need a label column and at least one feature")
    if not -width <= label_column < width:
        raise ParseError(f"{path}: label column {label_column} out of range for {width} columns")
    raw = X[:, label_column]
    bad = np.flatnonzero(~np.isfinite(raw) | (raw != np.trunc(raw)))
    if bad.size:
        raise ParseError(f"{path}:{linenos[bad[0]]}: label column must be integer-valued, "
                         f"found {float(raw[bad[0]])!r}")
    features = np.delete(X, label_column, axis=1)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise DomainError(f"{path}:{linenos[bad[0]]}: non-finite entries")
    distinct, labels = np.unique(raw, return_inverse=True)
    return Dataset(features, labels, len(distinct), os.path.basename(path))


def _mean_pool(planes: np.ndarray, side_out: int) -> np.ndarray:
    """Average-pool [N, 3, 32, 32] down to [N, 3, k, k]."""
    n = planes.shape[0]
    factor = _CIFAR_SIDE // side_out
    pooled = planes.reshape(n, 3, side_out, factor, side_out, factor)
    return pooled.mean(axis=(3, 5))


def _read_cifar(dir: str, which: str, subset_per_class: int | None, downsample_to: int | None,
                subset_seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The checked bytes of a CIFAR directory: (uint8 pixel rows [N, 3072], int64 labels, class count).

    The files are read into one array sized from their lengths. The
    subset is chosen from the label bytes, so a caller converts only the
    rows it keeps. ``downsample_to`` is checked here, not applied.
    """
    if which not in _CIFAR:
        raise ConfigError(f'which must be "cifar10" or "cifar100", got {which!r}')
    subset_per_class = _checked("subset_per_class", _as_optional_int, subset_per_class)
    _checked("downsample_to", _as_optional_int, downsample_to)
    subset_seed = _as_seed(subset_seed)
    filenames, class_count, label_byte = _CIFAR[which]
    record = label_byte + 1 + _CIFAR_PIXELS
    paths = [os.path.join(dir, filename) for filename in filenames]
    sizes = []
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing CIFAR batch file: {path}")
        size = os.path.getsize(path)
        if size == 0 or size % record != 0:
            raise FormatError(f"{path}: length {size} is not a positive multiple of the {record}-byte record")
        sizes.append(size)
    records = np.empty((sum(sizes) // record, record), dtype=np.uint8)
    flat, start = records.reshape(-1), 0
    for path, size in zip(paths, sizes):
        with open(path, "rb") as fh:
            if fh.readinto(flat[start:start + size]) != size:
                raise FormatError(f"{path}: shorter than its {size} bytes when read")
        start += size
    labels = records[:, label_byte].astype(np.int64)
    if labels.max() >= class_count:
        raise FormatError(f"label byte {labels.max()} out of range for {which}")
    pixels = records[:, -_CIFAR_PIXELS:]
    if subset_per_class is not None:
        rng = np.random.default_rng(subset_seed)
        keep = []
        for c in range(class_count):
            pool = np.flatnonzero(labels == c)
            if pool.size < subset_per_class:
                raise FormatError(
                    f"class {c} has {pool.size} samples, fewer than subset_per_class={subset_per_class}"
                )
            keep.append(rng.choice(pool, size=subset_per_class, replace=False))
        order = np.sort(np.concatenate(keep))
        pixels, labels = pixels[order], labels[order]
    return pixels, labels, class_count


def _cifar_features(pixels: np.ndarray, downsample_to: int | None) -> np.ndarray:
    """uint8 pixel rows [N, 3072] as float64 features in [0, 1], each plane mean-pooled to k x k if asked.

    One float array is made per call (and the pooled one, when pooling),
    and a row's bits do not depend on which other rows come with it.
    """
    features = pixels.astype(np.float64)
    features /= 255.0
    if downsample_to is not None:
        planes = _mean_pool(features.reshape(-1, 3, _CIFAR_SIDE, _CIFAR_SIDE), downsample_to)
        features = planes.reshape(planes.shape[0], -1)
    return features


def load_cifar_binary(dir: str, which: str, subset_per_class: int | None = None,
                      downsample_to: int | None = None, subset_seed: int = 0) -> Dataset:
    """Ingest the standard CIFAR binary batches from a directory.

    cifar10 records are 3073 bytes (label + planar RGB pixels); cifar100
    records are 3074 (coarse label, fine label, pixels) and the fine
    label is used. All standard files for the flavor are required and
    concatenated. Pixels scale to [0, 1]; ``downsample_to`` mean-pools
    each plane to k x k; ``subset_per_class`` keeps that many rows per
    class, chosen by ``subset_seed``, which passes the seed rule
    (:func:`_as_seed`) whether or not a subset is asked for.
    """
    pixels, labels, class_count = _read_cifar(dir, which, subset_per_class, downsample_to, subset_seed)
    return Dataset(_cifar_features(pixels, downsample_to), labels, class_count, which)


def _split_rows(n: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (train, test) row indices of n rows under ``spec``; an empty side is a ConfigError."""
    n_train = int(round(spec.train_fraction * n))
    if n_train < 1 or n_train >= n:
        raise ConfigError(
            f"fraction {spec.train_fraction} of {n} rows leaves an empty side ({n_train} train)"
        )
    perm = np.random.default_rng(spec.shuffle_seed).permutation(n)
    return perm[:n_train], perm[n_train:]


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled partition into train and test.

    Train gets round(fraction * N) rows; the two sides are disjoint and
    cover the dataset. Class count metadata carries to both sides.
    """
    train, test = _split_rows(len(ds), spec)
    return ds.take(train), ds.take(test)


_REQUIRED = object()  # the default of a param its kind cannot do without
_CIFAR_PARAMS = {"dir": (_as_str, _REQUIRED), "subset_per_class": (_as_optional_int, None),
                 "downsample_to": (_as_optional_int, None)}
# each data kind's params, in the order its errors list them: name -> (check, default)
_DATA_PARAMS = {
    "two_spirals": {"n_per_class": (_as_int, 500), "noise_sd": (_as_real, 0.1)},
    "blobs": {"classes": (_as_int, 4), "n_per_class": (_as_int, 250), "spread": (_as_real, 1.0),
              "radius": (_as_real, 4.0)},
    "delimited": {"path": (_as_str, _REQUIRED), "delimiter": (_as_str, ","), "label_column": (_as_int, 0),
                  "header": (_as_bool, False)},
    "cifar10": _CIFAR_PARAMS,
    "cifar100": _CIFAR_PARAMS,
}


@dataclass(frozen=True)
class DataConfig:
    """Which dataset to build and how to carve out the test side.

    ``params`` may hold only the keys its kind reads, each of the type
    the kind's table checks and in the range ``_BOUNDS`` gives it;
    another key (a misspelt one, say), a wrong type, a value out of range
    or a missing ``path`` or ``dir`` is a ConfigError here. The checked
    values are stored, a numpy scalar as its Python value.
    """

    kind: str
    params: dict = field(default_factory=dict)
    train_fraction: float = 0.7

    def __post_init__(self):
        if self.kind not in _DATA_PARAMS:
            raise ConfigError(f"kind must be one of {tuple(_DATA_PARAMS)}, got {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ConfigError(f"params must be a dict, got {self.params!r}")
        table = _DATA_PARAMS[self.kind]
        for key in self.params:
            if key not in table:
                raise ConfigError(f"unknown {self.kind} param {key!r}; it reads {', '.join(table)}")
        checked = {}
        for key, (check, default) in table.items():
            if key in self.params:
                checked[key] = _checked(key, check, self.params[key], what=f"data param {key!r}")
            elif default is _REQUIRED:
                raise ConfigError(f"{self.kind} data needs a {key!r} parameter")
        object.__setattr__(self, "params", checked)
        _check_fields(self, {"train_fraction": ("train fraction", _as_real)})

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": dict(sorted(self.params.items())),
            "train_fraction": self.train_fraction,
        }


def _seed_streams(seed: int) -> tuple[int, int, int]:
    """The (draw, split, init) seeds of a run seed: the three streams of its SeedSequence.

    Records store only the run seed, so this derivation must never drift.
    A seed that is not a non-negative integer is a ConfigError (:func:`_as_seed`).
    """
    return tuple(int(s) for s in np.random.SeedSequence(_as_seed(seed)).generate_state(3))


def build_datasets(cfg: DataConfig, seed: int) -> tuple[Dataset, Dataset]:
    """Materialize the configured dataset and its train/test partition.

    The generation draw and the split shuffle use independent streams
    spawned from the one seed, so neither leaks randomness into the
    other. CIFAR is split as bytes and each side becomes floats once, so
    the build holds about one float copy of the data; the sides have the
    bits of ``split(load_cifar_binary(...))``.
    """
    gen_seed, split_seed, _ = _seed_streams(seed)
    spec = SplitSpec(cfg.train_fraction, split_seed)
    p = {key: default for key, (_, default) in _DATA_PARAMS[cfg.kind].items()} | cfg.params
    if cfg.kind == "two_spirals":
        ds = gen_two_spirals(p["n_per_class"], p["noise_sd"], gen_seed)
    elif cfg.kind == "blobs":
        ds = gen_gaussian_blobs(p["classes"], p["n_per_class"], p["spread"], p["radius"], gen_seed)
    elif cfg.kind == "delimited":
        ds = load_delimited(p["path"], p["delimiter"], p["label_column"], p["header"])
    else:
        down = p["downsample_to"]
        pixels, labels, class_count = _read_cifar(p["dir"], cfg.kind, p["subset_per_class"], down, gen_seed)
        sides = [(pixels[rows], labels[rows]) for rows in _split_rows(len(labels), spec)]
        del pixels  # free the records before any float array exists; alive, they raised fit's later RSS peaks
        return tuple(Dataset(_cifar_features(side, down), side_labels, class_count, cfg.kind)
                     for side, side_labels in sides)
    return split(ds, spec)
