"""Plain-text run records: one self-describing file per (experiment, seed).

Layout on disk is ``<results_dir>/<experiment>/<seed>.txt``. A record
carries the full config echo, the per-epoch history, and the final
accuracies, with every float printed at 17 significant digits so a
parsed record reproduces the original values bit for bit. There is no
binary model serialization anywhere: reproducing a run means re-training
from its recorded config and seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

from .data import _read_lines
from .errors import ParseError

__all__ = [
    "default_results_dir",
    "save_run",
    "load_run",
    "run_path",
    "list_runs",
    "record_digest",
]

_MAGIC = "spherehead-run v1"

# scalar fields in file order; histories follow as a block
_FLOAT_FIELDS = ("wall_time_s", "initial_loss", "final_train_accuracy", "final_test_accuracy")


def default_results_dir() -> str:
    """Results root: $SPHEREHEAD_RESULTS if set, else ./results."""
    return os.environ.get("SPHEREHEAD_RESULTS", "results")


def run_path(results_dir: str, experiment: str, seed: int) -> str:
    return os.path.join(results_dir, experiment, f"{seed}.txt")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def serialize_record(record: dict) -> str:
    """Render a run record to its text form (also the digest input)."""
    lines = [
        _MAGIC,
        f"experiment: {record['experiment']}",
        f"seed: {record['seed']}",
        "config: " + json.dumps(record["config"], sort_keys=True, separators=(",", ":")),
    ]
    for key in _FLOAT_FIELDS:
        lines.append(f"{key}: {_fmt(record[key])}")
    stopped = record.get("stopped_early_at")
    lines.append(f"stopped_early_at: {'none' if stopped is None else int(stopped)}")
    lines.append("history: epoch loss accuracy")
    for i, (loss, acc) in enumerate(zip(record["epoch_loss"], record["epoch_accuracy"]), start=1):
        lines.append(f"{i} {_fmt(loss)} {_fmt(acc)}")
    return "\n".join(lines) + "\n"


def save_run(results_dir: str, record: dict) -> str:
    """Write one record under results_dir; returns the file path.

    The text goes to a temporary file in the same directory, which then
    replaces the record in one rename, so an interrupted write leaves the
    previous record (or none) in place, never a truncated one.
    """
    path = run_path(results_dir, record["experiment"], record["seed"])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    text = serialize_record(record)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return path


def load_run(path: str) -> dict:
    """Parse a record file back into the dict shape save_run consumed."""
    lines = _read_lines(path)
    if not lines or lines[0] != _MAGIC:
        raise ParseError(f"{path}: not a run record (missing '{_MAGIC}' header)")
    record: dict = {}
    idx = 1

    def take(key: str, parse=str):
        nonlocal idx
        if idx >= len(lines) or not lines[idx].startswith(key + ": "):
            raise ParseError(f"{path}: expected '{key}:' on line {idx + 1}")
        text = lines[idx][len(key) + 2 :]
        idx += 1
        try:
            return parse(text)
        except ValueError as err:  # json's JSONDecodeError is a ValueError
            raise ParseError(f"{path}:{idx}: bad {key}: {err}") from err

    record["experiment"] = take("experiment")
    record["seed"] = take("seed", int)
    record["config"] = take("config", json.loads)
    for key in _FLOAT_FIELDS:
        record[key] = take(key, float)
    record["stopped_early_at"] = take("stopped_early_at", lambda text: None if text == "none" else int(text))
    if idx >= len(lines) or lines[idx] != "history: epoch loss accuracy":
        raise ParseError(f"{path}: expected history header on line {idx + 1}")
    idx += 1
    losses, accs = [], []
    for lineno, line in enumerate(lines[idx:], start=idx + 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: history rows are 'epoch loss accuracy'")
        try:
            epoch, loss, acc = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as err:
            raise ParseError(f"{path}:{lineno}: bad history row: {err}") from err
        if epoch != len(losses) + 1:
            raise ParseError(f"{path}:{lineno}: history epochs must count up from 1")
        losses.append(loss)
        accs.append(acc)
    record["epoch_loss"] = losses
    record["epoch_accuracy"] = accs
    return record


def list_runs(results_dir: str) -> dict[str, list[str]]:
    """Map experiment name -> sorted record paths under results_dir."""
    out: dict[str, list[str]] = {}
    if not os.path.isdir(results_dir):
        return out
    for experiment in sorted(os.listdir(results_dir)):
        exp_dir = os.path.join(results_dir, experiment)
        if not os.path.isdir(exp_dir):
            continue
        paths = [
            os.path.join(exp_dir, name)
            for name in sorted(os.listdir(exp_dir))
            if name.endswith(".txt")
        ]
        if paths:
            out[experiment] = paths
    return out


def record_digest(record: dict) -> str:
    """sha256 of the record text with the timing line blanked.

    Wall time is the one legitimately non-reproducible field; everything
    else must be identical across reruns of the same config and seed.
    """
    lines = [
        line for line in serialize_record(record).splitlines()
        if not line.startswith("wall_time_s: ")
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
