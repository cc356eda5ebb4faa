"""The project-rows workload: ``spherehead project`` through ``cli.main``.

The 100k generated rows are written as ten CSV shards of 10k rows, and
each invocation lifts one shard, cycling through them. Many short
invocations give a median that one slow stretch of the machine cannot
move. The first output of each shard is checked row by row: unit norm,
and a seeded sample round-tripped through ``inverse_project``. Every
later output of that shard must be byte-identical to the first.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
from time import perf_counter

import numpy as np

from spherehead import cli
from spherehead.stereo import inverse_project, project

from calibration import Calibration, speed_between
from inputs import projection_rows, write_projection_csv
from spans import SpanRecorder

ROWS = 100_000
SHARDS = 10
DIM = 16
ROUND_TRIP_SAMPLE = 200  # per shard
PROJECT_CHUNK = 1000


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _invoke(in_path: str, out_path: str) -> tuple[int, float]:
    t0 = perf_counter()
    code = cli.main(["project", "--in", in_path, "--out", out_path])
    return code, perf_counter() - t0


def _check_output(out_path: str, X: np.ndarray, rng: np.random.Generator, checks) -> None:
    """Row checks on the first output of one shard."""
    with open(out_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    P = np.array(",".join(lines).split(","), dtype=np.float64).reshape(len(lines), -1)
    if not checks.check(P.shape == (X.shape[0], X.shape[1] + 1),
                        f"output shape {P.shape}, expected {(X.shape[0], X.shape[1] + 1)}"):
        return
    off_sphere = int(np.sum(np.abs(np.sum(P * P, axis=1) - 1.0) > 1e-12))
    checks.count(X.shape[0], off_sphere, "projected rows with |p|^2 off 1 by more than 1e-12")
    sample = rng.choice(X.shape[0], size=ROUND_TRIP_SAMPLE, replace=False)
    missed = sum(
        1 for i in sample
        if not np.linalg.norm(inverse_project(P[i]).coords - X[i]) <= 1e-9 * np.linalg.norm(X[i])
    )
    checks.count(ROUND_TRIP_SAMPLE, missed, "sampled rows that do not round-trip through inverse_project")


def run(seed: int, seconds: float, scratch: str, checks, rec: SpanRecorder | None,
        calibration: Calibration | None) -> dict:
    """Invoke the CLI until ``seconds`` are spent and every shard ran once."""
    X = projection_rows(seed, ROWS, DIM)
    shards = np.array_split(X, SHARDS)
    paths = [os.path.join(scratch, f"points-{k}.csv") for k in range(SHARDS)]
    for path, rows in zip(paths, shards):
        write_projection_csv(path, rows)
    parser_s = []
    for _ in range(5):
        t0 = perf_counter()
        cli.build_parser()
        parser_s.append(perf_counter() - t0)

    rates, scaled_rates, overheads, hashes = [], [], [], {}
    peak_rss_mb = 0.0
    rng = np.random.default_rng([seed, 17])
    before = calibration.point(1) if calibration is not None else None
    started = perf_counter()
    while len(rates) < SHARDS or perf_counter() - started < seconds:
        k = len(rates) % SHARDS
        rows = shards[k].shape[0]
        out_path = os.path.join(scratch, f"lifted-{k}.csv")
        code, wall = _invoke(paths[k], out_path)
        rates.append(rows / wall)
        if calibration is not None:
            # each call is scaled by the kernel timed on both sides of it
            after = calibration.point(1)
            scaled_rates.append(rows / wall / speed_between(before, after))
            before = after
        if rec is not None:
            # the same call under a span, then the per-row projection alone
            rec.begin("cli", f"shard-{k}")
            with rec.span("cli.main"):
                traced_code, traced_wall = _invoke(paths[k], out_path)
            code = code or traced_code
            overheads.append(traced_wall / wall - 1.0)
            rec.begin("rows", f"shard-{k}")
            for start in range(0, rows, PROJECT_CHUNK):
                with rec.span("stereo.project"):
                    for row in shards[k][start:start + PROJECT_CHUNK]:
                        project(row)
        if checks.count(rows, 0 if code == 0 else rows, f"rows rejected: cli project exited {code}"):
            break
        digest = _file_sha256(out_path)
        if k in hashes:
            checks.check(digest == hashes[k], f"shard {k}: project output differs between invocations")
        else:
            hashes[k] = digest
            _check_output(out_path, shards[k], rng, checks)
        if len(rates) == SHARDS:
            # a fixed amount of work: input generation and one pass over the shards
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "throughput": statistics.median(rates),
        "scaled_throughput": statistics.median(scaled_rates) if scaled_rates else 0.0,
        "setup_s": statistics.median(parser_s),
        "peak_rss_mb": peak_rss_mb,
        "counters": {"output_sha256": [hashes.get(k) for k in range(SHARDS)]},
    }
    if rec is not None:
        per_row = [t["stereo.project"] / (ROWS // SHARDS) for _, _, t in rec.by_step("rows")]
        cli_s = [t["cli.main"] for _, _, t in rec.by_step("cli")]
        out["layers"] = {
            "stereo.project_us_per_row": (statistics.median(per_row) * 1e6, "us"),
            "cli.project_overhead_s": (
                statistics.median(c - p * (ROWS // SHARDS) for c, p in zip(cli_s, per_row)), "s"),
            "trace_overhead_frac": (statistics.median(overheads), "ratio"),
        }
    return out
