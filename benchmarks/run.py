"""spherehead benchmark: one workload per call, every metric by name and unit.

Run from the repository root:

    python3 benchmarks/run.py --workload spirals-b32 --seed 1 --seconds 20 --trace 0

Workloads: spirals-b32, cifar-b512, broadface-q256, project-rows (see
benchmarks/README.md). ``--trace 0`` measures the end-to-end metrics
with no tracing; ``--trace 1`` runs the span-traced replay and reports
the per-layer metrics. Metric names and units come from BENCHMARK.json.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Inputs are generated from ``--seed`` under ``.bench_out/`` and removed
at exit; the latest trace and the per-seed counters stay there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("spirals-b32", "cifar-b512", "broadface-q256", "project-rows")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBES = 5
# the calibration kernel that does the same kind of work as each workload
CALIBRATION = {"spirals-b32": "interpreter", "cifar-b512": "blas",
               "broadface-q256": "interpreter", "project-rows": "interpreter"}


def pin_blas_threads() -> None:
    """Run BLAS on one thread, set before numpy loads.

    On a small shared machine a second BLAS thread waits on whichever
    CPU the neighbours hold at that moment: cifar-b512 spread about 10%
    run to run with two threads on two CPUs, and about 1% with one.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_seconds() -> float:
    """Median time to import spherehead in a fresh interpreter that already has numpy.

    An import happens once per process, so set-up time takes it from a
    few short-lived interpreters rather than from one noisy sample.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
            "t = time.perf_counter(); import spherehead; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                               text=True, check=True, timeout=120)
        times.append(float(probe.stdout))
    return statistics.median(times)


def blas_threads_in_effect(np) -> int | None:
    """Ask the OpenBLAS that numpy loaded how many threads it runs."""
    import ctypes

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spherehead").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_counters(path: Path, counters: dict, checks) -> None:
    """Deterministic counters must repeat exactly across runs with one seed."""
    stored = json.loads(path.read_text()) if path.is_file() else {}
    for key, value in counters.items():
        if key in stored:
            checks.check(stored[key] == value, f"counter {key!r} differs from an earlier run with this seed")
        else:
            stored[key] = value
    path.write_text(json.dumps(stored, sort_keys=True))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "spherehead" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no spherehead sources under src/ or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    spherehead = importlib.import_module("spherehead")
    if not Path(spherehead.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported spherehead from {spherehead.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import projection
    import training
    from calibration import Calibration
    from checks import Checks
    from spans import SpanRecorder

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads_in_effect(np),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "machine": platform.machine(),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / "counters").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    checks = Checks()
    rec = SpanRecorder() if args.trace else None
    calibration = None if args.trace else Calibration(CALIBRATION[args.workload])
    try:
        if args.workload == "project-rows":
            res = projection.run(args.seed, args.seconds, scratch, checks, rec, calibration)
        else:
            jobs = training.WORKLOADS[args.workload](args.seed, os.path.join(scratch, "inputs"))
            results_dir = os.path.join(scratch, "results")
            if rec is None:
                res = training.run_untraced(jobs, args.seed, args.seconds, results_dir, checks, calibration)
            else:
                res = training.run_traced(jobs, args.seed, args.seconds, results_dir, checks, rec)
                res["layers"] = training.layer_metrics(jobs, rec, res)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check_counters(OUT / "counters" / f"{args.workload}-seed{args.seed}.json", res["counters"], checks)

    if rec is None:
        setup_s = import_seconds() + res["setup_s"]
        calibration.point()
        speed = calibration.speed()
        print(f"raw: throughput {res['throughput']:.6g} 1/s, setup {setup_s:.6g} s; "
              f"{calibration.kind} kernel {calibration.kernel_s():.6g} s, speed {speed:.4f}")
        measured = {
            "setup_s": (setup_s * speed, "s"),
            "throughput_per_s": (res["scaled_throughput"], "1/s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    else:
        rec.write(str(OUT / f"trace-{args.workload}.json"), dict(env, counters=res["counters"]))
        measured = res["layers"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name in measured:
            value, unit = measured.pop(name)
        elif rec is not None:
            value, unit = 0.0, entry["unit"]  # a layer this workload bypasses
        else:
            raise RuntimeError(f"{name}: declared in BENCHMARK.json but not measured")
        if unit != entry["unit"]:
            raise RuntimeError(f"{name}: measured in {unit}, declared in {entry['unit']}")
        metrics[name] = {"value": float(value), "unit": unit}
    if measured:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(measured)}")

    print(json.dumps({"env": env}))
    for name, m in metrics.items():
        print(f"{name:<38} {m['value']:>16.6g} {m['unit']}")
    for note in checks.failures:
        print(f"check failed: {note}", file=sys.stderr)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
