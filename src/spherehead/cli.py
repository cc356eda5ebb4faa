"""Command-line front end.

Verbs: train (multi-seed experiment into the results store), eval
(re-train a stored run from its seed and score one split), project
(embed delimited rows onto the sphere), export-embeddings (re-train a
stored run and dump its features for external plotting), and report
(render the stored runs as a with/without-projection table).

There is no model serialization anywhere, so eval and export both
reproduce the model by re-training from the recorded config and seed;
records are small and runs are deterministic, which makes that exact.
Data goes to stdout or --out, diagnostics to stderr. Usage problems
exit 2, runtime failures exit 1.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .data import read_delimited
from .errors import DomainError, LayoutError, ParseError, SphereheadError
from .heads import FAMILIES, MarginConfig
from .results import _record_paths, list_runs, load_run
from .stereo import project_rows
from .train import (
    DataConfig,
    ModelConfig,
    OptimConfig,
    RunReport,
    _checked_seeds,
    _constant,
    _finite_features,
    configs_from_echo,
    default_learning_rate,
    emit_table,
    evaluate,
    fit,
    run_experiment,
    seeded_run,
)

__all__ = ["main", "build_parser"]

# rows per formatted write of `spherehead project` and `export-embeddings`;
# one write of the whole array would hold a Python float per value at once
_BLOCK_ROWS = 2048

# the desk-scale CIFAR subset: 100 images per class, downsampled to 8x8
_DESK_CIFAR = {"subset_per_class": 100, "downsample_to": 8}


def _parse_dataset(text: str, parser: argparse.ArgumentParser) -> DataConfig:
    if text == "spirals":
        return DataConfig("two_spirals")
    if text == "blobs":
        return DataConfig("blobs")
    for prefix, kind, key, defaults in (("csv:", "delimited", "path", {}),
                                        ("cifar10:", "cifar10", "dir", _DESK_CIFAR),
                                        ("cifar100:", "cifar100", "dir", _DESK_CIFAR)):
        if text.startswith(prefix):
            value = text[len(prefix):]
            if not value:
                parser.error(f"dataset spec {text!r} is missing its {key}")
            return DataConfig(kind, {key: value, **defaults})
    parser.error(
        f"unknown dataset {text!r}; expected spirals, blobs, csv:<path>, "
        "cifar10:<dir>, or cifar100:<dir>"
    )


def _parse_ints(text: str, flag: str, what: str, parser: argparse.ArgumentParser) -> tuple:
    if text.strip() == "":
        return ()
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        parser.error(f"{flag} wants comma-separated {what}, got {text!r}")


def _margin_from_flags(args, parser: argparse.ArgumentParser) -> MarginConfig:
    if args.queue is not None and args.loss != "broadface":
        parser.error(f"--queue only applies to broadface, not {args.loss}")
    try:
        return MarginConfig.for_family(args.loss, m=args.m, s=args.s,
                                       queue_capacity=args.queue)
    except SphereheadError as err:
        parser.error(str(err))


def _load_record(path: str) -> tuple[dict, tuple]:
    """``load_run(path)`` and the configs its echo was made from; a bad echo is a ParseError naming ``path``."""
    record = load_run(path)
    try:
        return record, configs_from_echo(record["config"])
    except SphereheadError as err:
        raise ParseError(f"{path}: {err}") from err


def _retrain_stored_run(args, parser: argparse.ArgumentParser):
    """Retrain the stored run ``args.run`` names: (record, model, history, the ``args.split`` set).

    ``args.run`` is a record file, or a directory that holds exactly one.
    """
    path = args.run
    if os.path.isdir(path):
        records = _record_paths(path)
        if not records:
            parser.error(f"--run directory {path!r} holds no run records")
        if len(records) > 1:
            parser.error(
                f"--run directory {path!r} holds {len(records)} records; "
                "point at one seed file"
            )
        path = records[0]
    elif not os.path.isfile(path):
        raise FileNotFoundError(f"no run record at {path!r}")
    record, configs = _load_record(path)
    model, opt, train_ds, test_ds = seeded_run(*configs, record["seed"])
    model, history = fit(model, train_ds, opt)
    return record, model, history, (train_ds if args.split == "train" else test_ds)


def _write_rows(fh, rows: np.ndarray) -> None:
    """Write rows as comma-separated lines, one block of rows per write.

    Every value is printed ``%.17g``: 17 significant digits round-trip
    float64, and an integer-valued double below 1e17 prints as ``%d`` would.
    """
    template = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        fh.write((template * block.shape[0]) % tuple(block.ravel().tolist()))


def cmd_train(args, parser: argparse.ArgumentParser) -> int:
    margin = _margin_from_flags(args, parser)
    data_cfg = _parse_dataset(args.dataset, parser)
    try:
        seeds = _checked_seeds(_parse_ints(args.seeds, "--seeds", "integers", parser))
    except SphereheadError as err:
        parser.error(f"--seeds: {err}")
    lr = args.lr if args.lr is not None else default_learning_rate(args.loss)
    try:
        model_cfg = ModelConfig(
            feature_dim=args.feature_dim,
            margin=margin,
            encoder_layers=_parse_ints(args.encoder, "--encoder", "widths", parser),
            projection_enabled=(args.project == "on"),
        )
        opt = OptimConfig(learning_rate=lr, epochs=args.epochs,
                          momentum=args.momentum, batch_size=args.batch)
    except SphereheadError as err:
        parser.error(str(err))
    report = run_experiment(model_cfg, data_cfg, opt, seeds, results_dir=args.out)
    for seed in sorted(report.accuracies):
        print(f"seed {seed}: test accuracy {report.accuracies[seed]:.4f}")
    for seed in report.failed_seeds:
        print(f"seed {seed}: {report.failures[seed]}", file=sys.stderr)
    if report.accuracies:
        print(f"{report.experiment}: test accuracy {100.0 * report.mean_accuracy:.2f}"
              f"+-{100.0 * report.std_accuracy:.2f} over {len(report.accuracies)} seeds")
        return 0
    print(f"{report.experiment}: every seed failed", file=sys.stderr)
    return 1


def cmd_eval(args, parser: argparse.ArgumentParser) -> int:
    record, model, _, ds = _retrain_stored_run(args, parser)
    acc = evaluate(model, ds)
    print(f"{record['experiment']} seed {record['seed']} {args.split} accuracy {acc:.4f}")
    recorded = record["final_test_accuracy"]
    if args.split == "test" and acc != recorded:
        print(f"warning: recorded test accuracy was {recorded:.4f}", file=sys.stderr)
    return 0


def cmd_project(args, parser: argparse.ArgumentParser) -> int:
    X, linenos = read_delimited(args.infile)
    try:
        lifted = project_rows(X) if X.size else X
    except DomainError as err:
        raise type(err)(f"{args.infile}:{linenos[err.row]}: {err.what}") from err
    del X  # free the input before the output text is built
    if args.out is None:
        _write_rows(sys.stdout, lifted)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_rows(fh, lifted)
    return 0


def cmd_export_embeddings(args, parser: argparse.ArgumentParser) -> int:
    record, model, _, ds = _retrain_stored_run(args, parser)
    feats = _finite_features(_constant(model), ds.features.data)  # refused before the file is opened
    labeled = np.column_stack([np.asarray(ds.labels, dtype=np.float64), feats])
    with open(args.out, "w", encoding="utf-8") as fh:
        _write_rows(fh, labeled)
    print(f"wrote {len(ds)} rows of {feats.shape[1]} features to {args.out}")
    return 0


def cmd_report(args, parser: argparse.ArgumentParser) -> int:
    runs = list_runs(args.results)
    reports = []
    for experiment, paths in runs.items():
        records = [_load_record(p)[0] for p in paths]
        for path, record in zip(paths[1:], records[1:]):
            if record["config"] != records[0]["config"]:
                raise LayoutError(f"experiment {experiment!r}: {path} was trained with another config "
                                  f"than {paths[0]}; one experiment's seeds must share one config")
        accuracies = {r["seed"]: r["final_test_accuracy"] for r in records}
        reports.append(RunReport(
            experiment=experiment,
            config=records[0]["config"],
            seeds=tuple(sorted(accuracies)),
            accuracies=accuracies,
            record_digests={},
            wall_time_s=sum(r["wall_time_s"] for r in records),
        ))
    sys.stdout.write(emit_table(reports))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherehead",
        description="train and inspect sphere-embedded angular-margin classifiers",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    train = verbs.add_parser("train", help="run a multi-seed training experiment")
    train.add_argument("--dataset", required=True,
                       help="spirals | blobs | csv:<path> | cifar10:<dir> | cifar100:<dir>")
    train.add_argument("--loss", required=True, choices=FAMILIES)
    train.add_argument("--project", choices=("on", "off"), default="on")
    train.add_argument("--m", type=float, default=None, help="margin (family default if omitted)")
    train.add_argument("--s", type=float, default=None, help="logit scale (family default if omitted)")
    train.add_argument("--queue", type=int, default=None, help="broadface queue capacity")
    train.add_argument("--lr", type=float, default=None, help="step size (family default if omitted)")
    train.add_argument("--momentum", type=float, default=0.92)
    train.add_argument("--epochs", type=int, default=300)
    train.add_argument("--batch", type=int, default=128)
    train.add_argument("--seeds", default="1,2,3,4,5", help='comma list, e.g. "1,2,3"')
    train.add_argument("--feature-dim", dest="feature_dim", type=int, default=16)
    train.add_argument("--encoder", default="512,256", help='hidden widths, e.g. "64,32" or ""')
    train.add_argument("--out", default=None, help="results dir (default $SPHEREHEAD_RESULTS or ./results)")

    ev = verbs.add_parser("eval", help="re-train a stored run from its seed and score a split")
    ev.add_argument("--run", required=True, help="path to a run record file")
    ev.add_argument("--split", choices=("train", "test"), default="test")

    proj = verbs.add_parser("project", help="map delimited numeric rows onto the sphere")
    proj.add_argument("--in", dest="infile", required=True, help="delimited numeric input file")
    proj.add_argument("--out", default=None, help="output file (default stdout)")

    export = verbs.add_parser("export-embeddings",
                              help="re-train a stored run and dump labeled features")
    export.add_argument("--run", required=True, help="path to a run record file")
    export.add_argument("--split", choices=("train", "test"), default="test")
    export.add_argument("--out", required=True, help="output file for label,feature rows")

    report = verbs.add_parser("report", help="render stored runs as a comparison table")
    report.add_argument("--results", default=None,
                        help="results dir (default $SPHEREHEAD_RESULTS or ./results)")
    return parser


_HANDLERS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "project": cmd_project,
    "export-embeddings": cmd_export_embeddings,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.verb]
    try:
        return handler(args, parser)
    except (SphereheadError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
