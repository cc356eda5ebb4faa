import argparse
import io
import json
import os
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from spherehead import cli, train
from spherehead.cli import main
from spherehead.errors import DomainError, ParseError
from spherehead.heads import FAMILIES, MarginConfig
from spherehead.ndcore import Tensor

from .oracles import oracle_lift_row, oracle_render_rows


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


TINY = ["--encoder", "8", "--feature-dim", "4", "--epochs", "2", "--batch", "16",
        "--seeds", "1,2", "--lr", "0.003"]


@pytest.fixture(scope="module")
def trained_store(tmp_path_factory):
    """One tiny paired experiment reused across eval/export/report tests."""
    root = tmp_path_factory.mktemp("results")
    for project in ("on", "off"):
        code, _, _ = run_cli(["train", "--dataset", "blobs", "--loss", "cosface",
                              "--project", project, "--out", str(root)] + TINY)
        assert code == 0
    return str(root)


class TestProjectVerb:
    def test_origin_row_maps_to_south_pole(self, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("0,0\n")
        code, out, err = run_cli(["project", "--in", str(src)])
        assert code == 0
        assert out == "0,0,-1\n"
        assert err == ""

    def test_three_four_row(self, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("3,4\n")
        code, out, _ = run_cli(["project", "--in", str(src)])
        assert code == 0
        values = [float(v) for v in out.strip().split(",")]
        assert values == [3.0 / 13.0, 4.0 / 13.0, 12.0 / 13.0]

    def test_output_rows_are_unit_norm(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = rng.normal(scale=3.0, size=(40, 4))
        src = tmp_path / "pts.csv"
        src.write_text("\n".join(",".join(format(v, ".17g") for v in row) for row in rows) + "\n")
        dst = tmp_path / "out.csv"
        code, out, _ = run_cli(["project", "--in", str(src), "--out", str(dst)])
        assert code == 0
        assert out == ""  # data went to the file
        got = np.loadtxt(str(dst), delimiter=",")
        assert got.shape == (40, 5)
        assert np.max(np.abs((got ** 2).sum(axis=1) - 1.0)) <= 1e-12

    def test_blank_lines_skipped(self, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("1,2\n\n3,4\n")
        code, out, _ = run_cli(["project", "--in", str(src)])
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_non_numeric_reports_line_number(self, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("1,2\n1,oops\n")
        code, out, err = run_cli(["project", "--in", str(src)])
        assert code == 1
        assert ":2:" in err

    def test_ragged_rows_rejected(self, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("1,2\n1,2,3\n")
        code, _, err = run_cli(["project", "--in", str(src)])
        assert code == 1
        assert ":2:" in err

    def test_missing_input_file(self, tmp_path):
        code, _, err = run_cli(["project", "--in", str(tmp_path / "absent.csv")])
        assert code == 1
        assert err != ""

    @pytest.mark.parametrize("text, lineno, error", [
        ("1,2\n1,oops\n", 2, ParseError),
        ("1,2\n\n1,2,3\n", 3, ParseError),
        ("1,2\n3,4\n\nnan,0\n", 4, DomainError),
        ("1,2\ninf,0\n", 2, DomainError),
        ("1,2\n\n3,4\n0,1e155\n", 4, DomainError),
        ("1,2\n2e154,0\n1,oops\n", 3, ParseError),
    ])
    def test_errors_name_the_line_and_write_nothing(self, tmp_path, text, lineno, error):
        src, dst = tmp_path / "pts.csv", tmp_path / "out.csv"
        src.write_text(text)
        args = cli.build_parser().parse_args(["project", "--in", str(src), "--out", str(dst)])
        with pytest.raises(error, match="^" + re.escape(f"{src}:{lineno}: ")):
            cli.cmd_project(args, None)
        assert not dst.exists()

    def test_error_is_the_lift_s_own_words_at_the_line(self, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("1,2\n3,4\n\nnan,0\n5,6\n")
        assert run_cli(["project", "--in", str(src)]) == (1, "", f"error: {src}:4: non-finite entries\n")

    @pytest.mark.parametrize("text", ["", "\n\n  \n\t\n"])
    def test_no_rows_give_empty_output(self, tmp_path, text):
        src, dst = tmp_path / "pts.csv", tmp_path / "out.csv"
        src.write_text(text)
        code, out, err = run_cli(["project", "--in", str(src)])
        assert (code, out, err) == (0, "", "")
        assert run_cli(["project", "--in", str(src), "--out", str(dst)])[0] == 0
        assert dst.read_bytes() == b""

    @pytest.mark.parametrize("text", [
        "1,2\n-3.5,4e-3\n0,0\n",
        "1,2\n-3.5,4e-3\n0,0",  # no trailing newline
        "1,2\r\n-3.5,4e-3\r\n0,0\r\n",
        " 1.5, -0\n1_000,+2\n1e-320 ,\t7\n",  # cells float() accepts
    ])
    def test_output_matches_per_row_rendering(self, tmp_path, text):
        src = tmp_path / "pts.csv"
        src.write_bytes(text.encode())
        code, out, _ = run_cli(["project", "--in", str(src)])
        rows = [[float(v) for v in line.split(",")] for line in text.splitlines()]
        assert (code, out) == (0, oracle_render_rows([oracle_lift_row(x) for x in rows]))

    # block size and +-1 rows, then the 10k x 16 shards of the project-rows benchmark
    @pytest.mark.parametrize("count, dim", [(cli._BLOCK_ROWS - 1, 3), (cli._BLOCK_ROWS, 3),
                                            (cli._BLOCK_ROWS + 1, 3), (10_000, 16)])
    def test_files_match_per_row_rendering(self, tmp_path, count, dim):
        rng = np.random.default_rng(count)
        X = rng.normal(size=(count, dim))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        X *= 10.0 ** rng.uniform(-2.0, 2.0, size=(count, 1))
        src, dst = tmp_path / "pts.csv", tmp_path / "out.csv"
        np.savetxt(src, X, fmt="%.17g", delimiter=",")
        assert run_cli(["project", "--in", str(src), "--out", str(dst)])[0] == 0
        assert dst.read_text() == oracle_render_rows([oracle_lift_row(x) for x in X])

    def test_ragged_row_in_a_later_block(self, tmp_path):
        lines = ["1,2"] * (cli._BLOCK_ROWS + 5)
        lines[cli._BLOCK_ROWS + 2] = "1,2,3"
        src = tmp_path / "pts.csv"
        src.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["project", "--in", str(src)])
        assert code == 1
        assert f":{cli._BLOCK_ROWS + 3}: expected 2 columns, got 3" in err


class TestUsageErrors:
    def test_no_verb(self):
        assert run_cli([])[0] == 2

    def test_unknown_verb(self):
        assert run_cli(["serve"])[0] == 2

    def test_unknown_flag(self):
        assert run_cli(["train", "--dataset", "blobs", "--loss", "cce", "--fancy"])[0] == 2

    def test_sphereface_fractional_margin(self):
        code, _, err = run_cli(["train", "--dataset", "blobs", "--loss", "sphereface",
                                "--m", "0.35"])
        assert code == 2
        assert "integer" in err

    @pytest.mark.parametrize("flag, value", [("--m", "nan"), ("--m", "inf"), ("--s", "inf"), ("--s", "nan")])
    def test_non_finite_margin_or_scale(self, flag, value):
        code, _, err = run_cli(["train", "--dataset", "blobs", "--loss", "sphereface", flag, value])
        assert code == 2
        assert "finite" in err

    def test_queue_with_non_broadface(self):
        code, _, err = run_cli(["train", "--dataset", "blobs", "--loss", "cosface",
                                "--queue", "64"])
        assert code == 2
        assert "broadface" in err

    def test_unknown_dataset(self):
        code, _, err = run_cli(["train", "--dataset", "imagenet", "--loss", "cce"])
        assert code == 2
        assert "imagenet" in err

    def test_unknown_loss(self):
        assert run_cli(["train", "--dataset", "blobs", "--loss", "hinge"])[0] == 2

    def test_duplicate_seeds(self):
        code, _, err = run_cli(["train", "--dataset", "blobs", "--loss", "cce",
                                "--seeds", "1,1"])
        assert code == 2

    def test_negative_seed(self):
        """A usage error, as --batch 0 is, not numpy's traceback from the data draw."""
        code, out, err = run_cli(["train", "--dataset", "blobs", "--loss", "cce", "--seeds", "1,-1"])
        assert (code, out) == (2, "")
        assert "spherehead: error: --seeds: seed must be non-negative, got -1" in err

    def test_non_integer_seeds(self):
        assert run_cli(["train", "--dataset", "blobs", "--loss", "cce",
                        "--seeds", "1,x"])[0] == 2

    def test_dataset_spec_missing_path(self):
        assert run_cli(["train", "--dataset", "csv:", "--loss", "cce"])[0] == 2


class TestTrainVerb:
    def test_summary_and_records(self, tmp_path):
        code, out, err = run_cli(["train", "--dataset", "blobs", "--loss", "arcface",
                                  "--project", "on", "--out", str(tmp_path)] + TINY)
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert lines[0].startswith("seed 1: test accuracy")
        assert lines[1].startswith("seed 2: test accuracy")
        assert "+-" in lines[-1] and "over 2 seeds" in lines[-1]
        assert (tmp_path / "blobs-arcface-proj" / "1.txt").exists()
        assert (tmp_path / "blobs-arcface-proj" / "2.txt").exists()

    def test_projection_off_changes_experiment_name(self, tmp_path):
        code, out, _ = run_cli(["train", "--dataset", "blobs", "--loss", "cce",
                                "--project", "off", "--out", str(tmp_path)] + TINY)
        assert code == 0
        assert "blobs-cce-noproj" in out

    def test_failed_seed_is_reported_as_failed(self, tmp_path, monkeypatch):
        real_fit = train.fit

        def fit(model, ds, opt):
            if opt.seed == 2:
                raise DomainError("squared norm overflows float64")
            return real_fit(model, ds, opt)

        monkeypatch.setattr(train, "fit", fit)
        code, out, err = run_cli(["train", "--dataset", "blobs", "--loss", "cce",
                                  "--out", str(tmp_path)] + TINY)
        assert code == 0
        assert "seed 1: test accuracy" in out
        assert "seed 2: failed: squared norm overflows float64" in err
        assert "diverged" not in err

    def test_all_seeds_diverging_exits_nonzero(self, tmp_path):
        code, out, err = run_cli(["train", "--dataset", "blobs", "--loss", "cce",
                                  "--project", "off", "--out", str(tmp_path),
                                  "--encoder", "8", "--feature-dim", "4",
                                  "--epochs", "10", "--batch", "16",
                                  "--seeds", "1", "--lr", "1e80"])
        assert code == 1
        assert "diverged" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_label_cell_is_an_error(self, tmp_path, cell):
        src = tmp_path / "pts.csv"
        src.write_text(f"0,1.0,2.0\n{cell},3.0,4.0\n")
        code, out, err = run_cli(["train", "--dataset", f"csv:{src}", "--loss", "cce",
                                  "--out", str(tmp_path)] + TINY)
        assert (code, out) == (1, "")
        assert err == f"error: {src}:2: label column must be integer-valued, found {cell}\n"

    def test_results_env_var_is_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPHEREHEAD_RESULTS", str(tmp_path / "envstore"))
        code, _, _ = run_cli(["train", "--dataset", "blobs", "--loss", "cce",
                              "--seeds", "1", "--epochs", "1", "--encoder", "8",
                              "--feature-dim", "4", "--batch", "16"])
        assert code == 0
        assert (tmp_path / "envstore" / "blobs-cce-proj" / "1.txt").exists()


class TestEvalVerb:
    def test_matches_recorded_accuracy(self, trained_store):
        run_file = os.path.join(trained_store, "blobs-cosface-proj", "1.txt")
        code, out, err = run_cli(["eval", "--run", run_file])
        assert code == 0
        assert "test accuracy" in out
        assert err == ""  # re-trained accuracy agrees with the record

    def test_train_split(self, trained_store):
        run_file = os.path.join(trained_store, "blobs-cosface-proj", "2.txt")
        code, out, _ = run_cli(["eval", "--run", run_file, "--split", "train"])
        assert code == 0
        assert "train accuracy" in out

    def test_missing_record(self, tmp_path):
        code, _, err = run_cli(["eval", "--run", str(tmp_path / "none.txt")])
        assert code == 1
        assert err != ""

    def test_directory_with_multiple_records_rejected(self, trained_store):
        code, _, err = run_cli(["eval", "--run",
                                os.path.join(trained_store, "blobs-cosface-proj")])
        assert code == 2
        assert "seed file" in err

    def test_directory_with_one_record_and_stray_files(self, trained_store, tmp_path):
        """A notes file and an interrupted save's ``.tmp`` are not records, for eval and report alike."""
        clean, cluttered = tmp_path / "clean", tmp_path / "cluttered"
        for store in (clean, cluttered):
            for experiment in ("blobs-cosface-proj", "blobs-cosface-noproj"):
                (store / experiment).mkdir(parents=True)
                shutil.copy(os.path.join(trained_store, experiment, "1.txt"), store / experiment)
        run_dir = cluttered / "blobs-cosface-proj"
        record = (run_dir / "1.txt").read_text()
        (run_dir / "notes.md").write_text("scratch")
        (run_dir / "1.txt.4242.tmp").write_text(record[:len(record) // 2])
        code, out, err = run_cli(["eval", "--run", str(run_dir)])
        assert (code, err) == (0, "")  # the re-trained accuracy agrees with the one record
        assert out.startswith("blobs-cosface-proj seed 1 test accuracy ")
        code, out, err = run_cli(["report", "--results", str(cluttered)])
        assert (code, err) == (0, "")
        assert out == run_cli(["report", "--results", str(clean)])[1]
        assert out.count("+-0.00") == 2  # one seed in each cell

    @pytest.mark.parametrize("project", [True, False], ids=["proj", "noproj"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_retraining_reproduces_the_stored_run(self, family, project, tmp_path):
        margin = MarginConfig.for_family(family, queue_capacity=16 if family == "broadface" else None)
        report = train.run_experiment(
            train.ModelConfig(feature_dim=4, margin=margin, encoder_layers=(8,), projection_enabled=project),
            train.DataConfig("two_spirals", {"n_per_class": 20}),
            train.OptimConfig(learning_rate=3e-3, epochs=3, batch_size=8),
            [7], results_dir=str(tmp_path),
        )
        assert report.failed_seeds == ()
        run_file = str(tmp_path / report.experiment / "7.txt")
        record, model, history, test_ds = cli._retrain_stored_run(
            argparse.Namespace(run=run_file, split="test"), cli.build_parser())

        def bits(values):
            return np.asarray(values, dtype=np.float64).tobytes()

        for key in ("initial_loss", "epoch_loss", "epoch_accuracy"):
            assert bits(history[key]) == bits(record[key]), key
        assert train.evaluate(model, test_ds) == record["final_test_accuracy"]


def _broken_copy(run_file, tmp_path, prefix, rewrite):
    """A copy of ``run_file`` under ``tmp_path/blobs-cosface-proj`` with its ``prefix`` line rewritten."""
    lines = Path(run_file).read_text(encoding="utf-8").splitlines()
    (index,) = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    lines[index] = rewrite(lines[index])
    path = tmp_path / "blobs-cosface-proj" / os.path.basename(run_file)
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _edit_echo(edit):
    def rewrite(line):
        echo = json.loads(line[len("config: "):])
        edit(echo)
        return "config: " + json.dumps(echo)
    return rewrite


class TestMalformedRecord:
    CASES = {
        "seed": ("seed: ", lambda line: "seed: x"),
        "config-json": ("config: ", lambda line: line[:-1]),
        "float": ("initial_loss: ", lambda line: "initial_loss: 0.5.5"),
        "stopped": ("stopped_early_at: ", lambda line: "stopped_early_at: never"),
        "history": ("2 ", lambda line: "2 0.5 most"),
        "missing-key": ("config: ", _edit_echo(lambda echo: echo["model"].pop("feature_dim"))),
        "missing-margin-key": ("config: ", _edit_echo(lambda echo: echo["model"]["margin"].pop("s"))),
        "unknown-key": ("config: ", _edit_echo(lambda echo: echo["optim"].update(nesterov=True))),
        "wrong-type": ("config: ", _edit_echo(lambda echo: echo["model"].update(feature_dim="4"))),
        "not-an-object": ("config: ", _edit_echo(lambda echo: echo.update(data=[]))),
        "float-batch-size": ("config: ", _edit_echo(lambda echo: echo["optim"].update(batch_size=128.0))),
        "float-epochs": ("config: ", _edit_echo(lambda echo: echo["optim"].update(epochs=2.5))),
        "string-encoder": ("config: ", _edit_echo(lambda echo: echo["model"].update(encoder_layers="8,"))),
        "list-params": ("config: ", _edit_echo(lambda echo: echo["data"].update(params=[]))),
        "unknown-data-param": ("config: ", _edit_echo(lambda echo: echo["data"]["params"].update(n_per_clas=20))),
    }
    ECHO_CASES = [case for case, (prefix, _) in CASES.items() if prefix == "config: "]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("verb", ["eval", "export-embeddings"])
    def test_is_an_error_naming_the_file(self, trained_store, tmp_path, verb, case):
        prefix, rewrite = self.CASES[case]
        path = _broken_copy(os.path.join(trained_store, "blobs-cosface-proj", "1.txt"), tmp_path, prefix, rewrite)
        argv = [verb, "--run", path] + (["--out", str(tmp_path / "emb.csv")] if verb != "eval" else [])
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}:") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["eval", "export-embeddings"])
    def test_negative_seed_is_an_error_naming_the_file_and_line(self, trained_store, tmp_path, verb):
        """A ``seed: -1`` line once reached numpy's seeding and ended in a traceback."""
        path = _broken_copy(os.path.join(trained_store, "blobs-cosface-proj", "1.txt"), tmp_path, "seed: ",
                            lambda line: "seed: -1")
        argv = [verb, "--run", path] + (["--out", str(tmp_path / "emb.csv")] if verb != "eval" else [])
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err == f"error: {path}:3: bad seed: seed must be non-negative, got -1\n"

    def test_report_names_the_file(self, trained_store, tmp_path):
        for name in ("blobs-cosface-proj", "blobs-cosface-noproj"):
            shutil.copytree(os.path.join(trained_store, name), tmp_path / name, dirs_exist_ok=True)
        path = _broken_copy(str(tmp_path / "blobs-cosface-proj" / "2.txt"), tmp_path, "seed: ", lambda line: "seed: x")
        code, out, err = run_cli(["report", "--results", str(tmp_path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}:3: bad seed:")

    @pytest.mark.parametrize("case", ECHO_CASES)
    def test_report_names_the_file_of_a_bad_echo(self, trained_store, tmp_path, case):
        for name in ("blobs-cosface-proj", "blobs-cosface-noproj"):
            shutil.copytree(os.path.join(trained_store, name), tmp_path / name, dirs_exist_ok=True)
        prefix, rewrite = self.CASES[case]
        path = _broken_copy(str(tmp_path / "blobs-cosface-proj" / "2.txt"), tmp_path, prefix, rewrite)
        code, out, err = run_cli(["report", "--results", str(tmp_path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}:") and err.count("\n") == 1


class TestNotUtf8:
    """A byte that is not UTF-8 is an error naming the file and its line, never a traceback."""

    @pytest.mark.parametrize("verb", ["eval", "report"])
    def test_stored_record(self, trained_store, tmp_path, verb):
        for name in ("blobs-cosface-proj", "blobs-cosface-noproj"):
            shutil.copytree(os.path.join(trained_store, name), tmp_path / name, dirs_exist_ok=True)
        path = tmp_path / "blobs-cosface-proj" / "1.txt"
        path.write_bytes(path.read_bytes().replace(b"experiment: ", b"experiment: \xff", 1))
        argv = ["eval", "--run", str(path)] if verb == "eval" else ["report", "--results", str(tmp_path)]
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}:2: not UTF-8 text:") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["project", "train"])
    def test_delimited_input(self, tmp_path, verb):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"0,1.0,2.0\r\n1,3.0,4.0\n\n0,5.0,\xff\n")
        if verb == "project":
            argv = ["project", "--in", str(path)]
        else:
            argv = ["train", "--dataset", f"csv:{path}", "--loss", "cce", "--out", str(tmp_path / "runs")] + TINY
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}:4: not UTF-8 text:") and err.count("\n") == 1


class TestExportVerb:
    def test_shape_matches_split_and_projection(self, trained_store, tmp_path):
        run_file = os.path.join(trained_store, "blobs-cosface-proj", "1.txt")
        out_file = tmp_path / "emb.csv"
        code, _, _ = run_cli(["export-embeddings", "--run", run_file,
                              "--split", "test", "--out", str(out_file)])
        assert code == 0
        rows = out_file.read_text().strip().splitlines()
        assert len(rows) == 300  # test side of 1000 blob points at 0.7
        # label plus feature_dim + 1 projected coordinates
        assert all(len(row.split(",")) == 1 + 5 for row in rows)
        feats = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
        assert np.max(np.abs((feats ** 2).sum(axis=1) - 1.0)) <= 1e-12

    def test_train_split_row_count(self, trained_store, tmp_path):
        run_file = os.path.join(trained_store, "blobs-cosface-proj", "1.txt")
        out_file = tmp_path / "emb.csv"
        code, _, _ = run_cli(["export-embeddings", "--run", run_file,
                              "--split", "train", "--out", str(out_file)])
        assert code == 0
        assert len(out_file.read_text().strip().splitlines()) == 700

    def test_re_export_is_bitwise_identical(self, trained_store, tmp_path):
        run_file = os.path.join(trained_store, "blobs-cosface-proj", "2.txt")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["export-embeddings", "--run", run_file, "--out", str(a)])[0] == 0
        assert run_cli(["export-embeddings", "--run", run_file, "--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_matches_per_value_rendering(self, trained_store, tmp_path):
        run_file = os.path.join(trained_store, "blobs-cosface-proj", "1.txt")
        out_file = tmp_path / "emb.csv"
        assert run_cli(["export-embeddings", "--run", run_file, "--out", str(out_file)])[0] == 0
        _, model, _, test_ds = cli._retrain_stored_run(argparse.Namespace(run=run_file, split="test"),
                                                       cli.build_parser())
        feats = model.forward_features(Tensor(test_ds.features.data)).data
        assert out_file.read_text() == oracle_render_rows(feats, labels=test_ds.labels)

    @pytest.mark.parametrize("verb", ["eval", "export-embeddings"])
    def test_non_finite_features_are_an_error_and_no_file(self, trained_store, tmp_path, monkeypatch, verb):
        """Overflowing features once went out as ``inf`` rows with exit 0; export now refuses them as eval does."""
        run_file = os.path.join(trained_store, "blobs-cosface-noproj", "1.txt")
        retrained = cli._retrain_stored_run(argparse.Namespace(run=run_file, split="test"), cli.build_parser())
        retrained[1].layers[-1][0].data *= 1e308
        monkeypatch.setattr(cli, "_retrain_stored_run", lambda args, parser: retrained)
        out_file = tmp_path / "emb.csv"
        argv = [verb, "--run", run_file] + (["--out", str(out_file)] if verb != "eval" else [])
        assert run_cli(argv) == (1, "", "error: evaluation features: non-finite entries\n")
        assert not out_file.exists()

    def test_labels_are_integers_in_range(self, trained_store, tmp_path):
        run_file = os.path.join(trained_store, "blobs-cosface-proj", "1.txt")
        out_file = tmp_path / "emb.csv"
        run_cli(["export-embeddings", "--run", run_file, "--out", str(out_file)])
        labels = {row.split(",")[0] for row in out_file.read_text().strip().splitlines()}
        assert labels <= {"0", "1", "2", "3"}


class TestReportVerb:
    def test_paired_store_renders_table(self, trained_store):
        code, out, err = run_cli(["report", "--results", trained_store])
        assert code == 0
        assert err == ""
        assert "dataset: blobs" in out
        assert "cosface" in out
        assert "projection on" in out and "projection off" in out

    def test_no_results_flag_reads_the_environment_store(self, trained_store, monkeypatch, tmp_path):
        """With no ``--results``, report reads ``$SPHEREHEAD_RESULTS``, not ``./results``."""
        monkeypatch.setenv("SPHEREHEAD_RESULTS", trained_store)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["report"])
        assert (code, err) == (0, "")
        assert out == run_cli(["report", "--results", trained_store])[1]
        assert "dataset: blobs" in out

    def test_unpaired_store_names_missing_half(self, tmp_path):
        code, _, _ = run_cli(["train", "--dataset", "blobs", "--loss", "cce",
                              "--project", "on", "--out", str(tmp_path),
                              "--seeds", "1", "--epochs", "1", "--encoder", "8",
                              "--feature-dim", "4", "--batch", "16"])
        assert code == 0
        code, _, err = run_cli(["report", "--results", str(tmp_path)])
        assert code == 1
        assert "projection=off" in err

    def test_records_with_different_configs_are_not_averaged(self, tmp_path):
        """Two margins trained into one experiment were once printed as one mean+-std cell."""
        for m, seed in (("0.1", "1"), ("0.9", "2")):
            code, _, _ = run_cli(["train", "--dataset", "blobs", "--loss", "cosface", "--m", m,
                                  "--out", str(tmp_path), "--seeds", seed, "--epochs", "1", "--encoder", "8",
                                  "--feature-dim", "4", "--batch", "16"])
            assert code == 0
        [experiment] = os.listdir(tmp_path)
        code, out, err = run_cli(["report", "--results", str(tmp_path)])
        assert (code, out) == (1, "")
        assert f"experiment {experiment!r}" in err and os.path.join(experiment, "2.txt") in err
        assert "+-" not in err

    def test_empty_dir_is_layout_error(self, tmp_path):
        code, _, err = run_cli(["report", "--results", str(tmp_path)])
        assert code == 1
        assert err != ""
