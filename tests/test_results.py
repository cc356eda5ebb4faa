import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherehead.errors import ParseError
from spherehead.results import (
    default_results_dir,
    list_runs,
    load_run,
    record_digest,
    run_path,
    save_run,
    serialize_record,
)


def make_record(**overrides):
    record = {
        "experiment": "blobs-cosface-proj",
        "seed": 3,
        "config": {"model": {"feature_dim": 8}, "optim": {"learning_rate": 0.003}},
        "wall_time_s": 1.25,
        "initial_loss": 2.0794415416798357,
        "final_train_accuracy": 0.98,
        "final_test_accuracy": 0.9533333333333334,
        "stopped_early_at": None,
        "epoch_loss": [1.5, 0.9, 0.4],
        "epoch_accuracy": [0.5, 0.8, 0.98],
    }
    record.update(overrides)
    return record


class TestRoundTrip:
    def test_save_then_load_is_identical(self, tmp_path):
        record = make_record()
        path = save_run(str(tmp_path), record)
        assert load_run(path) == record

    def test_extreme_floats_survive_bit_for_bit(self, tmp_path):
        record = make_record(
            initial_loss=5e-324,
            final_test_accuracy=1.7976931348623157e308,
            epoch_loss=[0.1, 1e-300, 2.2250738585072014e-308],
            epoch_accuracy=[0.3333333333333333, 0.1, 0.7],
        )
        loaded = load_run(save_run(str(tmp_path), record))
        assert loaded["initial_loss"] == 5e-324
        assert loaded["final_test_accuracy"] == 1.7976931348623157e308
        assert loaded["epoch_loss"] == record["epoch_loss"]

    def test_early_stop_epoch_round_trips(self, tmp_path):
        record = make_record(stopped_early_at=3)
        assert load_run(save_run(str(tmp_path), record))["stopped_early_at"] == 3

    def test_file_lands_under_experiment_and_seed(self, tmp_path):
        record = make_record(experiment="exp", seed=7)
        path = save_run(str(tmp_path), record)
        assert path == os.path.join(str(tmp_path), "exp", "7.txt")
        assert os.path.exists(path)

    def test_config_nesting_survives(self, tmp_path):
        config = {"model": {"margin": {"family": "arcface", "m": 0.5}}, "data": {"kind": "blobs"}}
        loaded = load_run(save_run(str(tmp_path), make_record(config=config)))
        assert loaded["config"] == config


# any finite float64, with subnormals, signed zeros and the extremes drawn often
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -1.1125369292536007e-308, 1e308, -1e308, 1.7976931348623157e308]),
)


@st.composite
def run_records(draw):
    history = draw(st.lists(st.tuples(FINITE, FINITE), min_size=0, max_size=30))
    return make_record(
        seed=draw(st.integers(0, 2**31 - 1)),
        config={"optim": {"learning_rate": draw(FINITE)}, "model": {"feature_dim": 8}},
        **{key: draw(FINITE) for key in ("wall_time_s", "initial_loss",
                                         "final_train_accuracy", "final_test_accuracy")},
        stopped_early_at=draw(st.one_of(st.none(), st.integers(0, 10**6))),
        epoch_loss=[loss for loss, _ in history],
        epoch_accuracy=[acc for _, acc in history],
    )


def _float_bits(record):
    """Every float of a record as float.hex, so -0.0 and 0.0 differ."""
    scalars = [record[k] for k in ("wall_time_s", "initial_loss", "final_train_accuracy",
                                   "final_test_accuracy")]
    values = scalars + record["epoch_loss"] + record["epoch_accuracy"]
    return [float(v).hex() for v in values + [record["config"]["optim"]["learning_rate"]]]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(record=run_records())
def test_save_then_load_is_the_identity(tmp_path_factory, record):
    path = save_run(str(tmp_path_factory.mktemp("runs")), record)
    loaded = load_run(path)
    assert loaded == record
    assert _float_bits(loaded) == _float_bits(record)
    assert record_digest(loaded) == record_digest(record)


class TestFormat:
    def test_header_and_field_order(self):
        text = serialize_record(make_record())
        lines = text.splitlines()
        assert lines[0] == "spherehead-run v1"
        assert lines[1] == "experiment: blobs-cosface-proj"
        assert lines[2] == "seed: 3"
        assert lines[3].startswith("config: {")
        assert any(line == "history: epoch loss accuracy" for line in lines)

    def test_floats_printed_at_17_significant_digits(self):
        text = serialize_record(make_record(initial_loss=1.0 / 3.0))
        assert "initial_loss: 0.33333333333333331" in text

    def test_history_rows_count_from_one(self):
        lines = serialize_record(make_record()).splitlines()
        start = lines.index("history: epoch loss accuracy") + 1
        assert [row.split()[0] for row in lines[start:]] == ["1", "2", "3"]


class TestParseErrors:
    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\nexperiment: x\n")
        with pytest.raises(ParseError):
            load_run(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            load_run(str(path))

    def test_missing_field_rejected(self, tmp_path):
        text = serialize_record(make_record())
        mangled = "\n".join(
            line for line in text.splitlines() if not line.startswith("initial_loss:")
        )
        path = tmp_path / "missing.txt"
        path.write_text(mangled + "\n")
        with pytest.raises(ParseError):
            load_run(str(path))

    def test_negative_seed_rejected_naming_the_line(self, tmp_path):
        path = tmp_path / "seed.txt"
        path.write_text(serialize_record(make_record()).replace("\nseed: 3\n", "\nseed: -1\n"))
        with pytest.raises(ParseError, match=r"seed\.txt:3: bad seed: seed must be non-negative, got -1"):
            load_run(str(path))

    def test_malformed_history_row_rejected(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_text(serialize_record(make_record()) + "4 0.5\n")
        with pytest.raises(ParseError):
            load_run(str(path))

    def test_history_epoch_gap_rejected(self, tmp_path):
        text = serialize_record(make_record())
        path = tmp_path / "gap.txt"
        path.write_text(text.replace("\n2 ", "\n5 "))
        with pytest.raises(ParseError):
            load_run(str(path))


class TestInterruptedWrite:
    def test_failed_write_keeps_previous_record(self, tmp_path, monkeypatch):
        old = make_record(epoch_loss=[1.5, 0.9, 0.4])
        path = save_run(str(tmp_path), old)
        real_open = open

        class HalfWritten:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("disk full")

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return HalfWritten(fh) if "w" in mode else fh

        monkeypatch.setattr("builtins.open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            save_run(str(tmp_path), make_record(epoch_loss=[9.0, 8.0, 7.0]))
        monkeypatch.undo()
        assert load_run(path) == old
        assert os.listdir(os.path.dirname(path)) == ["3.txt"]


class TestListRuns:
    def test_groups_by_experiment_sorted(self, tmp_path):
        for experiment in ("b-exp", "a-exp"):
            for seed in (2, 1):
                save_run(str(tmp_path), make_record(experiment=experiment, seed=seed))
        runs = list_runs(str(tmp_path))
        assert list(runs) == ["a-exp", "b-exp"]
        assert [os.path.basename(p) for p in runs["a-exp"]] == ["1.txt", "2.txt"]

    def test_missing_directory_is_empty(self, tmp_path):
        assert list_runs(str(tmp_path / "nowhere")) == {}

    def test_non_record_files_ignored(self, tmp_path):
        save_run(str(tmp_path), make_record())
        (tmp_path / "blobs-cosface-proj" / "notes.md").write_text("scratch")
        runs = list_runs(str(tmp_path))
        assert [os.path.basename(p) for p in runs["blobs-cosface-proj"]] == ["3.txt"]


class TestDigest:
    def test_wall_time_does_not_change_digest(self):
        a = make_record(wall_time_s=1.0)
        b = make_record(wall_time_s=99.0)
        assert record_digest(a) == record_digest(b)

    def test_accuracy_change_changes_digest(self):
        a = make_record()
        b = make_record(final_test_accuracy=0.5)
        assert record_digest(a) != record_digest(b)

    def test_digest_is_stable_across_calls(self):
        record = make_record()
        assert record_digest(record) == record_digest(record)


class TestResultsDir:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SPHEREHEAD_RESULTS", "/tmp/elsewhere")
        assert default_results_dir() == "/tmp/elsewhere"

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("SPHEREHEAD_RESULTS", raising=False)
        assert default_results_dir() == "results"

    def test_run_path_layout(self):
        assert run_path("r", "exp", 11) == os.path.join("r", "exp", "11.txt")
