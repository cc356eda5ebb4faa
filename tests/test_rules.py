"""Each config rule has one wording: every entry point that checks it refuses a bad value with the same text.

A second copy of a rule, with its own words, would show here as an entry
point whose message differs from the others'.
"""

import numpy as np
import pytest

from spherehead.data import (DataConfig, Dataset, SplitSpec, build_datasets, gen_gaussian_blobs, gen_two_spirals,
                             load_cifar_binary)
from spherehead.errors import ConfigError, ParseError
from spherehead.heads import EmbeddingQueue, MarginConfig
from spherehead.results import load_run, serialize_record
from spherehead.train import ModelConfig, OptimConfig, build_model, default_learning_rate, run_experiment

from .test_data import write_cifar10_dir
from .test_results import make_record


def _run_experiment(seed, tmp_path):
    mc = ModelConfig(feature_dim=4, margin=MarginConfig.for_family("cce"), encoder_layers=(8,))
    run_experiment(mc, DataConfig("blobs"), OptimConfig(learning_rate=1e-3, epochs=1), [seed],
                   results_dir=str(tmp_path))


def _load_run(seed, tmp_path):
    path = tmp_path / "record.txt"
    path.write_text(serialize_record(make_record(seed=seed)))
    load_run(str(path))


def _build_model(seed, _):
    build_model(ModelConfig(feature_dim=2, margin=MarginConfig.for_family("cce"), encoder_layers=(4,)), 2, 2, seed)


def _load_cifar_binary(seed, tmp_path):
    """No subset is asked for, so the seed draws nothing, and is checked all the same."""
    load_cifar_binary(str(write_cifar10_dir(tmp_path, records_per_file=2)), "cifar10", subset_seed=seed)


# entry point -> (the error it raises, a call with a given seed and a scratch directory)
SEED_ENTRIES = {
    "OptimConfig": (ConfigError, lambda seed, _: OptimConfig(learning_rate=1e-3, epochs=1, seed=seed)),
    "run_experiment": (ConfigError, _run_experiment),
    "build_datasets": (ConfigError, lambda seed, _: build_datasets(DataConfig("blobs"), seed)),
    "SplitSpec": (ConfigError, lambda seed, _: SplitSpec(0.5, seed)),
    "load_run": (ParseError, _load_run),
    "gen_two_spirals": (ConfigError, lambda seed, _: gen_two_spirals(10, 0.1, seed)),
    "gen_gaussian_blobs": (ConfigError, lambda seed, _: gen_gaussian_blobs(3, 5, 1.0, 4.0, seed)),
    "build_model": (ConfigError, _build_model),
    "load_cifar_binary": (ConfigError, _load_cifar_binary),
}


@pytest.mark.parametrize("entry, seed, message", [
    *((entry, -1, "seed must be non-negative, got -1") for entry in SEED_ENTRIES),
    # a record's "seed: 1.5" line fails int() before the rule sees it
    *((entry, 1.5, "seed must be an integer, got 1.5") for entry in SEED_ENTRIES if entry != "load_run"),
])
def test_seed_rule(entry, seed, message, tmp_path):
    """A record's bad seed line is a ParseError that names the file and line, then the rule's words."""
    error, call = SEED_ENTRIES[entry]
    with pytest.raises(error) as info:
        call(seed, tmp_path)
    where = f"{tmp_path / 'record.txt'}:3: bad seed: " if entry == "load_run" else ""
    assert str(info.value) == where + message


@pytest.mark.parametrize("entry", ["DataConfig", "SplitSpec"])
@pytest.mark.parametrize("fraction, message", [(1.0, "train fraction must be in (0, 1), got 1.0"),
                                               (float("nan"), "train fraction must be in (0, 1), got nan"),
                                               ("0.5", "train fraction must be a real number, got '0.5'")])
def test_fraction_rule(entry, fraction, message):
    call = {"DataConfig": lambda: DataConfig("blobs", train_fraction=fraction),
            "SplitSpec": lambda: SplitSpec(fraction, 1)}[entry]
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("entry", ["MarginConfig", "for_family", "EmbeddingQueue"])
@pytest.mark.parametrize("capacity, message", [(-1, "queue_capacity must be non-negative, got -1"),
                                               (1.5, "queue_capacity must be an integer, got 1.5")])
def test_capacity_rule(entry, capacity, message):
    call = {"MarginConfig": lambda: MarginConfig(family="broadface", m=0.5, queue_capacity=capacity),
            "for_family": lambda: MarginConfig.for_family("broadface", queue_capacity=capacity),
            "EmbeddingQueue": lambda: EmbeddingQueue(capacity)}[entry]
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("entry", ["MarginConfig", "for_family", "default_learning_rate"])
def test_family_rule(entry):
    call = {"MarginConfig": lambda: MarginConfig(family="triplet"),
            "for_family": lambda: MarginConfig.for_family("triplet"),
            "default_learning_rate": lambda: default_learning_rate("triplet")}[entry]
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == ("unknown family 'triplet', expected one of "
                               "('cce', 'sphereface', 'cosface', 'arcface', 'broadface')")


def _model_config(**fields):
    return ModelConfig(**dict({"feature_dim": 4, "margin": MarginConfig.for_family("cce")}, **fields))


# entry point -> (the name its message gives the value, a call with that value)
AT_LEAST_1_ENTRIES = {
    "ModelConfig.feature_dim": ("feature_dim", lambda n: _model_config(feature_dim=n)),
    "ModelConfig.encoder_layers": ("encoder width", lambda n: _model_config(encoder_layers=(8, n))),
    "OptimConfig.epochs": ("epochs", lambda n: OptimConfig(learning_rate=1e-3, epochs=n)),
    "OptimConfig.batch_size": ("batch_size", lambda n: OptimConfig(learning_rate=1e-3, epochs=1, batch_size=n)),
    "DataConfig": ("n_per_class", lambda n: DataConfig("two_spirals", {"n_per_class": n})),
    "gen_two_spirals": ("n_per_class", lambda n: gen_two_spirals(n, 0.1, 1)),
    "build_model": ("input_dim", lambda n: build_model(_model_config(), n, 2, 0)),
    "Dataset": ("class count", lambda n: Dataset(np.zeros((1, 2)), [0], n, "x")),
}


@pytest.mark.parametrize("entry", AT_LEAST_1_ENTRIES)
@pytest.mark.parametrize("value", [0, -2])
def test_at_least_1_rule(entry, value):
    name, call = AT_LEAST_1_ENTRIES[entry]
    with pytest.raises(ConfigError) as info:
        call(value)
    assert str(info.value) == f"{name} must be at least 1, got {value}"


@pytest.mark.parametrize("entry", ["DataConfig", "gen_gaussian_blobs", "build_model"])
def test_classes_rule(entry):
    call = {"DataConfig": lambda: DataConfig("blobs", {"classes": 1}),
            "gen_gaussian_blobs": lambda: gen_gaussian_blobs(1, 10, 0.1, 1.0, 0),
            "build_model": lambda: build_model(_model_config(), 3, 1, 0)}[entry]
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == "classes must be at least 2, got 1"


# entry point -> (the name its message gives the value, a call with that value)
FINITE_NON_NEGATIVE_ENTRIES = {
    "OptimConfig": ("learning_rate", lambda x: OptimConfig(learning_rate=x, epochs=1)),
    "DataConfig.noise_sd": ("noise_sd", lambda x: DataConfig("two_spirals", {"noise_sd": x})),
    "gen_two_spirals": ("noise_sd", lambda x: gen_two_spirals(10, x, 1)),
    "DataConfig.spread": ("spread", lambda x: DataConfig("blobs", {"spread": x})),
    "gen_gaussian_blobs": ("spread", lambda x: gen_gaussian_blobs(3, 10, x, 1.0, 0)),
}


@pytest.mark.parametrize("entry", FINITE_NON_NEGATIVE_ENTRIES)
@pytest.mark.parametrize("value", [-0.5, float("inf"), float("nan")])
def test_finite_non_negative_rule(entry, value):
    name, call = FINITE_NON_NEGATIVE_ENTRIES[entry]
    with pytest.raises(ConfigError) as info:
        call(value)
    assert str(info.value) == f"{name} must be finite and non-negative, got {value}"
