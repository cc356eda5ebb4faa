import hashlib
import math
import os

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from spherehead import train
from spherehead.data import Dataset, gen_gaussian_blobs
from spherehead.errors import ConfigError, DegenerateInputError, DomainError, LayoutError, StateError, TrainingDiverged
from spherehead.heads import FAMILIES, MarginConfig
from spherehead.ndcore import Tensor
from spherehead.results import load_run
from spherehead.train import (
    DataConfig,
    Model,
    ModelConfig,
    OptimConfig,
    RunReport,
    build_datasets,
    build_model,
    default_learning_rate,
    emit_table,
    evaluate,
    experiment_name,
    fit,
    init_seed,
    run_experiment,
    sgd_step,
)

from .oracles import reduce_sum


def margin_for(family, **kw):
    return MarginConfig.for_family(family, **kw)


def small_blobs(seed=2, classes=3, n=40):
    return gen_gaussian_blobs(classes, n, 0.5, 4.0, seed)


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig(feature_dim=16, margin=margin_for("arcface"))
        assert cfg.encoder_layers == (512, 256)
        assert cfg.projection_enabled is True

    def test_head_dim_grows_by_one_with_projection(self):
        on = ModelConfig(feature_dim=16, margin=margin_for("cce"))
        off = ModelConfig(feature_dim=16, margin=margin_for("cce"), projection_enabled=False)
        assert on.head_dim == 17
        assert off.head_dim == 16

    def test_encoder_layers_normalized_to_tuple(self):
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=[8, 4])
        assert cfg.encoder_layers == (8, 4)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(feature_dim=0, margin=margin_for("cce"))
        with pytest.raises(ConfigError):
            ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8, 0))
        with pytest.raises(ConfigError):
            ModelConfig(feature_dim=4, margin="cosface")

    @pytest.mark.parametrize("fields", [{"feature_dim": 4.0}, {"feature_dim": True}, {"encoder_layers": "8,"},
                                        {"encoder_layers": 8}, {"encoder_layers": (8, 2.0)}])
    def test_field_types_checked_at_construction(self, fields):
        with pytest.raises(ConfigError, match="integer"):
            ModelConfig(**dict({"feature_dim": 4, "margin": margin_for("cce")}, **fields))

    def test_numpy_integers_stored_as_ints(self):
        cfg = ModelConfig(feature_dim=np.int64(4), margin=margin_for("cce"), encoder_layers=np.array([8, 4]))
        assert type(cfg.feature_dim) is int and all(type(w) is int for w in cfg.encoder_layers)
        assert cfg == ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8, 4))

    def test_to_dict_echoes_margin(self):
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cosface", m=0.2, s=10.0))
        d = cfg.to_dict()
        assert d["margin"]["family"] == "cosface"
        assert d["margin"]["m"] == 0.2
        assert d["margin"]["s"] == 10.0
        assert d["encoder_layers"] == [512, 256]


class TestOptimConfig:
    def test_defaults(self):
        opt = OptimConfig(learning_rate=1e-3, epochs=5)
        assert opt.momentum == 0.92
        assert opt.batch_size == 128
        assert opt.seed == 0

    def test_zero_learning_rate_allowed(self):
        assert OptimConfig(learning_rate=0.0, epochs=1).learning_rate == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            OptimConfig(learning_rate=-1e-3, epochs=1)
        with pytest.raises(ConfigError):
            OptimConfig(learning_rate=float("inf"), epochs=1)
        with pytest.raises(ConfigError):
            OptimConfig(learning_rate=1e-3, epochs=0)
        with pytest.raises(ConfigError):
            OptimConfig(learning_rate=1e-3, epochs=1, momentum=1.0)
        with pytest.raises(ConfigError):
            OptimConfig(learning_rate=1e-3, epochs=1, momentum=-0.1)
        with pytest.raises(ConfigError):
            OptimConfig(learning_rate=1e-3, epochs=1, batch_size=0)

    @pytest.mark.parametrize("fields", [{"epochs": 2.5}, {"batch_size": 128.0}, {"seed": "1"}, {"seed": False}])
    def test_integer_fields_checked_at_construction(self, fields):
        with pytest.raises(ConfigError, match="must be an integer"):
            OptimConfig(**dict({"learning_rate": 1e-3, "epochs": 1}, **fields))

    def test_numpy_integers_stored_as_ints(self):
        opt = OptimConfig(learning_rate=1e-3, epochs=np.int32(3), batch_size=np.int64(16), seed=np.uint8(7))
        assert [type(v) for v in (opt.epochs, opt.batch_size, opt.seed)] == [int, int, int]


class TestDataConfig:
    def test_known_kinds_accepted(self):
        for kind in ("two_spirals", "blobs"):
            assert DataConfig(kind).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            DataConfig("mnist")

    def test_params_must_be_a_dict(self):
        with pytest.raises(ConfigError, match="params must be a dict"):
            DataConfig("blobs", [])

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            DataConfig("blobs", train_fraction=0.0)
        with pytest.raises(ConfigError):
            DataConfig("blobs", train_fraction=1.0)


class TestDefaultLearningRate:
    def test_baseline_is_ten_times_margin_rate(self):
        assert default_learning_rate("cce") == 1e-3
        for family in ("sphereface", "cosface", "arcface", "broadface"):
            assert default_learning_rate(family) == 1e-4

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            default_learning_rate("triplet")


class TestBuildModel:
    def test_layer_shapes_chain(self):
        cfg = ModelConfig(feature_dim=4, margin=margin_for("arcface"), encoder_layers=(7, 3))
        model = build_model(cfg, input_dim=5, class_count=3, seed=0)
        shapes = [(W.shape, b.shape) for W, b in model.layers]
        assert shapes == [((5, 7), (1, 7)), ((7, 3), (1, 3)), ((3, 4), (1, 4))]
        assert model.head.W.shape == (5, 3)  # feature_dim + 1 by class_count

    def test_projection_off_head_matches_feature_dim(self):
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(),
                          projection_enabled=False)
        model = build_model(cfg, input_dim=6, class_count=2, seed=0)
        assert len(model.layers) == 1
        assert model.layers[0][0].shape == (6, 4)
        assert model.head.W.shape == (4, 2)

    def test_biases_start_at_zero(self):
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8,))
        model = build_model(cfg, 3, 2, seed=5)
        for _, b in model.layers:
            assert_array_equal(b.data, np.zeros_like(b.data))

    def test_weights_respect_fan_in_bound(self):
        cfg = ModelConfig(feature_dim=6, margin=margin_for("cce"), encoder_layers=(50,))
        model = build_model(cfg, 8, 4, seed=1)
        for W, _ in model.layers:
            limit = np.sqrt(6.0 / W.shape[0])
            assert np.all(np.abs(W.data) <= limit)
        head_limit = np.sqrt(6.0 / model.head.W.shape[0])
        assert np.all(np.abs(model.head.W.data) <= head_limit)

    def test_same_seed_is_bitwise_identical(self):
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8,))
        a = build_model(cfg, 3, 2, seed=9)
        b = build_model(cfg, 3, 2, seed=9)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8,))
        a = build_model(cfg, 3, 2, seed=9)
        b = build_model(cfg, 3, 2, seed=10)
        assert not np.array_equal(a.layers[0][0].data, b.layers[0][0].data)

    def test_all_parameters_require_grad(self):
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8, 5))
        model = build_model(cfg, 3, 2, seed=0)
        params = model.parameters()
        assert len(params) == 2 * 3 + 1
        assert all(p.requires_grad for p in params)

    def test_validation(self):
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cce"))
        with pytest.raises(ConfigError):
            build_model(cfg, 0, 2, seed=0)
        with pytest.raises(ConfigError):
            build_model(cfg, 3, 1, seed=0)


class TestForwardFeatures:
    def test_projection_puts_features_on_unit_sphere(self):
        cfg = ModelConfig(feature_dim=5, margin=margin_for("cosface"), encoder_layers=(8,))
        model = build_model(cfg, 3, 2, seed=4)
        X = np.random.default_rng(0).normal(size=(20, 3))
        feats = model.forward_features(Tensor(X))
        assert feats.shape == (20, 6)
        norms = np.linalg.norm(feats.data, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_matches_manual_numpy_forward(self):
        cfg = ModelConfig(feature_dim=3, margin=margin_for("cce"), encoder_layers=(4,),
                          projection_enabled=False)
        model = build_model(cfg, 2, 2, seed=7)
        X = np.random.default_rng(1).normal(size=(6, 2))
        (W1, b1), (W2, b2) = model.layers
        manual = np.maximum(X @ W1.data + b1.data, 0.0) @ W2.data + b2.data
        assert_array_equal(model.forward_features(Tensor(X)).data, manual)

    def test_gradient_reaches_all_layers(self):
        cfg = ModelConfig(feature_dim=3, margin=margin_for("cosface"), encoder_layers=(4,))
        model = build_model(cfg, 2, 2, seed=3)
        X = np.random.default_rng(2).normal(size=(5, 2))
        loss = reduce_sum(model.forward_features(Tensor(X)))
        from spherehead.ndcore import backward

        backward(loss)
        for W, b in model.layers:
            assert W.grad is not None and np.any(W.grad != 0.0)
            assert b.grad is not None

    def test_rejects_non_batch_input(self):
        cfg = ModelConfig(feature_dim=3, margin=margin_for("cce"), encoder_layers=())
        model = build_model(cfg, 2, 2, seed=0)
        from spherehead.errors import ShapeError

        with pytest.raises(ShapeError):
            model.forward_features(Tensor(np.zeros(2)))


class TestSgdStep:
    def _param(self, value):
        return Tensor(np.array([[float(value)]]), requires_grad=True)

    def test_two_steps_of_constant_gradient(self):
        # v1 = g, p1 = -g; v2 = 0.5 g + g = 1.5 g, p2 = -2.5 g
        p = self._param(0.0)
        opt = OptimConfig(learning_rate=1.0, epochs=1, momentum=0.5)
        g = [np.array([[1.0]])]
        vel = sgd_step([p], g, None, opt)
        assert p.data[0, 0] == -1.0
        sgd_step([p], g, vel, opt)
        assert p.data[0, 0] == -2.5

    def test_zero_momentum_is_plain_gradient_descent(self):
        p = self._param(1.0)
        opt = OptimConfig(learning_rate=0.1, epochs=1, momentum=0.0)
        vel = None
        for _ in range(3):
            vel = sgd_step([p], [np.array([[2.0]])], vel, opt)
        assert np.isclose(p.data[0, 0], 1.0 - 3 * 0.1 * 2.0)

    def test_velocity_decays_geometrically_without_gradient(self):
        p = self._param(0.0)
        opt = OptimConfig(learning_rate=1.0, epochs=1, momentum=0.5)
        vel = sgd_step([p], [np.array([[1.0]])], None, opt)
        zero = [np.array([[0.0]])]
        for _ in range(3):
            vel = sgd_step([p], zero, vel, opt)
        # positions: -1, -1.5, -1.75, -1.875
        assert p.data[0, 0] == -1.875
        assert vel[0][0, 0] == 0.125

    def test_zero_learning_rate_leaves_parameters_alone(self):
        p = self._param(3.0)
        opt = OptimConfig(learning_rate=0.0, epochs=1)
        sgd_step([p], [np.array([[5.0]])], None, opt)
        assert p.data[0, 0] == 3.0

    def test_mismatched_counts_rejected(self):
        p = self._param(0.0)
        opt = OptimConfig(learning_rate=0.1, epochs=1)
        with pytest.raises(StateError):
            sgd_step([p], [], None, opt)
        with pytest.raises(StateError):
            sgd_step([p], [np.zeros((1, 1))], [np.zeros((1, 1)), np.zeros((1, 1))], opt)

    def test_mismatched_shapes_rejected(self):
        p = self._param(0.0)
        opt = OptimConfig(learning_rate=0.1, epochs=1)
        with pytest.raises(StateError):
            sgd_step([p], [np.zeros((2, 2))], None, opt)


def quick_fit(family, ds, epochs=3, lr=3e-3, proj=True, seed=0, **margin_kw):
    cfg = ModelConfig(feature_dim=4, margin=margin_for(family, **margin_kw),
                      encoder_layers=(8,), projection_enabled=proj)
    model = build_model(cfg, ds.dim, ds.class_count, seed)
    opt = OptimConfig(learning_rate=lr, epochs=epochs, batch_size=32, seed=seed)
    return fit(model, ds, opt)


class TestFit:
    def test_bitwise_deterministic(self):
        ds = small_blobs()
        _, hist_a = quick_fit("cosface", ds)
        model_b, hist_b = quick_fit("cosface", ds)
        model_c, hist_c = quick_fit("cosface", ds)
        assert hist_b["epoch_loss"] == hist_c["epoch_loss"]
        assert hist_a["initial_loss"] == hist_b["initial_loss"]
        for pb, pc in zip(model_b.parameters(), model_c.parameters()):
            assert_array_equal(pb.data, pc.data)

    def test_history_shapes_and_fields(self):
        ds = small_blobs()
        _, hist = quick_fit("arcface", ds, epochs=4)
        assert len(hist["epoch_loss"]) == len(hist["epoch_accuracy"]) == 4
        assert np.isfinite(hist["initial_loss"])
        assert hist["stopped_early_at"] is None

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_reduces_loss_from_start(self, family):
        ds = small_blobs()
        lr = 3e-2 if family == "cce" else 3e-3
        _, hist = quick_fit(family, ds, epochs=5, lr=lr)
        assert hist["epoch_loss"][-1] < hist["initial_loss"]

    def test_separable_blobs_reach_full_train_accuracy_with_cce(self):
        ds = gen_gaussian_blobs(3, 50, 0.3, 6.0, 1)
        model, hist = quick_fit("cce", ds, epochs=40, lr=3e-2)
        assert hist["epoch_accuracy"][-1] == 1.0

    def test_zero_learning_rate_changes_nothing(self):
        ds = small_blobs()
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cosface"), encoder_layers=(8,))
        model = build_model(cfg, ds.dim, ds.class_count, 0)
        before = [p.data.copy() for p in model.parameters()]
        model, hist = fit(model, ds, OptimConfig(learning_rate=0.0, epochs=2, batch_size=32))
        for p, old in zip(model.parameters(), before):
            assert_array_equal(p.data, old)

    def test_constant_loss_triggers_plateau_stop(self):
        ds = small_blobs()
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cosface"), encoder_layers=(8,))
        model = build_model(cfg, ds.dim, ds.class_count, 0)
        model, hist = fit(model, ds, OptimConfig(learning_rate=0.0, epochs=50, batch_size=32))
        # epoch 1 sets the best loss; ten identical epochs then stop
        assert hist["stopped_early_at"] == 11
        assert len(hist["epoch_loss"]) == 11

    def test_divergence_raises_with_context(self):
        ds = small_blobs()
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8,),
                          projection_enabled=False)
        model = build_model(cfg, ds.dim, ds.class_count, 0)
        with pytest.raises(TrainingDiverged) as excinfo:
            fit(model, ds, OptimConfig(learning_rate=1e80, epochs=20, batch_size=16))
        err = excinfo.value
        assert err.epoch >= 1
        assert len(err.loss_trajectory) >= 1

    def test_projection_keeps_training_features_on_sphere(self):
        ds = small_blobs()
        model, _ = quick_fit("cosface", ds, epochs=3)
        feats = model.forward_features(ds.features)
        norms = np.linalg.norm(feats.data, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_class_count_mismatch_rejected(self):
        ds = small_blobs(classes=3)
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8,))
        model = build_model(cfg, ds.dim, 5, seed=0)
        with pytest.raises(ConfigError):
            fit(model, ds, OptimConfig(learning_rate=1e-3, epochs=1))

    def test_broadface_trains_with_persistent_queue(self):
        ds = small_blobs()
        _, hist = quick_fit("broadface", ds, epochs=4, queue_capacity=16)
        assert all(np.isfinite(v) for v in hist["epoch_loss"])

    def test_one_update_per_step_over_every_parameter(self, monkeypatch):
        """Each step is one ``sgd_step`` on one flat parameter and one flat gradient."""
        ds = small_blobs()
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cosface"), encoder_layers=(8,))
        model = build_model(cfg, ds.dim, ds.class_count, 0)
        total = sum(p.size for p in model.parameters())
        calls = []
        real_sgd_step = train.sgd_step

        def spy(params, grads, velocities, opt):
            calls.append(([p.size for p in params], [g.size for g in grads]))
            return real_sgd_step(params, grads, velocities, opt)

        monkeypatch.setattr(train, "sgd_step", spy)
        fit(model, ds, OptimConfig(learning_rate=3e-3, epochs=2, batch_size=32))
        assert calls == [([total], [total])] * (2 * math.ceil(len(ds) / 32))


ARENA_CASES = [(family, proj) for family in ("cce", "sphereface", "broadface") for proj in (True, False)]

# Digests of two fits in a row on one model, pinned while each parameter
# still owned its arrays: the second fit packs parameters that are views
# of the first fit's arena, and the digest takes in the test accuracy
# that evaluate reads from the trained values.
TWO_FIT_DIGESTS = {
    ("cce", True): "5736bd42ca21bd6b93c02c9f1479abc70b1dd5f859627be536957607d2f60168",
    ("cce", False): "7276e152273f1c7f65e71c5a24f38aced5ff2177789f253e3e3be882f97e59ef",
    ("sphereface", True): "64c658277c4f01274437742a92f1ed2c8a09271c533fbce2cccfeacc1312f90d",
    ("sphereface", False): "038334ce7a9f5f17c6196db18179f61cda11a9f0b03d7b1035891ef5611786ec",
    ("broadface", True): "0962d53a8bd494aa79456513db38da1e56ef637b0be4faa5ae7bb6246eeff4d0",
    ("broadface", False): "b721f3062a82fb587211766ec39b95626a0b50871ad7c5dc46829f03ff168921",
}


@pytest.mark.parametrize("family, projection", ARENA_CASES)
def test_fit_keeps_parameter_tensors_and_their_trained_values(family, projection):
    train_ds, test_ds = small_blobs(seed=2), small_blobs(seed=5)
    margin = margin_for(family, queue_capacity=16 if family == "broadface" else None)
    cfg = ModelConfig(feature_dim=4, margin=margin, encoder_layers=(8,), projection_enabled=projection)
    model = build_model(cfg, train_ds.dim, train_ds.class_count, 0)
    params = model.parameters()
    shapes = [p.shape for p in params]
    digest = hashlib.sha256()
    for seed in (0, 1):
        opt = OptimConfig(learning_rate=3e-2 if family == "cce" else 3e-3, epochs=3, batch_size=16, seed=seed)
        fitted, hist = fit(model, train_ds, opt)
        assert fitted is model
        assert all(a is b for a, b in zip(model.parameters(), params, strict=True))
        for p, shape in zip(params, shapes):
            assert p.data.shape == p.grad.shape == shape
            assert p.data.flags.c_contiguous and p.grad.flags.c_contiguous
        values = [hist["initial_loss"], *hist["epoch_loss"], *hist["epoch_accuracy"], evaluate(model, test_ds)]
        digest.update(" ".join(float(v).hex() for v in values).encode())
    for p in params:
        digest.update(p.data.tobytes())
    assert digest.hexdigest() == TWO_FIT_DIGESTS[family, projection]


class TestEvaluate:
    def test_untrained_model_near_chance(self):
        ds = gen_gaussian_blobs(4, 100, 1.0, 4.0, 3)
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cosface"), encoder_layers=(8,))
        model = build_model(cfg, ds.dim, ds.class_count, 0)
        acc = evaluate(model, ds)
        assert 0.05 <= acc <= 0.6

    def test_margin_families_ignore_column_scale(self):
        ds = small_blobs()
        model, _ = quick_fit("cosface", ds, epochs=2)
        base = evaluate(model, ds)
        model.head.W.data *= np.array([3.0, 0.25, 17.0])
        assert evaluate(model, ds) == base

    def test_trained_separable_blobs_reach_one(self):
        ds = gen_gaussian_blobs(3, 50, 0.3, 6.0, 1)
        model, _ = quick_fit("cosface", ds, epochs=40, lr=3e-3)
        assert evaluate(model, ds) == 1.0

    def test_empty_dataset_rejected(self):
        ds = small_blobs()
        model, _ = quick_fit("cce", ds, epochs=1)
        with pytest.raises(ConfigError):
            evaluate(model, ds.take([]))

    def test_zero_weight_column_rejected(self):
        ds = small_blobs()
        model, _ = quick_fit("cosface", ds, epochs=1)
        model.head.W.data[:, 1] = 0.0
        with pytest.raises(DegenerateInputError):
            evaluate(model, ds)


class TestBuildDatasets:
    def test_spirals_default_sizes(self):
        train, test = build_datasets(DataConfig("two_spirals"), 1)
        assert len(train) == 700 and len(test) == 300
        assert train.class_count == test.class_count == 2

    def test_blobs_params_respected(self):
        cfg = DataConfig("blobs", {"classes": 5, "n_per_class": 20}, train_fraction=0.5)
        train, test = build_datasets(cfg, 2)
        assert len(train) == len(test) == 50
        assert train.class_count == 5

    def test_deterministic_per_seed(self):
        cfg = DataConfig("blobs", {"classes": 3, "n_per_class": 10})
        a_train, a_test = build_datasets(cfg, 7)
        b_train, b_test = build_datasets(cfg, 7)
        assert_array_equal(a_train.features.data, b_train.features.data)
        assert_array_equal(a_test.labels, b_test.labels)

    def test_seed_changes_everything(self):
        cfg = DataConfig("blobs", {"classes": 3, "n_per_class": 10})
        a_train, _ = build_datasets(cfg, 7)
        b_train, _ = build_datasets(cfg, 8)
        assert not np.array_equal(a_train.features.data, b_train.features.data)

    def test_delimited_requires_path(self):
        with pytest.raises(ConfigError):
            build_datasets(DataConfig("delimited"), 0)

    def test_delimited_loads_and_splits(self, tmp_path):
        rows = ["0,1.0,2.0", "1,3.0,4.0", "0,5.0,6.0", "1,7.0,8.0"]
        path = tmp_path / "toy.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = DataConfig("delimited", {"path": str(path)}, train_fraction=0.5)
        train, test = build_datasets(cfg, 0)
        assert len(train) == 2 and len(test) == 2

    def test_delimited_empty_delimiter_is_a_config_error(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("0,1.0\n1,2.0\n")
        with pytest.raises(ConfigError, match="delimiter"):
            build_datasets(DataConfig("delimited", {"path": str(path), "delimiter": ""}), 0)

    def test_cifar_requires_dir(self):
        with pytest.raises(ConfigError):
            build_datasets(DataConfig("cifar10"), 0)


class TestPopulationStd:
    """``RunReport.std_accuracy`` divides by N, not N - 1."""

    def test_worked_example(self):
        report = make_report(accuracies=dict(enumerate([80.0, 82.0, 81.0, 79.0, 83.0])))
        assert report.std_accuracy == 1.4142135623730951

    def test_single_value_is_zero(self):
        assert make_report(accuracies={1: 4.2}).std_accuracy == 0.0

    def test_empty_is_nan(self):
        assert math.isnan(make_report(accuracies={}).std_accuracy)


def make_report(family="cosface", kind="blobs", proj=True, accuracies=None, experiment=None):
    accuracies = accuracies if accuracies is not None else {1: 0.9, 2: 0.92}
    config = {
        "model": {
            "feature_dim": 4,
            "encoder_layers": [8],
            "projection_enabled": proj,
            "margin": {"family": family, "m": 0.35, "s": 8.0,
                       "use_monotone_psi": True, "queue_capacity": 0},
        },
        "data": {"kind": kind, "params": {}, "train_fraction": 0.7},
        "optim": {"learning_rate": 1e-3, "epochs": 2, "momentum": 0.92,
                  "batch_size": 32, "seed": 0},
    }
    name = experiment or f"{kind}-{family}-{'proj' if proj else 'noproj'}"
    return RunReport(
        experiment=name,
        config=config,
        seeds=tuple(sorted(accuracies)),
        accuracies=dict(accuracies),
        record_digests={s: "0" * 64 for s in accuracies},
        wall_time_s=1.0,
    )


class TestRunExperiment:
    def test_end_to_end_writes_records_and_aggregates(self, tmp_path):
        mc = ModelConfig(feature_dim=4, margin=margin_for("cosface"), encoder_layers=(8,))
        dc = DataConfig("blobs", {"classes": 3, "n_per_class": 20})
        opt = OptimConfig(learning_rate=3e-3, epochs=2, batch_size=16)
        report = run_experiment(mc, dc, opt, [1, 2, 3], results_dir=str(tmp_path))
        assert report.experiment == "blobs-cosface-proj"
        assert sorted(report.accuracies) == [1, 2, 3]
        assert report.failed_seeds == ()
        for seed in (1, 2, 3):
            record = load_run(str(tmp_path / "blobs-cosface-proj" / f"{seed}.txt"))
            assert record["config"]["model"]["feature_dim"] == 4
            assert record["final_test_accuracy"] == report.accuracies[seed]
        manual = [report.accuracies[s] for s in sorted(report.accuracies)]
        assert report.mean_accuracy == float(np.mean(manual))
        assert report.std_accuracy == float(np.std(manual))

    def test_rerun_fingerprint_is_identical(self, tmp_path):
        mc = ModelConfig(feature_dim=4, margin=margin_for("arcface"), encoder_layers=(8,))
        dc = DataConfig("blobs", {"classes": 3, "n_per_class": 20})
        opt = OptimConfig(learning_rate=3e-3, epochs=2, batch_size=16)
        a = run_experiment(mc, dc, opt, [1, 2], results_dir=str(tmp_path / "a"))
        b = run_experiment(mc, dc, opt, [1, 2], results_dir=str(tmp_path / "b"))
        assert a.fingerprint() == b.fingerprint()

    def test_init_seed_is_the_third_seed_stream(self):
        # records store only the run seed, so this derivation must never drift
        for seed in (0, 1, 12345):
            streams = np.random.SeedSequence(seed).generate_state(3)
            assert init_seed(seed) == int(streams[2])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_configs_from_echo_inverts_to_dict(self, family):
        mc = ModelConfig(feature_dim=4, margin=margin_for(family), encoder_layers=(8, 4), projection_enabled=False)
        dc = DataConfig("blobs", {"classes": 3, "n_per_class": 20}, train_fraction=0.6)
        opt = OptimConfig(learning_rate=3e-3, epochs=2, momentum=0.5, batch_size=16, seed=9)
        echo = {"model": mc.to_dict(), "data": dc.to_dict(), "optim": opt.to_dict()}
        assert train.configs_from_echo(echo) == (mc, dc, opt)

    def test_seeded_run_derives_data_init_and_shuffles_from_the_seed(self):
        mc = ModelConfig(feature_dim=4, margin=margin_for("cosface"), encoder_layers=(8,))
        dc = DataConfig("blobs", {"classes": 3, "n_per_class": 20})
        opt = OptimConfig(learning_rate=3e-3, epochs=2, batch_size=16, seed=0)
        model, seed_opt, train_ds, test_ds = train.seeded_run(mc, dc, opt, 5)
        assert seed_opt == OptimConfig(learning_rate=3e-3, epochs=2, batch_size=16, seed=5)
        want_train, want_test = build_datasets(dc, 5)
        assert_array_equal(train_ds.features.data, want_train.features.data)
        assert_array_equal(test_ds.labels, want_test.labels)
        want = build_model(mc, train_ds.dim, train_ds.class_count, init_seed(5))
        for got, ref in zip(model.parameters(), want.parameters(), strict=True):
            assert_array_equal(got.data, ref.data)

    def test_fingerprint_ignores_wall_time_only(self):
        a = make_report()
        b = RunReport(experiment=a.experiment, config=a.config, seeds=a.seeds,
                      accuracies=a.accuracies,
                      record_digests=a.record_digests, wall_time_s=a.wall_time_s + 100.0)
        c = RunReport(experiment=a.experiment, config=a.config, seeds=a.seeds,
                      accuracies={**a.accuracies, 2: 0.5},
                      record_digests=a.record_digests, wall_time_s=a.wall_time_s)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_diverged_seed_reported_not_raised(self, tmp_path):
        mc = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8,),
                         projection_enabled=False)
        dc = DataConfig("blobs", {"classes": 3, "n_per_class": 20})
        opt = OptimConfig(learning_rate=1e80, epochs=10, batch_size=16)
        report = run_experiment(mc, dc, opt, [1, 2], results_dir=str(tmp_path))
        assert set(report.failed_seeds) == {1, 2}
        assert report.accuracies == {}
        assert np.isnan(report.mean_accuracy)

    def test_failed_seed_does_not_abort_the_rest(self, tmp_path, monkeypatch):
        real_fit = train.fit

        def fit(model, ds, opt):
            if opt.seed == 2:
                raise DomainError("squared norm overflows float64")
            return real_fit(model, ds, opt)

        monkeypatch.setattr(train, "fit", fit)
        mc = ModelConfig(feature_dim=4, margin=margin_for("cosface"), encoder_layers=(8,))
        dc = DataConfig("blobs", {"classes": 3, "n_per_class": 20})
        opt = OptimConfig(learning_rate=3e-3, epochs=2, batch_size=16)
        report = run_experiment(mc, dc, opt, [1, 2, 3], results_dir=str(tmp_path))
        assert report.failed_seeds == (2,)
        assert sorted(report.accuracies) == [1, 3]
        assert report.failures == {2: "failed: squared norm overflows float64"}
        assert sorted(os.listdir(tmp_path / "blobs-cosface-proj")) == ["1.txt", "3.txt"]

    def test_custom_experiment_name(self, tmp_path):
        mc = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8,))
        dc = DataConfig("blobs", {"classes": 3, "n_per_class": 20})
        opt = OptimConfig(learning_rate=1e-3, epochs=1, batch_size=16)
        report = run_experiment(mc, dc, opt, [5], results_dir=str(tmp_path), experiment="custom")
        assert report.experiment == "custom"
        assert (tmp_path / "custom" / "5.txt").exists()

    def test_seed_validation(self, tmp_path):
        mc = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8,))
        dc = DataConfig("blobs", {"classes": 3, "n_per_class": 20})
        opt = OptimConfig(learning_rate=1e-3, epochs=1)
        with pytest.raises(ConfigError):
            run_experiment(mc, dc, opt, [], results_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_experiment(mc, dc, opt, [1, 1], results_dir=str(tmp_path))

    def test_experiment_name_layout(self):
        mc = ModelConfig(feature_dim=4, margin=margin_for("sphereface"), projection_enabled=False)
        assert experiment_name(mc, DataConfig("two_spirals")) == "two_spirals-sphereface-noproj"


class TestEmitTable:
    def test_pair_renders_with_star_on_better_mean(self):
        on = make_report(proj=True, accuracies={1: 0.96, 2: 0.98})
        off = make_report(proj=False, accuracies={1: 0.90, 2: 0.92})
        table = emit_table([on, off])
        assert "dataset: blobs" in table
        assert "cosface" in table
        assert "97.00+-1.00*" in table
        assert "91.00+-1.00" in table
        assert "91.00+-1.00*" not in table

    def test_tie_gets_no_star(self):
        on = make_report(proj=True, accuracies={1: 0.9})
        off = make_report(proj=False, accuracies={1: 0.9})
        table = emit_table([on, off])
        assert "*" not in table.split("dataset:")[1]

    def test_rows_follow_family_order(self):
        reports = []
        for family in ("arcface", "cce", "cosface"):
            reports.append(make_report(family=family, proj=True))
            reports.append(make_report(family=family, proj=False))
        table = emit_table(reports)
        body = table.split("dataset: blobs")[1].splitlines()
        rows = [line.split()[0] for line in body if line and not line.startswith("loss")]
        assert rows == ["cce", "cosface", "arcface"]

    def test_datasets_sorted_and_separated(self):
        reports = []
        for kind in ("two_spirals", "blobs"):
            reports.append(make_report(kind=kind, proj=True))
            reports.append(make_report(kind=kind, proj=False))
        table = emit_table(reports)
        assert table.index("dataset: blobs") < table.index("dataset: two_spirals")

    def test_missing_half_names_the_gap(self):
        on = make_report(proj=True)
        with pytest.raises(LayoutError) as excinfo:
            emit_table([on])
        assert "projection=off" in str(excinfo.value)

    def test_empty_rejected(self):
        with pytest.raises(LayoutError):
            emit_table([])

    def test_duplicate_cell_rejected(self):
        with pytest.raises(LayoutError):
            emit_table([make_report(proj=True), make_report(proj=True, accuracies={3: 0.5})])

    def test_report_without_finished_seeds_rejected(self):
        empty = make_report(proj=True, accuracies={})
        off = make_report(proj=False)
        with pytest.raises(LayoutError):
            emit_table([empty, off])


# Fingerprints of short spirals runs, one per family and projection setting.
# They pin the determinism contract: a change to the order of float ops in
# any layer (encoder, lift, head, queue, optimizer) moves them. Update them
# only for a change that means to move every record digest.
GOLDEN_FINGERPRINTS = {
    ("cce", True): "421a25b2d2ead96725f5ca77e601d1fc40de143a56808f6a7916e5da7885a36f",
    ("cce", False): "e6c2cb8cb6d4c1f4860f7d878171b2ca6e0aba2229f6d36424a904e7ff967df1",
    ("sphereface", True): "75b844f4b37de59527727123d8b4335d7d262cc33b7b30929ebd5b7e757ad75f",
    ("sphereface", False): "250c7e1573e672d0615f33edd78d561543ddf0fd885492f0acff5ddee305ece5",
    ("cosface", True): "016fb9d6a3a914ddf15a45cb291290ca24fc720704a75286f2907f833386481e",
    ("cosface", False): "b773edc7311bb9fe24ac357c7e4d4c71f3e70c9def33ab72537ee322bb4bbf39",
    ("arcface", True): "f8913aa7fb5b82b46aef398ebb1ac56ab54ed66e9fb7114ee50ebaa077f21147",
    ("arcface", False): "c39a339dc7f108d55c5be8d98dcc2224a28a4e2ddc39fe17bb974846fe63a19c",
    ("broadface", True): "42e04a31e9eda5cf744ba4285b01f2d58e302c45c7302909e127d5757126182e",
    ("broadface", False): "c9c41ef79991d0f5c2b1d4888e81a74ac19a3a108576dc86f358922ae18738c4",
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("projection", [True, False])
def test_golden_fingerprint(family, projection, tmp_path):
    # s = 12 is not a power of two, so scaling the cosines rounds
    margin = margin_for(family, s=12.0, queue_capacity=64 if family == "broadface" else None)
    report = run_experiment(
        ModelConfig(feature_dim=4, margin=margin, encoder_layers=(16,), projection_enabled=projection),
        DataConfig("two_spirals", {"n_per_class": 100}),
        OptimConfig(learning_rate=0.05, epochs=6, batch_size=16),
        seeds=(1, 2, 3), results_dir=str(tmp_path),
    )
    assert report.failed_seeds == ()
    assert report.fingerprint() == GOLDEN_FINGERPRINTS[family, projection]
