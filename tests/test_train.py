import hashlib
import math
import os

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from spherehead import data, train
from spherehead.data import Dataset, gen_gaussian_blobs
from spherehead.errors import (ConfigError, DegenerateInputError, DomainError, LayoutError, ParseError, StateError,
                               TrainingDiverged)
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

from .helpers import traced_peak
from .oracles import reduce_sum

BLOCK = train._UPDATE_BLOCK


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

    @pytest.mark.parametrize("flag", ["off", 0, 1, None])
    def test_projection_flag_must_be_a_bool(self, flag):
        """A truthy string once turned the lift on while the echo kept the string."""
        with pytest.raises(ConfigError, match="projection_enabled must be a bool"):
            ModelConfig(feature_dim=4, margin=margin_for("cce"), projection_enabled=flag)

    def test_numpy_bool_stored_as_bool(self):
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cce"), projection_enabled=np.False_)
        assert cfg.projection_enabled is False

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
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            OptimConfig(learning_rate=1e-3, epochs=1, seed=-3)

    @pytest.mark.parametrize("fields", [{"epochs": 2.5}, {"batch_size": 128.0}, {"seed": "1"}, {"seed": False}])
    def test_integer_fields_checked_at_construction(self, fields):
        with pytest.raises(ConfigError, match="must be an integer"):
            OptimConfig(**dict({"learning_rate": 1e-3, "epochs": 1}, **fields))

    def test_numpy_integers_stored_as_ints(self):
        opt = OptimConfig(learning_rate=1e-3, epochs=np.int32(3), batch_size=np.int64(16), seed=np.uint8(7))
        assert [type(v) for v in (opt.epochs, opt.batch_size, opt.seed)] == [int, int, int]

    @pytest.mark.parametrize("fields", [{"learning_rate": True}, {"learning_rate": "1e-3"}, {"momentum": "0.9"},
                                        {"momentum": None}])
    def test_real_fields_checked_at_construction(self, fields):
        with pytest.raises(ConfigError, match="must be a real number"):
            OptimConfig(**dict({"learning_rate": 1e-3, "epochs": 1}, **fields))

    @pytest.mark.parametrize("field", ["learning_rate", "momentum"])
    @pytest.mark.parametrize("value", [10**400, -10**400, 10**5000], ids=["1e400", "-1e400", "1e5000"])
    def test_integer_too_large_for_a_float_rejected(self, field, value):
        """It was a bare TypeError from the range checks; 10**5000 cannot even be printed."""
        with pytest.raises(ConfigError, match=f"{field} must fit a float64"):
            OptimConfig(**dict({"learning_rate": 1e-3, "epochs": 1}, **{field: value}))

    def test_numpy_reals_stored_as_python_values(self):
        opt = OptimConfig(learning_rate=np.float64(1e-3), epochs=1, momentum=np.float32(0.5))
        assert (type(opt.learning_rate), type(opt.momentum)) == (float, float)
        assert opt == OptimConfig(learning_rate=1e-3, epochs=1, momentum=0.5)
        assert type(OptimConfig(learning_rate=1, epochs=1).learning_rate) is int  # a Python value is kept as given


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

    @pytest.mark.parametrize("kind, params", [
        ("two_spirals", {"n_per_class": 20, "noise_sd": 0.1}),
        ("blobs", {"classes": 3, "n_per_class": 20, "spread": 1.0, "radius": 4.0}),
        ("delimited", {"path": "rows.csv", "delimiter": ";", "label_column": 1, "header": True}),
        ("cifar10", {"dir": "cifar", "subset_per_class": 10, "downsample_to": 8}),
        ("cifar100", {"dir": "cifar", "subset_per_class": 10, "downsample_to": 8}),
    ])
    def test_every_param_a_kind_reads_is_accepted(self, kind, params):
        assert DataConfig(kind, params).params == params

    @pytest.mark.parametrize("kind, params, reads", [
        ("two_spirals", {"n_per_clas": 20}, "n_per_class, noise_sd"),
        ("blobs", {"n_per_class": 20, "noise_sd": 0.1}, "classes, n_per_class, spread, radius"),
        ("delimited", {"path": "rows.csv", "dir": "rows"}, "path, delimiter, label_column, header"),
        ("cifar100", {"dir": "cifar", "path": "cifar"}, "dir, subset_per_class, downsample_to"),
    ])
    def test_unknown_param_rejected_naming_what_the_kind_reads(self, kind, params, reads):
        unknown = next(k for k in params if k not in reads.split(", "))
        with pytest.raises(ConfigError, match=f"unknown {kind} param {unknown!r}; it reads {reads}$"):
            DataConfig(kind, params)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            DataConfig("blobs", train_fraction=0.0)
        with pytest.raises(ConfigError):
            DataConfig("blobs", train_fraction=1.0)

    @pytest.mark.parametrize("fraction", ["0.7", True, None])
    def test_fraction_must_be_a_real_number(self, fraction):
        with pytest.raises(ConfigError, match="train fraction must be a real number"):
            DataConfig("blobs", train_fraction=fraction)

    @pytest.mark.parametrize("kind, params, key", [
        ("delimited", {}, "path"),
        ("delimited", {"delimiter": ";"}, "path"),
        ("cifar10", {}, "dir"),
        ("cifar100", {"subset_per_class": 2}, "dir"),
    ])
    def test_missing_path_or_dir_rejected_at_construction(self, kind, params, key):
        with pytest.raises(ConfigError, match=f"{kind} data needs a '{key}' parameter"):
            DataConfig(kind, params)

    @pytest.mark.parametrize("kind, key, value", [
        ("two_spirals", "noise_sd", "0.1"),
        ("blobs", "classes", 3.0),
        ("delimited", "path", 0),
        ("cifar100", "downsample_to", "8"),
    ])
    def test_mistyped_param_rejected_at_construction(self, kind, key, value):
        where = {"delimited": {"path": "rows.csv"}, "cifar100": {"dir": "cifar"}}.get(kind, {})
        with pytest.raises(ConfigError, match=f"data param '{key}'"):
            DataConfig(kind, {**where, key: value})

    def test_checked_params_stored_as_python_values(self):
        given = {"classes": np.int64(3), "n_per_class": 10, "spread": 1, "radius": np.float32(4.5)}
        cfg = DataConfig("blobs", given, train_fraction=np.float64(0.5))
        assert cfg.params == {"classes": 3, "n_per_class": 10, "spread": 1, "radius": 4.5}
        assert [type(v) for v in cfg.params.values()] == [int, int, int, float]
        assert type(cfg.train_fraction) is float
        given["classes"] = 99
        assert cfg.params["classes"] == 3  # the config keeps its own copy

    @pytest.mark.parametrize("kind, key, value, message", [
        ("two_spirals", "n_per_class", 0, "n_per_class must be at least 1, got 0"),
        ("two_spirals", "n_per_class", -3, "n_per_class must be at least 1, got -3"),
        ("two_spirals", "noise_sd", -1.0, "noise_sd must be finite and non-negative, got -1.0"),
        ("two_spirals", "noise_sd", float("nan"), "noise_sd must be finite and non-negative, got nan"),
        ("two_spirals", "noise_sd", float("inf"), "noise_sd must be finite and non-negative, got inf"),
        ("blobs", "classes", 1, "classes must be at least 2, got 1"),
        ("blobs", "n_per_class", 0, "n_per_class must be at least 1, got 0"),
        ("blobs", "spread", -0.5, "spread must be finite and non-negative, got -0.5"),
        ("blobs", "spread", float("inf"), "spread must be finite and non-negative, got inf"),
        ("blobs", "radius", float("nan"), "radius must be finite, got nan"),
        ("blobs", "radius", float("-inf"), "radius must be finite, got -inf"),
        ("cifar10", "downsample_to", 7, "downsample_to must divide 32, got 7"),
        ("cifar10", "downsample_to", 0, "downsample_to must divide 32, got 0"),
        ("cifar100", "downsample_to", 64, "downsample_to must divide 32, got 64"),
        ("cifar10", "subset_per_class", 0, "subset_per_class must be at least 1, got 0"),
    ])
    def test_param_out_of_range_rejected_at_construction(self, kind, key, value, message):
        """The message is the one the generators and the CIFAR reader raise, once reached only in ``build_datasets``."""
        where = {"cifar10": {"dir": "cifar"}, "cifar100": {"dir": "cifar"}}.get(kind, {})
        with pytest.raises(ConfigError, match=f"^{message}$"):
            DataConfig(kind, {**where, key: value})

    @pytest.mark.parametrize("kind, params", [
        ("two_spirals", {"n_per_class": 1, "noise_sd": 0.0}),
        ("blobs", {"classes": 2, "n_per_class": 1, "spread": 0}),
        ("cifar10", {"dir": "cifar", "subset_per_class": 1, "downsample_to": 1}),
        ("cifar10", {"dir": "cifar", "subset_per_class": None, "downsample_to": 32}),
        ("cifar100", {"dir": "cifar", "downsample_to": None}),
    ])
    def test_params_at_their_bounds_accepted(self, kind, params):
        assert DataConfig(kind, params).params == params

    def test_train_re_exports_the_data_names(self):
        assert train.DataConfig is data.DataConfig and train.build_datasets is data.build_datasets


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

    @pytest.mark.parametrize("input_dim, class_count, message", [
        (2.5, 3, "input_dim must be an integer, got 2.5"),  # once a bare TypeError from numpy
        (3, 2.0, "classes must be an integer, got 2.0"),
    ])
    def test_mistyped_argument_is_a_config_error_naming_it(self, input_dim, class_count, message):
        cfg = ModelConfig(feature_dim=4, margin=margin_for("cce"))
        with pytest.raises(ConfigError) as info:
            build_model(cfg, input_dim, class_count, 0)
        assert str(info.value) == message


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

    @pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_blocked_update_has_the_bits_of_the_unblocked_formula(self, size):
        rng = np.random.default_rng(size)
        start = rng.normal(size=size)
        p = Tensor(start.copy())
        opt = OptimConfig(learning_rate=3e-3, epochs=1, momentum=0.9)
        want_p, want_v, vel = start, np.zeros(size), None
        for _ in range(3):
            g = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
            g[::7] = -0.0
            vel = sgd_step([p], [g], vel, opt)
            want_v = opt.momentum * want_v + g
            want_p = want_p - opt.learning_rate * want_v
        assert p.data.tobytes() == want_p.tobytes()
        assert vel[0].tobytes() == want_v.tobytes()

    def test_update_allocates_one_block_not_the_parameter(self):
        """A float64 gradient is read in place, and ``lr v`` goes through a one-block scratch."""
        size = 3 * BLOCK + 5
        p = Tensor(np.zeros(size))
        g = np.ones(size)
        opt = OptimConfig(learning_rate=0.5, epochs=1)
        vel = sgd_step([p], [g], None, opt)
        _, peak = traced_peak(lambda: sgd_step([p], [g], vel, opt))
        assert peak < 8 * BLOCK + 64 * 1024 < 8 * size / 2
        assert np.all(p.data == -0.5 - 0.5 * (opt.momentum * 1.0 + 1.0))

    def test_non_contiguous_velocity_is_updated_in_place(self):
        rng = np.random.default_rng(4)
        shape = (BLOCK // 100, 201)  # more than one block
        start, g, v0 = rng.normal(size=shape), rng.normal(size=shape), rng.normal(size=shape)
        p, vel = Tensor(start.copy()), [np.asfortranarray(v0)]
        opt = OptimConfig(learning_rate=3e-3, epochs=1, momentum=0.9)
        assert sgd_step([p], [g], vel, opt) is vel
        want_v = opt.momentum * v0 + g
        assert_array_equal(vel[0], want_v)
        assert_array_equal(p.data, start - opt.learning_rate * want_v)

    @pytest.mark.parametrize("grad", [np.array(["1", "2", "3"]), ["1", "2", "3"], np.array([1 + 2j, 2, 3]),
                                      np.array([1.0, 2.0, 3.0], dtype=object), [1j, 0j, 0j]],
                             ids=["str-array", "str-list", "complex-array", "object-array", "complex-list"])
    @pytest.mark.filterwarnings("error")
    def test_non_real_gradient_rejected(self, grad):
        """Strings were parsed and applied, complex input lost its imaginary part, objects were a bare TypeError."""
        p = Tensor(np.zeros(3))
        with pytest.raises(StateError, match="gradient must be real numbers"):
            sgd_step([p], [grad], None, OptimConfig(learning_rate=0.1, epochs=1))
        assert_array_equal(p.data, np.zeros(3))

    def test_real_non_float_gradients_convert(self):
        p = Tensor(np.zeros(3))
        sgd_step([p], [[1, 2, 3]], None, OptimConfig(learning_rate=1.0, epochs=1))
        assert_array_equal(p.data, [-1.0, -2.0, -3.0])


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


def test_fit_step_makes_no_temporary_the_size_of_a_weight_matrix():
    """Above the arena and one step's tape, fit's traced peak stays under half a first-layer weight matrix.

    The first layer is [2048, 256], 4 MiB, and a batch of 16 keeps the
    tape small. A weight gradient made outside the arena and added into
    it, or an update that builds ``lr v`` for the whole arena, is a
    transient at least that large.
    """
    rng = np.random.default_rng(5)
    n_in, width, batch = 2048, 256, 16
    ds = Dataset(rng.normal(size=(64, n_in)), np.arange(64) % 4, 4, "wide")
    cfg = ModelConfig(feature_dim=8, margin=margin_for("cosface"), encoder_layers=(width,))
    model = build_model(cfg, n_in, 4, seed=0)
    arena = 3 * 8 * sum(p.size for p in model.parameters())  # values, gradients, velocities
    rows = np.arange(batch)
    _, tape = traced_peak(lambda: train._batch_loss(model, ds.features.data[rows], ds.labels[rows], None))
    _, peak = traced_peak(lambda: fit(model, ds, OptimConfig(learning_rate=3e-3, epochs=1, batch_size=batch)))
    assert peak - arena - tape < 8 * n_in * width / 2


def test_unreached_gradient_slot_reads_zero_in_the_update(monkeypatch):
    """A parameter that backward leaves unset is not moved by the gradient its slot held a step before."""
    ds = small_blobs()
    cfg = ModelConfig(feature_dim=4, margin=margin_for("cosface"), encoder_layers=(8,))
    model = build_model(cfg, ds.dim, ds.class_count, 0)
    head_before = model.head.W.data.copy()
    encoder_before = [W.data.copy() for W, _ in model.layers]
    real_backward = train.backward

    def backward_missing_the_head(loss):
        real_backward(loss)  # writes the head's gradient into its slot
        model.head.W.grad = None  # then leaves it as if nothing had reached it

    monkeypatch.setattr(train, "backward", backward_missing_the_head)
    fit(model, ds, OptimConfig(learning_rate=3e-2, epochs=2, batch_size=32))
    assert_array_equal(model.head.W.data, head_before)
    assert_array_equal(model.head.W.grad, np.zeros_like(head_before))
    assert all(np.any(W.data != before) for (W, _), before in zip(model.layers, encoder_before))


ARENA_CASES = [(family, proj) for family in ("cce", "sphereface", "broadface") for proj in (True, False)]

# Digests of two fits in a row on one model, pinned from the closed-form
# backward of every node: the second fit packs parameters that are views
# of the first fit's arena, and the digest takes in the test accuracy
# that evaluate reads from the trained values.
TWO_FIT_DIGESTS = {
    ("cce", True): "d3b8c0c79a66623c8f194f408964de934193f13593ffa82ad1324fe0775da8a0",
    ("cce", False): "4aa5a0861fa574decca183277b9390145c3e55301d70137bfd5bd8e2f409a097",
    ("sphereface", True): "2e2fd8310a4396c01d910d062798acf374118ab21fcf8dd13437d81fa7dc2677",
    ("sphereface", False): "2f3ec7f81c3f1a3ac43bb74aacc73d0b69e49787cafe97ed6b62da43be841c3a",
    ("broadface", True): "46eb7e63e65e9a6a5308019c3310edd19ea7da40c92d05830a863cf1823e484f",
    ("broadface", False): "2f474acb3a4ebd04c35aa249d6bb17908656e26d00533c9d98116454337e120a",
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

    def test_class_count_mismatch_rejected(self):
        """A 2-class model on a 5-class set is fit's ConfigError, not a score."""
        model, _ = quick_fit("cosface", gen_gaussian_blobs(2, 20, 1.0, 4.0, 3), epochs=1)
        with pytest.raises(ConfigError, match="model has 2 classes but dataset has 5"):
            evaluate(model, gen_gaussian_blobs(5, 10, 1.0, 4.0, 4))

    def test_zero_weight_column_rejected(self):
        ds = small_blobs()
        model, _ = quick_fit("cosface", ds, epochs=1)
        model.head.W.data[:, 1] = 0.0
        with pytest.raises(DegenerateInputError):
            evaluate(model, ds)

    @pytest.mark.parametrize("family", ["cce", "cosface"])
    def test_non_finite_features_rejected(self, family):
        """Finite encoder weights whose features overflow: a DomainError, not a score."""
        ds = small_blobs()
        model, _ = quick_fit(family, ds, epochs=1, proj=False)
        model.layers[0][0].data[:, 0] = 1e308
        with pytest.raises(DomainError, match="^evaluation features: non-finite entries$"):
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

    @pytest.mark.parametrize("seed, message", [(-1, "seed must be non-negative, got -1"),
                                               (1.5, "seed must be an integer, got 1.5"),
                                               (True, "seed must be an integer, got True")])
    def test_bad_run_seed_is_a_config_error(self, seed, message):
        """A negative or fractional seed once escaped as numpy's bare ValueError or TypeError."""
        mc = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8,))
        dc, opt = DataConfig("two_spirals"), OptimConfig(learning_rate=3e-3, epochs=1)
        for call in (lambda: build_datasets(dc, seed), lambda: init_seed(seed),
                     lambda: train.seeded_run(mc, dc, opt, seed)):
            with pytest.raises(ConfigError, match=message):
                call()

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

    @pytest.mark.parametrize("kind, key, value", [
        ("two_spirals", "n_per_class", 20.9),
        ("two_spirals", "n_per_class", "20"),
        ("two_spirals", "n_per_class", True),
        ("two_spirals", "noise_sd", "0.1"),
        ("two_spirals", "noise_sd", True),
        ("blobs", "classes", 3.0),
        ("blobs", "spread", None),
        ("blobs", "radius", [4.0]),
        ("delimited", "label_column", 0.9),
        ("delimited", "header", "false"),
        ("delimited", "header", 0),
        ("cifar10", "subset_per_class", 2.5),
        ("cifar10", "downsample_to", "16"),
        ("delimited", "path", 0),
        ("delimited", "delimiter", 1),
        ("cifar10", "dir", 3),
    ])
    def test_mistyped_params_rejected_not_coerced(self, kind, key, value, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("0,1.0\n1,2.0\n")
        where = {"delimited": {"path": str(path)}, "cifar10": {"dir": str(tmp_path)}}.get(kind, {})
        with pytest.raises(ConfigError, match=f"data param '{key}'"):
            build_datasets(DataConfig(kind, {**where, key: value}), 0)

    def test_numpy_and_int_params_pass(self, tmp_path):
        cfg = DataConfig("blobs", {"classes": np.int64(3), "n_per_class": 10, "spread": 1, "radius": np.float32(4.0)})
        train_ds, test_ds = build_datasets(cfg, 0)
        assert len(train_ds) + len(test_ds) == 30 and train_ds.class_count == 3
        path = tmp_path / "toy.csv"
        path.write_text("label,x\n0,1.0\n1,2.0\n0,3.0\n1,4.0\n0,5.0\n1,6.0\n")
        sides = build_datasets(DataConfig("delimited", {"path": str(path), "header": np.True_}), 0)
        assert sum(len(side) for side in sides) == 6


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

    @pytest.mark.parametrize("seeds, message", [((), "at least one"), ((1, 1), "duplicate"), ((2, -1), "non-negative"),
                                                ("12", "integer"), ([1.5, 2.7], "integer"), ([True], "integer"),
                                                ([1, "2"], "integer"), (5, "sequence"), (None, "sequence")])
    def test_bad_seeds_rejected_before_any_run(self, seeds, message, tmp_path):
        mc = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8,))
        with pytest.raises(ConfigError, match=message):
            run_experiment(mc, DataConfig("blobs"), OptimConfig(learning_rate=3e-3, epochs=1), seeds,
                           results_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_numpy_integer_seeds_pass(self):
        """Non-integer seeds, once truncated ("12" ran seeds 1 and 2), are refused; numpy integers are not."""
        assert train._checked_seeds(np.array([3, 1], dtype=np.int32)) == (3, 1)
        assert all(type(s) is int for s in train._checked_seeds([np.int64(4), 2]))

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

    def test_numpy_typed_configs_record_as_python_typed(self, tmp_path):
        """A numpy scalar in any config field once trained a seed and then failed to save its record."""
        def configs(real, flag, count):
            margin = MarginConfig("cosface", m=real(0.25), s=real(8.0), use_monotone_psi=flag(True))
            mc = ModelConfig(feature_dim=4, margin=margin, encoder_layers=(8,), projection_enabled=flag(True))
            dc = DataConfig("blobs", {"classes": count(3), "n_per_class": 20, "radius": real(4.0)},
                            train_fraction=real(0.75))
            return mc, dc, OptimConfig(learning_rate=real(0.0625), epochs=2, momentum=real(0.5), batch_size=16)

        python = run_experiment(*configs(float, bool, int), [1, 2], results_dir=str(tmp_path / "python"))
        numpy = run_experiment(*configs(np.float32, np.bool_, np.int64), [1, 2], results_dir=str(tmp_path / "numpy"))
        assert numpy.failed_seeds == () and numpy.record_digests == python.record_digests
        assert numpy.fingerprint() == python.fingerprint()

    def test_configs_from_echo_type_errors(self):
        mc = ModelConfig(feature_dim=4, margin=margin_for("cosface"), encoder_layers=(8,))
        echo = {"model": mc.to_dict(), "data": DataConfig("blobs").to_dict(),
                "optim": OptimConfig(learning_rate=1e-3, epochs=1).to_dict()}
        echo["model"]["margin"]["m"] = "0.35"
        with pytest.raises(ConfigError, match="m must be a real number"):
            train.configs_from_echo(echo)
        echo["model"] = mc.to_dict()
        echo["data"]["kind"] = []
        with pytest.raises(ParseError, match="config echo data"):
            train.configs_from_echo(echo)

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

    @pytest.mark.parametrize("family", ["cce", "cosface"])
    def test_seed_whose_features_overflow_is_a_failure(self, tmp_path, family):
        """A step of 1e200 leaves the weights finite and the features not: no seed is scored."""
        mc = ModelConfig(feature_dim=4, margin=margin_for(family), encoder_layers=(8,), projection_enabled=False)
        dc = DataConfig("blobs", {"n_per_class": 20})
        opt = OptimConfig(learning_rate=1e200, epochs=1, batch_size=200)
        report = run_experiment(mc, dc, opt, [1, 2, 3], results_dir=str(tmp_path))
        assert report.accuracies == {}
        assert report.failed_seeds == (1, 2, 3)
        assert all(failure.startswith("failed: ") for failure in report.failures.values())

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

    def test_records_are_filed_under_experiment_name(self, tmp_path):
        """experiment_name is the one naming rule: run_experiment takes no name of its own."""
        mc = ModelConfig(feature_dim=4, margin=margin_for("cce"), encoder_layers=(8,))
        dc = DataConfig("blobs", {"classes": 3, "n_per_class": 20})
        opt = OptimConfig(learning_rate=1e-3, epochs=1, batch_size=16)
        report = run_experiment(mc, dc, opt, [5], results_dir=str(tmp_path))
        assert report.experiment == experiment_name(mc, dc) == "blobs-cce-proj"
        assert (tmp_path / "blobs-cce-proj" / "5.txt").exists()
        with pytest.raises(TypeError):
            run_experiment(mc, dc, opt, [5], results_dir=str(tmp_path), experiment="custom")

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
    ("cce", True): "34d488ba906778984ef574bac27c4f792a7f64e557954109f8c0bfe37b1a682f",
    ("cce", False): "9cb6d03ff9ec9c77cae10170591e7cb04fb75172f613954bb64d9db01b7dc672",
    ("sphereface", True): "4f87cf66ca4d0e1a18f1fdab0dd75829dcbcefb5b7edc0c4c3e9789d90b4abbb",
    ("sphereface", False): "68da2ee8540ca7a0d6c874d69e277299b5e05bb63ccc3cb3a5fba8eae69863fa",
    ("cosface", True): "24ec163a70233601924ba5691eec8a0d22adc49ee059bc3db5db232a27112e3c",
    ("cosface", False): "840c50183af679fc1d760cdf736dc4c31c30154243b908b49a0283b55d524a58",
    ("arcface", True): "dd9eee87fa171da7a7777096b574d5cd421959df1092ac0d2759b9ca92b84ea5",
    ("arcface", False): "d5f2fd9f67e94cb4d408b103c05b24c09e292787753ee51b8e66a6a2bebc79bf",
    ("broadface", True): "49803660b89abfe97f017fd1645f2661c81349a5a26de3095054197dc7b1b353",
    ("broadface", False): "72d336abf53948aebc1fadd9abb14f167eef440a8e8f018f12be7278e81311ab",
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
