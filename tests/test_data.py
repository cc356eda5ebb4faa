"""Dataset generators, text and CIFAR loaders, deterministic splits."""

import re
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spherehead import data
from spherehead.data import (
    Dataset,
    SplitSpec,
    gen_gaussian_blobs,
    gen_two_spirals,
    load_cifar_binary,
    load_delimited,
    read_delimited,
    split,
)
from spherehead.errors import ConfigError, DomainError, FormatError, LabelError, ParseError, ShapeError
from spherehead.train import DataConfig, build_datasets

from .oracles import oracle_load_cifar_binary, oracle_load_delimited

# the row count of the reader's old parse blocks: the cases below that
# straddle it were written for that parser and keep their inputs
BLOCK_ROWS = 2048


class TestDataset:
    def test_basic_construction(self):
        ds = Dataset(np.zeros((3, 2)), [0, 1, 0], 2, "toy")
        assert len(ds) == 3
        assert ds.dim == 2
        assert ds.class_count == 2

    def test_label_count_must_match(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((3, 2)), [0, 1], 2, "bad")

    def test_label_range_validated(self):
        with pytest.raises(LabelError):
            Dataset(np.zeros((2, 2)), [0, 2], 2, "bad")
        with pytest.raises(LabelError):
            Dataset(np.zeros((1, 2)), [-1], 2, "bad")

    def test_nonfinite_features_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(np.array([[np.nan, 0.0]]), [0], 1, "bad")

    def test_non_integer_labels_rejected(self):
        with pytest.raises(LabelError):
            Dataset(np.zeros((1, 2)), [0.5], 2, "bad")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("labels", [[np.nan, 1.0], [np.inf, 1.0], [1e20, 1.0], ["a", "b"], [0.5 + 0j, 1]])
    def test_labels_that_do_not_cast_to_integers_are_a_label_error(self, labels):
        """NaN, inf, floats past int64, strings and complex numbers: no cast warning or bare ValueError first."""
        with pytest.raises(LabelError, match="^labels must be integers$"):
            Dataset(np.zeros((2, 2)), labels, 2, "bad")

    def test_integral_floats_and_booleans_are_labels(self):
        assert Dataset(np.zeros((2, 2)), [1.0, 0.0], 2, "toy").labels.tolist() == [1, 0]
        assert Dataset(np.zeros((2, 2)), [True, False], 2, "toy").labels.tolist() == [1, 0]

    @pytest.mark.parametrize("class_count", [2.5, 3.0, "3", True])
    def test_non_integer_class_count_rejected(self, class_count):
        """2.5 once stored 2 and kept label 2; any non-integer count is a ConfigError."""
        with pytest.raises(ConfigError, match="class count must be an integer"):
            Dataset(np.zeros((3, 2)), [0, 1, 2], class_count, "x")

    def test_numpy_integer_class_count_stored_as_int(self):
        ds = Dataset(np.zeros((2, 2)), [0, 1], np.int64(2), "toy")
        assert type(ds.class_count) is int and ds.class_count == 2

    def test_take_preserves_metadata(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 1, 0], 2, "toy")
        sub = ds.take([2, 0])
        assert_array_equal(sub.features.data, [[4.0, 5.0], [0.0, 1.0]])
        assert_array_equal(sub.labels, [1, 0])
        assert sub.class_count == 2 and sub.name == "toy"


class TestTwoSpirals:
    def test_noiseless_mean_is_exactly_zero(self):
        ds = gen_two_spirals(n_per_class=100, noise_sd=0.0, seed=3)
        X = ds.features.data
        halves = X[:100].sum(axis=0) + X[100:].sum(axis=0)
        assert_array_equal(halves, [0.0, 0.0])

    def test_noiseless_classes_are_exact_negations(self):
        ds = gen_two_spirals(n_per_class=50, noise_sd=0.0, seed=4)
        X = ds.features.data
        assert_array_equal(X[50:], -X[:50])

    def test_standardized_to_unit_variance(self):
        ds = gen_two_spirals(n_per_class=500, noise_sd=0.1, seed=5)
        sd = ds.features.data.std(axis=0)
        assert np.allclose(sd, [1.0, 1.0], atol=1e-12)

    def test_opposite_arms_clear_the_noise_scale(self):
        # along any ray the two classes alternate; after unit-variance
        # scaling the inter-class gap still dwarfs sd-0.1 noise
        ds = gen_two_spirals(n_per_class=2000, noise_sd=0.0, seed=11)
        X = ds.features.data
        angles = np.arctan2(X[:, 1], X[:, 0])
        radii = np.linalg.norm(X, axis=1)
        ray = np.abs(angles) < 0.05
        for_class0 = np.sort(radii[ray & (ds.labels == 0)])
        for_class1 = np.sort(radii[ray & (ds.labels == 1)])
        gap = np.min(np.abs(for_class0[:, None] - for_class1[None, :]))
        assert gap > 0.3

    def test_single_point_per_class(self):
        ds = gen_two_spirals(n_per_class=1, noise_sd=0.0, seed=6)
        assert len(ds) == 2
        assert_array_equal(np.sort(ds.labels), [0, 1])

    def test_label_layout(self):
        ds = gen_two_spirals(n_per_class=10, noise_sd=0.1, seed=7)
        assert_array_equal(ds.labels, [0] * 10 + [1] * 10)
        assert ds.class_count == 2

    def test_deterministic_bitwise(self):
        a = gen_two_spirals(200, 0.1, seed=42)
        b = gen_two_spirals(200, 0.1, seed=42)
        assert_array_equal(a.features.data, b.features.data)
        assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = gen_two_spirals(50, 0.1, seed=1)
        b = gen_two_spirals(50, 0.1, seed=2)
        assert not np.array_equal(a.features.data, b.features.data)

    def test_noise_perturbs_points(self):
        quiet = gen_two_spirals(50, 0.0, seed=8)
        noisy = gen_two_spirals(50, 0.1, seed=8)
        assert not np.array_equal(quiet.features.data, noisy.features.data)

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            gen_two_spirals(0, 0.1, seed=0)
        with pytest.raises(ConfigError):
            gen_two_spirals(10, -0.1, seed=0)

    @pytest.mark.parametrize("args, message", [
        ((2.5, 0.1, 1), "n_per_class must be an integer, got 2.5"),
        ((True, 0.1, 1), "n_per_class must be an integer, got True"),
        ((10, "0.1", 1), "noise_sd must be a real number, got '0.1'"),
    ])
    def test_mistyped_argument_is_a_config_error_naming_it(self, args, message):
        """Each was a bare TypeError from numpy."""
        with pytest.raises(ConfigError) as info:
            gen_two_spirals(*args)
        assert str(info.value) == message


class TestGaussianBlobs:
    def test_two_classes_sit_on_the_x_axis(self):
        ds = gen_gaussian_blobs(C=2, n_per_class=5, spread=0.0, radius=1.0, seed=9)
        X = ds.features.data
        assert_allclose(X[:5], np.tile([1.0, 0.0], (5, 1)), rtol=0, atol=1e-12)
        assert_allclose(X[5:], np.tile([-1.0, 0.0], (5, 1)), rtol=0, atol=1e-12)

    def test_zero_spread_collapses_each_class(self):
        ds = gen_gaussian_blobs(C=5, n_per_class=7, spread=0.0, radius=2.0, seed=10)
        X = ds.features.data
        for c in range(5):
            block = X[ds.labels == c]
            assert_array_equal(block, np.tile(block[0], (7, 1)))

    def test_class_sample_means_near_circle_positions(self):
        C, n, spread, radius = 4, 400, 0.3, 2.0
        ds = gen_gaussian_blobs(C, n, spread, radius, seed=11)
        X = ds.features.data
        angles = 2.0 * np.pi * np.arange(C) / C
        ideal = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for c in range(C):
            sample_mean = X[ds.labels == c].mean(axis=0)
            # 5 sigma / sqrt(n) for the class mean plus a little slack for
            # the global centering shift
            assert np.linalg.norm(sample_mean - ideal[c]) <= 6.0 * spread / np.sqrt(n)

    def test_deterministic(self):
        a = gen_gaussian_blobs(3, 20, 0.2, 1.0, seed=12)
        b = gen_gaussian_blobs(3, 20, 0.2, 1.0, seed=12)
        assert_array_equal(a.features.data, b.features.data)

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            gen_gaussian_blobs(1, 10, 0.1, 1.0, seed=0)
        with pytest.raises(ConfigError):
            gen_gaussian_blobs(2, 0, 0.1, 1.0, seed=0)
        with pytest.raises(ConfigError):
            gen_gaussian_blobs(2, 10, -0.1, 1.0, seed=0)

    @pytest.mark.parametrize("args, message", [
        ((3.5, 10, 0.1, 1.0, 0), "classes must be an integer, got 3.5"),  # once "class count must be an integer"
        ((3, 10, float("inf"), 1.0, 0), "spread must be finite and non-negative, got inf"),
        ((3, 10, 0.1, float("nan"), 0), "radius must be finite, got nan"),  # once a ShapeError after warnings
    ])
    def test_bad_argument_is_a_config_error_naming_it(self, args, message):
        with pytest.raises(ConfigError) as info:
            gen_gaussian_blobs(*args)
        assert str(info.value) == message


def assert_same_as_oracle(path, **kwargs):
    ds = load_delimited(str(path), **kwargs)
    features, labels, class_count = oracle_load_delimited(str(path), **kwargs)
    assert ds.features.data.shape == features.shape
    assert ds.features.data.tobytes() == features.tobytes()
    assert_array_equal(ds.labels, labels)
    assert ds.class_count == class_count


@st.composite
def delimited_files(draw):
    """(text, delimiter, label column, header) of a file the per-cell loader accepts."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    width = draw(st.integers(2, 5))
    label_column = draw(st.sampled_from([0, width // 2, -1]))
    pad = st.sampled_from(["", " ", "  "] + ([] if delimiter == "\t" else ["\t"]))
    value = st.floats(min_value=-1e300, max_value=1e300)
    feature = st.one_of(
        st.builds(lambda v, form: form.format(v), value,
                  st.sampled_from(["{!r}", "{:.17g}", "{:.3e}", "{:+}"])),
        st.sampled_from([" 1.5", "1_000", "+2", "1e-320", "-0", ".5", "5.", "4e-3 "]),
    )
    label = st.one_of(
        st.builds(lambda k, form: form.format(k), st.integers(-3, 3),
                  st.sampled_from(["{}", "{}.0", "{:+d}", "{:e}"])),
        st.just("-0.0"),
    )
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        cells = [draw(pad) + draw(feature) + draw(pad) for _ in range(width - 1)]
        cells.insert(label_column % width, draw(pad) + draw(label) + draw(pad))
        rows.append(delimiter.join(cells))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", "  ", "\t"])))
    header = draw(st.booleans())
    if header:
        rows.insert(0, draw(st.sampled_from(["", "label" + delimiter + "x", "# any text"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(rows) + draw(st.sampled_from(["", newline]))
    return text, delimiter, label_column, header


class TestLoadDelimited:
    def test_labels_remap_densely(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("5,1.0,2.0\n5,3.0,4.0\n9,5.0,6.0\n")
        ds = load_delimited(str(path))
        assert ds.class_count == 2
        assert_array_equal(ds.labels, [0, 0, 1])
        assert_array_equal(ds.features.data, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_label_column_in_middle_and_negative(self, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text("1.0,7,2.0\n3.0,7,4.0\n")
        ds = load_delimited(str(path), label_column=1)
        assert_array_equal(ds.features.data, [[1.0, 2.0], [3.0, 4.0]])
        path2 = tmp_path / "last.csv"
        path2.write_text("1.0,2.0,3\n4.0,5.0,1\n")
        ds2 = load_delimited(str(path2), label_column=-1)
        assert_array_equal(ds2.labels, [1, 0])  # raw 3 and 1 sort to 1, 0

    def test_header_skipped_on_request(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("label,f1\n0,1.5\n1,2.5\n")
        ds = load_delimited(str(path), header=True)
        assert_array_equal(ds.features.data, [[1.5], [2.5]])

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "semi.txt"
        path.write_text("0;1.0;2.0\n1;3.0;4.0\n")
        ds = load_delimited(str(path), delimiter=";")
        assert_array_equal(ds.features.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_delimiter_is_a_config_error(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("0,1.0\n1,2.0\n")
        with pytest.raises(ConfigError, match="delimiter must be a non-empty string"):
            load_delimited(str(path), delimiter="")

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ParseError, match=":2:"):
            load_delimited(str(path))

    def test_bad_cell_reports_coordinates(self, tmp_path):
        path = tmp_path / "badcell.csv"
        path.write_text("0,1.0,2.0\n1,oops,4.0\n")
        with pytest.raises(ParseError, match=r":2: column 2"):
            load_delimited(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_delimited(str(path))
        blank = tmp_path / "blank.csv"
        blank.write_text("\n\n")
        with pytest.raises(ParseError):
            load_delimited(str(blank))

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "fraclabel.csv"
        path.write_text("0.5,1.0\n")
        with pytest.raises(ParseError, match="integer-valued"):
            load_delimited(str(path))

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0\n1\n")
        with pytest.raises(ParseError):
            load_delimited(str(path))

    def test_seventeen_digit_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        values = np.concatenate([
            rng.normal(size=20) * 10.0 ** rng.integers(-300, 300, size=20),
            [0.1, 1.0 / 3.0, np.pi, 5e-324, -1.7976931348623157e308],
        ])
        features = values.reshape(-1, 5)
        labels = rng.integers(0, 3, size=features.shape[0])
        path = tmp_path / "roundtrip.csv"
        with open(path, "w") as fh:
            for row, label in zip(features, labels):
                fh.write(",".join([str(label)] + [f"{v:.17g}" for v in row]) + "\n")
        ds = load_delimited(str(path))
        assert_array_equal(ds.features.data, features)

    @pytest.mark.parametrize("text, header, error, where", [
        ("0,1\n\nnan,2\n", False, ParseError, ":3: label column must be integer-valued, found nan"),
        ("0,1\ninf,2\n", False, ParseError, ":2: label column must be integer-valued, found inf"),
        ("h\n0,1\n-inf,2\n", True, ParseError, ":3: label column must be integer-valued, found -inf"),
        ("0,1\n\n1,nan\n", False, DomainError, ":3: non-finite entries"),
        ("h\n0,1\n1,-inf\n", True, DomainError, ":3: non-finite entries"),
        ("0,1\n1,1e999\n", False, DomainError, ":2: non-finite entries"),
        # numpy's reader strips U+001F around a cell as whitespace; float() refuses it
        ("0,1.5,2\n1,3\x1f,4\n", False, ParseError, ":2: column 2: not a number: '3'"),
        ("0,1\n" * (BLOCK_ROWS + 3) + "1,oops\n", False, ParseError,
         f":{BLOCK_ROWS + 4}: column 2: not a number: 'oops'"),
        ("\n0,1\n" * (BLOCK_ROWS + 3) + "1,2,3\n", False, ParseError,
         f":{2 * BLOCK_ROWS + 7}: expected 2 columns, got 3"),
    ])
    def test_errors_name_the_line(self, tmp_path, text, header, error, where):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(error, match="^" + re.escape(f"{path}{where}") + "$"):
            load_delimited(str(path), header=header)

    # block size and +-1 rows, with a blank line inside the first block
    @pytest.mark.parametrize("count", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_block_boundaries_match_the_per_cell_loader(self, tmp_path, count):
        rng = np.random.default_rng(count)
        lines = [f"{v:.17g};{k};{w!r}" for v, k, w in
                 zip(rng.normal(size=count), rng.integers(-3, 4, size=count), rng.normal(size=count).tolist())]
        lines.insert(count // 2, "  ")
        path = tmp_path / "blocks.csv"
        path.write_text("\n".join(lines) + "\n")
        assert_same_as_oracle(path, delimiter=";", label_column=1)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(spec=delimited_files())
    def test_matches_the_per_cell_loader(self, tmp_path_factory, spec):
        text, delimiter, label_column, header = spec
        path = tmp_path_factory.mktemp("parity") / "data.txt"
        path.write_bytes(text.encode())
        assert_same_as_oracle(path, delimiter=delimiter, label_column=label_column, header=header)


def numeric_spellings(seed: int) -> list[str]:
    """About 100k number spellings, each one that ``float()`` reads.

    Random doubles at 17, 25 and 40 significant digits, ``%.3e`` and
    ``repr``; random 17-, 25- and 40-digit decimal strings; subnormals;
    the exact midpoints between neighbouring doubles, where rounding
    ties to even; signed zeros, overflow and underflow; and
    ``nan``/``inf``/``infinity`` in mixed case and sign.
    """
    rng = np.random.default_rng(seed)
    values = rng.normal(size=8000) * 10.0 ** rng.uniform(-300, 300, size=8000)
    subnormals = (rng.integers(1, 1 << 52, size=2000, dtype=np.uint64).view(np.float64)
                  * rng.choice([-1.0, 1.0], size=2000))
    spellings = []
    for v in np.concatenate([values, subnormals]).tolist():
        spellings += [f"{v:.16e}", f"{v:.24e}", f"{v:.39e}", f"{v:.3e}", repr(v), f"{v:.17g}"]
    for digits in (17, 25, 40):
        mantissas = rng.integers(0, 10, size=(10_000, digits))
        exponents = rng.integers(-345, 330, size=10_000)
        signs = rng.choice(["", "-", "+"], size=10_000)
        for sign, mantissa, exponent in zip(signs, mantissas.tolist(), exponents.tolist()):
            spellings.append(f"{sign}{mantissa[0]}.{''.join(map(str, mantissa[1:]))}e{exponent}")
    with localcontext() as ctx:
        ctx.prec = 1200  # enough for every midpoint's exact decimal expansion
        for v in np.concatenate([values[:1000], subnormals[:500], [5e-324, 2.2250738585072009e-308]]):
            above = np.nextafter(v, np.inf)
            middle = (Decimal(float(v)) + Decimal(float(above))) / 2
            spellings += [f"{middle:e}", f"{middle.next_plus():e}", f"{middle.next_minus():e}"]
    spellings += ["0", "-0", "+0", "-0.0", "0e0", "-0e-5", "1e400", "-1e400", "1e-400", "-1e-400",
                  "1.7976931348623157e308", "1.7976931348623159e308", "4.9406564584124654e-324",
                  "2.4703282292062327e-324", "2.4703282292062328e-324", ".5", "5.", "+.5e-1"]
    for word in ("nan", "inf", "infinity"):
        for _ in range(200):
            cased = "".join(c.upper() if flip else c for c, flip in zip(word, rng.integers(0, 2, len(word))))
            spellings.append(str(rng.choice(["", "-", "+"])) + cased)
    return spellings


def refuse_per_line_pass(*args):
    raise AssertionError("the per-line pass ran")


class TestReaderPaths:
    """Which files numpy's reader takes, and that each answer is float()'s."""

    @pytest.mark.parametrize("text, delimiter", [
        ("0::1.5::-2\n1::3e-3::4\n", "::"),
        ("0, 1.5, -2\n1, 3e-3, 4\n", ", "),
        ("0,١.٥,2\n1,3,٤\n", ","),
        ("0,0.0_1,2\n1,3,1_000\n", ","),
        ("0,\u00a01.5\u00a0,2\n1,\u00a03,4\n", ","),  # no-break space padding
        ("0,\u20031.5,2\u2003\n1,3,4\n", ","),  # em space padding
    ])
    def test_unusual_delimiters_and_spellings_match_the_per_cell_loader(self, tmp_path, text, delimiter):
        path = tmp_path / "fallback.txt"
        path.write_bytes(text.encode())
        assert_same_as_oracle(path, delimiter=delimiter)

    @pytest.mark.parametrize("delimiter", ["\n", "\r"])
    def test_line_break_delimiter_reads_one_cell_per_row(self, tmp_path, delimiter):
        # numpy's reader refuses a line break as the delimiter with a TypeError
        path = tmp_path / "column.txt"
        path.write_text("1.5\n-2\n")
        X, linenos = read_delimited(str(path), delimiter=delimiter)
        assert X.tobytes() == np.array([[1.5], [-2.0]]).tobytes()
        assert list(linenos) == [1, 2]

    def test_last_line_underscore_takes_the_per_line_pass(self, tmp_path):
        rng = np.random.default_rng(29)
        count = BLOCK_ROWS + 7
        lines = [f"{k},{v:.17g},{w!r}" for k, v, w in
                 zip(rng.integers(0, 3, size=count).tolist(), rng.normal(size=count), rng.normal(size=count).tolist())]
        lines[-1] = "2,1_000,-0.5"
        path = tmp_path / "late.csv"
        path.write_text("\n".join(lines) + "\n")
        assert_same_as_oracle(path)

    def test_project_rows_shape_takes_numpys_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(10_000, 16)) * 10.0 ** rng.uniform(-2, 2, size=(10_000, 1))
        path = tmp_path / "shard.csv"
        np.savetxt(path, X, fmt="%.17g", delimiter=",")
        monkeypatch.setattr(data, "_parse_line", refuse_per_line_pass)
        rows, linenos = read_delimited(str(path))
        assert rows.tobytes() == X.tobytes()
        assert list(linenos) == list(range(1, 10_001))

    def test_crlf_with_blank_lines_takes_numpys_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"h,x\r\n0, 1.5\r\n\r\n1,-2e-3 \r\n  \r\n\t\r\n2,+7\r\n")
        monkeypatch.setattr(data, "_parse_line", refuse_per_line_pass)
        rows, linenos = read_delimited(str(path), header=True)
        assert rows.tobytes() == np.array([[0.0, 1.5], [1.0, -2e-3], [2.0, 7.0]]).tobytes()
        assert list(linenos) == [2, 4, 7]

    def test_numpys_reader_rounds_every_spelling_as_float_does(self, tmp_path, monkeypatch):
        # pyproject allows any numpy >= 2.0; a reader that rounded one
        # spelling differently would move a csv: dataset without a word
        spellings = numeric_spellings(2109)
        assert len(spellings) > 90_000
        path = tmp_path / "spellings.txt"
        path.write_text("\n".join(spellings) + "\n")
        monkeypatch.setattr(data, "_parse_line", refuse_per_line_pass)
        rows, _ = read_delimited(str(path))
        expected = np.array([float(s) for s in spellings])
        assert rows.shape == (len(spellings), 1)
        mismatched = np.flatnonzero(rows[:, 0].view(np.uint64) != expected.view(np.uint64))
        assert not mismatched.size, [spellings[i] for i in mismatched[:5]]


def write_cifar10_dir(dirpath, records_per_file=40, rng_seed=0, mutate=None):
    """Synthesize a format-valid cifar10 directory: 6 files, 3073-byte records.

    Labels cycle 0..9 so every class appears; ``mutate`` can edit the
    (filename -> bytes) dict before writing.
    """
    rng = np.random.default_rng(rng_seed)
    files = {}
    names = ["data_batch_1.bin", "data_batch_2.bin", "data_batch_3.bin",
             "data_batch_4.bin", "data_batch_5.bin", "test_batch.bin"]
    counter = 0
    for name in names:
        recs = []
        for _ in range(records_per_file):
            label = counter % 10
            counter += 1
            pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
            recs.append(np.concatenate([[np.uint8(label)], pixels]))
        files[name] = np.concatenate(recs).astype(np.uint8)
    if mutate:
        mutate(files)
    for name, blob in files.items():
        blob.tofile(str(dirpath / name))
    return dirpath


def write_cifar100_dir(dirpath, records_per_file=30, rng_seed=1):
    """Synthesize cifar100: train.bin + test.bin, 3074-byte records."""
    rng = np.random.default_rng(rng_seed)
    for name in ("train.bin", "test.bin"):
        recs = []
        for i in range(records_per_file):
            coarse = np.uint8(rng.integers(0, 20))
            fine = np.uint8(i % 100)
            pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
            recs.append(np.concatenate([[coarse], [fine], pixels]))
        np.concatenate(recs).astype(np.uint8).tofile(str(dirpath / name))
    return dirpath


class TestLoadCifarBinary:
    def test_loads_all_batches(self, tmp_path):
        write_cifar10_dir(tmp_path, records_per_file=40)
        ds = load_cifar_binary(str(tmp_path), "cifar10")
        assert len(ds) == 240
        assert ds.dim == 3072
        assert ds.class_count == 10
        assert_array_equal(np.unique(ds.labels), np.arange(10))

    def test_pixels_scaled_to_unit_interval(self, tmp_path):
        def mutate(files):
            rec = np.zeros(3073, dtype=np.uint8)
            rec[0] = 3
            rec[1] = 255
            rec[2] = 51
            files["data_batch_1.bin"] = np.concatenate([files["data_batch_1.bin"], rec])

        write_cifar10_dir(tmp_path, records_per_file=10, mutate=mutate)
        ds = load_cifar_binary(str(tmp_path), "cifar10")
        row = ds.features.data[10]  # the appended record
        assert row[0] == 1.0
        assert row[1] == pytest.approx(0.2, abs=1e-15)
        assert ds.features.data.min() >= 0.0 and ds.features.data.max() <= 1.0

    def test_all_zero_record_gives_zero_row(self, tmp_path):
        def mutate(files):
            rec = np.zeros(3073, dtype=np.uint8)
            files["test_batch.bin"] = np.concatenate([files["test_batch.bin"], rec])

        write_cifar10_dir(tmp_path, records_per_file=10, mutate=mutate)
        ds = load_cifar_binary(str(tmp_path), "cifar10")
        assert_array_equal(ds.features.data[-1], np.zeros(3072))

    def test_planar_channel_order(self, tmp_path):
        def mutate(files):
            rec = np.zeros(3073, dtype=np.uint8)
            rec[0] = 0
            rec[1 : 1 + 1024] = 255  # red plane saturated, green/blue zero
            files["data_batch_2.bin"] = np.concatenate([files["data_batch_2.bin"], rec])

        write_cifar10_dir(tmp_path, records_per_file=5, mutate=mutate)
        ds = load_cifar_binary(str(tmp_path), "cifar10")
        row = ds.features.data[10]  # after the 5+5 records of batches 1-2
        assert_array_equal(row[:1024], np.ones(1024))
        assert_array_equal(row[1024:], np.zeros(2048))

    def test_downsample_mean_pools_each_plane(self, tmp_path):
        write_cifar10_dir(tmp_path, records_per_file=4)
        full = load_cifar_binary(str(tmp_path), "cifar10")
        small = load_cifar_binary(str(tmp_path), "cifar10", downsample_to=8)
        assert small.dim == 3 * 8 * 8
        planes = full.features.data[0].reshape(3, 32, 32)
        manual = planes.reshape(3, 8, 4, 8, 4).mean(axis=(2, 4))
        assert_allclose(small.features.data[0], manual.reshape(-1), rtol=0, atol=1e-15)

    def test_downsample_must_divide_side(self, tmp_path):
        write_cifar10_dir(tmp_path, records_per_file=2)
        with pytest.raises(ConfigError):
            load_cifar_binary(str(tmp_path), "cifar10", downsample_to=7)

    def test_subset_per_class_counts(self, tmp_path):
        write_cifar10_dir(tmp_path, records_per_file=40)
        ds = load_cifar_binary(str(tmp_path), "cifar10", subset_per_class=10)
        assert len(ds) == 100
        for c in range(10):
            assert int(np.sum(ds.labels == c)) == 10

    def test_subset_deterministic_by_seed(self, tmp_path):
        write_cifar10_dir(tmp_path, records_per_file=40)
        a = load_cifar_binary(str(tmp_path), "cifar10", subset_per_class=5, subset_seed=3)
        b = load_cifar_binary(str(tmp_path), "cifar10", subset_per_class=5, subset_seed=3)
        c = load_cifar_binary(str(tmp_path), "cifar10", subset_per_class=5, subset_seed=4)
        assert_array_equal(a.features.data, b.features.data)
        assert not np.array_equal(a.features.data, c.features.data)

    def test_subset_larger_than_class_rejected(self, tmp_path):
        write_cifar10_dir(tmp_path, records_per_file=10)
        with pytest.raises(FormatError):
            load_cifar_binary(str(tmp_path), "cifar10", subset_per_class=7)

    def test_missing_file_rejected(self, tmp_path):
        write_cifar10_dir(tmp_path, records_per_file=5)
        (tmp_path / "data_batch_3.bin").unlink()
        with pytest.raises(FileNotFoundError):
            load_cifar_binary(str(tmp_path), "cifar10")

    def test_truncated_file_rejected(self, tmp_path):
        write_cifar10_dir(tmp_path, records_per_file=5)
        blob = (tmp_path / "data_batch_1.bin").read_bytes()
        (tmp_path / "data_batch_1.bin").write_bytes(blob[:-100])
        with pytest.raises(FormatError, match="record"):
            load_cifar_binary(str(tmp_path), "cifar10")

    def test_label_byte_out_of_range_rejected(self, tmp_path):
        def mutate(files):
            files["data_batch_1.bin"][0] = 10  # first record's label byte
        write_cifar10_dir(tmp_path, records_per_file=5, mutate=mutate)
        with pytest.raises(FormatError, match="label"):
            load_cifar_binary(str(tmp_path), "cifar10")

    def test_unknown_flavor_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_cifar_binary(str(tmp_path), "cifar20")

    def test_cifar100_uses_fine_label(self, tmp_path):
        write_cifar100_dir(tmp_path, records_per_file=30)
        ds = load_cifar_binary(str(tmp_path), "cifar100")
        assert len(ds) == 60
        assert ds.class_count == 100
        # fine labels were written as i % 100 per file
        assert_array_equal(ds.labels[:30], np.arange(30))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_the_convert_then_subset_loader(self, tmp_path, seed):
        write_cifar10_dir(tmp_path, records_per_file=40)
        for subset in (None, 1, 3, 10):
            for down in (None, 1, 4, 8, 32):
                ds = load_cifar_binary(str(tmp_path), "cifar10", subset, down, subset_seed=seed)
                features, labels = oracle_load_cifar_binary(str(tmp_path), "cifar10", subset, down, seed)
                assert_array_equal(ds.features.data, features)
                assert_array_equal(ds.labels, labels)

    def test_subset_converts_only_its_rows(self, tmp_path):
        write_cifar10_dir(tmp_path, records_per_file=200)  # 1200 records, 120 per class
        tracemalloc.start()
        try:
            ds = load_cifar_binary(str(tmp_path), "cifar10", subset_per_class=2, downsample_to=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == 20
        assert peak < 1200 * 3072 * 8  # the float64 size of every record

    def test_cifar100_record_size(self, tmp_path):
        write_cifar100_dir(tmp_path, records_per_file=10)
        blob = (tmp_path / "train.bin").read_bytes()
        assert len(blob) == 10 * 3074
        blob_file = tmp_path / "train.bin"
        blob_file.write_bytes(blob + b"\x00")
        with pytest.raises(FormatError):
            load_cifar_binary(str(tmp_path), "cifar100")


class TestBuildCifar:
    """build_datasets splits CIFAR as bytes and converts each side once."""

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("which", ["cifar10", "cifar100"])
    def test_sides_have_the_bits_of_split_after_load(self, tmp_path, which, seed):
        if which == "cifar10":
            write_cifar10_dir(tmp_path, records_per_file=40)  # 24 rows per class
        else:
            write_cifar100_dir(tmp_path, records_per_file=100)  # 2 rows per class
        gen_seed, split_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
        for subset in (None, 2):
            for down in (None, 8):
                params = {"dir": str(tmp_path), "subset_per_class": subset, "downsample_to": down}
                sides = build_datasets(DataConfig(which, params, train_fraction=0.6), seed)
                ref = split(load_cifar_binary(str(tmp_path), which, subset, down, gen_seed), SplitSpec(0.6, split_seed))
                for ours, theirs in zip(sides, ref, strict=True):
                    assert ours.features.data.shape == theirs.features.data.shape
                    assert ours.features.data.tobytes() == theirs.features.data.tobytes()
                    assert ours.labels.tobytes() == theirs.labels.tobytes()
                    assert (ours.class_count, ours.name) == (theirs.class_count, theirs.name)

    @pytest.mark.parametrize("fraction", [0.001, 0.999])
    def test_an_empty_side_is_the_config_error_of_split(self, tmp_path, fraction):
        write_cifar10_dir(tmp_path, records_per_file=10)
        with pytest.raises(ConfigError) as ours:
            build_datasets(DataConfig("cifar10", {"dir": str(tmp_path)}, train_fraction=fraction), 0)
        with pytest.raises(ConfigError) as theirs:
            split(load_cifar_binary(str(tmp_path), "cifar10"), SplitSpec(fraction, 0))
        assert str(ours.value) == str(theirs.value)

    def test_build_holds_about_one_float_copy(self, tmp_path):
        write_cifar10_dir(tmp_path, records_per_file=100)  # 600 records
        tracemalloc.start()
        try:
            train, test = build_datasets(DataConfig("cifar10", {"dir": str(tmp_path)}), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = train.features.data.nbytes + test.features.data.nbytes
        # converting the whole set, then taking both sides, peaks near 2x
        assert peak < 1.5 * kept


class TestSplit:
    def _toy(self, n=10):
        rng = np.random.default_rng(14)
        return Dataset(rng.normal(size=(n, 3)), rng.integers(0, 3, size=n), 3, "toy")

    def test_seventy_thirty(self):
        train, test = split(self._toy(10), SplitSpec(train_fraction=0.7, shuffle_seed=0))
        assert len(train) == 7 and len(test) == 3

    def test_partition_recovers_original_rows(self):
        ds = self._toy(20)
        train, test = split(ds, SplitSpec(train_fraction=0.7, shuffle_seed=5))
        combined = np.vstack([train.features.data, test.features.data])
        original = ds.features.data
        order_a = np.lexsort(combined.T)
        order_b = np.lexsort(original.T)
        assert_array_equal(combined[order_a], original[order_b])

    def test_deterministic_and_seed_sensitive(self):
        ds = self._toy(40)
        a1, _ = split(ds, SplitSpec(0.7, shuffle_seed=1))
        a2, _ = split(ds, SplitSpec(0.7, shuffle_seed=1))
        b1, _ = split(ds, SplitSpec(0.7, shuffle_seed=2))
        assert_array_equal(a1.features.data, a2.features.data)
        assert not np.array_equal(a1.features.data, b1.features.data)

    def test_class_count_preserved(self):
        train, test = split(self._toy(10), SplitSpec(0.7, shuffle_seed=0))
        assert train.class_count == 3 and test.class_count == 3

    def test_empty_side_rejected(self):
        ds = self._toy(10)
        with pytest.raises(ConfigError):
            split(ds, SplitSpec(0.04, shuffle_seed=0))
        with pytest.raises(ConfigError):
            split(ds, SplitSpec(0.96, shuffle_seed=0))

    def test_fraction_validated(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.0, shuffle_seed=0)
        with pytest.raises(ConfigError):
            SplitSpec(1.0, shuffle_seed=0)

    @pytest.mark.parametrize("fraction, seed, message", [
        ("0.5", 1, "train fraction must be a real number"),  # once a bare TypeError from <
        (0.5, -1, "seed must be non-negative"),  # once numpy's ValueError at split
        (0.5, 1.5, "seed must be an integer"),  # once a TypeError from SeedSequence at split
    ])
    def test_bad_fields_refused_at_construction(self, fraction, seed, message):
        with pytest.raises(ConfigError, match=message):
            SplitSpec(fraction, seed)

    def test_fields_stored_as_python_numbers(self):
        spec = SplitSpec(np.float64(0.7), np.int64(3))
        assert (type(spec.train_fraction), type(spec.shuffle_seed)) == (float, int)
        assert_array_equal(split(self._toy(10), spec)[0].labels, split(self._toy(10), SplitSpec(0.7, 3))[0].labels)
