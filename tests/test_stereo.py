"""Projection geometry: closed-form values, invariants, hemisphere lifts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spherehead import stereo
from spherehead.errors import DomainError, PoleSingularityError, ShapeError
from spherehead.ndcore import Tensor, backward
from spherehead.stereo import (
    EuclideanPoint,
    SpherePoint,
    hemisphere_map,
    inverse_project,
    project,
    project_batch,
    project_rows,
)
from .helpers import check_gradients
from .oracles import check_ball_convexity, matmul, oracle_lift_row, reduce_sum


def height(x) -> float:
    """Signed height z = (|x|^2 - 1)/(|x|^2 + 1), the last coordinate of phi(x)."""
    return float(project(x).coords[-1])


class TestScaleFactor:
    """The height z of the lifted point, read off ``project``."""

    def test_origin_gives_minus_one(self):
        assert height(np.zeros(3)) == -1.0
        assert height([0.0]) == -1.0

    def test_unit_shell_gives_zero(self):
        assert height([1.0, 0.0]) == 0.0
        assert height([0.6, 0.8]) == pytest.approx(0.0, abs=1e-15)

    def test_three_four(self):
        # |x|^2 = 25, so (25 - 1)/(25 + 1) = 24/26 = 12/13
        assert height([3.0, 4.0]) == 0.9230769230769231

    def test_range(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            x = rng.normal(size=rng.integers(1, 8)) * 10.0 ** rng.integers(-3, 4)
            z = height(x)
            assert -1.0 <= z < 1.0 or z == pytest.approx(1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            height([np.inf, 1.0])
        with pytest.raises(DomainError):
            height([np.nan])
        with pytest.raises(DomainError):
            height([1e200, 1e200])  # squared norm overflows


class TestProject:
    def test_origin_maps_to_south_pole(self):
        p = project(np.zeros(4))
        assert_array_equal(p.coords, [0.0, 0.0, 0.0, 0.0, -1.0])

    def test_unit_shell_is_fixed_on_equator(self):
        p = project([1.0, 0.0])
        assert_array_equal(p.coords, [1.0, 0.0, 0.0])
        p = project([0.6, 0.8])
        assert_allclose(p.coords, [0.6, 0.8, 0.0], rtol=0, atol=1e-15)

    def test_three_four_frozen_coordinates(self):
        p = project([3.0, 4.0])
        assert_allclose(p.coords, [3.0 / 13.0, 4.0 / 13.0, 12.0 / 13.0], rtol=0, atol=1e-15)
        assert p.coords @ p.coords == pytest.approx(1.0, abs=1e-15)

    def test_accepts_euclidean_point(self):
        p = project(EuclideanPoint([3.0, 4.0]))
        assert p.coords[-1] == pytest.approx(12.0 / 13.0, abs=1e-15)

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            dim = int(rng.integers(1, 20))
            x = rng.normal(size=dim) * 10.0 ** rng.integers(-6, 7)
            p = project(x)  # SpherePoint construction enforces the invariant
            assert abs(p.coords @ p.coords - 1.0) <= 1e-12

    def test_line_through_pole_form(self):
        # phi(x) must equal the augmented point moved toward the pole by z:
        # (x, 0) + z * (e - (x, 0)) = ((1 - z) x, z)
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.normal(size=3) * 5.0
            z = height(x)
            via_line = np.concatenate([(1.0 - z) * x, [z]])
            assert_allclose(project(x).coords, via_line, rtol=0, atol=1e-12)

    def test_radial_monotonicity_of_height(self):
        rng = np.random.default_rng(9)
        u = rng.normal(size=5)
        u /= np.linalg.norm(u)
        radii = np.linspace(0.01, 50.0, 300)
        heights = [project(r * u).coords[-1] for r in radii]
        assert np.all(np.diff(heights) > 0.0)

    def test_pole_exclusion_and_approach(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            x = rng.normal(size=3)
            x *= 10.0 ** rng.integers(0, 7) / np.linalg.norm(x)
            assert project(x).coords[-1] < 1.0
        far = np.zeros(3)
        far[0] = 1e6
        assert project(far).coords[-1] > 1.0 - 1e-11

    def test_rotation_equivariance_2d(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            x = rng.normal(size=2) * 3.0
            direct = project(rot @ x).coords
            rotated = project(x).coords
            assert_allclose(direct[:2], rot @ rotated[:2], rtol=0, atol=1e-12)
            assert direct[2] == pytest.approx(rotated[2], abs=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            project([np.nan, 0.0])
        with pytest.raises(DomainError):
            project([1e200])


def _scaled_rows(low: float, high: float):
    """Rows of one width in 1..64, each a direction times 10**e, e in [low, high]."""
    def rows(dim):
        row = st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim),
                        st.floats(low, high))
        return st.lists(row, min_size=1, max_size=6)

    def build(pairs):
        X = np.array([direction for direction, _ in pairs], dtype=np.float64)
        # scale the largest entry to 1 first, so subnormal entries cannot
        # make the norm inexact; an all-zero direction stays the origin
        peak = np.max(np.abs(X), axis=1, keepdims=True)
        X = np.divide(X, peak, out=np.zeros_like(X), where=peak > 0.0)
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        return X * 10.0 ** np.array([[e] for _, e in pairs])

    return st.integers(1, 64).flatmap(rows).map(build)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestProjectRows:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(X=_scaled_rows(-150.0, 150.0))
    def test_rows_are_bitwise_single_projection(self, X):
        out = project_rows(X)
        assert out.shape == (X.shape[0], X.shape[1] + 1)
        for i in range(X.shape[0]):
            assert_array_equal(_bits(out[i]), _bits(project(X[i]).coords))
            assert_array_equal(_bits(out[i]), _bits(oracle_lift_row(X[i])))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(X=_scaled_rows(154.2, 300.0))
    def test_past_overflow_raises_never_inf(self, X):
        # |x| above sqrt(max float64) ~ 1.34e154 overflows |x|^2; an
        # all-zero direction is the origin, which lifts fine
        overflow = np.any(X != 0.0, axis=1)
        for row, big in zip(X, overflow):
            if big:
                with pytest.raises(DomainError, match="overflows"):
                    project(row)
            else:
                assert_array_equal(project(row).coords, [0.0] * X.shape[1] + [-1.0])
        if overflow.any():
            with pytest.raises(DomainError, match="overflows"):
                project_rows(X)
    def test_origin_and_three_four(self):
        out = project_rows([[0.0, 0.0], [3.0, 4.0]])
        assert_array_equal(out[0], [0.0, 0.0, -1.0])
        assert_array_equal(out[1], project([3.0, 4.0]).coords)

    def test_no_rows_give_no_rows(self):
        assert project_rows(np.empty((0, 3))).shape == (0, 4)

    def test_errors_name_the_first_bad_row(self):
        X = np.ones((5, 2))
        X[3, 1] = np.nan
        X[4, 0] = np.inf
        with pytest.raises(DomainError, match=r"non-finite.*row 3"):
            project_rows(X)
        X = np.ones((4, 2))
        X[2, 0] = 1e200
        with pytest.raises(DomainError, match=r"overflows.*row 2"):
            project_rows(X)

    def test_errors_keep_the_first_bad_row_and_their_words(self):
        X = np.ones((5, 2))
        X[3, 1] = np.nan
        X[4, 0] = np.inf
        with pytest.raises(DomainError) as info:
            project_rows(X)
        assert (info.value.row, info.value.what) == (3, "non-finite entries")
        with pytest.raises(DomainError) as info:
            project_rows([[0.0, 1e200]])
        assert (info.value.row, info.value.what, str(info.value)) == (0, *["squared norm overflows float64"] * 2)

    def test_unit_norm_gate_still_runs(self, monkeypatch):
        # no finite row misses the sphere by 1e-12; a negative tolerance
        # shows the gate is applied to the lifted rows
        monkeypatch.setattr(stereo, "UNIT_TOL", -1.0)
        with pytest.raises(DomainError, match=r"not on the unit sphere.*row 0"):
            project_rows([[3.0, 4.0], [1.0, 0.0]])

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            project_rows([1.0, 2.0])
        with pytest.raises(ShapeError):
            project_rows(np.empty((3, 0)))


class TestProjectBatch:
    def test_rows_match_single_projection(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(6, 4)) * 2.0
        out = project_batch(Tensor(X))
        assert out.shape == (6, 5)
        for i in range(6):
            assert_array_equal(out.data[i], project(X[i]).coords)

    def test_duplicate_rows_stay_identical(self):
        X = np.array([[3.0, 4.0], [3.0, 4.0]])
        out = project_batch(Tensor(X)).data
        assert_array_equal(out[0], out[1])

    def test_single_row_three_four(self):
        out = project_batch(Tensor([[3.0, 4.0]])).data
        assert_allclose(out[0], [3.0 / 13.0, 4.0 / 13.0, 12.0 / 13.0], rtol=0, atol=1e-15)

    def test_accepts_plain_arrays(self):
        out = project_batch(np.zeros((2, 3)))
        assert_array_equal(out.data[:, -1], [-1.0, -1.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            X = rng.normal(size=(3, 4)) * 2.0
            check_gradients(lambda t: reduce_sum(project_batch(t)), [X], tol=1e-5)
            w = rng.normal(size=(5, 1))
            check_gradients(
                lambda t: reduce_sum(matmul(project_batch(t), Tensor(w))),
                [X],
                tol=1e-5,
            )

    def test_gradient_flows_through_norm_channel(self):
        X = Tensor([[3.0, 4.0]], requires_grad=True)
        out = project_batch(X)
        backward(reduce_sum(out))
        assert X.grad is not None
        assert np.all(X.grad != 0.0)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(X=_scaled_rows(-150.0, 150.0))
    def test_same_bits_as_project_rows(self, X):
        """The tape lift and the eager lift are one formula: a trained model sees ``spherehead project``'s rows."""
        assert_array_equal(_bits(project_batch(Tensor(X)).data), _bits(project_rows(X)))

    def test_shape_and_domain_errors(self):
        with pytest.raises(ShapeError):
            project_batch(Tensor([1.0, 2.0]))
        with pytest.raises(DomainError):
            project_batch(Tensor([[np.inf, 0.0]]))


class TestInverseProject:
    def test_south_pole_maps_to_origin(self):
        x = inverse_project([0.0, 0.0, -1.0])
        assert_array_equal(x.coords, [0.0, 0.0])

    def test_equator_fixed_points(self):
        x = inverse_project([1.0, 0.0, 0.0])
        assert_array_equal(x.coords, [1.0, 0.0])

    def test_three_four_round_trip(self):
        x = inverse_project(project([3.0, 4.0]))
        assert_allclose(x.coords, [3.0, 4.0], rtol=1e-9)

    def test_round_trip_across_magnitudes(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            dim = int(rng.integers(1, 10))
            x = rng.normal(size=dim)
            x *= rng.uniform(0.0, 1000.0) / max(np.linalg.norm(x), 1e-300)
            back = inverse_project(project(x)).coords
            assert np.linalg.norm(back - x) <= 1e-9 * max(np.linalg.norm(x), 1.0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(X=_scaled_rows(-150.0, 150.0))
    def test_round_trip_or_pole_error_for_any_norm(self, X):
        """|x| in 1e-150..1e150, dims 1..64: within the bound, or a pole error past 1 - POLE_EPS.

        The inverse divides by 1 - p_last = 2 / (|x|^2 + 1), which the
        subtraction forms by cancellation; its relative error, and the
        round trip's, grows as eps * (|x|^2 + 1). The worst of 68k random
        cases read 1.12 of that, so the bound below is 4 of it.
        """
        eps = np.finfo(np.float64).eps
        for x in X:
            p = project(x)
            if p.coords[-1] >= 1.0 - stereo.POLE_EPS:
                with pytest.raises(PoleSingularityError):
                    inverse_project(p)
                continue
            back = inverse_project(p).coords
            sq = float(x @ x)
            assert np.linalg.norm(back - x) <= 4.0 * eps * (sq + 1.0) * np.linalg.norm(x)

    def test_forward_round_trip_on_sphere(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            p = rng.normal(size=4)
            p /= np.linalg.norm(p)
            if p[-1] >= 1.0 - 1e-6:
                p[-1] = -p[-1]
            again = project(inverse_project(p)).coords
            assert np.linalg.norm(again - p) <= 1e-9

    def test_pole_neighborhood_rejected(self):
        with pytest.raises(PoleSingularityError):
            inverse_project([0.0, 0.0, 1.0])
        near = np.array([np.sqrt(1.0 - (1.0 - 1e-10) ** 2), 0.0, 1.0 - 1e-10])
        with pytest.raises(PoleSingularityError):
            inverse_project(near)

    def test_off_sphere_rejected(self):
        with pytest.raises(DomainError):
            inverse_project([0.5, 0.5, 0.5])
        # 1e-10 off-sphere is inside the documented 1e-9 gate
        p = np.array([1.0, 0.0, 0.0]) * np.sqrt(1.0 + 1e-10)
        inverse_project(p)


def _unit_rows(rng, count, n):
    X = rng.normal(size=(count, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _boundaries(n):
    """Random unit v = (u, c), the difference of two head columns, for dim n; every fourth has c = 0."""
    rng = np.random.default_rng(90 + n)
    for trial in range(60):
        v = rng.normal(size=n + 1)
        if trial % 4 == 0:
            v[-1] = 0.0
        yield rng, v[:-1] / np.linalg.norm(v), v[-1] / np.linalg.norm(v)


class TestLiftedBoundaries:
    """A lifted head's boundary v.p = 0 pulls back to the sphere |x + u/c|^2 = |u/c|^2 + 1.

    With p = phi(x), v.p = (2 u.x + c (|x|^2 - 1)) / (|x|^2 + 1), whose
    numerator is c (|x + u/c|^2 - |u/c|^2 - 1). When c = 0 the boundary is
    the hyperplane u.x = 0. On |x| = 1, v.p = u.x for every c.
    """

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_points_on_the_sphere_lift_to_the_boundary(self, n):
        for rng, u, c in _boundaries(n):
            directions = _unit_rows(rng, 50, n)
            if c == 0.0:  # the hyperplane u.x = 0, at norms from 1e-2 to 1e2
                X = (directions - np.outer(directions @ u, u)) * 10.0 ** rng.uniform(-2.0, 2.0, size=(50, 1))
            else:
                X = -u / c + np.sqrt(u @ u / c**2 + 1.0) * directions
            v = np.append(u, c)
            assert np.max(np.abs(project_rows(X) @ v)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_inside_and_outside_take_opposite_signs(self, n):
        for rng, u, c in _boundaries(n):
            directions = _unit_rows(rng, 50, n)
            if c == 0.0:  # each point and its mirror image across u.x = 0 (u is a unit vector here)
                inside, outside = directions - 2.0 * np.outer(directions @ u, u), directions
            else:
                center, radius = -u / c, np.sqrt(u @ u / c**2 + 1.0)
                inside = center + radius * rng.uniform(0.0, 0.9, size=(50, 1)) * directions
                outside = center + radius * rng.uniform(1.1, 3.0, size=(50, 1)) * directions
            v = np.append(u, c)
            s_in, s_out = np.sign(project_rows(inside) @ v), np.sign(project_rows(outside) @ v)
            assert np.all(s_in * s_out == -1.0)

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_the_sphere_meets_the_unit_sphere_on_u_dot_x_zero(self, n):
        for rng, u, c in _boundaries(n):
            X = _unit_rows(rng, 50, n)
            # on |x| = 1 the lift is (x, 0), so v.p is u.x: the boundary there is u.x = 0
            assert_allclose(project_rows(X) @ np.append(u, c), X @ u, rtol=0.0, atol=1e-12)
            if c != 0.0:  # and the points of the unit sphere with u.x = 0 lie on the predicted sphere
                W = X - np.outer(X @ u, u) / (u @ u)
                W /= np.linalg.norm(W, axis=1, keepdims=True)
                assert_allclose(np.sum((W + u / c) ** 2, axis=1), u @ u / c**2 + 1.0, rtol=1e-12)


class TestBallConvexity:
    def test_shell_point_mixed_with_itself(self):
        # alpha x + (1 - alpha) x = x: stays on the shell, never a violation
        x = np.array([0.6, 0.8])
        for alpha in (0.0, 1.0):  # endpoint mixes are float-exact
            assert np.linalg.norm(alpha * x + (1.0 - alpha) * x) == 1.0
        for alpha in (0.3, 0.5, 0.9):
            assert np.linalg.norm(alpha * x + (1.0 - alpha) * x) <= 1.0 + 1e-12

    def test_antipodes_midpoint_is_origin(self):
        x = np.array([1.0, 0.0])
        assert np.linalg.norm(0.5 * x + 0.5 * (-x)) == 0.0

    def test_sampled_trials_find_no_violation(self):
        report = check_ball_convexity(sampler_seed=42, trials=20000, dims=(2, 3, 16))
        assert report["violations"] == 0
        assert report["trials"] == 20000
        assert report["max_norm"] <= 1.0 + 1e-12

    def test_report_is_deterministic(self):
        a = check_ball_convexity(sampler_seed=7, trials=1000)
        b = check_ball_convexity(sampler_seed=7, trials=1000)
        assert a == b

    def test_trials_validated(self):
        with pytest.raises(DomainError):
            check_ball_convexity(sampler_seed=0, trials=0)


class TestHemisphereMap:
    def test_origin_reaches_both_poles(self):
        assert_array_equal(hemisphere_map(np.zeros(2), "+").coords, [0.0, 0.0, 1.0])
        assert_array_equal(hemisphere_map(np.zeros(2), "-").coords, [0.0, 0.0, -1.0])

    def test_shell_lands_on_shared_equator(self):
        v = np.array([0.6, 0.8])
        up = hemisphere_map(v, "+").coords
        down = hemisphere_map(v, "-").coords
        assert_allclose(up, down, rtol=0, atol=0)
        assert up[-1] == 0.0

    def test_frozen_example(self):
        p = hemisphere_map([0.6, 0.0], "-")
        assert_allclose(p.coords, [0.6, 0.0, -0.8], rtol=0, atol=1e-15)

    def test_sign_of_height(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            v = rng.normal(size=3)
            v *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(v), 1e-300)
            assert hemisphere_map(v, "+").coords[-1] >= 0.0
            assert hemisphere_map(v, "-").coords[-1] <= 0.0

    def test_unit_norm_of_output(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            v = rng.normal(size=4)
            v /= np.linalg.norm(v) * rng.uniform(1.0, 3.0)
            p = hemisphere_map(v, "+")
            assert abs(p.coords @ p.coords - 1.0) <= 1e-12

    def test_tolerance_sliver_renormalized(self):
        # |v|^2 just above 1 but inside the gate still yields a sphere point
        v = np.array([1.0, 0.0]) * np.sqrt(1.0 + 5e-13)
        p = hemisphere_map(v, "+")
        assert abs(p.coords @ p.coords - 1.0) <= 1e-12

    def test_outside_ball_rejected(self):
        with pytest.raises(DomainError):
            hemisphere_map([1.1, 0.0], "+")

    def test_bad_sign_rejected(self):
        with pytest.raises(DomainError):
            hemisphere_map([0.0, 0.0], "up")


class TestPointTypes:
    def test_sphere_point_validates_norm(self):
        with pytest.raises(DomainError):
            SpherePoint([0.5, 0.5, 0.5])

    def test_sphere_point_rejects_exact_pole(self):
        with pytest.raises(PoleSingularityError):
            SpherePoint([0.0, 0.0, 1.0])

    def test_sphere_point_needs_two_coords(self):
        with pytest.raises(ShapeError):
            SpherePoint([1.0])

    def test_euclidean_point_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            EuclideanPoint([np.inf])
        with pytest.raises(ShapeError):
            EuclideanPoint([])
