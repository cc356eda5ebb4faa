"""Stereographic projection of Euclidean points onto the unit hypersphere.

A point x in R^n maps to the sphere S^n in R^(n+1) by drawing the line
through x (embedded in the equatorial plane) and the north pole
e_{n+1} = (0, ..., 0, 1); the image is where that line re-crosses the
sphere. Closed form, with z the signed height of the image:

    z       = (|x|^2 - 1) / (|x|^2 + 1)
    phi(x)  = (2 x_1 / (|x|^2 + 1), ..., 2 x_n / (|x|^2 + 1), z)

The map is a bijection onto the sphere minus the pole itself, fixes the
unit shell (|x| = 1 lands on the equator), and sends the origin to the
south pole. :func:`project_rows` is the eager form, row by row over an
[N, n] array, and :func:`project` is its one-row case.
:func:`project_batch` puts the lift on the gradient tape so projected
features can sit inside a trained model. Both take their floats from one
formula, ``_lift``, so a point lifted eagerly and a feature row lifted
in training agree bit for bit.

All functions are pure; nothing here holds state.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, PoleSingularityError, ShapeError
from .ndcore import Tensor, _accumulate, _float64, _record

__all__ = [
    "EuclideanPoint",
    "SpherePoint",
    "project",
    "project_rows",
    "project_batch",
    "inverse_project",
    "hemisphere_map",
    "POLE_EPS",
    "UNIT_TOL",
]

# inverse_project refuses points this close to the pole; the inverse blows
# up as 1/(1 - p_last) and nothing in the pipeline ever needs it there
POLE_EPS = 1e-9

# how far |coords|^2 may drift from 1 before a vector is not a sphere point
UNIT_TOL = 1e-12


def _vector(coords, name: str) -> np.ndarray:
    """Coordinates as a flat float64 array.

    No coordinates is a ShapeError; complex, text or non-finite ones are a DomainError.
    """
    arr = _float64(coords, DomainError, name).reshape(-1)
    if arr.size == 0:
        raise ShapeError(f"{name} needs at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} has non-finite entries")
    return arr


class EuclideanPoint:
    """A finite point in R^n, the domain of the projection."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = _vector(coords, "EuclideanPoint")

    @property
    def dim(self) -> int:
        return self.coords.size

    def __repr__(self) -> str:
        return f"EuclideanPoint({self.coords.tolist()})"


class SpherePoint:
    """A point on the unit sphere S^n in R^(n+1).

    Construction validates squared norm within ``UNIT_TOL`` of 1 and, by
    default, that the coordinates are not exactly the north pole: the
    projection image is the punctured sphere. Hemisphere lifts cover the
    whole sphere, pole included, so they construct with
    ``allow_pole=True``.
    """

    __slots__ = ("coords",)

    def __init__(self, coords, allow_pole: bool = False):
        arr = _vector(coords, "SpherePoint")
        _check_sphere(arr[None, :], UNIT_TOL, allow_pole)
        self.coords = arr

    @property
    def dim(self) -> int:
        return self.coords.size

    def __repr__(self) -> str:
        return f"SpherePoint({self.coords.tolist()})"


def _euclidean_coords(x) -> np.ndarray:
    if isinstance(x, EuclideanPoint):
        return x.coords
    return _vector(x, "EuclideanPoint")


def project(x) -> SpherePoint:
    """Map a Euclidean point onto the unit sphere one dimension up.

    The one-row case of :func:`project_rows`, so a file lifted by
    ``spherehead project``, a point lifted here and a row of
    :func:`project_batch` agree bit for bit.
    """
    return SpherePoint(_lift(_euclidean_coords(x)[None, :])[0][0])


def _row_error(cls, what: str, bad: np.ndarray) -> DomainError:
    """``cls`` for the rows ``bad`` marks, naming the first when there are more rows than one.

    It keeps ``what`` and that row's index as ``row``, so a caller can
    name the row its own way, as ``spherehead project`` names the line.
    """
    row = int(np.argmax(bad))
    err = cls(what if bad.size == 1 else f"{what} (first in row {row})")
    err.what, err.row = what, row
    return err


def _check_sphere(P: np.ndarray, tol: float, allow_pole: bool = False) -> None:
    """Raise unless every row of a 2-D P is a sphere point; the one check of points and rows.

    Rows need two coordinates or more (:class:`ShapeError`), a squared
    norm within ``tol`` of 1 (:class:`DomainError`) and, unless
    ``allow_pole``, not to be the north pole (:class:`PoleSingularityError`).
    """
    if P.shape[1] < 2:
        raise ShapeError("SpherePoint needs at least two coordinates")
    with np.errstate(over="ignore"):
        sq = np.vecdot(P, P)
    off = np.abs(sq - 1.0) > tol
    if off.any():
        raise _row_error(DomainError, f"not on the unit sphere: |coords|^2 = {float(sq[off][0])!r}", off)
    top = P[:, -1] == 1.0
    if not allow_pole and top.any():
        pole = top & ~P[:, :-1].any(axis=1)
        if pole.any():
            raise _row_error(PoleSingularityError, "the north pole is excluded from the sphere image", pole)


@np.errstate(over="ignore", invalid="ignore")
def _lift(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi of every row of X [N, n] or a stack [S, N, n], and the squared norms ``np.vecdot(X, X)`` as a column [..., N, 1].

    A non-finite entry or a squared norm past float64 raises
    :class:`DomainError`; in a stack, its row is counted through the
    stack, slice * N + row.
    """
    sq = np.vecdot(X, X)[..., None]
    if sq.size and not np.maximum.reduce(sq, axis=None) < np.inf:  # a NaN or inf square is the max
        finite = np.isfinite(X).all(axis=-1)
        if not finite.all():
            raise _row_error(DomainError, "non-finite entries", ~finite)
        raise _row_error(DomainError, "squared norm overflows float64", np.isinf(sq[..., 0]))
    n = X.shape[-1]
    out = np.empty(X.shape[:-1] + (n + 1,))
    denom = sq + 1.0
    np.divide(2.0 * X, denom, out=out[..., :n])
    np.divide(sq - 1.0, denom, out=out[..., n:])
    return out, sq


def project_rows(X) -> np.ndarray:
    """Lift every row of X onto the unit sphere: [N, n] -> [N, n+1].

    ``_lift``, then the :class:`SpherePoint` checks: a row off the unit
    sphere by more than ``UNIT_TOL`` raises :class:`DomainError`, and the
    north pole :class:`PoleSingularityError`. With more than one row,
    every error names the first offending row. Each error keeps that
    row's index as ``row``. Complex, string or object input is a
    :class:`DomainError` and a shape other than [N, n] a :class:`ShapeError`.
    """
    X = _float64(X, DomainError, "project_rows input")
    if X.ndim != 2 or X.shape[1] == 0:
        raise ShapeError(f"project_rows needs an [N, n] array with n >= 1, got shape {X.shape}")
    out, _ = _lift(X)
    _check_sphere(out, UNIT_TOL)
    return out


def project_batch(X: Tensor) -> Tensor:
    """Row-wise projection on the gradient tape: [B, n] -> [B, n+1], or a stack [S, B, n] -> [S, B, n+1], one node.

    The forward pass is ``_lift``, as in :func:`project_rows`. The
    backward pass applies the lift's Jacobian in one pass: with D =
    |x|^2 + 1 and the gradient (ga, gb) of (a, b) = (2x / D, (|x|^2 - 1) / D),
    x gets ``(2 ga + 4 x (gb - ga.x) / D) / D``.
    """
    if not isinstance(X, Tensor):
        X = Tensor(X)
    x = X.data
    if x.ndim not in (2, 3):
        raise ShapeError(f"project_batch needs a [B, n] or [S, B, n] tensor, got shape {x.shape}")
    out, norm = _lift(x)
    n = x.shape[-1]

    def backward_fn(g: np.ndarray) -> None:
        ga, gb = g[..., :n], g[..., n:]
        denom = norm + 1.0
        _accumulate(X, (2.0 * ga + 4.0 * x * (gb - np.vecdot(ga, x)[..., None]) / denom) / denom)

    return _record("project_batch", (X,), out, backward_fn)


def inverse_project(p) -> EuclideanPoint:
    """Undo the projection: (p_1, ..., p_n, p_last) -> p_i / (1 - p_last).

    Refuses points off the sphere (more than 1e-9 from unit norm, a
    looser gate than the SpherePoint invariant so round-tripped floats
    pass) and points within ``POLE_EPS`` of the pole, where the division
    is meaningless or explosive.
    """
    if isinstance(p, SpherePoint):
        coords = p.coords
    else:
        coords = _vector(p, "SpherePoint")
        _check_sphere(coords[None, :], 1e-9, allow_pole=True)
    last = coords[-1]
    if last >= 1.0 - POLE_EPS:
        raise PoleSingularityError(f"cannot invert within {POLE_EPS:g} of the north pole (last = {last!r})")
    return EuclideanPoint(coords[:-1] / (1.0 - last))


def hemisphere_map(v, sign: str) -> SpherePoint:
    """Lift a closed-ball point onto the upper or lower hemisphere.

    Appends +sqrt(1 - |v|^2) for sign "+" and the negative root for
    sign "-"; both signs agree on the shared equator |v| = 1. The radical
    is clamped at zero because |v| = 1 can put a tiny negative value
    under it.
    """
    if sign not in ("+", "-"):
        raise DomainError(f'hemisphere sign must be "+" or "-", got {sign!r}')
    coords = _euclidean_coords(v)
    with np.errstate(over="ignore"):
        sq = float(np.vecdot(coords, coords))
    if sq > 1.0 + 1e-12:
        raise DomainError(f"hemisphere_map needs |v| <= 1, got |v|^2 = {sq!r}")
    height = np.sqrt(max(0.0, 1.0 - sq))
    if sign == "-":
        height = -height
    out = np.concatenate([coords, [height]])
    # a shell point with |v|^2 = 1 + 8e-13 passes the tolerance gate but
    # misses the sphere; renormalize the sliver so the result is valid
    sq_out = np.vecdot(out, out)
    if abs(sq_out - 1.0) > UNIT_TOL:
        out = out / np.sqrt(sq_out)
    # the upper hemisphere legitimately contains the pole (v = 0, sign +)
    return SpherePoint(out, allow_pole=True)
