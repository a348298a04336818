"""The exact solver of the 1D two-region problem on (-1, 1), the table of
slopes that every 1D gap, energy and strip integral reads, and the explicit
perturbation error bounds.

The problem: -d(k dq) = F with k = 1 on (-1, zeta) and k = 1/eps on (zeta, 1),
q(-1) = 0, dq(1) = 0 and the flux jump dq(zeta-) - (1/eps) dq(zeta+) = f(zeta).
zeta = 0 gives the unperturbed solution p.  For zeta != 0 the space V splits
into H = {dr = 0 on the gap (lo, hi) between 0 and zeta} and its V-orthogonal
complement; the bound estimate_rhs_1d has one part in each, with one formula
for both signs of zeta.  The projections onto H and its complement, and the
closed-form complement parts of p and q^zeta, live with the tests
(tests/oracles.py), which check the bound and the paper's decomposition
against them.

solve_exact_1d, `_Slopes` and estimate_rhs_1d also take an array of R values
of zeta of one structure (all in (0, 1) or all in (-1, 0), none within
BREAKPOINT_MERGE_TOL of 0 or of +-1) and solve the R problems at once, each
bit for bit as alone.  The field then holds R rows, with breakpoints of
shape (R, n), and each per-row number is an array of R values.  Every array
keeps the shape it has for one problem with one leading row axis in front,
so each product sees the shapes it sees for one row (BLAS results depend on
the shape).  A field of one row, such as p, is shared by all the rows it
meets.  Rows that turn out to differ in structure raise ValueError.

Every integral of a squared slope (the V-norm gap, the energy splits and xi)
reads one table, `_Slopes`: it differentiates each of its fields once, at
the Gauss nodes of every cell of their merged breakpoints, and integrates
over the cells of an interval.  A 1D study batch builds one table for p and
q and reads all of these off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .geometry import _check_eps
from .quadrature import Antiderivative, as_array_fn, gauss_rule

BREAKPOINT_MERGE_TOL = 1e-13

# Gauss order of the V-norm, energy and bound integrals
_ORDER = 16


class Piece:
    """One smooth piece of a field: evaluable value and derivative."""

    __slots__ = ("value", "deriv")

    def __init__(self, value: Callable, deriv: Callable):
        self.value = value
        self.deriv = deriv


def _pointwise(fn) -> Callable:
    """fn on points of any shape, called on the flat points through the array
    wrapper every solver uses: forcings see flat arrays, whatever the row
    layout of the integral that samples them."""
    fn = as_array_fn(fn)
    return lambda x: fn(x.ravel()).reshape(x.shape)


def _at(fn, x):
    """fn at each value of x, in the shape of x."""
    return _pointwise(fn)(np.asarray(x, dtype=float))


def _shared(a: np.ndarray) -> np.ndarray:
    """The last-axis pattern that every row of `a` has; rows that differ raise."""
    first = a[(0,) * (a.ndim - 1)]
    if not np.all(a == first):
        raise ValueError("the rows of a batch differ in structure")
    return first


def _join(*parts) -> np.ndarray:
    """Concatenation along the last axis of per-row arrays and of points (or
    floats) that every row shares."""
    arrs = [np.atleast_1d(np.asarray(a, dtype=float)) for a in parts]
    lead = np.broadcast_shapes(*(a.shape[:-1] for a in arrs))
    return np.concatenate([np.broadcast_to(a, lead + a.shape[-1:]) for a in arrs], axis=-1)


@dataclass(frozen=True)
class PiecewiseField1D:
    """A scalar field on [-1, 1] with per-piece value and weak derivative.

    breakpoints[i] .. breakpoints[i+1] is covered by pieces[i]; fields built by
    the solvers are continuous across breakpoints and vanish at x = -1.
    Breakpoints of shape (R, n) make R rows with the same pieces; `value` and
    `derivative` then take points of shape (R, m).
    """

    breakpoints: np.ndarray
    pieces: tuple[Piece, ...]
    label: str = ""

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.shape[-1] != len(self.pieces) + 1 or np.any(np.diff(bp, axis=-1) <= 0.0):
            raise ValueError("breakpoints must be sorted and one longer than pieces")
        object.__setattr__(self, "breakpoints", bp)

    def _piece_index(self, x: np.ndarray) -> np.ndarray:
        # the count of breakpoints <= x is searchsorted(side="right") row by row;
        # integer min/max clamp: np.clip costs several times more per call
        count = np.count_nonzero(self.breakpoints[..., None, :] <= x[..., None], axis=-1)
        return np.minimum(np.maximum(count - 1, 0), len(self.pieces) - 1)

    def _eval(self, x: np.ndarray, attr: str) -> np.ndarray:
        """Pieces at the points x, of shape (m,) or (R, m), one call per piece
        on the columns it holds; every row must hold each column in the same
        piece."""
        cols = _shared(self._piece_index(x))
        out = np.empty(np.broadcast_shapes(x.shape, self.breakpoints.shape[:-1] + (1,)))
        for i in np.bincount(cols).nonzero()[0]:  # np.unique(cols), without its sort
            sel = cols == i
            out[..., sel] = getattr(self.pieces[i], attr)(x[..., sel])
        return out

    def _at_points(self, x, attr: str):
        x_arr = np.asarray(x, dtype=float)
        out = self._eval(x_arr.reshape(self.breakpoints.shape[:-1] + (-1,)), attr)
        return out.reshape(x_arr.shape) if x_arr.ndim else float(out[0])

    def value(self, x):
        return self._at_points(x, "value")

    def derivative(self, x):
        """Weak derivative; at an interior breakpoint the right piece is used."""
        return self._at_points(x, "deriv")


def _insert_points(breaks, extra: Sequence) -> np.ndarray:
    """Sorted union of `breaks` and `extra`, where each run of points at most
    BREAKPOINT_MERGE_TOL apart collapses to its largest point.

    Of equal values (0.0 and -0.0) the first given is kept: sorting the
    reversed input stably puts it last among its equals, and the last point
    of every run is the one kept.  Rows of (R, n) breakpoints are merged row
    by row and must merge alike.
    """
    pts = np.sort(_join(breaks, *extra)[..., ::-1], axis=-1, kind="stable")
    keep = np.ones(pts.shape, dtype=bool)
    keep[..., :-1] = pts[..., 1:] - pts[..., :-1] > BREAKPOINT_MERGE_TOL
    return pts[..., _shared(keep)]


def _gap(zeta):
    """(lo, hi): the gap between 0 and zeta, which must lie in (-1, 0) or (0, 1)
    (for an array of zeta, every value in the same one)."""
    z = np.asarray(zeta, dtype=float)
    if not (np.all((-1.0 < z) & (z < 0.0)) or np.all((0.0 < z) & (z < 1.0))):
        raise ValueError(f"zeta must lie in (-1, 0) or (0, 1), got {z if z.ndim else float(z)}")
    return np.minimum(z, 0.0), np.maximum(z, 0.0)


def _bands(breaks: np.ndarray, lo, hi, below: Piece, inside: Piece,
           above: Piece, label: str) -> PiecewiseField1D:
    """Field on `breaks` whose cells take `below`, `inside` or `above` by where
    their midpoint lies against (lo, hi) (per-row columns for R rows)."""
    mid = 0.5 * (breaks[..., :-1] + breaks[..., 1:])
    band = _shared(np.where(mid < lo, 0, np.where(mid < hi, 1, 2)))
    return PiecewiseField1D(breaks, tuple((below, inside, above)[k] for k in band), label=label)


def _two_region_exact(F_left, F_right, c_left: float, c_right: float,
                      flux: float, iface: float, label: str) -> PiecewiseField1D:
    """Exact solution of -d(c du) = F with region coefficients split at `iface`,
    u(-1) = 0, du(1) = 0 and flux jump c_left du(iface-) - c_right du(iface+) = flux.

    Built by double integration with quadrature antiderivatives.  The
    derivative needs one integration; the values need a second one, which is
    built on the first `value` read, so a field that is only differentiated
    (every study row) never builds it.  For an array of R interfaces, `flux`
    is an (R, 1) column and the field has R rows.
    """
    z0 = np.asarray(iface, dtype=float)
    if not np.all((-1.0 < z0) & (z0 < 1.0)):
        raise ValueError(f"interface must lie in (-1, 1), got {z0 if z0.ndim else float(z0)}")
    zc = z0[..., None]  # one column: the interface of each row

    IR = Antiderivative(_pointwise(F_right), z0, 1.0)
    IL = Antiderivative(_pointwise(F_left), -1.0, z0)
    right_total = IR(1.0)
    left_total = IL(zc)
    # the slopes are this sum less IL(x) or IR(x), and IL and IR have checked
    # their samples of F: a row with a non-finite slope fails here, not when
    # its values are first read
    if not np.all(np.isfinite(flux + right_total + left_total)):
        raise ValueError("non-finite integrand sample in Antiderivative")

    def d_right(x):
        # c_right * du = int_x^1 F_right (Neumann at x = 1)
        return (right_total - IR(x)) / c_right

    def d_left(x):
        # c_left * du = flux + int_iface^1 F_right + int_x^iface F_left
        return (flux + right_total + (left_total - IL(x))) / c_left

    @cache
    def values():
        V_left = Antiderivative(d_left, -1.0, z0)
        return V_left, V_left(zc), Antiderivative(d_right, z0, 1.0)

    def val_left(x):
        return values()[0](x)

    def val_right(x):
        _, v_iface, V_right = values()
        return v_iface + V_right(x)

    right = Piece(val_right, d_right)
    return _bands(_insert_points(_join(-1.0, zc, 1.0), [0.0]), zc, zc,
                  Piece(val_left, d_left), right, right, label)


def solve_exact_1d(forcing, zeta, eps: float) -> PiecewiseField1D:
    """Exact solution q^zeta of the perturbed two-point problem (p for zeta = 0);
    R rows for an array of R values of zeta."""
    _check_eps(eps)
    z = np.asarray(zeta, dtype=float)
    return _two_region_exact(
        forcing.F, forcing.F, 1.0, 1.0 / eps, _at(forcing.f, z[..., None]), z,
        label=f"exact(zeta={float(z):g})" if z.ndim == 0 else f"exact({len(z)} rows)",
    )


def _scalar(v):
    """A float for a single problem, the array of R values for R rows."""
    return v if np.ndim(v) else float(v)


def _sqrt_of_positive_part(v):
    """sqrt(max(v, 0.0)): as Python's max, keeps v (a NaN or -0.0 too) unless 0.0 is larger."""
    return _scalar(np.sqrt(np.where(v < 0.0, 0.0, v)))


class _Slopes:
    """The slopes of `fields`, each read in one call at the _ORDER Gauss nodes
    of every cell of one breakpoint set, and integrals of their squares.

    The cells are those of the merged breakpoints of the fields.  Each
    integral squares and sums over its own cells only: a product over more
    cells than it covers would give other bits.
    """

    def __init__(self, *fields: PiecewiseField1D):
        self.breaks = _insert_points(fields[0].breakpoints, [f.breakpoints for f in fields[1:]])
        t, self._w = gauss_rule(_ORDER)
        lo = self.breaks[..., :-1]
        self._half = 0.5 * (self.breaks[..., 1:] - lo)
        # (..., cells, order) sample grid
        x = lo[..., None] + self._half[..., None] * (t + 1.0)
        pts = x.reshape(self.breaks.shape[:-1] + (-1,))
        self.slopes = tuple(f._eval(pts, "deriv").reshape(x.shape) for f in fields)

    def integral(self, slope: np.ndarray, minus: np.ndarray | None = None, lo=-np.inf, hi=np.inf):
        """int_lo^hi |slope - minus|^2 (|slope|^2 without minus) over the cells
        whose ends lie in [lo, hi], up to 1e-15, for bounds of one value or
        one per row (0.0 over no cell)."""
        lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
        ends = _shared((self.breaks >= lo - 1e-15) & (self.breaks <= hi + 1e-15))
        cells = ends[:-1] & ends[1:]
        d = slope[..., cells, :] if minus is None else slope[..., cells, :] - minus[..., cells, :]
        # (R, cells, order) @ w keeps the per-row product of a single row, bit for bit
        return _scalar(np.sum(self._half[..., cells] * ((d * d) @ self._w), axis=-1))

    def vnorm(self, slope: np.ndarray, minus: np.ndarray):
        """(int |slope - minus|^2)^(1/2) over every cell."""
        return _sqrt_of_positive_part(self.integral(slope, minus))

    def energy_split(self, slope: np.ndarray, zeta, eps: float):
        """(e1, e2, e1 + e2) with e1 = int_{-1}^{zeta} |slope|^2, e2 = (1/eps) int_{zeta}^{1} |slope|^2."""
        _check_eps(eps)
        e1 = self.integral(slope, lo=-1.0, hi=zeta)
        e2 = self.integral(slope, lo=zeta, hi=1.0) / eps
        return e1, e2, e1 + e2

    def xi(self, slope: np.ndarray, zeta):
        """-sign(zeta) int_gap |slope|^2 (0 for zeta = 0)."""
        if np.ndim(zeta) == 0 and zeta == 0.0:
            return 0.0
        lo, hi = _gap(zeta)
        return _scalar(-np.sign(zeta) * self.integral(slope, lo=lo, hi=hi))


@dataclass(frozen=True)
class BoundRecord:
    """Explicit right-hand side of the 1D continuous-dependence estimate
    (arrays of R values for R rows)."""

    h_part: float
    hperp_part: float

    @property
    def total(self) -> float:
        return self.h_part + self.hperp_part


def estimate_rhs_1d(F, f, zeta, eps: float) -> BoundRecord:
    """Computable bound ||p - q^zeta||_V <= h_part + hperp_part.

    h_part = sqrt(2) |f(0) - f(zeta)|; hperp_part keeps the pre-compression
    sqrt(|zeta|) form of the projection estimate (the compressed |zeta| form
    fails for |zeta| < 1).  On the gap (lo, hi) it uses int_0^1 F, int_x^0 F
    and f at the top of the gap: f(zeta) for zeta > 0, f(0) for zeta < 0.
    """
    _check_eps(eps)
    if np.ndim(zeta) == 0 and zeta == 0.0:
        return BoundRecord(0.0, 0.0)
    gap = _gap(zeta)
    lo, hi = (g[..., None] for g in gap)  # one column: the gap of each row
    f_lo, f_hi = _at(f, lo), _at(f, hi)
    h_part = np.sqrt(2.0) * np.abs(f_lo - f_hi)

    IF = Antiderivative(_pointwise(F), gap[0], 1.0)
    at_zero = IF(0.0) if np.all(lo < 0.0) else 0.0  # int_lo^0 F; IF(lo) is 0
    Q = IF(1.0) - at_zero
    t, w = gauss_rule(_ORDER)
    half = 0.5 * (hi - lo)
    x = lo + half * (t + 1.0)
    E = at_zero - IF(x)  # int_x^0 F
    # (..., 1, 16) @ w is np.dot(w, E**2) of each row, bit for bit
    l2 = _sqrt_of_positive_part(half * ((E**2)[..., None, :] @ w))
    hperp = (1.0 - eps) * l2 + np.sqrt(hi - lo) * np.abs((1.0 - eps) * Q + f_hi)
    return BoundRecord(_scalar(h_part[..., 0]), _scalar(hperp[..., 0]))
