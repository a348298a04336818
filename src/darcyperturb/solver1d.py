"""Exact and finite-element solvers for the 1D two-region problem on (-1, 1),
the H / H-orthogonal decomposition of the pressure space, and the explicit
perturbation error bounds.

The problem: -d(k dq) = F with k = 1 on (-1, zeta) and k = 1/eps on (zeta, 1),
q(-1) = 0, dq(1) = 0 and the flux jump dq(zeta-) - (1/eps) dq(zeta+) = f(zeta).
zeta = 0 gives the unperturbed solution p.  For zeta != 0 the space V splits
into H = {dr = 0 on the gap (lo, hi) between 0 and zeta} and its V-orthogonal
complement; every gap quantity has one formula for both signs of zeta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .quadrature import Antiderivative, as_array_fn, gauss_rule, integrate_cells

BREAKPOINT_MERGE_TOL = 1e-13

# Gauss order of the V-norm, energy and bound integrals
_ORDER = 16


class Piece:
    """One smooth piece of a field: evaluable value and derivative."""

    __slots__ = ("value", "deriv")

    def __init__(self, value: Callable, deriv: Callable):
        self.value = value
        self.deriv = deriv


def _constant(c: float) -> Callable:
    return lambda x: np.full_like(np.asarray(x, dtype=float), c)


def _flat(c: float) -> Piece:
    """The piece with constant value c and zero slope."""
    return Piece(_constant(c), _constant(0.0))


_ZERO = _flat(0.0)


def _at(fn, x: float) -> float:
    """fn(x) for a scalar x, through the array wrapper every solver uses."""
    return float(as_array_fn(fn)(np.asarray([x]))[0])


@dataclass(frozen=True)
class PiecewiseField1D:
    """A scalar field on [-1, 1] with per-piece value and weak derivative.

    breakpoints[i] .. breakpoints[i+1] is covered by pieces[i]; fields built by
    the solvers are continuous across breakpoints and vanish at x = -1.
    """

    breakpoints: np.ndarray
    pieces: tuple[Piece, ...]
    label: str = ""

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if len(bp) != len(self.pieces) + 1 or np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be sorted and one longer than pieces")
        object.__setattr__(self, "breakpoints", bp)

    def _piece_index(self, x: np.ndarray) -> np.ndarray:
        # integer min/max clamp: np.clip costs several times more per call
        return np.minimum(np.maximum(self.breakpoints.searchsorted(x, side="right") - 1, 0),
                          len(self.pieces) - 1)

    def _eval(self, x, attr: str):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x_arr)
        idx = self._piece_index(x_arr)
        used = np.bincount(idx.ravel()).nonzero()[0]  # np.unique(idx), without its sort
        for i in used:
            sel = idx == i
            out[sel] = getattr(self.pieces[i], attr)(x_arr[sel])
        return out if np.ndim(x) else float(out[0])

    def value(self, x):
        return self._eval(x, "value")

    def derivative(self, x):
        """Weak derivative; at an interior breakpoint the right piece is used."""
        return self._eval(x, "deriv")


def from_nodal(nodes: np.ndarray, values: np.ndarray, label: str = "") -> PiecewiseField1D:
    """Piecewise-linear field through nodal values."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    slopes = np.diff(values) / np.diff(nodes)
    pieces = []
    for i in range(len(slopes)):
        x0, v0, s = nodes[i], values[i], slopes[i]
        pieces.append(Piece(lambda x, x0=x0, v0=v0, s=s: v0 + s * (np.asarray(x) - x0), _constant(s)))
    return PiecewiseField1D(nodes, tuple(pieces), label=label)


def _insert_points(breaks: Sequence[float], extra: Sequence[float]) -> np.ndarray:
    """Sorted union of `breaks` and `extra`, where each run of points at most
    BREAKPOINT_MERGE_TOL apart collapses to its largest point.

    Of equal values (0.0 and -0.0) the first given is kept: sorting the
    reversed input stably puts it last among its equals, and the last point
    of every run is the one kept.
    """
    pts = np.sort(np.concatenate((breaks, extra), dtype=float)[::-1], kind="stable")
    keep = np.ones(len(pts), dtype=bool)
    keep[:-1] = pts[1:] - pts[:-1] > BREAKPOINT_MERGE_TOL
    return pts[keep]


def _gap(zeta: float) -> tuple[float, float]:
    """(lo, hi): the gap between 0 and zeta, which must lie in (-1, 0) or (0, 1)."""
    z0 = float(zeta)
    if not -1.0 < z0 < 1.0 or z0 == 0.0:
        raise ValueError(f"zeta must lie in (-1, 0) or (0, 1), got {z0}")
    return min(z0, 0.0), max(z0, 0.0)


def _bands(breaks: np.ndarray, lo: float, hi: float, below: Piece, inside: Piece,
           above: Piece, label: str) -> PiecewiseField1D:
    """Field on `breaks` whose cells take `below`, `inside` or `above` by where
    their midpoint lies against (lo, hi)."""
    pieces = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (a + b)
        pieces.append(below if mid < lo else inside if mid < hi else above)
    return PiecewiseField1D(breaks, tuple(pieces), label=label)


def _two_region_exact(F_left, F_right, c_left: float, c_right: float,
                      flux: float, iface: float, label: str) -> PiecewiseField1D:
    """Exact solution of -d(c du) = F with region coefficients split at `iface`,
    u(-1) = 0, du(1) = 0 and flux jump c_left du(iface-) - c_right du(iface+) = flux.

    Built by double integration with quadrature antiderivatives.
    """
    z0 = float(iface)
    if not -1.0 < z0 < 1.0:
        raise ValueError(f"interface must lie in (-1, 1), got {z0}")

    IR = Antiderivative(F_right, z0, 1.0)
    IL = Antiderivative(F_left, -1.0, z0)
    right_total = IR(1.0)
    left_total = IL(z0)

    def d_right(x):
        # c_right * du = int_x^1 F_right (Neumann at x = 1)
        return (right_total - IR(x)) / c_right

    def d_left(x):
        # c_left * du = flux + int_iface^1 F_right + int_x^iface F_left
        return (flux + right_total + (left_total - IL(np.asarray(x, dtype=float)))) / c_left

    V_left = Antiderivative(d_left, -1.0, z0)
    v_iface = V_left(z0)
    V_right = Antiderivative(d_right, z0, 1.0)

    def val_right(x):
        return v_iface + V_right(x)

    right = Piece(val_right, d_right)
    return _bands(_insert_points([-1.0, z0, 1.0], [0.0]), z0, z0,
                  Piece(V_left, d_left), right, right, label)


def solve_exact_1d(forcing, zeta: float, eps: float) -> PiecewiseField1D:
    """Exact solution q^zeta of the perturbed two-point problem (p for zeta = 0)."""
    _check_eps(eps)
    F = as_array_fn(forcing.F)
    return _two_region_exact(
        F, F, 1.0, 1.0 / eps, _at(forcing.f, zeta), zeta,
        label=f"exact(zeta={zeta:g})",
    )


def _check_eps(eps: float):
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")


def solve_fem_1d(forcing, zeta: float, eps: float, n_cells: int) -> PiecewiseField1D:
    """P1 Galerkin solution of the same weak problem on a mesh containing zeta.

    Tridiagonal solve; the uniform mesh is augmented with 0 and zeta as nodes.
    """
    from scipy.linalg import solve_banded  # only here: no CLI command needs it

    _check_eps(eps)
    if n_cells < 4:
        raise ValueError(f"need n_cells >= 4, got {n_cells}")
    if not -1.0 < zeta < 1.0:
        raise ValueError(f"zeta must lie in (-1, 1), got {zeta}")
    nodes = _insert_points(np.linspace(-1.0, 1.0, n_cells + 1), [0.0, float(zeta)])
    n = len(nodes)
    h = np.diff(nodes)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    coef = np.where(mids < zeta, 1.0, 1.0 / eps)

    main = np.zeros(n)
    off = np.zeros(n - 1)
    main[:-1] += coef / h
    main[1:] += coef / h
    off -= coef / h

    F = as_array_fn(forcing.F)
    order = max(4, forcing.quadrature_order)
    t, w = gauss_rule(order)
    half = 0.5 * h
    xq = nodes[:-1, None] + half[:, None] * (t[None, :] + 1.0)
    Fq = F(xq.ravel()).reshape(xq.shape)
    # hat function values on each cell at the quadrature points
    lam = (xq - nodes[:-1, None]) / h[:, None]
    load = np.zeros(n)
    load[:-1] += half * ((Fq * (1.0 - lam)) @ w)
    load[1:] += half * ((Fq * lam) @ w)

    iz = int(np.argmin(np.abs(nodes - zeta)))
    load[iz] += _at(forcing.f, zeta)

    # eliminate the Dirichlet node at x = -1
    ab = np.zeros((3, n - 1))
    ab[0, 1:] = off[1:]
    ab[1, :] = main[1:]
    ab[2, :-1] = off[1:]
    rhs = load[1:].copy()
    try:
        sol = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - valid meshes are SPD
        raise RuntimeError(f"singular 1D FEM system: {exc}") from exc
    values = np.concatenate([[0.0], sol])
    return from_nodal(nodes, values, label=f"fem(zeta={zeta:g}, n={n_cells})")


def project_H(r: PiecewiseField1D, zeta: float) -> PiecewiseField1D:
    """V-orthogonal projection onto H (fields with no slope between 0 and zeta).

    zeta = 0 degenerates to H = V and returns r itself.
    """
    if zeta == 0.0:
        return r
    lo, hi = _gap(zeta)
    anchor = r.value(lo)          # value held constant across the gap
    shift = r.value(hi) - anchor  # removed from the outer branch
    return _bands(_insert_points(r.breakpoints, [lo, hi]), lo, hi,
                  Piece(r.value, r.derivative),
                  _flat(anchor),
                  Piece(lambda x: r.value(x) - shift, r.derivative),
                  f"P_H[{r.label}]")


def project_Hperp(r: PiecewiseField1D, zeta: float) -> PiecewiseField1D:
    """V-orthogonal projection onto the complement of H; supported on the gap.

    zeta = 0 degenerates to the trivial subspace and returns the zero field.
    """
    if zeta == 0.0:
        return PiecewiseField1D(np.array([-1.0, 1.0]), (_ZERO,), "zero")
    lo, hi = _gap(zeta)
    anchor = r.value(lo)
    plateau = r.value(hi) - anchor
    return _bands(_insert_points(r.breakpoints, [lo, hi]), lo, hi,
                  _ZERO,
                  Piece(lambda x: r.value(x) - anchor, r.derivative),
                  _flat(plateau),
                  f"P_Hperp[{r.label}]")


@lru_cache(maxsize=1)
def _cached_integral(F, lo: float) -> Antiderivative:
    return Antiderivative(as_array_fn(F), lo, 1.0)


def _integral_to_one(F, lo: float) -> Antiderivative:
    """x -> int_lo^x F, kept for the last (F, lo) asked: for zeta > 0 every row
    of a study's sweep asks for the same F and lo = 0.

    F is taken to be a pure function of x.  An F that cannot be hashed (an
    instance of a callable class with __eq__ but no __hash__, say) gets a new
    integral on each call.
    """
    try:
        hash(F)
    except TypeError:
        return Antiderivative(as_array_fn(F), lo, 1.0)
    return _cached_integral(F, lo)


def _gap_solution(F, f, zeta: float, eps: float, iface: float, label: str) -> PiecewiseField1D:
    """Closed-form H-orthogonal projection of the exact solution whose
    interface sits at `iface` (0 for p, zeta for q^zeta).

    The projection vanishes below the gap (lo, hi), is flat above it, and on it
    has slope scale * (flux + int_x^1 F).  A gap above the interface lies in the
    1/eps region: (scale, flux) = (eps, 0).  A gap below it has unit coefficient
    and carries the interface flux: (scale, flux) = (1, f(hi)).
    """
    _check_eps(eps)
    lo, hi = _gap(zeta)
    if iface == lo:
        scale, flux = eps, 0.0
    else:
        scale, flux = 1.0, _at(f, hi)
    IF = Antiderivative(as_array_fn(F), lo, 1.0)
    top = IF(1.0)

    def slope(x):
        return scale * (flux + (top - IF(x)))

    V = Antiderivative(slope, lo, hi)
    return _bands(_insert_points([-1.0, 1.0], [lo, hi]), lo, hi,
                  _ZERO, Piece(V, slope), _flat(V(hi)), label)


def hperp_exact_original(F, f, zeta: float, eps: float) -> PiecewiseField1D:
    """Closed-form H-orthogonal projection of the unperturbed solution p.

    Its interface is 0: for zeta > 0 the gap lies in the 1/eps region and f
    plays no role; for zeta < 0 it lies below and carries the flux f(0).
    """
    return _gap_solution(F, f, zeta, eps, 0.0, "hperp_exact_p")


def hperp_exact_perturbed(F, f, zeta: float, eps: float) -> PiecewiseField1D:
    """Closed-form H-orthogonal projection of the perturbed solution q^zeta.

    Its interface is zeta: for zeta > 0 the gap lies below it, has unit
    coefficient and carries f(zeta); for zeta < 0 it is scaled by eps and f
    drops out.
    """
    return _gap_solution(F, f, zeta, eps, float(zeta), "hperp_exact_q")


def vnorm_inner_1d(a: PiecewiseField1D, b: PiecewiseField1D) -> float:
    """V inner product int_{-1}^{1} da db over the union of breakpoints."""
    breaks = _insert_points(a.breakpoints, b.breakpoints)
    return integrate_cells(lambda x: a.derivative(x) * b.derivative(x), breaks, order=_ORDER)


def vnorm_diff_1d(a: PiecewiseField1D, b: PiecewiseField1D) -> float:
    """V-norm of the difference, (int |da - db|^2)^(1/2)."""

    def sq(x):
        d = a.derivative(x) - b.derivative(x)
        return d * d

    breaks = _insert_points(a.breakpoints, b.breakpoints)
    return float(np.sqrt(max(integrate_cells(sq, breaks, order=_ORDER), 0.0)))


def energy_split_1d(field: PiecewiseField1D, zeta: float, eps: float) -> tuple[float, float, float]:
    """(e1, e2, e1 + e2) with e1 = int_{-1}^{zeta} |dq|^2, e2 = (1/eps) int_{zeta}^{1} |dq|^2."""
    _check_eps(eps)
    sq = _restricted_energy(field, -1.0, float(zeta))
    e1 = sq
    e2 = _restricted_energy(field, float(zeta), 1.0) / eps
    return e1, e2, e1 + e2


def _restricted_energy(field: PiecewiseField1D, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    breaks = _insert_points(field.breakpoints, [lo, hi])
    breaks = breaks[(breaks >= lo - 1e-15) & (breaks <= hi + 1e-15)]

    def sq(x):
        d = field.derivative(x)
        return d * d

    return integrate_cells(sq, breaks, order=_ORDER)


def xi_1d(field: PiecewiseField1D, zeta: float) -> float:
    """1D perturbation functional -sign(zeta) int_gap |dq|^2 (0 for zeta = 0)."""
    if zeta == 0.0:
        return 0.0
    lo, hi = _gap(zeta)
    return float(-np.sign(zeta) * _restricted_energy(field, lo, hi))


@dataclass(frozen=True)
class BoundRecord:
    """Explicit right-hand side of the 1D continuous-dependence estimate."""

    h_part: float
    hperp_part: float

    @property
    def total(self) -> float:
        return self.h_part + self.hperp_part


def estimate_rhs_1d(F, f, zeta: float, eps: float) -> BoundRecord:
    """Computable bound ||p - q^zeta||_V <= h_part + hperp_part.

    h_part = sqrt(2) |f(0) - f(zeta)|; hperp_part keeps the pre-compression
    sqrt(|zeta|) form of the projection estimate (the compressed |zeta| form
    fails for |zeta| < 1).  On the gap (lo, hi) it uses int_0^1 F, int_x^0 F
    and f at the top of the gap: f(zeta) for zeta > 0, f(0) for zeta < 0.
    """
    _check_eps(eps)
    if zeta == 0.0:
        return BoundRecord(0.0, 0.0)
    lo, hi = _gap(zeta)
    f_lo, f_hi = _at(f, lo), _at(f, hi)
    h_part = np.sqrt(2.0) * abs(f_lo - f_hi)

    IF = _integral_to_one(F, lo)
    at_zero = IF(0.0) if lo < 0.0 else 0.0  # int_lo^0 F; IF(lo) is 0
    Q = IF(1.0) - at_zero
    t, w = gauss_rule(_ORDER)
    half = 0.5 * (hi - lo)
    x = lo + half * (t + 1.0)
    E = at_zero - IF(x)  # int_x^0 F
    l2 = np.sqrt(max(half * np.dot(w, E**2), 0.0))
    hperp = (1.0 - eps) * l2 + np.sqrt(hi - lo) * abs((1.0 - eps) * Q + f_hi)
    return BoundRecord(float(h_part), float(hperp))
