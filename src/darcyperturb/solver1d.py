"""Exact and finite-element solvers for the 1D two-region problem on (-1, 1),
the H / H-orthogonal decomposition of the pressure space, and the explicit
perturbation error bounds.

The problem: -d(k dq) = F with k = 1 on (-1, zeta) and k = 1/eps on (zeta, 1),
q(-1) = 0, dq(1) = 0 and the flux jump dq(zeta-) - (1/eps) dq(zeta+) = f(zeta).
zeta = 0 gives the unperturbed solution p.  For zeta > 0 the space V splits
into H = {dr = 0 on (0, zeta)} and its V-orthogonal complement; for zeta < 0
the mirrored splitting (dr = 0 on (zeta, 0)) is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .quadrature import Antiderivative, as_array_fn, gauss_rule, integrate_cells

BREAKPOINT_MERGE_TOL = 1e-13


class Piece:
    """One smooth piece of a field: evaluable value and derivative."""

    __slots__ = ("value", "deriv")

    def __init__(self, value: Callable, deriv: Callable):
        self.value = value
        self.deriv = deriv


def _constant(c: float) -> Callable:
    return lambda x: np.full_like(np.asarray(x, dtype=float), c)


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
        return np.clip(
            np.searchsorted(self.breakpoints, x, side="right") - 1, 0, len(self.pieces) - 1
        )

    def _eval(self, x, attr: str):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x_arr)
        idx = self._piece_index(x_arr)
        for i in np.unique(idx):
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
    pts = np.asarray(sorted(set(float(b) for b in breaks) | set(float(e) for e in extra)))
    keep = [pts[0]]
    for p in pts[1:]:
        if p - keep[-1] > BREAKPOINT_MERGE_TOL:
            keep.append(p)
        else:
            keep[-1] = max(keep[-1], p)
    return np.array(keep)


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

    def val_left(x):
        return V_left(x)

    def val_right(x):
        return v_iface + V_right(x)

    breaks = _insert_points([-1.0, z0, 1.0], [0.0])
    pieces = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (lo + hi)
        if mid < z0:
            pieces.append(Piece(val_left, d_left))
        else:
            pieces.append(Piece(val_right, d_right))
    return PiecewiseField1D(breaks, tuple(pieces), label=label)


def solve_exact_1d(forcing, zeta: float, eps: float) -> PiecewiseField1D:
    """Exact solution q^zeta of the perturbed two-point problem (p for zeta = 0)."""
    _check_eps(eps)
    F = as_array_fn(forcing.F)
    f_at = float(as_array_fn(forcing.f)(np.asarray([zeta]))[0])
    return _two_region_exact(
        F, F, 1.0, 1.0 / eps, f_at, zeta,
        label=f"exact(zeta={zeta:g})",
    )


def _check_eps(eps: float):
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")


def solve_fem_1d(forcing, zeta: float, eps: float, n_cells: int) -> PiecewiseField1D:
    """P1 Galerkin solution of the same weak problem on a mesh containing zeta.

    Tridiagonal solve; the uniform mesh is augmented with 0 and zeta as nodes.
    """
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
    f_vec = as_array_fn(forcing.f)
    load[iz] += float(f_vec(np.asarray([zeta]))[0])

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


def _zero_field() -> PiecewiseField1D:
    return PiecewiseField1D(np.array([-1.0, 1.0]), (Piece(_constant(0.0), _constant(0.0)),), "zero")


def project_H(r: PiecewiseField1D, zeta: float) -> PiecewiseField1D:
    """V-orthogonal projection onto H (fields with no slope between 0 and zeta).

    zeta = 0 degenerates to H = V and returns r itself.
    """
    if zeta == 0.0:
        return r
    z0 = float(zeta)
    if not -1.0 < z0 < 1.0:
        raise ValueError(f"zeta must lie in (-1, 1), got {z0}")
    breaks = _insert_points(r.breakpoints, [0.0, z0])
    lo, hi = (0.0, z0) if z0 > 0 else (z0, 0.0)
    anchor = r.value(lo)          # value held constant across the gap
    shift = r.value(hi) - anchor  # removed from the outer branch
    pieces = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (a + b)
        if mid < lo:
            pieces.append(Piece(r.value, r.derivative))
        elif mid < hi:
            pieces.append(Piece(_constant(anchor), _constant(0.0)))
        else:
            pieces.append(Piece(lambda x, s=shift: r.value(x) - s, r.derivative))
    return PiecewiseField1D(breaks, tuple(pieces), label=f"P_H[{r.label}]")


def project_Hperp(r: PiecewiseField1D, zeta: float) -> PiecewiseField1D:
    """V-orthogonal projection onto the complement of H; supported on the gap.

    zeta = 0 degenerates to the trivial subspace and returns the zero field.
    """
    if zeta == 0.0:
        return _zero_field()
    z0 = float(zeta)
    if not -1.0 < z0 < 1.0:
        raise ValueError(f"zeta must lie in (-1, 1), got {z0}")
    breaks = _insert_points(r.breakpoints, [0.0, z0])
    lo, hi = (0.0, z0) if z0 > 0 else (z0, 0.0)
    anchor = r.value(lo)
    plateau = r.value(hi) - anchor
    pieces = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (a + b)
        if mid < lo:
            pieces.append(Piece(_constant(0.0), _constant(0.0)))
        elif mid < hi:
            pieces.append(Piece(lambda x, c=anchor: r.value(x) - c, r.derivative))
        else:
            pieces.append(Piece(_constant(plateau), _constant(0.0)))
    return PiecewiseField1D(breaks, tuple(pieces), label=f"P_Hperp[{r.label}]")


def hperp_exact_original(F, zeta: float, eps: float, f=None) -> PiecewiseField1D:
    """Closed-form H-orthogonal projection of the unperturbed solution p.

    For zeta > 0 this is the double-integral formula scaled by eps (f plays no
    role); for zeta < 0 the mirrored formula carries the interface flux f(0).
    """
    _check_eps(eps)
    z0 = float(zeta)
    if not -1.0 < z0 < 1.0 or z0 == 0.0:
        raise ValueError(f"zeta must lie in (-1, 0) or (0, 1), got {z0}")
    F = as_array_fn(F)
    if z0 > 0:
        IF = Antiderivative(F, 0.0, 1.0)
        Q = IF(1.0)
        D = Antiderivative(lambda t: IF(t), 0.0, z0)

        def val(x):
            return eps * (np.asarray(x) * Q - D(np.minimum(x, z0)))

        def der(x):
            return eps * (Q - IF(np.asarray(x)))

        plateau = float(val(np.asarray([z0]))[0])
        return _gap_field(z0, val, der, plateau, "hperp_exact_p")

    f0 = 0.0 if f is None else float(as_array_fn(f)(np.asarray([0.0]))[0])
    IF = Antiderivative(F, z0, 1.0)
    Q = IF(1.0) - IF(0.0)  # int_0^1 F

    def d_neg(x):
        # Q + f(0) + int_x^0 F
        return Q + f0 + (IF(0.0) - IF(np.asarray(x)))

    V = Antiderivative(d_neg, z0, 0.0)

    def val(x):
        return V(np.maximum(np.asarray(x), z0))

    plateau = float(val(np.asarray([0.0]))[0])
    return _gap_field(z0, val, d_neg, plateau, "hperp_exact_p")


def hperp_exact_perturbed(F, f, zeta: float, eps: float) -> PiecewiseField1D:
    """Closed-form H-orthogonal projection of the perturbed solution q^zeta.

    For zeta > 0 the gap problem has unit coefficient and carries f(zeta); for
    zeta < 0 it is scaled by eps and f drops out.
    """
    _check_eps(eps)
    z0 = float(zeta)
    if not -1.0 < z0 < 1.0 or z0 == 0.0:
        raise ValueError(f"zeta must lie in (-1, 0) or (0, 1), got {z0}")
    F = as_array_fn(F)
    f = as_array_fn(f)
    if z0 > 0:
        fz = float(f(np.asarray([z0]))[0])
        IF = Antiderivative(F, 0.0, 1.0)
        Q = IF(1.0)
        D = Antiderivative(lambda t: IF(t), 0.0, z0)

        def val(x):
            return np.asarray(x) * (Q + fz) - D(np.minimum(x, z0))

        def der(x):
            return (Q + fz) - IF(np.asarray(x))

        plateau = float(val(np.asarray([z0]))[0])
        return _gap_field(z0, val, der, plateau, "hperp_exact_q")

    IF = Antiderivative(F, z0, 1.0)
    Q = IF(1.0) - IF(0.0)

    def d_neg(x):
        return eps * (Q + (IF(0.0) - IF(np.asarray(x))))

    V = Antiderivative(d_neg, z0, 0.0)

    def val(x):
        return V(np.maximum(np.asarray(x), z0))

    plateau = float(val(np.asarray([0.0]))[0])
    return _gap_field(z0, val, d_neg, plateau, "hperp_exact_q")


def _gap_field(z0: float, val, der, plateau: float, label: str) -> PiecewiseField1D:
    """Assemble a field that vanishes before the gap and is flat after it."""
    lo, hi = (0.0, z0) if z0 > 0 else (z0, 0.0)
    breaks = _insert_points([-1.0, 1.0], [lo, hi])
    pieces = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (a + b)
        if mid < lo:
            pieces.append(Piece(_constant(0.0), _constant(0.0)))
        elif mid < hi:
            pieces.append(Piece(val, der))
        else:
            pieces.append(Piece(_constant(plateau), _constant(0.0)))
    return PiecewiseField1D(breaks, tuple(pieces), label=label)


def vnorm_inner_1d(a: PiecewiseField1D, b: PiecewiseField1D, *, order: int = 16) -> float:
    """V inner product int_{-1}^{1} da db over the union of breakpoints."""
    breaks = _insert_points(a.breakpoints, b.breakpoints)
    return integrate_cells(lambda x: a.derivative(x) * b.derivative(x), breaks, order=order)


def vnorm_diff_1d(a: PiecewiseField1D, b: PiecewiseField1D, *, order: int = 16) -> float:
    """V-norm of the difference, (int |da - db|^2)^(1/2)."""

    def sq(x):
        d = a.derivative(x) - b.derivative(x)
        return d * d

    breaks = _insert_points(a.breakpoints, b.breakpoints)
    return float(np.sqrt(max(integrate_cells(sq, breaks, order=order), 0.0)))


def energy_split_1d(field: PiecewiseField1D, zeta: float, eps: float) -> tuple[float, float, float]:
    """(e1, e2, e1 + e2) with e1 = int_{-1}^{zeta} |dq|^2, e2 = (1/eps) int_{zeta}^{1} |dq|^2."""
    _check_eps(eps)
    sq = _restricted_energy(field, -1.0, float(zeta))
    e1 = sq
    e2 = _restricted_energy(field, float(zeta), 1.0) / eps
    return e1, e2, e1 + e2


def _restricted_energy(field: PiecewiseField1D, lo: float, hi: float, order: int = 16) -> float:
    if hi <= lo:
        return 0.0
    breaks = _insert_points(field.breakpoints, [lo, hi])
    breaks = breaks[(breaks >= lo - 1e-15) & (breaks <= hi + 1e-15)]

    def sq(x):
        d = field.derivative(x)
        return d * d

    return integrate_cells(sq, breaks, order=order)


def xi_1d(field: PiecewiseField1D, zeta: float) -> float:
    """1D perturbation functional: -int_0^zeta |dq|^2 for zeta > 0, mirrored below."""
    z0 = float(zeta)
    if z0 == 0.0:
        return 0.0
    if z0 > 0:
        return -_restricted_energy(field, 0.0, z0)
    return _restricted_energy(field, z0, 0.0)


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
    fails for |zeta| < 1).  Mirrored formulas are used for zeta < 0, where the
    role of f(zeta) is played by f(0).
    """
    _check_eps(eps)
    z0 = float(zeta)
    if not -1.0 < z0 < 1.0:
        raise ValueError(f"zeta must lie in (-1, 1), got {z0}")
    F = as_array_fn(F)
    f = as_array_fn(f)
    if z0 == 0.0:
        return BoundRecord(0.0, 0.0)
    f0 = float(f(np.asarray([0.0]))[0])
    fz = float(f(np.asarray([z0]))[0])
    h_part = np.sqrt(2.0) * abs(f0 - fz)

    t, w = gauss_rule(16)
    if z0 > 0:
        IF = Antiderivative(F, 0.0, 1.0)
        Q = IF(1.0)
        half = 0.5 * z0
        x = half * (t + 1.0)
        l2 = np.sqrt(max(half * np.dot(w, IF(x) ** 2), 0.0))
        hperp = (1.0 - eps) * l2 + np.sqrt(z0) * abs((1.0 - eps) * Q + fz)
    else:
        IF = Antiderivative(F, z0, 1.0)
        Q = IF(1.0) - IF(0.0)
        half = 0.5 * (-z0)
        x = z0 + half * (t + 1.0)
        E = IF(0.0) - IF(x)  # int_x^0 F
        l2 = np.sqrt(max(half * np.dot(w, E**2), 0.0))
        hperp = (1.0 - eps) * l2 + np.sqrt(-z0) * abs((1.0 - eps) * Q + f0)
    return BoundRecord(float(h_part), float(hperp))
