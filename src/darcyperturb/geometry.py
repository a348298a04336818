"""Reference slab geometry, admissible interface perturbations, and the scalar
constants of the perturbation theory.

The reference domain is Omega = Gamma x (-1, 1) with Gamma = (0, 1), split by
the flat interface at height z = 0 into the lower region Omega_1 (slow flow,
Dirichlet outer boundary) and the upper region Omega_2 (fast flow, coefficient
k2/eps, Neumann outer boundary).  A perturbation zeta moves the interface to
the graph z = zeta(x) while keeping it pinned at the lateral walls.

`column_map` and its inverse are the one form of the maps Lambda_i of
`flatten`.  `_ORIENTATIONS` is the one split of the grid quads into
triangles.  `_area_below`, the exact area of each triangle below a line, is
the one triangle clip of the 2D code: both flat splits and `xi_perturbation`
use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import DEFAULT_ORDER, MAX_ORDER, as_array_fn, integrate_cells

ENDPOINT_TOL = 1e-12

# sign-change scan grid of zeta, and the Gauss order of the strip measures
_EDGE_SAMPLES = 2048
_STRIP_ORDER = 8

PERTURBATION_FAMILIES = ("sine", "bump", "hat")


@dataclass(frozen=True)
class Perturbation:
    """An interface displacement x -> zeta(x) on Gamma = (0, 1).

    `value` and `gradient` are vectorized callables; the gradient is one-sided
    (right limit) at the declared knots.  norm_sup is the C(Gamma) norm and
    norm_w1inf = norm_sup + ess-sup |grad zeta|.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    norm_sup: float
    norm_w1inf: float
    knots: tuple[float, ...] = ()

    def __call__(self, x):
        return self.value(x)


@dataclass(frozen=True)
class ForcingSpec:
    """Volume source F and interface flux source f.

    In 1D both are callables of x on (-1, 1); in 2D, F(x, z) on Omega and
    f(x, z) on the slab Gamma x (-1, 1) so it is defined on Gamma and on any
    perturbed interface.
    """

    F: Callable
    f: Callable
    quadrature_order: int = DEFAULT_ORDER

    def __post_init__(self):
        if not 1 <= self.quadrature_order <= MAX_ORDER:
            raise ValueError(f"quadrature_order must lie in [1, {MAX_ORDER}], got {self.quadrature_order}")


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    violations: tuple[str, ...] = ()


def make_perturbation(family: str, params: dict | None = None, amplitude: float = 0.0) -> Perturbation:
    """Build an admissible perturbation amplitude * shape(x) with sup|shape| = 1.

    Families: sine (params: wavenumber, positive integer), bump (smooth,
    compactly flat at the walls), hat (params: knot in (0,1), piecewise
    linear tent).
    """
    params = dict(params or {})
    if amplitude < 0.0:
        raise ValueError(f"amplitude must be >= 0, got {amplitude}")
    if amplitude >= 1.0:
        raise ValueError(f"amplitude must be < 1 so the graph stays inside Omega, got {amplitude}")

    knots: tuple[float, ...] = ()
    if family == "sine":
        raw = params.pop("wavenumber", 1)
        k = int(raw)
        if k < 1 or float(k) != float(raw):
            raise ValueError(f"sine wavenumber must be a positive integer, got {raw}")
        shape = as_array_fn(lambda x: np.sin(k * np.pi * x))
        grad_shape = as_array_fn(lambda x: k * np.pi * np.cos(k * np.pi * x))
        grad_sup = k * np.pi
    elif family == "bump":
        def raw(x):
            g = x * (1.0 - x)
            out = np.zeros_like(g)
            inside = g > 1e-12
            out[inside] = np.exp(4.0 - 1.0 / g[inside])
            return out

        def raw_grad(x):
            g = x * (1.0 - x)
            out = np.zeros_like(g)
            inside = g > 1e-3  # derivative underflows to 0 well before this
            gi = g[inside]
            out[inside] = np.exp(4.0 - 1.0 / gi) * (1.0 - 2.0 * x[inside]) / gi**2
            return out

        shape = as_array_fn(raw)
        grad_shape = as_array_fn(raw_grad)
        xs = np.linspace(0.0, 1.0, 20001)
        grad_sup = float(np.max(np.abs(grad_shape(xs))))  # sampled ess-sup
    elif family == "hat":
        c = float(params.pop("knot", 0.5))
        if not 0.0 < c < 1.0:
            raise ValueError(f"hat knot must lie in (0, 1), got {c}")
        shape = as_array_fn(lambda x: np.where(x <= c, x / c, (1.0 - x) / (1.0 - c)))
        grad_shape = as_array_fn(lambda x: np.where(x < c, 1.0 / c, -1.0 / (1.0 - c)))
        grad_sup = max(1.0 / c, 1.0 / (1.0 - c))
        knots = (c,)
    else:
        raise ValueError(f"unknown perturbation family {family!r}; choose from {PERTURBATION_FAMILIES}")
    if params:
        raise ValueError(f"unused parameters for family {family!r}: {sorted(params)}")

    for endpoint in (0.0, 1.0):
        if abs(float(shape(endpoint))) > ENDPOINT_TOL:
            raise ValueError(f"shape does not vanish at x = {endpoint}")

    a = float(amplitude)
    value = as_array_fn(lambda x, s=shape: a * s(x))
    gradient = as_array_fn(lambda x, g=grad_shape: a * g(x))
    return Perturbation(
        value=value,
        gradient=gradient,
        norm_sup=a,
        norm_w1inf=a + a * grad_sup,
        knots=knots,
    )


def perturbation_from_table(x: np.ndarray, z: np.ndarray) -> Perturbation:
    """Piecewise-linear perturbation through tabulated (x, zeta) samples."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.ndim != 1 or x.shape != z.shape or len(x) < 2:
        raise ValueError("need two equal-length 1D columns with at least 2 rows")
    # every check below is false on NaN
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise ValueError("the zeta table holds a value that is not finite (NaN or inf)")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("abscissae must be strictly increasing")
    if abs(x[0]) > ENDPOINT_TOL or abs(x[-1] - 1.0) > ENDPOINT_TOL:
        raise ValueError("table must span Gamma = [0, 1]")
    if abs(z[0]) > ENDPOINT_TOL or abs(z[-1]) > ENDPOINT_TOL:
        raise ValueError("tabulated zeta must vanish at the walls")
    if np.max(np.abs(z)) >= 1.0:
        raise ValueError("tabulated |zeta| must stay below 1")

    slopes = np.diff(z) / np.diff(x)

    def value(t):
        return np.interp(np.asarray(t, dtype=float), x, z)

    def gradient(t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(slopes) - 1)
        return slopes[idx]

    sup = float(np.max(np.abs(z)))
    return Perturbation(
        value=as_array_fn(value),
        gradient=as_array_fn(gradient),
        norm_sup=sup,
        norm_w1inf=sup + float(np.max(np.abs(slopes))),
        knots=tuple(float(t) for t in x[1:-1]),
    )


# the flat interface z = 0, whose fitted mesh is the flattened problem's reference mesh
FLAT_ZETA = perturbation_from_table(np.array([0.0, 1.0]), np.zeros(2))


def validate_admissible(zeta: Perturbation, samples: int = 1024) -> AdmissibilityReport:
    """Check boundary vanishing, |zeta| < 1 and gradient boundedness by
    sampling Gamma = [0, 1]."""
    violations: list[str] = []

    for endpoint in (0.0, 1.0):
        v = float(zeta.value(endpoint))
        if abs(v) > ENDPOINT_TOL:
            violations.append(f"zeta does not vanish on the boundary of Gamma: zeta({endpoint}) = {v:g}")

    xs = np.linspace(0.0, 1.0, samples)
    vals = zeta.value(xs)
    if not np.all(np.isfinite(vals)):
        violations.append("zeta takes non-finite values")
    elif float(np.max(np.abs(vals))) >= 1.0:
        violations.append(f"|zeta| reaches {np.max(np.abs(vals)):g} >= 1: graph leaves Omega")

    interior = xs[1:-1]
    if zeta.knots:
        keep = np.all(np.abs(interior[:, None] - np.array(zeta.knots)[None, :]) > 1e-9, axis=1)
        interior = interior[keep]
    grads = zeta.gradient(interior)
    if not np.all(np.isfinite(grads)):
        violations.append("gradient of zeta is unbounded at a sampled point")

    return AdmissibilityReport(admissible=not violations, violations=tuple(violations))


def _segment_edges(zeta: Perturbation) -> np.ndarray:
    """Edges of smooth one-signed segments of zeta: knots plus root-found sign changes."""
    edges = {0.0, 1.0}
    edges.update(zeta.knots)
    xs = np.linspace(0.0, 1.0, _EDGE_SAMPLES + 1)
    vals = zeta.value(xs)
    sgn = np.sign(vals)
    for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
        # imported only once a root is bracketed: scipy.optimize costs about
        # 0.3 s and 15 MiB to load, and every 2D row calls this function
        from scipy.optimize import brentq

        edges.add(brentq(lambda t: float(zeta.value(t)), xs[i], xs[i + 1], xtol=1e-14))
    zero_hits = [float(x) for x, v in zip(xs, vals) if v == 0.0]
    if len(zero_hits) <= 64:  # isolated touch points; skip for flat stretches
        edges.update(zero_hits)
    return np.array(sorted(edges))


def strip_measures(zeta: Perturbation) -> tuple[float, float]:
    """Lebesgue measures of the strips the perturbed interface sweeps.

    m1 = meas(Omega_1^zeta - Omega_1) = int max(zeta, 0),
    m2 = meas(Omega_2^zeta - Omega_2) = int max(-zeta, 0), by Gauss
    quadrature on 16 equal cells of each smooth one-signed segment of zeta.
    """
    edges = _segment_edges(zeta)
    cells = np.unique(np.concatenate([np.linspace(lo, hi, 17) for lo, hi in zip(edges[:-1], edges[1:])]))
    m1 = integrate_cells(lambda x: np.maximum(zeta.value(x), 0.0), cells, order=_STRIP_ORDER)
    m2 = integrate_cells(lambda x: np.maximum(-zeta.value(x), 0.0), cells, order=_STRIP_ORDER)
    return max(m1, 0.0), max(m2, 0.0)


def _check_eps(eps: float):
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")


def _lower_bound(eps: float, swept):
    """1 - eps*|1 - 1/eps|*swept for the measure `swept` of the strips (a
    number or an array)."""
    return 1.0 - eps * abs(1.0 - 1.0 / eps) * swept


def lower_bound_constant(zeta: Perturbation, eps: float) -> float:
    """Constant 1 - eps*|1 - 1/eps|*(m1 + m2) bounding the perturbed energy form
    from below against the unperturbed one (coefficient as derived, see README
    notes on the displayed form)."""
    _check_eps(eps)
    m1, m2 = strip_measures(zeta)
    return _lower_bound(eps, m1 + m2)


def column_scale(s, zv):
    """Stretch 1 - s zeta = det A^{-1} of the region-i map, s = (-1)^i, at
    interface heights zv = zeta(x)."""
    return 1.0 - s * zv


def column_map(s, zv, z):
    """Lambda_i at interface heights zv: the height z of region i of the
    perturbed slab to the reference level (z - zeta)/(1 - s zeta)."""
    return (z - zv) / column_scale(s, zv)


def column_map_inverse(s, zv, z):
    """Lambda_i^{-1}: the reference level z to the height z (1 - s zeta) + zeta."""
    return z * column_scale(s, zv) + zv


def _area_below(h: np.ndarray, area: np.ndarray) -> np.ndarray:
    """Area of the part of each triangle below a cutting line (closed-form clip).

    `h` holds the (n_tri, 3) heights of the vertices above the line and `area`
    the (n_tri,) triangle areas; the part with h <= 0 is kept.  h is linear
    on a triangle, so a triangle with one or two vertices at h <= 0 is cut
    along the edges from its lone vertex a to the other two, b and c, at the
    fractions s = h_a/(h_a - h_b) and t = h_a/(h_a - h_c), whatever the slope
    of the line; the corner triangle at a keeps the share s*t of its area.
    """
    inside = h <= 0.0
    # three column adds: np.sum over the short last axis was 3.4 of the 4.6 ms
    # of a whole clip of 147,456 triangles (2-vCPU x86-64, numpy 2.4)
    n_in = inside[:, 0].astype(np.int8) + inside[:, 1] + inside[:, 2]
    below = np.where(n_in == 3, area, 0.0)
    cut = np.flatnonzero((n_in == 1) | (n_in == 2))
    one_in = n_in[cut] == 1
    lone = np.argmax(inside[cut] == one_in[:, None], axis=1)
    ha, hb, hc = (h[cut, (lone + k) % 3] for k in range(3))
    st = ha / (ha - hb) * (ha / (ha - hc))
    below[cut] = area[cut] * np.where(one_in, st, 1.0 - st)
    return below


# The quad split of every node grid: quad (j, l) has the corners
# a = (j, l), b = (j+1, l), c = (j+1, l+1), d = (j, l+1), here as slices of a
# node-grid array, and splits into the triangles abc (orientation 0) and acd
# (orientation 1); triangle 2 (j 2nz + l) + o of a mesh is the triangle of
# orientation o of quad (j, l).
_A, _B, _C, _D = np.s_[:-1, :-1], np.s_[1:, :-1], np.s_[1:, 1:], np.s_[:-1, 1:]
_ORIENTATIONS = ((_A, _B, _C), (_A, _C, _D))


def _grid_corners(V: np.ndarray) -> np.ndarray:
    """(3, columns, levels, 2) values of a node-grid array V of shape
    (columns + 1, levels + 1) at the corners of its triangles, by orientation.

    Corner-major, so `.reshape(3, -1).T` views the corners as the (n_tri, 3)
    rows of the triangles in order; six slice copies, faster than gathering
    through a triangle list.
    """
    out = np.empty((3, V.shape[0] - 1, V.shape[1] - 1, 2), dtype=V.dtype)
    for o, corners in enumerate(_ORIENTATIONS):
        for k, c in enumerate(corners):
            out[k, ..., o] = V[c]
    return out


def _heights_above(mesh, line: np.ndarray, upper: np.ndarray | None = None) -> np.ndarray:
    """(n_tri, 3) vertex heights of a `fem2d.Mesh2D` above the polyline
    through its column abscissae and the (nx + 1,) values `line`; with
    `upper`, the triangles above the interface level measure their heights
    from the polyline of `upper` instead."""
    h = _grid_corners(mesh.levels - line[:, None])
    if upper is not None:
        h[:, :, mesh.nz:] = _grid_corners(mesh.levels[:, mesh.nz:] - upper[:, None])
    return h.reshape(3, -1).T


def xi_perturbation(field, zeta: Perturbation) -> float:
    """Signed gradient-energy difference over the swept strips.

    Returns int_{Omega_2^zeta - Omega_2} |grad r|^2 - int_{Omega_1^zeta - Omega_1} |grad r|^2
    for a P1 field r (a `fem2d.Field2D`) as the exact clip sum
    sum_T |grad r_T|^2 (|T cap {z <= 0}| - |T cap {z <= zeta_h(x)}|), where
    zeta_h is the polyline of zeta through the mesh columns.  Its strips
    differ from those of zeta by O(h^2) in area for column width h, where
    zeta'' is bounded between the columns.
    """
    mesh = field.mesh
    area = mesh.triangle_areas()
    g = field.gradients()
    strip = (_area_below(mesh._corner_values(mesh.levels), area)
             - _area_below(_heights_above(mesh, zeta.value(mesh.col_x)), area))
    return float(np.einsum("td,td,t->", g, g, strip))
