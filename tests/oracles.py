"""Reference computations that only the tests use: analytic pullbacks and
norms of smooth fields, the continuity of piecewise 1D fields, the P1 mesh
geometry computed afresh (the hat gradients, which the mesh does not store,
and a field's gradient as their einsum with its corner values), the P1 finite-element solve of the 1D problem that
cross-checks the exact solver, the plain forms of the 1D evaluation paths
(broadcast by a product with ones, np.clip clamps, one call per np.unique
piece, a Python merge of breakpoints, one amplitude at a time) that the
library's shortcuts and row batches must reproduce bit for bit, and the
column maps and energy splits of the 2D paths written out one formula per
use, which the shared forms must reproduce bit for bit too, the flattening
metric averaged point by point, and the 2D stiffness summed from
per-triangle local matrices through COO, which the node-grid assembler must
reproduce up to the order of summation; the fitted mesh as the connectivity
lists it once stored, whose views the node-grid mesh must reproduce bit for
bit, and the loads gathered and scattered through those lists; the
multigrid transfers as sparse Kronecker products of hat-function
interpolations, whose Galerkin products the stencil hierarchy must
reproduce to roundoff; and the signed shapes that the 2D properties draw (a
negative one as the table of its values)."""

import math
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded

from darcyperturb.config import _EXPR_CONSTS, _EXPR_FUNCS
from darcyperturb.fem2d import _match_columns
from darcyperturb.flatten import _averaged_metric
from darcyperturb.geometry import _area_below, _check_eps, _heights_above, make_perturbation, perturbation_from_table
from darcyperturb.quadrature import (_ANTIDERIVATIVE_CELLS, _ANTIDERIVATIVE_ORDER, as_array_fn, gauss_rule,
                                     integrate_cells, triangle_rule)
from darcyperturb.solver1d import (_ORDER as _ORDER_1D, BREAKPOINT_MERGE_TOL, Piece, PiecewiseField1D, _at,
                                   _constant, _insert_points, _two_region_exact)


def t_apply_smooth(zeta, value, grad):
    """Analytic pullback of a smooth field: returns (value, gradient) callables.

    With w(x, z) = z (1 - (-1)^i zeta) + zeta the chain rule gives
    d/dx (T u) = u_x + u_z * grad zeta * (1 - (-1)^i z) and
    d/dz (T u) = u_z * (1 - (-1)^i zeta).
    """
    value = as_array_fn(value)

    def tv(x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        s = np.where(z < 0.0, -1.0, 1.0)
        zv = zeta.value(x)
        return value(x, z * (1.0 - s * zv) + zv)

    def tg(x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        s = np.where(z < 0.0, -1.0, 1.0)
        zv = zeta.value(x)
        g = zeta.gradient(x)
        w = z * (1.0 - s * zv) + zv
        ux, uz = grad(x, w)
        return ux + uz * g * (1.0 - s * z), uz * (1.0 - s * zv)

    return tv, tg


def h1_norm_smooth(value, grad, *, nx: int = 64, nz: int = 64, order: int = 4) -> float:
    """Full H1 norm of an analytic field by tensor quadrature on an nx-by-nz grid
    per region (cells never straddle the interface line z = 0)."""
    value = as_array_fn(value)
    total = 0.0
    t, w = gauss_rule(order)
    xs = np.linspace(0.0, 1.0, nx + 1)
    for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
        zs = np.linspace(lo, hi, nz + 1)
        hx = 0.5 * np.diff(xs)
        hz = 0.5 * np.diff(zs)
        xq = xs[:-1, None] + hx[:, None] * (t[None, :] + 1.0)
        zq = zs[:-1, None] + hz[:, None] * (t[None, :] + 1.0)
        # tensor product; loop over z cells to bound memory
        for kz in range(nz):
            Zrow = zq[kz]
            XX, ZZ = np.meshgrid(xq.ravel(), Zrow, indexing="ij")
            v = value(XX, ZZ)
            gx, gz = grad(XX, ZZ)
            dens = (v * v + gx * gx + gz * gz).reshape(nx, order, order)
            wxz = (hx[:, None, None] * w[None, :, None]) * (hz[kz] * w[None, None, :])
            total += float(np.sum(dens * wxz))
    return float(np.sqrt(max(total, 0.0)))


def max_jump(field) -> float:
    """Largest value mismatch of a PiecewiseField1D across interior breakpoints."""
    jump = 0.0
    for i, b in enumerate(field.breakpoints[1:-1], start=1):
        left = float(field.pieces[i - 1].value(np.array([b]))[0])
        right = float(field.pieces[i].value(np.array([b]))[0])
        jump = max(jump, abs(left - right))
    return jump


def basis_gradients(mesh):
    """Per-triangle hat gradients (n_tri, 3, 2) and areas (n_tri,), computed
    afresh from the nodes of a `Mesh2D` on every call (the mesh stores only
    its areas)."""
    p = mesh.nodes[mesh.triangles]
    area = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    grads = np.empty((len(mesh.triangles), 3, 2))
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        grads[:, a, 0] = (p[:, b, 1] - p[:, c, 1]) / (2.0 * area)
        grads[:, a, 1] = (p[:, c, 0] - p[:, b, 0]) / (2.0 * area)
    return grads, area


def field_gradients(fld):
    """(n_tri, 2) gradient of a P1 `Field2D`: the einsum of its corner values
    with the hat gradients of `basis_gradients`."""
    grads, _ = basis_gradients(fld.mesh)
    return np.einsum("tad,ta->td", grads, fld.values[fld.mesh.triangles])


def min_angle_loop(mesh) -> float:
    """Smallest interior angle of a `Mesh2D` in degrees, one corner at a time."""
    p = mesh.nodes[mesh.triangles]
    angles = []
    for a in range(3):
        u = p[:, (a + 1) % 3] - p[:, a]
        v = p[:, (a + 2) % 3] - p[:, a]
        cosang = np.sum(u * v, axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return float(np.min(angles))


def broadcast_fn(fn):
    """`fn` over float arrays, always broadcast by a product with ones."""

    def wrapped(*args):
        args = [np.asarray(a, dtype=float) for a in args]
        return np.asarray(fn(*args), dtype=float) * np.ones_like(args[0])

    return wrapped


def broadcast_expression(expr: str, variables: tuple[str, ...]):
    """A forcing expression evaluated with a fresh namespace per call and
    broadcast by a product with ones (validation is left to the library)."""
    code = compile(expr, "<forcing>", "eval")

    def fn(*args):
        local = dict(zip(variables, args))
        out = eval(code, {"__builtins__": {}}, {**_EXPR_FUNCS, **_EXPR_CONSTS, **local})
        return np.asarray(out, dtype=float) * np.ones_like(args[0], dtype=float)

    return fn


def antiderivative_clip(G, x):
    """`Antiderivative.__call__` with an np.clip cell clamp and the Gauss rule
    read per call."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    idx = np.clip(np.searchsorted(G.grid, x_arr, side="right") - 1, 0, len(G.grid) - 2)
    lo = G.grid[idx]
    t, w = gauss_rule(_ANTIDERIVATIVE_ORDER)
    half = 0.5 * (x_arr - lo)
    pts = lo[:, None] + half[:, None] * (t[None, :] + 1.0)
    vals = np.asarray(G.fn(pts.ravel()), dtype=float).reshape(pts.shape)
    out = G.cum[idx] + half * (vals @ w)
    return out if np.ndim(x) else float(out[0])


def piece_index_clip(field, x) -> np.ndarray:
    """Piece of a `PiecewiseField1D` holding each point, clamped by np.clip."""
    return np.clip(np.searchsorted(field.breakpoints, x, side="right") - 1, 0, len(field.pieces) - 1)


def eval_per_piece(field, x, attr: str):
    """`PiecewiseField1D` value ("value") or derivative ("deriv"), one call
    per piece that np.unique finds."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x_arr)
    idx = piece_index_clip(field, x_arr)
    for i in np.unique(idx):
        sel = idx == i
        out[sel] = getattr(field.pieces[i], attr)(x_arr[sel])
    return out if np.ndim(x) else float(out[0])


def insert_points_loop(breaks, extra) -> np.ndarray:
    """`solver1d._insert_points` as a set union, a sort and a Python merge loop."""
    pts = np.asarray(sorted(set(float(b) for b in breaks) | set(float(e) for e in extra)))
    keep = [pts[0]]
    for p in pts[1:]:
        if p - keep[-1] > BREAKPOINT_MERGE_TOL:
            keep.append(p)
        else:
            keep[-1] = max(keep[-1], p)
    return np.array(keep)


def vnorm_inner_1d(a: PiecewiseField1D, b: PiecewiseField1D) -> float:
    """V inner product int_{-1}^{1} da db over the union of breakpoints."""
    breaks = _insert_points(a.breakpoints, [b.breakpoints])
    return integrate_cells(lambda x: a._eval(x, "deriv") * b._eval(x, "deriv"), breaks, order=_ORDER_1D)


# --- the P1 cross-check of the exact 1D solver ---------------------------------

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



# --- the 1D study one amplitude at a time -------------------------------------
# The per-row forms of solver1d and of the oned sweep in study, with the plain
# helpers above: a batch of rows must give each row these bits.

TOL = BREAKPOINT_MERGE_TOL
# source and flux expressions the batch properties draw from
SOURCES = ["0", "1", "x", "x**2 - 1/3", "sin(pi*x) + x**2", "exp(x) - 2", "tanh(4*x)", "sqrt(x + 1.5)*x"]
FLUXES = ["1", "0", "1 + 0.5*x", "cos(3*x)", "log(2 + x)", "exp(-x)", "minimum(x, 0.2) + 1"]


class RowAntiderivative:
    """`quadrature.Antiderivative` of one interval: flat integrand points and
    the np.clip lookup of `antiderivative_clip`."""

    def __init__(self, fn, a: float, b: float):
        self.fn = fn
        self.grid = np.linspace(a, b, _ANTIDERIVATIVE_CELLS + 1)
        t, w = gauss_rule(_ANTIDERIVATIVE_ORDER)
        lo, hi = self.grid[:-1], self.grid[1:]
        half = 0.5 * (hi - lo)
        x = lo[:, None] + half[:, None] * (t[None, :] + 1.0)
        vals = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite integrand sample in Antiderivative")
        self.cum = np.concatenate([[0.0], np.cumsum(half * (vals @ w))])

    def __call__(self, x):
        return antiderivative_clip(self, x)


class RowField:
    """`PiecewiseField1D` of one row, evaluated by `eval_per_piece`."""

    def __init__(self, breakpoints, pieces):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.pieces = pieces

    def value(self, x):
        return eval_per_piece(self, x, "value")

    def derivative(self, x):
        return eval_per_piece(self, x, "deriv")


def _row_at(fn, x: float) -> float:
    return float(as_array_fn(fn)(np.asarray([x]))[0])


def row_integrate_cells(fn, edges, order: int = _ORDER_1D) -> float:
    edges = np.asarray(edges, dtype=float)
    t, w = gauss_rule(order)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    x = lo[:, None] + half[:, None] * (t[None, :] + 1.0)
    vals = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    return float(np.sum(half * (vals @ w)))


def row_exact(F, f, zeta: float, eps: float) -> RowField:
    """`solver1d.solve_exact_1d` for one zeta."""
    F = as_array_fn(F)
    flux, z0, c_right = _row_at(f, zeta), float(zeta), 1.0 / eps
    IR, IL = RowAntiderivative(F, z0, 1.0), RowAntiderivative(F, -1.0, z0)
    right_total, left_total = IR(1.0), IL(z0)

    def d_right(x):
        return (right_total - IR(x)) / c_right

    def d_left(x):
        return (flux + right_total + (left_total - IL(x))) / 1.0

    V_left = RowAntiderivative(d_left, -1.0, z0)
    v_iface = V_left(z0)
    V_right = RowAntiderivative(d_right, z0, 1.0)
    left, right = Piece(V_left, d_left), Piece(lambda x: v_iface + V_right(x), d_right)
    breaks = insert_points_loop([-1.0, z0, 1.0], [0.0])
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    return RowField(breaks, tuple(left if m < z0 else right for m in mids))


def row_vnorm_diff(a: RowField, b: RowField) -> float:
    def sq(x):
        d = a.derivative(x) - b.derivative(x)
        return d * d

    return float(np.sqrt(max(row_integrate_cells(sq, insert_points_loop(a.breakpoints, b.breakpoints)), 0.0)))


def row_energy(field: RowField, lo: float, hi: float) -> float:
    """int_lo^hi |d field|^2 as `solver1d._restricted_energy` of one row."""
    if hi <= lo:
        return 0.0
    breaks = insert_points_loop(field.breakpoints, [lo, hi])
    breaks = breaks[(breaks >= lo - 1e-15) & (breaks <= hi + 1e-15)]

    def sq(x):
        d = field.derivative(x)
        return d * d

    return row_integrate_cells(sq, breaks)


def row_xi(field: RowField, zeta: float) -> float:
    if zeta == 0.0:
        return 0.0
    return float(-np.sign(zeta) * row_energy(field, min(zeta, 0.0), max(zeta, 0.0)))


def row_bound(F, f, zeta: float, eps: float) -> tuple[float, float]:
    """(h_part, hperp_part) of `solver1d.estimate_rhs_1d` for one zeta."""
    if zeta == 0.0:
        return 0.0, 0.0
    lo, hi = min(zeta, 0.0), max(zeta, 0.0)
    f_lo, f_hi = _row_at(f, lo), _row_at(f, hi)
    h_part = np.sqrt(2.0) * abs(f_lo - f_hi)
    IF = RowAntiderivative(as_array_fn(F), lo, 1.0)
    at_zero = IF(0.0) if lo < 0.0 else 0.0
    Q = IF(1.0) - at_zero
    t, w = gauss_rule(_ORDER_1D)
    half = 0.5 * (hi - lo)
    E = at_zero - IF(lo + half * (t + 1.0))
    l2 = np.sqrt(max(half * np.dot(w, E**2), 0.0))
    return float(h_part), float((1.0 - eps) * l2 + np.sqrt(hi - lo) * abs((1.0 - eps) * Q + f_hi))


def row_study(amps, forcing, eps: float) -> list[dict]:
    """The records.csv values of a oned study, one amplitude at a time: a dict
    per row of every column it reached, and its status."""
    p = row_exact(forcing.F, forcing.f, 0.0, eps)
    rows = []
    for amp in amps:
        row = dict.fromkeys(("vnorm_gap", "energy_e1", "energy_e2", "energy_total", "energy_flat_total",
                             "lower_bound_c", "coercivity_e", "xi_p", "bound_h_part",
                             "bound_hperp_part", "bound_total"), math.nan)
        try:
            q = row_exact(forcing.F, forcing.f, amp, eps)
            row["vnorm_gap"] = row_vnorm_diff(p, q)
            e1, e2 = row_energy(q, -1.0, amp), row_energy(q, amp, 1.0) / eps
            row.update(energy_e1=e1, energy_e2=e2, energy_total=e1 + e2)
            row["energy_flat_total"] = row_energy(q, -1.0, 0.0) + row_energy(q, 0.0, 1.0) / eps
            row["lower_bound_c"] = 1.0 - eps * abs(1.0 - 1.0 / eps) * abs(amp)
            row["coercivity_e"] = (1.0 - abs(amp)) / (1.0 + 3.0 + 4.0 * amp * amp)
            row["xi_p"] = row_xi(p, amp)
            h_part, hperp = row_bound(forcing.F, forcing.f, amp, eps)
            row.update(bound_h_part=h_part, bound_hperp_part=hperp, bound_total=h_part + hperp)
            row["status"] = "ok"
        except (ValueError, ArithmeticError) as exc:
            row["status"] = f"failed: {exc}"
        rows.append(row)
    return rows


def bits(a) -> np.ndarray:
    """IEEE bit patterns of float values, so that -0.0 and NaN compare too."""
    return np.asarray(a, dtype=float).view(np.int64)


FLAT_SPLIT_SHAPES = {"sine": {"wavenumber": 1}, "bump": {}, "hat": {"knot": 0.3}}


def sine_shape(amplitude):
    """The wavenumber-1 sine perturbation at `amplitude`: the amplitude ->
    perturbation shape that the 2D sweeps of the tests run."""
    return make_perturbation("sine", {"wavenumber": 1}, amplitude)


def signed_shape(family, amp, sign):
    """amp * shape for sign 1; for sign -1 the table of its negative."""
    zeta = make_perturbation(family, dict(FLAT_SPLIT_SHAPES[family]), amp)
    if sign > 0:
        return zeta
    xs = np.linspace(0.0, 1.0, 65)
    return perturbation_from_table(xs, -zeta.value(xs))


# --- 2D column maps and energy splits, one formula per use ---------------------
# The column map of each call site and the four energy splits, written out as
# each site wrote them before the sites shared one form.


def fitted_levels(zv: np.ndarray, nz: int) -> np.ndarray:
    """(nx + 1, 2 nz + 1) column levels of a fitted mesh at interface heights zv."""
    lower_ref = np.linspace(-1.0, 0.0, nz + 1)
    upper_ref = np.linspace(0.0, 1.0, nz + 1)
    levels = np.empty((len(zv), 2 * nz + 1))
    levels[:, : nz + 1] = lower_ref[None, :] * (1.0 + zv[:, None]) + zv[:, None]
    levels[:, nz:] = upper_ref[None, :] * (1.0 - zv[:, None]) + zv[:, None]
    return levels


def unflatten_inline(s, zv, z):
    """z (1 - s zeta) + zeta, as `t_apply` and `_chain_rule_error` wrote it."""
    return z * (1.0 - s * zv) + zv


def flatten_inline(s, zv, z):
    """(z - zeta) / (1 - s zeta), as `t_apply` and `lambda_map` wrote it."""
    return (z - zv) / (1.0 - s * zv)


def pulled_back_source(zeta, F):
    """The flattened volume source (1 - s zeta) F(x, z (1 - s zeta) + zeta) at
    reference points, as the flattened load wrote it."""

    def pulled_back_F(x, z):
        zv = zeta.value(x)
        denom = 1.0 - np.where(z < 0.0, -1.0, 1.0) * zv
        return denom * F(x, z * denom + zv)

    return pulled_back_F


def solve_flattened_1d(zeta: float, forcing, eps: float) -> PiecewiseField1D:
    """The exact 1D flattened solve with its sources written out per region."""
    z0 = float(zeta)
    F = as_array_fn(forcing.F)
    f = as_array_fn(forcing.f)

    def F_left(x):
        return (1.0 + z0) * F(np.asarray(x) * (1.0 + z0) + z0)

    def F_right(x):
        return (1.0 - z0) * F(np.asarray(x) * (1.0 - z0) + z0)

    flux = float(f(np.asarray([z0]))[0])
    return _two_region_exact(F_left, F_right, 1.0 / (1.0 + z0), 1.0 / (eps * (1.0 - z0)), flux, 0.0,
                             label=f"flattened(zeta={z0:g})")


IDENTITY = (1.0, 0.0, 1.0)


def region_energies(fld, metric, below, eps, k1, k2):
    """(e1, e2, total) of a P1 field under a metric with entries (m00, m01,
    m11), `below` the area of each triangle counted in region 1; the
    gradient is computed afresh."""
    g, area = field_gradients(fld), fld.mesh.triangle_areas()
    m00, m01, m11 = metric
    dens = g[:, 0] * (m00 * g[:, 0] + m01 * g[:, 1]) + g[:, 1] * (m01 * g[:, 0] + m11 * g[:, 1])
    e1 = k1 * float(np.sum(dens * below))
    e2 = (k2 / eps) * float(np.sum(dens * (area - below)))
    return e1, e2, e1 + e2


def energy_split(fld, eps, k1=1.0, k2=1.0):
    """Fitted diagonal split: regions from the mesh tags."""
    below = np.where(fld.mesh.region == 1, fld.mesh.triangle_areas(), 0.0)
    return region_energies(fld, IDENTITY, below, eps, k1, k2)


def energy_split_flat(fld, eps, k1=1.0, k2=1.0):
    """Fitted flat split: triangles clipped at z = 0."""
    mesh = fld.mesh
    below = _area_below(mesh.nodes[:, 1].take(mesh.triangles), mesh.triangle_areas())
    return region_energies(fld, IDENTITY, below, eps, k1, k2)


def flattened_energy_split(rho, zeta, eps, k1=1.0, k2=1.0):
    """Flattened diagonal split under the averaged metric."""
    mesh = rho.mesh
    below = np.where(mesh.region == 1, mesh.triangle_areas(), 0.0)
    return region_energies(rho, _averaged_metric(mesh, zeta), below, eps, k1, k2)


def flattened_energy_split_flat(rho, zeta, eps, k1=1.0, k2=1.0):
    """Flat split of T^{-1} rho: triangles clipped at the pulled-back cut."""
    mesh = rho.mesh
    zc = zeta.value(mesh.col_x)
    h = np.where((mesh.region == 1)[:, None],
                 _heights_above(mesh, -zc / (1.0 + zc)), _heights_above(mesh, -zc / (1.0 - zc)))
    below = _area_below(h, mesh.triangle_areas())
    return region_energies(rho, _averaged_metric(mesh, zeta), below, eps, k1, k2)


# --- 2D fields at scattered points ------------------------------------------
# Point-cloud evaluation, as `Field2D.value` and `t_apply` did it before the
# source heights of T were formed on the node grid.


def field_value(fld, x, z):
    """P1 values of `fld` at 1D arrays of points whose abscissae match mesh
    columns: the points grouped by column with one stable sort, then one
    interpolation per column."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    cols = _match_columns(x, fld.mesh.col_x)
    levels = fld.mesh.levels
    values = fld.values.reshape(levels.shape)
    order = np.argsort(cols, kind="stable")
    starts = np.flatnonzero(np.diff(cols[order], prepend=-1))
    out = np.empty_like(z)
    for j, sel in zip(cols[order[starts]], np.split(order, starts[1:])):
        out[sel] = np.interp(z[sel], levels[j], values[j])
    return out


def t_apply(zeta, field, direction, out_mesh):
    """(n_nodes,) values of T (direction "T") or T^-1 ("T_inverse") of a
    `Field2D` or a callable at the nodes of `out_mesh`, with zeta and the
    source heights evaluated at every node of its point list."""
    x, z = out_mesh.nodes[:, 0], out_mesh.nodes[:, 1]
    zv = zeta.value(x)
    if direction == "T":
        src_z = unflatten_inline(np.where(z < 0.0, -1.0, 1.0), zv, z)
    else:
        src_z = flatten_inline(np.where(z < zv, -1.0, 1.0), zv, z)
    src_z = np.clip(src_z, -1.0, 1.0)
    return field_value(field, x, src_z) if hasattr(field, "mesh") else as_array_fn(field)(x, src_z)


# --- the 2D mesh as connectivity lists, and its loads through them ------------


def listed_mesh(zeta, nx: int, nz: int) -> SimpleNamespace:
    """The fitted mesh as a node list, a triangle list, region tags, three edge
    lists, a node grid and the Dirichlet nodes, built the way `Mesh2D` once
    stored them, with the areas gathered through the triangle list."""
    xs = np.linspace(0.0, 1.0, nx + 1)
    levels = fitted_levels(zeta.value(xs), nz)
    node_grid = np.arange(levels.size).reshape(levels.shape)
    nodes = np.column_stack([np.repeat(xs, levels.shape[1]), levels.ravel()])
    a, b = node_grid[:-1, :-1], node_grid[1:, :-1]
    c, d = node_grid[1:, 1:], node_grid[:-1, 1:]
    triangles = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    region = np.tile(np.repeat(np.where(np.arange(2 * nz) < nz, 1, 2), 2), nx).astype(np.int64)

    def chain(ids):
        return np.column_stack((ids[:-1], ids[1:]))

    left, right = node_grid[0], node_grid[nx]
    dirichlet = np.concatenate([chain(node_grid[:, 0]), chain(left[: nz + 1]), chain(right[: nz + 1])])
    neumann = np.concatenate([chain(node_grid[:, -1]), chain(left[nz:]), chain(right[nz:])])
    x, z = nodes[:, 0].take(triangles), nodes[:, 1].take(triangles)
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (z[:, 2] - z[:, 0]) - (x[:, 2] - x[:, 0]) * (z[:, 1] - z[:, 0]))
    return SimpleNamespace(nodes=nodes, triangles=triangles, region=region, node_grid=node_grid,
                           dirichlet_edges=dirichlet, neumann_edges=neumann,
                           interface_edges=chain(node_grid[:, nz]), dirichlet_nodes=np.unique(dirichlet),
                           zeta_at_cols=levels[:, nz], area=area, n_nodes=levels.size)


def volume_load(mesh, F, degree: int) -> np.ndarray:
    """int F r by per-triangle quadrature, the points and the sum gathered
    and scattered through the triangle list of `mesh` (a `listed_mesh`)."""
    F = as_array_fn(F)
    bary, w = triangle_rule(degree)
    xq = mesh.nodes[mesh.triangles, 0] @ bary.T
    zq = mesh.nodes[mesh.triangles, 1] @ bary.T
    Fq = F(xq.ravel(), zq.ravel()).reshape(xq.shape)
    contrib = (mesh.area[:, None] * Fq * w) @ bary
    return np.bincount(mesh.triangles.ravel(), contrib.ravel(), minlength=mesh.n_nodes)


def interface_load(mesh, f, order: int) -> np.ndarray:
    """int f r dS along the interface edge list of `mesh` (a `listed_mesh`)."""
    f = as_array_fn(f)
    t, w = gauss_rule(order)
    a = mesh.nodes[mesh.interface_edges[:, 0]]
    b = mesh.nodes[mesh.interface_edges[:, 1]]
    length = np.linalg.norm(b - a, axis=1)
    lam = 0.5 * (t + 1.0)
    pts = a[:, None, :] + lam[None, :, None] * (b - a)[:, None, :]
    fq = f(pts[..., 0].ravel(), pts[..., 1].ravel()).reshape(pts.shape[:2])
    c0 = length * np.einsum("eq,q,q->e", fq, 0.5 * w, 1.0 - lam)
    c1 = length * np.einsum("eq,q,q->e", fq, 0.5 * w, lam)
    return (np.bincount(mesh.interface_edges[:, 0], c0, minlength=mesh.n_nodes)
            + np.bincount(mesh.interface_edges[:, 1], c1, minlength=mesh.n_nodes))


# --- the 2D metric and stiffness, one triangle at a time ------------------------


def averaged_metric(mesh, zeta):
    """(3, n_tri) degree-2 averages of the metric entries (m00, m01, m11),
    with zeta and its gradient read at every quadrature point of every
    triangle, in the operation order of the per-column form."""
    bary, wq = triangle_rule(2)
    xt = mesh.nodes[:, 0].take(mesh.triangles)
    zt = mesh.nodes[:, 1].take(mesh.triangles)
    s = np.where(mesh.region == 1, -1.0, 1.0)
    avg = np.zeros((3, len(mesh.triangles)))
    for (b0, b1, b2), w in zip(bary, wq):
        x = (b0 * xt[:, 0] + b1 * xt[:, 1]) + b2 * xt[:, 2]
        z = (b0 * zt[:, 0] + b1 * zt[:, 1]) + b2 * zt[:, 2]
        g = zeta.gradient(x)
        denom = 1.0 - s * zeta.value(x)
        stretch = 1.0 - s * z
        avg[0] += denom * w
        avg[1] += -stretch * g * w
        avg[2] += (stretch**2 * g**2 + 1.0) / denom * w
    return avg


def assemble_p1(mesh, metric, eps, k1, k2):
    """The P1 matrix of sum_T k_T |T| grad(phi_a) . M_T grad(phi_b), summed
    from the 3 x 3 local matrices of every triangle through COO, for metric
    entries (m00, m01, m11) as numbers or (n_tri,) arrays."""
    m00, m01, m11 = (np.broadcast_to(m, mesh.region.shape) for m in metric)
    tensor = np.stack([np.stack([m00, m01], axis=-1), np.stack([m01, m11], axis=-1)], axis=-2)
    grads, area = basis_gradients(mesh)
    coef = (np.where(mesh.region == 1, k1, k2 / eps) * area)[:, None, None] * tensor
    local = np.einsum("tad,tde,tbe->tab", grads, coef, grads)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


def prolongation_1d(n: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """Linear interpolation onto the n + 1 lines of one grid axis from the
    coarse lines 0, 2, ..., n (for an odd n 0, 2, ..., n - 3, n): the sparse
    (n + 1, m + 1) matrix of the coarse hat functions at the fine lines, and
    the coarse lines; the identity once n < 4."""
    if n < 4:
        return sp.identity(n + 1, format="csr"), np.arange(n + 1)
    coarse = np.append(np.arange(0, n - 1 - n % 2, 2), n)
    hats = np.array([np.interp(np.arange(n + 1), coarse, e) for e in np.eye(len(coarse))]).T
    return sp.csr_matrix(hats), coarse


def multigrid_prolongations(free: np.ndarray) -> list:
    """The prolongation P = kron(Px, Pz) between the nodes of the node-grid
    mask `free`, over all nodes of the grids (zero in the rows of the fine
    fixed nodes and the columns of the coarse ones), of every level of the
    multigrid hierarchy, down to the grid that no axis coarsens; each with
    the flat mask of its coarse free nodes."""
    transfers = []
    while True:
        (Px, cx), (Pz, cz) = (prolongation_1d(n - 1) for n in free.shape)
        coarse = free[np.ix_(cx, cz)]
        if coarse.size == free.size:
            return transfers
        fine_rows, coarse_columns = (sp.diags(m.ravel().astype(float)) for m in (free, coarse))
        transfers.append(((fine_rows @ sp.kron(Px, Pz) @ coarse_columns).tocsr(), coarse.ravel()))
        free = coarse
