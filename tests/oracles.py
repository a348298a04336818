"""Reference computations that only the tests use: analytic pullbacks and
norms of smooth fields, the continuity of piecewise 1D fields, the P1 mesh
geometry computed afresh, and the plain forms of the 1D evaluation paths
(broadcast by a product with ones, np.clip clamps, one call per np.unique
piece, a Python merge of breakpoints) that the library's shortcuts must
reproduce bit for bit."""

import numpy as np

from darcyperturb.config import _EXPR_CONSTS, _EXPR_FUNCS
from darcyperturb.quadrature import _ANTIDERIVATIVE_ORDER, as_array_fn, gauss_rule
from darcyperturb.solver1d import BREAKPOINT_MERGE_TOL


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


def mesh_geometry(mesh):
    """Per-triangle hat gradients (n_tri, 3, 2) and areas (n_tri,), computed
    afresh from the nodes of a `Mesh2D` on every call."""
    p = mesh.nodes[mesh.triangles]
    area = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    grads = np.empty((len(mesh.triangles), 3, 2))
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        grads[:, a, 0] = (p[:, b, 1] - p[:, c, 1]) / (2.0 * area)
        grads[:, a, 1] = (p[:, c, 0] - p[:, b, 0]) / (2.0 * area)
    return grads, area


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


def bits(a) -> np.ndarray:
    """IEEE bit patterns of float values, so that -0.0 and NaN compare too."""
    return np.asarray(a, dtype=float).view(np.int64)
