"""Reference computations that only the tests use: analytic pullbacks and
norms of smooth fields, the continuity of piecewise 1D fields, and the P1
mesh geometry computed afresh."""

import numpy as np

from darcyperturb.quadrature import as_array_fn, gauss_rule


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
