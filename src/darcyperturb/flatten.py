"""Column-wise fractional maps that flatten the perturbed interface, the
induced gradient-transfer matrices, the pullback operator on fields, and the
flattened 2D variational problem on the reference mesh.

Region i in {1, 2} maps Omega_i^zeta onto Omega_i by
    Lambda_i(x, X_N) = (x, (X_N - zeta(x)) / (1 - (-1)^i zeta(x))),
whose inverse stretches the reference level z back to z (1 - (-1)^i zeta) + zeta
(`geometry.column_map` and `column_map_inverse`).  Gradients transfer through
A_i with inverse [[1, (1 - (-1)^i z) grad zeta], [0, 1 - (-1)^i zeta]]; the
flattened weak form carries the metric (1 - (-1)^i zeta) A^T A.  The 2D
flattened stiffness and energies take its three entries (m00, m01, m11)
averaged over each triangle of the reference mesh; on the node grid the
quadrature abscissae repeat up each column, so zeta and its gradient are read
once per column and triangle orientation.  The 1D flattened solve and the
norm bound of the pullback, which no command reads, live with the tests
(tests/oracles.py).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import fem2d
from .fem2d import Field2D, Mesh2D
from .geometry import (Perturbation, _check_eps, _heights_above, column_map, column_map_inverse,
                       column_scale)
from .quadrature import as_array_fn, triangle_rule

REGIONS = (1, 2)

# central-difference step of the chain-rule check in matrix_property_report
_FD_STEP = 1e-6


def _sign(i: int) -> float:
    if i not in REGIONS:
        raise ValueError(f"region index must be 1 or 2, got {i}")
    return float((-1) ** i)


def _metric(s, zv, g, z):
    """Entries (m00, m01, m11) of the metric (1 - s zeta) A^T A at reference
    levels z of columns where zeta = zv and grad zeta = g, s = (-1)^i.

    m00 = det A^{-1} = 1 - s zeta and m01 = -(1 - s z) grad zeta, minus the
    shear of A^{-1}.  `s` may be an array that broadcasts against the others,
    so the points of both regions go in one call.
    """
    denom = column_scale(s, zv)
    stretch = 1.0 - s * z
    return denom, -stretch * g, (stretch**2 * g**2 + 1.0) / denom


def transfer(i: int, zeta: Perturbation, x, z):
    """A, A^{-1}, the metric (1 - (-1)^i zeta) A^T A and det A^{-1} of the
    region-i map at reference points (x, z) of any shape.

    At a knot of a piecewise zeta the one-sided (right) gradient is used.

    The matrices are (..., 2, 2) arrays; det A^{-1} = 1 - (-1)^i zeta(x).
    With stretch = 1 - (-1)^i z and g = grad zeta, A = [[1, -stretch g/det],
    [0, 1/det]] and A^{-1} = [[1, stretch g], [0, det]].
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    denom, m01, m11 = np.broadcast_arrays(*_metric(_sign(i), zeta.value(x), zeta.gradient(x), z))
    metric = np.stack([np.stack([denom, m01], axis=-1), np.stack([m01, m11], axis=-1)], axis=-2)
    A = np.zeros(metric.shape)
    A[..., 0, 0] = 1.0
    A[..., 0, 1] = m01 / denom
    A[..., 1, 1] = 1.0 / denom
    A_inv = np.zeros(metric.shape)
    A_inv[..., 0, 0] = 1.0
    A_inv[..., 0, 1] = -m01
    A_inv[..., 1, 1] = denom
    return A, A_inv, metric, denom


def ainv_norm_bound(zeta: Perturbation) -> float:
    """Frobenius bound for A^{-1}: sqrt(N + 3 + 4 ||zeta||_W1inf^2), N = 2."""
    w = zeta.norm_w1inf
    return float(np.sqrt(2 + 3.0 + 4.0 * (w * w)))


def _coercivity(norm_sup, norm_w1inf, dim: int):
    """(1 - ||zeta||_C) / (N + 3 + 4 ||zeta||_W1inf^2) in dimension N, for
    norms given as numbers or arrays, with the same bits for a number and a
    one-element array: the square is a product (a float's ** 2 is C pow,
    which differs from it in about 1 of 1,200 draws)."""
    return (1.0 - norm_sup) / (dim + 3.0 + 4.0 * (norm_w1inf * norm_w1inf))


def coercivity_constant(zeta: Perturbation) -> float:
    """Uniform lower bound e(zeta) on the metric spectrum in 2D, positive
    while ||zeta||_C < 1."""
    return float(_coercivity(zeta.norm_sup, zeta.norm_w1inf, 2))


def t_apply(zeta: Perturbation, field, direction: str, out_mesh: Mesh2D) -> Field2D:
    """Pull a field through the fractional maps onto `out_mesh` nodes.

    direction "T": (T r)(x) = r(Lambda_i^{-1}(x)) for reference points x;
    direction "T_inverse": compose with the forward map at perturbed points.
    The maps keep x, so the source heights form a node grid over the columns
    of `out_mesh`, and a discrete field is interpolated up its columns as
    `fem2d.resample` does; its mesh must have those columns.
    """
    if direction not in ("T", "T_inverse"):
        raise ValueError(f"direction must be 'T' or 'T_inverse', got {direction!r}")
    x, z = out_mesh.col_x, out_mesh.levels
    zv = zeta.value(x)[:, None]
    if direction == "T":
        src_z = column_map_inverse(np.where(z < 0.0, -1.0, 1.0), zv, z)
    else:
        src_z = column_map(np.where(z < zv, -1.0, 1.0), zv, z)
    src_z = np.clip(src_z, -1.0, 1.0)
    values = (fem2d._interp_columns(field, x, src_z) if isinstance(field, Field2D)
              else as_array_fn(field)(np.repeat(x, z.shape[1]), src_z.ravel()))
    return Field2D(mesh=out_mesh, values=values, label=f"{direction}[{getattr(field, 'label', 'fn')}]")


def _by_region(mesh: Mesh2D, a: np.ndarray) -> np.ndarray:
    """An array (..., columns, 2nz) over the quads of `mesh`, with one column
    for all when it broadcasts over them, viewed as (..., columns, region,
    level in the region)."""
    return a.reshape(a.shape[:-1] + (2, mesh.nz))


# s = (-1)^i of regions 1 and 2, on the region axis of `_by_region`
_REGION_SIGNS = np.array([-1.0, 1.0])[:, None]


def _averaged_metric(mesh: Mesh2D, zeta: Perturbation) -> np.ndarray:
    """(3, n_tri) entries (m00, m01, m11) of the metric averaged over each
    triangle with the degree-2 rule.

    The average is all the P1 energy needs: gradients are constant per
    triangle, so the quadrature of grad.metric grad is grad.average grad.
    On the node grid the quadrature abscissae repeat up each column, so zeta
    and its gradient are read once per column, triangle orientation and
    point, m00 is formed per column and region, and the levels enter m01 and
    m11 through the per-point stretch (per level on the reference mesh).
    Computed for each use and not kept, so it dies with the assembly or the
    energy split that reads it; read-only.
    """
    bary, wq = triangle_rule(2)
    x_corners, z_corners = zip(*mesh._corners())
    avg = [0.0, 0.0, 0.0]
    for b, w in zip(bary, wq):
        x = fem2d._at_point(x_corners, b)[..., None]  # (orientation, column, 1, 1)
        z = _by_region(mesh, fem2d._at_point(z_corners, b))
        for k, entry in enumerate(_metric(_REGION_SIGNS, zeta.value(x), zeta.gradient(x), z)):
            avg[k] = avg[k] + entry * w
    out = np.empty((3, mesh.nx, 2, mesh.nz, 2))
    for k, entry in enumerate(avg):
        out[k] = np.moveaxis(entry, 0, -1)
    out = out.reshape(3, -1)
    out.setflags(write=False)
    return out


def assemble_flattened_stiffness(mesh: Mesh2D, zeta: Perturbation, eps: float,
                                 k1: float = 1.0, k2: float = 1.0) -> sp.csr_matrix:
    """Stiffness of the flattened form sum_i int (k_i/eps^{i-1}) (1-(-1)^i zeta) A^T A grad.grad."""
    return fem2d._assemble_p1(mesh, _averaged_metric(mesh, zeta), eps, k1, k2, np.ones(mesh.levels.shape, dtype=bool))


def assemble_flattened_load(mesh: Mesh2D, zeta: Perturbation, forcing) -> np.ndarray:
    """Volume load sum_i int (1-(-1)^i zeta) (T F) r plus the weighted interface load.

    The quadrature points of the reference mesh lie strictly inside one
    region, and their abscissae repeat up each column, so zeta is read once
    per column, triangle orientation and point.  The interface weight is the
    surface-measure Jacobian |(-grad zeta, 1)|, so the flattened load
    replicates int_{Gamma^zeta} f r dS.
    """
    degree, order = fem2d._rules(forcing.quadrature_order)
    bary, w = triangle_rule(degree)
    x, z = (fem2d._at_points(c, bary) for c in zip(*mesh._corners()))
    x = x[..., None]  # (orientation, point, column, 1, 1)
    zv = zeta.value(x)
    src = column_map_inverse(_REGION_SIGNS, zv, _by_region(mesh, z))
    Fq = column_scale(_REGION_SIGNS, zv) * as_array_fn(forcing.F)(np.broadcast_to(x, src.shape).ravel(),
                                                                   src.ravel()).reshape(src.shape)

    def weighted_f(x, z):
        g = zeta.gradient(x)
        return np.sqrt(1.0 + g**2) * forcing.f(x, zeta.value(x))

    load = fem2d._volume_load(mesh, Fq.reshape(Fq.shape[:3] + (-1,)), bary, w)
    load += fem2d.assemble_interface_load(mesh, weighted_f, order=order)
    return load


def solve_flattened(zeta: Perturbation, forcing, eps: float, ref_mesh: Mesh2D,
                    k1: float = 1.0, k2: float = 1.0, *, rtol: float = 1e-10) -> Field2D:
    """Galerkin solve of the flattened problem on the fixed reference mesh."""
    _check_eps(eps)
    if np.max(np.abs(ref_mesh.zeta_at_cols)) > 1e-14:
        raise ValueError("reference mesh must be the flat-interface mesh")
    return fem2d._galerkin_solve(ref_mesh, lambda: assemble_flattened_load(ref_mesh, zeta, forcing),
                                 lambda: _averaged_metric(ref_mesh, zeta), "flattened-solve", eps, k1, k2, rtol)


def flattened_energy_split(rho: Field2D, zeta: Perturbation, eps: float, k1: float = 1.0,
                           k2: float = 1.0) -> tuple[float, float, float, float]:
    """Per-region energies (e1, e2, total) of the flattened form (pullbacks of
    the energies of the unflattened field over the perturbed regions), and
    the total of the pulled-back field T^{-1} rho in the unperturbed split at
    z = 0, computed on the reference mesh.

    In region i the physical line z = 0 pulls back to the reference curve
    Lambda_i(0) = -zeta/(1 - (-1)^i zeta).  Each triangle is clipped exactly
    against the polyline of that curve through its values at the mesh
    columns, and both parts carry the region's averaged metric.
    """
    mesh = rho.mesh
    zc = zeta.value(mesh.col_x)
    h = _heights_above(mesh, column_map(-1.0, zc, 0.0), column_map(1.0, zc, 0.0))
    return fem2d._region_energies(rho, _averaged_metric(mesh, zeta), h, eps, k1, k2)


def matrix_property_report(shapes, *, n_points: int = 1000, seed: int = 0) -> dict:
    """Sampled verification of the matrix identities and the chain rule.

    Returns maxima of |A A^{-1} - I|, |det A^{-1} - (1 - (-1)^i zeta)|, the
    spectral-norm excess max(||A^{-1}||_2 - bound, 0), the coercivity margin
    min(lambda_min(metric) - e(zeta)) and the worst chain-rule error.
    """
    rng = np.random.default_rng(seed)
    report = {
        "aainv_max": 0.0,
        "det_max": 0.0,
        "norm_excess": 0.0,
        "coercivity_margin": np.inf,
        "chain_rule_max": 0.0,
    }
    tests = _chain_rule_test_functions()
    for zeta in shapes:
        x = rng.uniform(0.0, 1.0, n_points)
        if zeta.knots:
            # keep sample and finite-difference stencils away from the knots
            for knot in zeta.knots:
                x[np.abs(x - knot) < 10 * _FD_STEP] += 20 * _FD_STEP
        x = np.clip(x, 10 * _FD_STEP, 1.0 - 10 * _FD_STEP)
        for i in REGIONS:
            z = rng.uniform(-1.0, 0.0, n_points) if i == 1 else rng.uniform(0.0, 1.0, n_points)
            A, A_inv, _, denom = transfer(i, zeta, x, z)
            prod = np.einsum("nab,nbc->nac", A, A_inv)
            report["aainv_max"] = max(
                report["aainv_max"], float(np.max(np.abs(prod - np.eye(2)[None])))
            )
            det_expected = column_scale(_sign(i), zeta.value(x))
            report["det_max"] = max(
                report["det_max"], float(np.max(np.abs(np.linalg.det(A_inv) - det_expected)))
            )
            sigma = np.linalg.svd(A_inv, compute_uv=False)[:, 0]
            report["norm_excess"] = max(
                report["norm_excess"], float(np.max(sigma - ainv_norm_bound(zeta)))
            )
            # from A, so the check does not compare the closed-form metric with itself
            metric = denom[:, None, None] * np.einsum("nba,nbc->nac", A, A)
            lam_min = np.linalg.eigvalsh(metric)[:, 0]
            report["coercivity_margin"] = min(
                report["coercivity_margin"], float(np.min(lam_min - coercivity_constant(zeta)))
            )
        # chain rule on an interior subsample
        sub = rng.choice(n_points, size=min(40, n_points), replace=False)
        xs = x[sub]
        for i in REGIONS:
            zs = rng.uniform(-0.9, -0.1, len(xs)) if i == 1 else rng.uniform(0.1, 0.9, len(xs))
            err = _chain_rule_error(i, zeta, xs, zs, tests)
            report["chain_rule_max"] = max(report["chain_rule_max"], err)
    return report


def _chain_rule_test_functions():
    return [
        (lambda X, Z: Z, lambda X, Z: (np.zeros_like(X), np.ones_like(Z))),
        (lambda X, Z: X * Z, lambda X, Z: (Z, X)),
        (lambda X, Z: np.sin(np.pi * X) * Z**2, lambda X, Z: (np.pi * np.cos(np.pi * X) * Z**2, 2 * np.sin(np.pi * X) * Z)),
        (lambda X, Z: np.exp(0.3 * Z) * X, lambda X, Z: (np.exp(0.3 * Z), 0.3 * np.exp(0.3 * Z) * X)),
        (lambda X, Z: np.cos(2 * X + Z), lambda X, Z: (-2 * np.sin(2 * X + Z), -np.sin(2 * X + Z))),
    ]


def _chain_rule_error(i: int, zeta: Perturbation, x: np.ndarray, z: np.ndarray, tests) -> float:
    """max |A grad_x(u o Lambda^{-1}) - (grad u) o Lambda^{-1}| by central differences."""
    s = _sign(i)

    def composed(u, xx, zz):
        return u(xx, column_map_inverse(s, zeta.value(xx), zz))

    h = _FD_STEP
    worst = 0.0
    A = transfer(i, zeta, x, z)[0]
    w = column_map_inverse(s, zeta.value(x), z)
    for u, grad_u in tests:
        dx = (composed(u, x + h, z) - composed(u, x - h, z)) / (2.0 * h)
        dz = (composed(u, x, z + h) - composed(u, x, z - h)) / (2.0 * h)
        tx = dx + A[:, 0, 1] * dz
        tz = A[:, 1, 1] * dz
        ux, uz = grad_u(x, w)
        worst = max(worst, float(np.max(np.hypot(tx - ux, tz - uz))))
    return worst
