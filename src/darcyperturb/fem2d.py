"""P1 finite elements on interface-fitted triangulations of the slab
Omega = (0, 1) x (-1, 1).

Meshes are tensor grids whose columns follow the perturbed interface: the
column maps (`geometry.column_map_inverse`) stretch the reference levels in
[-1, 0] by 1 + zeta(x) and those in [0, 1] by 1 - zeta(x).  Each quad is
split into two triangles.  Region 1 (below the interface) carries
coefficient k1 and a Dirichlet outer boundary; region 2 carries k2/eps and a
Neumann outer boundary.

The assembler and the multigrid share one node-grid layout, the one
`build_fitted_mesh` makes and `Mesh2D.node_grid` records: node (j, l) of
column j and level l has id j (2 nz + 1) + l, and quad (j, l) with corners
a = (j, l), b = (j+1, l), c = (j+1, l+1), d = (j, l+1) splits into triangle
2 (j 2 nz + l) = abc and its pair acd.  Every node then couples to at most
seven: the stiffness is summed as seven node-grid arrays, one per stencil
entry, and the V-cycle coarsens by taking every other grid line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from time import perf_counter

import numpy as np
import scipy.sparse as sp

from .geometry import Perturbation, _area_below, _check_eps, column_map_inverse, validate_admissible
from .quadrature import as_array_fn, gauss_rule, triangle_rule


class SolverConvergenceError(RuntimeError):
    """Conjugate gradients failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class Mesh2D:
    """Interface-fitted triangulation with structured-column metadata.

    Immutable: the triangle areas and hat gradients are computed once per mesh
    and handed out read-only.  Meshes compare and hash by identity.
    """

    nodes: np.ndarray            # (n_nodes, 2) coordinates (x, z)
    triangles: np.ndarray        # (n_tri, 3) positively oriented node triples
    region: np.ndarray           # (n_tri,) 1 below the interface, 2 above
    dirichlet_edges: np.ndarray  # (k, 2) edges on the Dirichlet part of the boundary
    neumann_edges: np.ndarray    # (k, 2) edges on the Neumann part
    interface_edges: np.ndarray  # (nx, 2) ordered polyline along the interface
    nx: int
    nz: int
    col_x: np.ndarray            # (nx+1,) column abscissae
    zeta_at_cols: np.ndarray     # (nx+1,) interface height per column
    node_grid: np.ndarray        # (nx+1, 2*nz+1) node id per (column, level)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def dirichlet_nodes(self) -> np.ndarray:
        return np.unique(self.dirichlet_edges)

    @cached_property
    def _geometry(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.nodes[:, 0].take(self.triangles)
        z = self.nodes[:, 1].take(self.triangles)
        area = 0.5 * ((x[:, 1] - x[:, 0]) * (z[:, 2] - z[:, 0])
                      - (x[:, 2] - x[:, 0]) * (z[:, 1] - z[:, 0]))
        # hat a vanishes on the edge from vertex b = a + 1 to c = a + 2 (mod 3)
        b, c = [1, 2, 0], [2, 0, 1]
        two_area = (2.0 * area)[:, None]
        grads = np.stack([(z[:, b] - z[:, c]) / two_area, (x[:, c] - x[:, b]) / two_area], axis=-1)
        grads.setflags(write=False)
        area.setflags(write=False)
        return grads, area

    @cached_property
    def _on_node_grid(self) -> bool:
        # the layout of build_fitted_mesh, which the grid assembly and the
        # multigrid rely on: node ids run row-major over node_grid, and the
        # triangles are _grid_triangles of it
        grid = self.node_grid
        return bool(np.array_equal(grid.ravel(), np.arange(self.n_nodes))
                    and np.array_equal(self.triangles, _grid_triangles(grid)))

    def triangle_areas(self) -> np.ndarray:
        """(n_tri,) triangle areas (read-only, computed once per mesh)."""
        return self._geometry[1]

    def basis_gradients(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-triangle gradients of the three hat functions and the areas
        (read-only, computed once per mesh)."""
        return self._geometry

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in degrees."""
        p = self.nodes[self.triangles]
        # edges from each corner to the next two corners
        u = p[:, [1, 2, 0]] - p
        v = p[:, [2, 0, 1]] - p
        cosang = np.sum(u * v, axis=2) / (np.linalg.norm(u, axis=2) * np.linalg.norm(v, axis=2))
        return float(np.min(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))))


@dataclass(frozen=True)
class Field2D:
    """Nodal scalar field over a mesh; Dirichlet nodes carry value 0.

    Immutable: `values` is made read-only (the array passed in is frozen, not
    copied), so the gradient is computed once.
    """

    mesh: Mesh2D
    values: np.ndarray
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self.values.setflags(write=False)

    @cached_property
    def _gradients(self) -> np.ndarray:
        grads, _ = self.mesh.basis_gradients()
        g = np.einsum("tad,ta->td", grads, self.values[self.mesh.triangles])
        g.setflags(write=False)
        return g

    def gradients(self) -> np.ndarray:
        """(n_tri, 2) constant gradient per triangle (read-only)."""
        return self._gradients

    def value(self, x, z):
        """P1 interpolation at 1D arrays of points whose abscissae match mesh
        columns."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = np.atleast_1d(np.asarray(z, dtype=float))
        cols = _match_columns(x, self.mesh.col_x)
        # one stable sort groups the points by column: a mask per column would
        # cost a pass over all points for each of the nx + 1 columns
        order = np.argsort(cols, kind="stable")
        starts = np.flatnonzero(np.diff(cols[order], prepend=-1))
        out = np.empty_like(z)
        for j, sel in zip(cols[order[starts]], np.split(order, starts[1:])):
            ids = self.mesh.node_grid[j]
            out[sel] = np.interp(z[sel], self.mesh.nodes[ids, 1], self.values[ids])
        return out


def _match_columns(x: np.ndarray, col_x: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    idx = np.clip(np.searchsorted(col_x, x), 0, len(col_x) - 1)
    idx = np.where((idx > 0) & (np.abs(col_x[np.maximum(idx - 1, 0)] - x) < np.abs(col_x[idx] - x)),
                   idx - 1, idx)
    if np.any(np.abs(col_x[idx] - x) > tol):
        bad = x[np.abs(col_x[idx] - x) > tol][:3]
        raise ValueError(f"abscissae {bad} do not match mesh columns")
    return idx


def _grid_triangles(node_grid: np.ndarray) -> np.ndarray:
    """(n_tri, 3) triangles of a (columns, levels) node grid: quad (j, l) has
    corners a = (j, l), b = (j+1, l), c = (j+1, l+1), d = (j, l+1) and splits
    into triangles 2(j*2nz+l) = abc and its pair acd."""
    a, b = node_grid[:-1, :-1], node_grid[1:, :-1]
    c, d = node_grid[1:, 1:], node_grid[:-1, 1:]
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


def _require_node_grid(mesh: Mesh2D) -> None:
    """Raise ValueError unless the mesh is laid out on its node grid."""
    if not mesh._on_node_grid:
        raise ValueError("mesh triangles are not laid out on its node grid")


def build_fitted_mesh(zeta: Perturbation, nx: int, nz: int) -> Mesh2D:
    """Tensor-grid triangulation of Omega fitted to the interface z = zeta(x)."""
    if nx < 2 or nz < 2:
        raise ValueError(f"need nx, nz >= 2, got {nx}, {nz}")
    report = validate_admissible(zeta)
    if not report.admissible:
        raise ValueError("inadmissible perturbation: " + "; ".join(report.violations))

    xs = np.linspace(0.0, 1.0, nx + 1)
    zv = zeta.value(xs)
    if np.any(np.abs(zv) >= 1.0):
        raise ValueError("|zeta| >= 1 at a column: cells would invert")

    # column levels: the reference levels pulled back through the column maps,
    # the interface level z = 0 through the upper one
    ref = np.r_[np.linspace(-1.0, 0.0, nz + 1), np.linspace(0.0, 1.0, nz + 1)[1:]]
    levels = column_map_inverse(np.where(ref < 0.0, -1.0, 1.0), zv[:, None], ref)
    node_grid = np.arange(levels.size).reshape(levels.shape)
    nodes = np.column_stack([np.repeat(xs, len(ref)), levels.ravel()])

    triangles = _grid_triangles(node_grid)
    level_region = np.where(np.arange(2 * nz) < nz, 1, 2)
    region = np.tile(np.repeat(level_region, 2), nx).astype(np.int64)

    def chain(ids):  # consecutive node pairs along a grid line
        return np.column_stack((ids[:-1], ids[1:]))

    # bottom z = -1 and the lateral walls below the interface level are
    # Dirichlet; the top z = 1 and the walls above it are Neumann
    left, right = node_grid[0], node_grid[nx]
    dirichlet = np.concatenate([chain(node_grid[:, 0]), chain(left[: nz + 1]), chain(right[: nz + 1])])
    neumann = np.concatenate([chain(node_grid[:, -1]), chain(left[nz:]), chain(right[nz:])])
    interface = chain(node_grid[:, nz])

    mesh = Mesh2D(
        nodes=nodes,
        triangles=triangles,
        region=region,
        dirichlet_edges=dirichlet,
        neumann_edges=neumann,
        interface_edges=interface,
        nx=nx,
        nz=nz,
        col_x=xs,
        zeta_at_cols=zv,
        node_grid=node_grid,
    )
    if np.min(mesh.triangle_areas()) <= 1e-14:
        raise ValueError("degenerate triangle in fitted mesh")
    return mesh


# The entries (m00, m01, m11) of the fitted problem's coefficient tensor.
_IDENTITY = (1.0, 0.0, 1.0)


def _assemble_p1(mesh: Mesh2D, metric, eps: float, k1: float, k2: float) -> sp.csr_matrix:
    """Matrix of sum_T k_T |T| grad(phi_a) . M_T grad(phi_b) over P1 hat
    functions, with k_T = k1 below the interface and k2/eps above.

    `metric` holds the entries (m00, m01, m11) of the symmetric M_T, each one
    number for all triangles or an (n_tri,) array.  The mesh must be laid out
    on its node grid (ValueError otherwise).  Every quad's diagonal runs from
    a to c, so node (j, l) couples to SW (j-1, l-1), W (j-1, l), S (j, l-1),
    D (j, l), N (j, l+1), E (j+1, l) and NE (j+1, l+1), in ascending node id.
    The matrix is summed as one node-grid array per stencil entry, and one
    boolean gather in that order gives the sorted CSR data: no COO, no sort.
    """
    _require_node_grid(mesh)
    grid = mesh.node_grid
    X, Z = (mesh.nodes[:, k].reshape(grid.shape) for k in (0, 1))
    quads = (grid.shape[0] - 1, grid.shape[1] - 1, 2)  # triangle 2(j*2nz + l) + orientation
    coef = np.where(mesh.region == 1, k1, k2 / eps).reshape(quads)
    entries = [np.broadcast_to(m, mesh.region.shape).reshape(quads) for m in metric]

    def couplings(o, *corners):
        # entries (0, 1), (1, 2), (2, 0) of the triangles of orientation o,
        # whose positively oriented corners are node-grid slices; the edge
        # e_i = p_(i+2) - p_(i+1) opposite corner i, turned a right angle and
        # divided by 2|T|, is grad(phi_i)
        x, z = [X[c] for c in corners], [Z[c] for c in corners]
        ex = (x[2] - x[1], x[0] - x[2], x[1] - x[0])
        ez = (z[2] - z[1], z[0] - z[2], z[1] - z[0])
        m00, m01, m11 = (m[..., o] for m in entries)
        w = coef[..., o] / (2.0 * (ex[1] * ez[2] - ex[2] * ez[1]))  # k |T| / (2|T|)^2
        return [w * (m11 * ex[i] * ex[j] - m01 * (ex[i] * ez[j] + ez[i] * ex[j]) + m00 * ez[i] * ez[j])
                for i, j in ((0, 1), (1, 2), (2, 0))]

    a, b, c, d = np.s_[:-1, :-1], np.s_[1:, :-1], np.s_[1:, 1:], np.s_[:-1, 1:]
    ab, bc, ca = couplings(0, a, b, c)
    ac, cd, da = couplings(1, a, c, d)
    stencil = np.zeros((7,) + grid.shape)
    SW, W, S, D, N, E, NE = stencil
    # the entry of the edge from corner p to corner q, seen from p and from q
    for ahead, behind, p, q, entry in ((E, W, a, b, ab), (E, W, d, c, cd), (N, S, b, c, bc),
                                       (N, S, a, d, da), (NE, SW, a, c, ca + ac)):
        ahead[p] += entry
        behind[q] += entry
    # the hat functions sum to one, so every row of the matrix sums to zero
    np.negative(SW + W + S + N + E + NE, out=D)

    present = np.ones(grid.shape + (7,), dtype=bool)
    present[0, :, :2] = present[-1, :, 5:] = False         # no W side on column 0, no E side on the last
    present[:, 0, [0, 2]] = present[:, -1, [4, 6]] = False  # no S side on level 0, no N side on the top
    present = present.reshape(-1, 7)
    n = mesh.n_nodes
    # scipy stores the indices as int32 anyway (enough for 2**31 nodes)
    levels = grid.shape[1]
    offsets = np.array([-levels - 1, -levels, -1, 0, 1, levels, levels + 1], dtype=np.int32)
    indices = (np.arange(n, dtype=np.int32)[:, None] + offsets)[present]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1, dtype=np.int32), out=indptr[1:])
    K = sp.csr_matrix((stencil.reshape(7, -1).T[present], indices, indptr), shape=(n, n))
    K.has_canonical_format = True  # sorted and free of duplicates by construction
    return K


def assemble_stiffness(mesh: Mesh2D, eps: float, k1: float, k2: float) -> sp.csr_matrix:
    """Stiffness of the perturbed energy form on the fitted mesh."""
    return _assemble_p1(mesh, _IDENTITY, eps, k1, k2)


def assemble_volume_load(mesh: Mesh2D, F, *, degree: int = 2) -> np.ndarray:
    """Load vector of int_Omega F r by per-triangle quadrature."""
    F = as_array_fn(F)
    bary, w = triangle_rule(degree)
    xq = mesh.nodes[mesh.triangles, 0] @ bary.T         # (t, q)
    zq = mesh.nodes[mesh.triangles, 1] @ bary.T
    Fq = F(xq.ravel(), zq.ravel()).reshape(xq.shape)
    area = mesh.triangle_areas()
    # basis value of hat a at barycentric point q is bary[q, a]
    contrib = (area[:, None] * Fq * w) @ bary
    return np.bincount(mesh.triangles.ravel(), contrib.ravel(), minlength=mesh.n_nodes)


def assemble_interface_load(mesh: Mesh2D, f, *, order: int = 4) -> np.ndarray:
    """Load vector of int_{Gamma^zeta} f r dS along the interface polyline."""
    f = as_array_fn(f)
    t, w = gauss_rule(order)
    a = mesh.nodes[mesh.interface_edges[:, 0]]
    b = mesh.nodes[mesh.interface_edges[:, 1]]
    length = np.linalg.norm(b - a, axis=1)
    lam = 0.5 * (t + 1.0)                               # (q,)
    pts = a[:, None, :] + lam[None, :, None] * (b - a)[:, None, :]
    fq = f(pts[..., 0].ravel(), pts[..., 1].ravel()).reshape(pts.shape[:2])
    w_half = 0.5 * w
    c0 = length * np.einsum("eq,q,q->e", fq, w_half, 1.0 - lam)
    c1 = length * np.einsum("eq,q,q->e", fq, w_half, lam)
    return (np.bincount(mesh.interface_edges[:, 0], c0, minlength=mesh.n_nodes)
            + np.bincount(mesh.interface_edges[:, 1], c1, minlength=mesh.n_nodes))


def _load(mesh: Mesh2D, F, f, quadrature_order: int) -> np.ndarray:
    """Volume load of F plus interface load of f, in the rules that a
    forcing's `quadrature_order` selects."""
    load = assemble_volume_load(mesh, F, degree=2 if quadrature_order <= 4 else 4)
    load += assemble_interface_load(mesh, f, order=max(2, quadrature_order))
    return load


# The V-cycle smoother is damped Jacobi with weights 1.5 / sum_j |a_ij|: the
# row sums bound A from above, so every sweep contracts in the energy norm and
# the V-cycle stays SPD on sheared meshes too; on a row of the 5-point
# Laplacian the weight is 0.75 / a_ii.
_SMOOTHER_SCALE = 1.5


def _prolongation_1d(n: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """Linear interpolation onto the n + 1 lines of one grid axis from every
    other line plus the last one; the identity once n < 4 (no coarsening).

    Returns the (n + 1, m) matrix and the fine indices of the m coarse lines.
    """
    if n < 4:
        return sp.identity(n + 1, format="csr"), np.arange(n + 1)
    coarse = np.unique(np.r_[np.arange(0, n + 1, 2), n])
    mid = np.arange(1, n, 2)
    rows = np.r_[coarse, mid, mid]
    cols = np.r_[np.arange(len(coarse)), mid // 2, mid // 2 + 1]
    vals = np.r_[np.ones(len(coarse)), np.full(2 * len(mid), 0.5)]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n + 1, len(coarse))), coarse


@lru_cache(maxsize=1)
def _prolongations(shape: tuple[int, int], free_bytes: bytes) -> tuple[tuple[sp.csr_matrix, sp.csr_matrix], ...]:
    """Prolongations P = kron(Px, Pz) of every level, restricted to the free
    fine and free coarse nodes, for the grid-shaped free-node mask given by
    `shape` and its bytes, each paired with its restriction R = P^T.

    They depend only on the grid and the Dirichlet set, which every row of a
    study shares, so the last mask's are kept; read-only.
    """
    free = np.frombuffer(free_bytes, dtype=bool).reshape(shape)
    transfers = []
    while True:
        Px, cx = _prolongation_1d(free.shape[0] - 1)
        Pz, cz = _prolongation_1d(free.shape[1] - 1)
        coarse = free[np.ix_(cx, cz)]
        if coarse.size == free.size:
            return tuple(transfers)
        P = sp.kron(Px, Pz, format="csr")[free.ravel()][:, coarse.ravel()]
        R = P.T.tocsr()
        for a in (P.data, P.indices, P.indptr, R.data, R.indices, R.indptr):
            a.setflags(write=False)
        transfers.append((P, R))
        free = coarse


def _multigrid_levels(A: sp.csr_matrix, free: np.ndarray) -> tuple[list, np.ndarray]:
    """Galerkin hierarchy of A on the free nodes of a node grid.

    `free` is the grid-shaped mask of the rows of A.  Each level is a tuple
    (A, P, R, smoother weights) with P and R = P^T from `_prolongations`; the
    coarsest operator comes back as the inverse of its Cholesky factor.
    Plain tuples, so the hierarchy dies with the solve.  Raises
    `np.linalg.LinAlgError` when the coarsest operator is not SPD.
    """
    levels = []
    for P, R in _prolongations(free.shape, free.tobytes()):
        # row sums of |A| in one pass: every row holds its positive diagonal
        levels.append((A, P, R, _SMOOTHER_SCALE / np.add.reduceat(np.abs(A.data), A.indptr[:-1])))
        A = (R @ (A @ P)).tocsr()
    # the coarsest grid has at most 4 x 4 lines, so its dense inverse factor
    # is tiny and turns the coarse solve into two small matvecs
    return levels, np.linalg.inv(np.linalg.cholesky(A.toarray()))


def _v_cycle(levels: list, coarsest: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One symmetric V-cycle from a zero guess: damped Jacobi before and after
    the coarse correction on every level, the inverse Cholesky factor L^-1
    of the coarsest operator as coarse solve L^-T L^-1 r."""
    stack = []
    for A, P, R, w in levels:
        x = w * r
        stack.append((r, x))
        r = R @ (r - A @ x)
    x = coarsest.T @ (coarsest @ r)
    for (A, P, R, w), (r, x_pre) in zip(reversed(levels), reversed(stack)):
        x = x_pre + P @ x
        x += w * (r - A @ x)
    return x


def cg(A, b: np.ndarray, *, rtol: float = 1e-5, atol: float = 0.0, maxiter: int | None = None,
       M=None, callback=None) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients (Hestenes & Stiefel, 1952) from a
    zero guess, with the update order and the stopping rule of
    `scipy.sparse.linalg.cg`: stop once ||r|| < max(atol, rtol ||b||).

    `M` is a callable applying the preconditioner, `callback(x)` runs after
    every iteration.  Returns (x, 0) on convergence and (x, maxiter) when the
    iterations run out; b = 0 gives zeros at once.  Raises
    `SolverConvergenceError` when a search direction p has p.Ap <= 0, where
    A (or M) is not positive definite.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    tol = max(float(atol), float(rtol) * float(bnorm))
    if maxiter is None:
        maxiter = 10 * len(b)
    x = np.zeros_like(b)
    r = b.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < tol:
            return x, 0
        z = r if M is None else M(r)
        rho = np.dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = A @ p
        pq = np.dot(p, q)
        if not pq > 0.0:
            raise SolverConvergenceError(f"CG met a direction with p.Ap = {pq:.3e}: the system is not SPD",
                                         float(np.linalg.norm(r) / bnorm))
        alpha = rho / pq
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def cg_solve(K: sp.csr_matrix, load: np.ndarray, dirichlet: np.ndarray, grid: tuple[int, int],
             *, rtol: float = 1e-10, maxiter: int | None = None) -> tuple[np.ndarray, dict]:
    """Solve the SPD system on the free nodes by CG preconditioned with one
    geometric-multigrid V-cycle.

    Node ids must run row-major over a `grid` = (columns, levels) node grid,
    as `Mesh2D.node_grid` does; the coarse grids take every other line of each
    axis.  Returns the nodal values (0 on `dirichlet`) and the solve record.
    """
    n = K.shape[0]
    mask = np.ones(n, dtype=bool)
    mask[dirichlet] = False
    free = np.flatnonzero(mask)
    if len(free) == 0:
        raise SolverConvergenceError("no free nodes: empty Dirichlet complement", np.inf)
    if len(dirichlet) == 0:
        raise SolverConvergenceError("singular system: empty Dirichlet set", np.inf)
    A = K[free][:, free]
    b = load[free]
    if np.any(A.diagonal() <= 0.0):
        raise SolverConvergenceError("non-SPD reduced system", np.inf)
    try:
        levels, coarsest = _multigrid_levels(A, mask.reshape(grid))
    except np.linalg.LinAlgError:
        raise SolverConvergenceError("non-SPD reduced system", np.inf) from None
    if maxiter is None:
        maxiter = int(50 * np.sqrt(len(free))) + 10
    # one entry per iteration, all the same iterate: the count is its length
    steps = []
    x, info = cg(A, b, rtol=rtol, atol=0.0, maxiter=maxiter,
                 M=partial(_v_cycle, levels, coarsest), callback=steps.append)
    res = float(np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-300))
    if info != 0:
        raise SolverConvergenceError(
            f"CG did not converge within {maxiter} iterations (relative residual {res:.3e})", res
        )
    values = np.zeros(n)
    values[free] = x
    record = {"solver": "mg-cg", "iterations": len(steps), "rel_residual": res,
              "dofs": len(free), "nnz": A.nnz, "levels": len(levels) + 1}
    return values, record


def _galerkin_solve(mesh: Mesh2D, assemble, label: str, eps: float, k1: float, k2: float,
                    rtol: float) -> Field2D:
    """Assemble (K, load) by `assemble()`, then CG-solve K u = load on the
    free nodes; records the coefficients, the solve, the seconds of both
    phases and the Galerkin identity terms in the field's meta."""
    t0 = perf_counter()
    K, load = assemble()
    t1 = perf_counter()
    values, record = cg_solve(K, load, mesh.dirichlet_nodes, mesh.node_grid.shape, rtol=rtol)
    meta = {"eps": eps, "k1": k1, "k2": k2, "assemble_s": t1 - t0, **record, "solve_s": perf_counter() - t1,
            "load_functional": float(load @ values), "bilinear_energy": float(values @ (K @ values))}
    return Field2D(mesh=mesh, values=values, label=label, meta=meta)


def assemble_solve(mesh: Mesh2D, forcing, eps: float, k1: float = 1.0, k2: float = 1.0,
                   *, rtol: float = 1e-10) -> Field2D:
    """Galerkin solution of the perturbed weak problem on the fitted mesh."""
    _check_eps(eps)
    return _galerkin_solve(
        mesh, lambda: (assemble_stiffness(mesh, eps, k1, k2),
                       _load(mesh, forcing.F, forcing.f, forcing.quadrature_order)),
        "fitted-solve", eps, k1, k2, rtol)


def resample(b: Field2D, mesh: Mesh2D) -> Field2D:
    """P1-interpolate a field onto the nodes of another mesh with matching columns."""
    values = b.value(mesh.nodes[:, 0], mesh.nodes[:, 1])
    return Field2D(mesh=mesh, values=values, label=f"resampled[{b.label}]")


def vnorm_diff_2d(a: Field2D, b: Field2D) -> float:
    """V-norm (int |grad a - grad b|^2)^(1/2), resampling b onto a's mesh."""
    b_on_a = b if b.mesh is a.mesh else resample(b, a.mesh)
    diff = a.gradients() - b_on_a.gradients()
    _, area = a.mesh.basis_gradients()
    return float(np.sqrt(max(np.sum(area * np.sum(diff * diff, axis=1)), 0.0)))


def _region_energies(fld: Field2D, metric, heights: np.ndarray,
                     eps: float, k1: float, k2: float) -> tuple[float, float, float, float]:
    """(e1, e2, total, flat_total) of the P1 field under a per-triangle metric.

    One energy density gives the split by the region tags (e1, e2, total) and
    the total of the flat split, whose region 1 is the part of each triangle
    below the cut with vertex heights `heights` (n_tri, 3).  `metric` holds
    the entries (m00, m01, m11), each one number or an (n_tri,) array, as
    `_assemble_p1` takes them.  Exact: P1 gradients are constant.
    """
    g0, g1 = fld.gradients().T
    m00, m01, m11 = metric
    dens = g0 * (m00 * g0 + m01 * g1) + g1 * (m01 * g0 + m11 * g1)
    area = fld.mesh.triangle_areas()

    def split(below):
        e1 = k1 * float(np.sum(dens * below))
        e2 = (k2 / eps) * float(np.sum(dens * (area - below)))
        return e1, e2, e1 + e2

    return *split(np.where(fld.mesh.region == 1, area, 0.0)), split(_area_below(heights, area))[2]


def energy_split(fld: Field2D, eps: float, k1: float = 1.0, k2: float = 1.0) -> tuple[float, ...]:
    """(e1, e2, total) with regions read from the mesh tags (diagonal split),
    and the total of the flat split at z = 0, straddling triangles clipped."""
    mesh = fld.mesh
    return _region_energies(fld, _IDENTITY, mesh.nodes[:, 1].take(mesh.triangles), eps, k1, k2)
