"""P1 finite elements on interface-fitted triangulations of the slab
Omega = (0, 1) x (-1, 1).

A mesh is a tensor grid whose columns follow the perturbed interface, and
`Mesh2D` stores exactly that: the column abscissae and the heights of the
levels of every column.  The column maps (`geometry.column_map_inverse`)
stretch the reference levels in [-1, 0] by 1 + zeta(x) and those in [0, 1]
by 1 - zeta(x).  Each quad is split into two triangles.  Region 1 (below the
interface) carries coefficient k1 and a Dirichlet outer boundary; region 2
carries k2/eps and a Neumann outer boundary.

Node (j, l) of column j and level l has id j (2 nz + 1) + l, and the quads
of the grid split into triangles as `geometry._ORIENTATIONS` says.  The
per-row kernels (geometry, gradients, loads, stiffness) read slices of that
node grid, not a connectivity table, and fields move between meshes with
matching columns by one column-wise interpolation.  Every node couples to at
most seven: the stiffness is summed as seven node-grid arrays, one per
stencil entry.  A solve runs over every node of the grid in node order:
its matrix is the stiffness between free nodes plus an identity row and
column for each fixed (Dirichlet) node, and every vector of the solve is
zero at the fixed nodes.  Every matrix, the stiffness and the coarse
operators alike, is gathered from its node-grid stencil arrays straight
into sorted CSR.  The multigrid preconditioner coarsens to every other grid
line: its grid transfers are one CSR product per axis with the 1D
interpolation of that axis or its transpose, and its Galerkin operators
are 9-point stencils read off nine probes through those transfers and the
operator of the level above, so it stores no 2D prolongation and reads no
matrix but by its matvec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from time import perf_counter

import numpy as np
import scipy.sparse as sp

from .geometry import (_A, _B, _C, _D, _ORIENTATIONS, Perturbation, _area_below, _check_eps, _grid_corners,
                       column_map_inverse, validate_admissible)
from .quadrature import as_array_fn, gauss_rule, triangle_rule


class SolverConvergenceError(RuntimeError):
    """Conjugate gradients failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# the two corners that follow each corner of a positively oriented triangle
_NEXT = ((1, 2), (2, 0), (0, 1))


@dataclass(frozen=True, eq=False)
class Mesh2D:
    """Interface-fitted triangulation of the slab, stored as its node grid:
    the abscissae of the nx + 1 columns and the heights of the 2 nz + 1
    levels of every column, level nz on the interface.

    `node_grid`, `nodes`, `triangles`, `region`, `dirichlet_nodes` and
    `free_mask` are views derived from the grid on first read; the per-row
    kernels read slices of the grid.  Immutable: every array is read-only,
    and the triangle areas and smallest angle (no hat gradients) are
    computed once per mesh.  Meshes compare and hash by identity.
    """

    col_x: np.ndarray   # (nx+1,) column abscissae
    levels: np.ndarray  # (nx+1, 2*nz+1) height of node (column, level)

    def __post_init__(self):
        _read_only(self.col_x)
        _read_only(self.levels)

    @property
    def nx(self) -> int:
        return len(self.col_x) - 1

    @property
    def nz(self) -> int:
        return self.levels.shape[1] // 2

    @property
    def n_nodes(self) -> int:
        return self.levels.size

    @property
    def zeta_at_cols(self) -> np.ndarray:
        """(nx+1,) interface height per column."""
        return self.levels[:, self.nz]

    @cached_property
    def node_grid(self) -> np.ndarray:
        """(nx+1, 2*nz+1) node id per (column, level), row-major."""
        return _read_only(np.arange(self.n_nodes).reshape(self.levels.shape))

    @cached_property
    def nodes(self) -> np.ndarray:
        """(n_nodes, 2) coordinates (x, z)."""
        return _read_only(np.column_stack([np.repeat(self.col_x, self.levels.shape[1]), self.levels.ravel()]))

    @cached_property
    def triangles(self) -> np.ndarray:
        """(n_tri, 3) positively oriented node triples, in the order of
        `geometry._ORIENTATIONS`."""
        return _read_only(np.ascontiguousarray(self._corner_values(self.node_grid)))

    @cached_property
    def region(self) -> np.ndarray:
        """(n_tri,) 1 below the interface, 2 above."""
        return _read_only(np.tile(np.repeat(np.array([1, 2], dtype=np.int64), 2 * self.nz), self.nx))

    @cached_property
    def free_mask(self) -> np.ndarray:
        """(nx+1, 2*nz+1) True off the bottom and the walls up to the interface."""
        free = np.ones(self.levels.shape, dtype=bool)
        free[:, 0] = free[[0, -1], : self.nz + 1] = False
        return _read_only(free)

    @cached_property
    def dirichlet_nodes(self) -> np.ndarray:
        """Sorted ids of the nodes on the Dirichlet edges."""
        return _read_only(np.flatnonzero(~self.free_mask))

    @cached_property
    def _level_rows(self) -> np.ndarray:
        # the levels the kernels read: two equal rows when every column has
        # the same levels (the flat reference mesh), so per-level work
        # broadcasts over the columns instead of repeating in each
        Z = self.levels
        return Z[:2] if np.array_equal(Z, np.broadcast_to(Z[0], Z.shape)) else Z

    def _corners(self) -> tuple:
        """Per triangle orientation, the corner abscissae as (nx, 1) arrays,
        one per column, and the corner heights as slices of `_level_rows`."""
        X = np.broadcast_to(self.col_x[:, None], (self.nx + 1, 2))
        return tuple(([X[c] for c in o], [self._level_rows[c] for c in o]) for o in _ORIENTATIONS)

    def _corner_values(self, node_values: np.ndarray) -> np.ndarray:
        """(n_tri, 3) values of a node array at the corners of every triangle
        (a corner-major view)."""
        return _grid_corners(np.reshape(node_values, self.levels.shape)).reshape(3, -1).T

    @cached_property
    def _areas(self) -> np.ndarray:
        area = np.empty((self.nx, 2 * self.nz, 2))
        for o, (x, z) in enumerate(self._corners()):
            area[..., o] = 0.5 * ((x[1] - x[0]) * (z[2] - z[0]) - (x[2] - x[0]) * (z[1] - z[0]))
        return _read_only(area.reshape(-1))

    @cached_property
    def _min_angle(self) -> float:
        # the largest corner cosine, then one arccos: arccos is decreasing
        largest = -1.0
        for x, z in self._corners():
            for a, (b, c) in enumerate(_NEXT):
                ux, uz, vx, vz = x[b] - x[a], z[b] - z[a], x[c] - x[a], z[c] - z[a]
                cosang = (ux * vx + uz * vz) / (np.sqrt(ux * ux + uz * uz) * np.sqrt(vx * vx + vz * vz))
                largest = max(largest, float(np.max(cosang)))
        return float(np.degrees(np.arccos(np.clip(largest, -1.0, 1.0))))

    def triangle_areas(self) -> np.ndarray:
        """(n_tri,) triangle areas (read-only, computed once per mesh)."""
        return self._areas

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in degrees (computed
        once per mesh)."""
        return self._min_angle


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
        mesh = self.mesh
        V = self.values.reshape(mesh.levels.shape)
        two_area = 2.0 * mesh.triangle_areas().reshape(mesh.nx, -1, 2)
        g = np.empty(two_area.shape + (2,))
        for o, ((x, z), corners) in enumerate(zip(mesh._corners(), _ORIENTATIONS)):
            v, t = [V[c] for c in corners], two_area[..., o]
            # hat a has gradient (z_b - z_c, x_c - x_b) / 2|T|, where b and c
            # follow a; summed hat by hat, in the order of an einsum over them
            g[..., o, 0] = sum((z[b] - z[c]) / t * v[a] for a, (b, c) in enumerate(_NEXT))
            g[..., o, 1] = sum((x[c] - x[b]) / t * v[a] for a, (b, c) in enumerate(_NEXT))
        return _read_only(g.reshape(-1, 2))

    def gradients(self) -> np.ndarray:
        """(n_tri, 2) constant gradient per triangle (read-only)."""
        return self._gradients


# how far an abscissa may lie from the mesh column it is matched to
_COLUMN_TOL = 1e-12


def _match_columns(x: np.ndarray, col_x: np.ndarray) -> np.ndarray:
    idx = np.clip(np.searchsorted(col_x, x), 0, len(col_x) - 1)
    idx = np.where((idx > 0) & (np.abs(col_x[np.maximum(idx - 1, 0)] - x) < np.abs(col_x[idx] - x)),
                   idx - 1, idx)
    if np.any(np.abs(col_x[idx] - x) > _COLUMN_TOL):
        bad = x[np.abs(col_x[idx] - x) > _COLUMN_TOL][:3]
        raise ValueError(f"abscissae {bad} do not match mesh columns")
    return idx


def _interp_columns(fld: Field2D, col_x: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """Values of the P1 field `fld` at the points of a node grid, flattened
    row-major: row k of `heights` holds the point heights of the column at
    abscissa col_x[k], which must be a column of the field's mesh.  One
    linear interpolation up each column."""
    levels = fld.mesh.levels
    source = fld.values.reshape(levels.shape)
    return np.concatenate([np.interp(z, levels[j], source[j])
                           for z, j in zip(heights, _match_columns(col_x, fld.mesh.col_x))])


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
    mesh = Mesh2D(col_x=xs, levels=column_map_inverse(np.where(ref < 0.0, -1.0, 1.0), zv[:, None], ref))
    if np.min(mesh.triangle_areas()) <= 1e-14:
        raise ValueError("degenerate triangle in fitted mesh")
    return mesh


# The entries (m00, m01, m11) of the fitted problem's coefficient tensor.
_IDENTITY = (1.0, 0.0, 1.0)


# the node-grid offsets (dj, dl) of a 9-point stencil in ascending node id;
# the P1 stiffness couples along the seven of them without (-1, 1) and (1, -1)
_OFFSETS = tuple((dj, dl) for dj in (-1, 0, 1) for dl in (-1, 0, 1))
_P1_OFFSETS = tuple(o for o in _OFFSETS if o not in ((-1, 1), (1, -1)))


def _neighbours(grid: np.ndarray, offsets, axis: int) -> np.ndarray:
    """Each node's neighbour in `grid` at every node-grid offset, stacked
    along `axis`; zero (False) past the edge of the grid."""
    shape, padded = grid.shape, np.pad(grid, 1)
    return np.stack([padded[1 + dj: 1 + dj + shape[0], 1 + dl: 1 + dl + shape[1]] for dj, dl in offsets], axis=axis)


def _couplings(free: np.ndarray, offsets) -> tuple[np.ndarray, np.ndarray]:
    """The (offsets, columns, levels) mask of the couplings at the node-grid
    `offsets` (one of them (0, 0)) between nodes of the mask `free`, and of
    every node to itself, and the CSR row pointers of all nodes in node
    order."""
    # one plane per offset, so that the row counts sum contiguous planes
    planes = _neighbours(free, offsets, 0)
    planes &= free
    planes[offsets.index((0, 0))] = True
    indptr = np.zeros(free.size + 1, dtype=np.int32)
    np.cumsum(planes.sum(axis=0, dtype=np.int32), out=indptr[1:])
    return planes, indptr


def _csr(stencil: np.ndarray, free: np.ndarray, offsets) -> sp.csr_matrix:
    """The CSR matrix, over all nodes of a grid in node order, of the
    node-grid stencil arrays, one per node-grid offset of `offsets` (in
    ascending node id), kept where they couple two nodes of the mask `free`
    or a node to itself.  The mask gives the column indices and the row
    pointers, and one boolean gather gives the sorted data: no COO, no
    sort."""
    planes, indptr = _couplings(free, offsets)
    present = np.ascontiguousarray(planes.reshape(len(offsets), -1).T)
    del planes
    # scipy stores the indices as int32 anyway
    indices = _neighbours(np.arange(free.size, dtype=np.int32).reshape(free.shape), offsets, -1)
    indices = indices.reshape(-1, len(offsets))[present]
    K = sp.csr_matrix((stencil.reshape(len(offsets), -1).T[present], indices, indptr), shape=(free.size,) * 2)
    K.has_canonical_format = True  # sorted and free of duplicates by construction
    return K


def _assemble_p1(mesh: Mesh2D, metric, eps: float, k1: float, k2: float, free: np.ndarray) -> sp.csr_matrix:
    """Matrix of sum_T k_T |T| grad(phi_a) . M_T grad(phi_b) over P1 hat
    functions, with k_T = k1 below the interface and k2/eps above.

    `metric` holds the entries (m00, m01, m11) of the symmetric M_T, each one
    number for all triangles or an (n_tri,) array.  Every quad's diagonal
    runs from a to c, so node (j, l) couples to SW (j-1, l-1), W (j-1, l),
    S (j, l-1), D (j, l), N (j, l+1), E (j+1, l) and NE (j+1, l+1), in
    ascending node id.  The matrix is summed as one node-grid array per
    stencil entry and gathered by `_csr` over all nodes in node order.  The
    node-grid mask `free` holds the free nodes: the couplings of the other,
    fixed nodes are left out and each fixed node keeps only its diagonal,
    set to 1.  With the free nodes of a solve that is the solve's matrix;
    with every node free it is the whole stiffness.
    """
    quads = (mesh.nx, 2 * mesh.nz, 2)  # triangle 2(j*2nz + l) + orientation
    coef = np.repeat([k1, k2 / eps], mesh.nz)  # per level
    entries = [np.broadcast_to(m, (np.prod(quads),)).reshape(quads) for m in metric]

    def couplings(o, x, z):
        # entries (0, 1), (1, 2), (2, 0) of the triangles of orientation o,
        # from their positively oriented corners; the edge
        # e_i = p_(i+2) - p_(i+1) opposite corner i, turned a right angle and
        # divided by 2|T|, is grad(phi_i)
        ex = (x[2] - x[1], x[0] - x[2], x[1] - x[0])
        ez = (z[2] - z[1], z[0] - z[2], z[1] - z[0])
        m00, m01, m11 = (m[..., o] for m in entries)
        w = coef / (2.0 * (ex[1] * ez[2] - ex[2] * ez[1]))  # k |T| / (2|T|)^2
        return [w * (m11 * ex[i] * ex[j] - m01 * (ex[i] * ez[j] + ez[i] * ex[j]) + m00 * ez[i] * ez[j])
                for i, j in ((0, 1), (1, 2), (2, 0))]

    (ab, bc, ca), (ac, cd, da) = (couplings(o, x, z) for o, (x, z) in enumerate(mesh._corners()))
    shape = mesh.levels.shape
    stencil = np.zeros((7,) + shape)
    SW, W, S, D, N, E, NE = stencil
    # the entry of the edge from corner p to corner q, seen from p and from q
    for ahead, behind, p, q, entry in ((E, W, _A, _B, ab), (E, W, _D, _C, cd), (N, S, _B, _C, bc),
                                       (N, S, _A, _D, da), (NE, SW, _A, _C, ca + ac)):
        ahead[p] += entry
        behind[q] += entry
    # the couplings and the metric are summed in: free them before the gather
    del ab, bc, ca, ac, cd, da, entry, entries, metric
    # the hat functions sum to one, so every row of the matrix sums to zero
    np.negative(SW + W + S + N + E + NE, out=D)
    D[~free] = 1.0
    return _csr(stencil, free, _P1_OFFSETS)


def assemble_stiffness(mesh: Mesh2D, eps: float, k1: float, k2: float) -> sp.csr_matrix:
    """Stiffness of the perturbed energy form on the fitted mesh."""
    return _assemble_p1(mesh, _IDENTITY, eps, k1, k2, np.ones(mesh.levels.shape, dtype=bool))


def _at_point(corners, b) -> np.ndarray:
    """(2, ...) values at the barycentric point b of the triangles of both
    orientations, from their corner values (one triple per orientation)."""
    return np.stack([(b[0] * v0 + b[1] * v1) + b[2] * v2 for v0, v1, v2 in corners])


def _at_points(corners, bary: np.ndarray) -> np.ndarray:
    """(2, q, ...) values at the q barycentric points `bary`, as `_at_point`."""
    return np.stack([_at_point(corners, b) for b in bary], axis=1)


def _volume_load(mesh: Mesh2D, Fq: np.ndarray, bary: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Load vector of a source given by its values Fq (2, q, nx, 2nz) at the
    barycentric points `bary` (q, 3) of the triangles of each orientation,
    with weights w: each corner's share is added into the node grid by
    slices."""
    area = mesh.triangle_areas().reshape(mesh.nx, -1, 2)
    load = np.zeros(mesh.levels.shape)
    for o, corners in enumerate(_ORIENTATIONS):
        # basis value of hat a at barycentric point q is bary[q, a]
        contrib = bary.T @ (area[..., o] * Fq[o] * w[:, None, None]).reshape(len(w), -1)
        for a, c in enumerate(corners):
            load[c] += contrib[a].reshape(area.shape[:2])
    return load.reshape(-1)


def assemble_volume_load(mesh: Mesh2D, F, *, degree: int = 2) -> np.ndarray:
    """Load vector of int_Omega F r by per-triangle quadrature."""
    F = as_array_fn(F)
    bary, w = triangle_rule(degree)
    x, z = np.broadcast_arrays(*(_at_points(c, bary) for c in zip(*mesh._corners())))
    Fq = F(x.ravel(), z.ravel()).reshape(x.shape)
    return _volume_load(mesh, Fq, bary, w)


def assemble_interface_load(mesh: Mesh2D, f, *, order: int = 4) -> np.ndarray:
    """Load vector of int_{Gamma^zeta} f r dS along the interface polyline."""
    f = as_array_fn(f)
    t, w = gauss_rule(order)
    x, z = mesh.col_x, mesh.zeta_at_cols  # the interface nodes, left to right
    dx, dz = np.diff(x), np.diff(z)
    length = np.sqrt(dx * dx + dz * dz)
    lam = 0.5 * (t + 1.0)                               # (q,)
    px, pz = (v[:-1, None] + lam * dv[:, None] for v, dv in ((x, dx), (z, dz)))
    fq = f(px.ravel(), pz.ravel()).reshape(px.shape)
    w_half = 0.5 * w
    load = np.zeros(mesh.levels.shape)
    load[:-1, mesh.nz] += length * np.einsum("eq,q,q->e", fq, w_half, 1.0 - lam)
    load[1:, mesh.nz] += length * np.einsum("eq,q,q->e", fq, w_half, lam)
    return load.reshape(-1)


def _rules(quadrature_order: int) -> tuple[int, int]:
    """The triangle-rule degree of the volume load and the Gauss order of the
    interface load that a forcing's `quadrature_order` selects."""
    return 2 if quadrature_order <= 4 else 4, max(2, quadrature_order)


def _load(mesh: Mesh2D, F, f, quadrature_order: int) -> np.ndarray:
    """Volume load of F plus interface load of f, in the rules that a
    forcing's `quadrature_order` selects."""
    degree, order = _rules(quadrature_order)
    load = assemble_volume_load(mesh, F, degree=degree)
    load += assemble_interface_load(mesh, f, order=order)
    return load


# The V-cycle smoother is damped Jacobi with weights 1.5 / sum_j |a_ij|: the
# row sums bound A from above, so every sweep contracts in the energy norm and
# the V-cycle stays SPD on sheared meshes too; on a row of the 5-point
# Laplacian the weight is 0.75 / a_ii.
_SMOOTHER_SCALE = 1.5


class _Lines:
    """Linear interpolation onto the n + 1 lines of one grid axis from the
    coarse lines 0, 2, ..., and n: the sparse (n + 1, m + 1) matrix `P` of
    the coarse hat functions at the fine lines, and its transpose `R`, both
    in CSR.

    For an odd n the coarse lines are 0, 2, ..., n - 3 and n, so the last
    coarse interval spans three cells (weights 1/3 and 2/3) rather than
    leaving a one-cell sliver that would survive on every coarser level.
    Every fine line l has the parent k_l = min(l // 2, m - 1), the coarse
    line at or below it, and the weight t_l of the coarse line k_l + 1 in
    its value: row l of P holds 1 - t_l at k_l and t_l at k_l + 1, and no
    explicit zero, so a coarse line has one entry.
    """

    def __init__(self, n: int):
        self.coarse = np.append(np.arange(0, n - 1 - n % 2, 2), n)
        m = len(self.coarse) - 1
        lines = np.arange(n + 1)
        k = np.minimum(lines // 2, m - 1)
        t = (lines - self.coarse[k]) / (self.coarse[k + 1] - self.coarse[k])
        share = np.stack([1.0 - t, t], axis=1)
        stored = share != 0.0  # no explicit zero
        indptr = np.zeros(n + 2, dtype=np.int32)
        np.cumsum(np.count_nonzero(stored, axis=1), out=indptr[1:])
        self.P = sp.csr_matrix((share[stored], np.stack([k, k + 1], axis=1)[stored], indptr), shape=(n + 1, m + 1))
        self.R = self.P.T.tocsr()


class _Transfer:
    """Prolongation P = kron(Px, Pz) from the coarse node grid to the fine
    one, without its rows at the fine fixed nodes and its columns at the
    coarse fixed nodes, and restriction P^T.  A vector, which must be zero
    at the fixed nodes of its grid, is viewed as its node grid, multiplied
    along each coarsened axis by the CSR interpolation `P` of its `_Lines`
    or its transpose `R` (the columns first on the way down), and the fixed
    nodes of the result are set to zero.  The grids are given by their
    masks of free nodes."""

    def __init__(self, fine: np.ndarray, coarse: np.ndarray, axes: list):
        self.fine_shape, self.coarse_shape = fine.shape, coarse.shape
        self.fine_fixed, self.coarse_fixed = np.flatnonzero(~fine), np.flatnonzero(~coarse)
        self.axes = axes

    def restrict(self, r: np.ndarray) -> np.ndarray:
        """P^T r."""
        g = r.reshape(self.fine_shape)
        for lines, axis in self.axes:
            g = lines.R @ g if axis == -2 else (lines.R @ g.T).T
        v = g.ravel()
        v[self.coarse_fixed] = 0.0
        return v

    def prolong(self, x: np.ndarray) -> np.ndarray:
        """P x."""
        g = x.reshape(self.coarse_shape)
        for lines, axis in reversed(self.axes):
            g = lines.P @ g if axis == -2 else (lines.P @ g.T).T
        v = g.ravel()
        # where a wall's top fixed level is odd, the coarse free node above
        # gives the fixed wall node on it a share
        v[self.fine_fixed] = 0.0
        return v


def _coarse_operator(A: sp.csr_matrix, transfer: _Transfer, free: np.ndarray) -> sp.csr_matrix:
    """The Galerkin operator P^T A P of the `_Transfer`'s prolongation P, with
    an identity row for each fixed node of the coarse node-grid mask `free`,
    as a 9-point stencil gathered into CSR in node order, read off nine
    products with colour-group probes (Curtis, Powell & Reid, "On the
    estimation of sparse Jacobian matrices", 1974).

    Probe (cj, cl) is one on the free coarse nodes (j, l) with j = cj and
    l = cl mod 3.  They lie three lines apart, so where A couples only nodes
    of one 3 x 3 window, no two of their hat functions couple under A, and
    P^T A P of the probe holds at each coarse node its coupling to the one
    probed node of its window: exactly zero where that node is not free.
    A is read through its matvec only.
    """
    stencil = np.empty((3, 3) + free.shape)
    probe = np.zeros(free.shape)
    for cj, cl in np.ndindex(3, 3):
        probed = np.s_[cj::3, cl::3]
        probe[probed] = free[probed]
        g = transfer.restrict(A @ transfer.prolong(probe.ravel())).reshape(free.shape)
        probe[probed] = 0.0
        for dj, dl in _OFFSETS:
            at = np.s_[(cj - dj) % 3::3, (cl - dl) % 3::3]
            stencil[1 + dj, 1 + dl][at] = g[at]
    stencil[1, 1][~free] = 1.0
    return _csr(stencil, free, _OFFSETS)


def _multigrid_levels(A: sp.csr_matrix, free: np.ndarray) -> tuple[list, np.ndarray]:
    """Galerkin hierarchy of A on a node grid, with coarse operators in
    stencil form (Dendy, "Black box multigrid", J. Comput. Phys. 48, 1982).

    `free` is the grid-shaped mask of the free nodes, and A is the matrix
    over all nodes that `_assemble_p1` gathers with that mask, so each node
    couples only to nodes of its 3 x 3 window, as the probes of
    `_coarse_operator` need, and each fixed node only to itself; raises
    `ValueError` when A's shape or row pointers are not that pattern's.
    Each level takes every other line of each axis of more than 4 lines, and
    its operator P^T A P, P = kron(Px, Pz) between the free nodes, plus an
    identity row for each fixed node, comes from the operator above by
    `_coarse_operator` through the level's own `_Transfer`: a 9-point
    stencil in CSR, SPD when A is.  One `_Lines` per number of lines serves
    both axes and every level.  Each level is a tuple (A, smoother weights,
    `_Transfer`); the coarsest operator comes back as the inverse of its
    Cholesky factor.  Of P and R only the 1D interpolations of the `_Lines`
    are stored, each with its transpose, both in CSR, and they die with the
    hierarchy, which dies with the solve.
    Raises `np.linalg.LinAlgError` when the coarsest operator is not SPD.
    """
    indptr = _couplings(free, _P1_OFFSETS)[1]
    if A.shape != (free.size,) * 2 or not np.array_equal(A.indptr, indptr):
        raise ValueError("A is not the P1 matrix of the mask: its shape or row pointers differ")
    del indptr
    levels, shared = [], {}
    while True:
        for n in free.shape:
            if n > 4 and n not in shared:
                shared[n] = _Lines(n - 1)
        x, z = map(shared.get, free.shape)
        if x is None and z is None:
            break
        axes = [(a, axis) for a, axis in ((x, -2), (z, -1)) if a is not None]
        fine = free
        for a, axis in axes:
            free = free.take(a.coarse, axis=axis)
        transfer = _Transfer(fine, free, axes)
        # row sums of |A| in one pass: every row holds its positive diagonal
        levels.append((A, _SMOOTHER_SCALE / np.add.reduceat(np.abs(A.data), A.indptr[:-1]), transfer))
        A = _coarse_operator(A, transfer, free)
    # the coarsest grid has at most 4 x 4 lines, so its dense inverse factor
    # is tiny and turns the coarse solve into two small matvecs
    return levels, np.linalg.inv(np.linalg.cholesky(A.toarray()))


def _v_cycle(levels: list, coarsest: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One symmetric V-cycle from a zero guess: damped Jacobi before and after
    the coarse correction on every level, the grid transfers on the node
    grid (`_Transfer`), and the inverse Cholesky factor L^-1 of the
    coarsest operator as coarse solve L^-T L^-1 r.  On the way up the
    pre-smoothed iterate is added to the prolonged correction.  Each
    residual r - Ax, and its smoothing step w (r - Ax), is written into the
    matvec's own output Ax."""
    stack = []
    for A, w, transfer in levels:
        x = w * r
        stack.append((r, x))
        Ax = A @ x
        r = transfer.restrict(np.subtract(r, Ax, out=Ax))
    x = coarsest.T @ (coarsest @ r)
    for (A, w, transfer), (r, x_pre) in zip(reversed(levels), reversed(stack)):
        x = transfer.prolong(x)
        x += x_pre
        Ax = A @ x
        x += np.multiply(w, np.subtract(r, Ax, out=Ax), out=Ax)
    return x


def cg(A, b: np.ndarray, *, rtol: float = 1e-5, maxiter: int | None = None,
       M=None, callback=None) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients (Hestenes & Stiefel, 1952) from a
    zero guess, with the update order and the stopping rule of
    `scipy.sparse.linalg.cg` at atol = 0: stop once ||r|| < rtol ||b||.

    `M` is a callable applying the preconditioner, `callback(x)` runs after
    every iteration.  Returns (x, 0) on convergence and (x, maxiter) when the
    iterations run out; b = 0 gives zeros at once.  Raises
    `SolverConvergenceError` when a search direction p has p.Ap <= 0, where
    A (or M) is not positive definite.  An iteration makes no vector of its
    own beyond A's matvec q = Ap and M's result: the steps alpha q and then
    alpha p are written into q, which is done with by then.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    tol = float(rtol) * float(bnorm)
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
        r -= np.multiply(alpha, q, out=q)
        x += np.multiply(alpha, p, out=q)
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def cg_solve(A: sp.csr_matrix, b: np.ndarray, free: np.ndarray,
             *, rtol: float = 1e-10, maxiter: int | None = None) -> tuple[np.ndarray, dict]:
    """Solve the SPD system A x = b by CG preconditioned with one
    geometric-multigrid V-cycle.

    `free` is the node-grid mask (columns, levels) of the free nodes, as
    `Mesh2D.free_mask`; A, b and x run over all nodes in node order.  A
    must be the matrix that `_assemble_p1` gathers with that mask, whose
    couplings stay inside the 3 x 3 window that the hierarchy's probes need
    and whose fixed nodes have identity rows (`ValueError` for any other
    matrix), and b must be zero at the fixed nodes, so that x is too.  The
    coarse grids take every other line of each axis.  Returns x and the
    solve record, which holds the number of free nodes as `dofs`, the
    entries of A between them as `nnz`, the seconds `mg_setup_s` spent
    building the multigrid hierarchy and the energy x.Ax as
    `bilinear_energy`.  Raises `ValueError` for maxiter < 1, a load b that
    is not finite or not zero at a fixed node, and `SolverConvergenceError`
    when CG does not converge, when A is seen not to be SPD, or when the
    coarsest operator of the hierarchy is not (A is then not SPD either);
    the last stops before the first step, with an infinite residual as the
    other checks before it.
    """
    if maxiter is not None and maxiter < 1:
        raise ValueError(f"maxiter must be at least 1, got {maxiter}")
    if not np.all(np.isfinite(b)):
        raise ValueError("the load vector is not finite")
    dofs = int(np.count_nonzero(free))
    if dofs == 0:
        raise SolverConvergenceError("no free nodes: empty Dirichlet complement", np.inf)
    if dofs == free.size:
        raise SolverConvergenceError("singular system: empty Dirichlet set", np.inf)
    if np.any(A.diagonal() <= 0.0):
        raise SolverConvergenceError("non-SPD system", np.inf)
    t0 = perf_counter()
    try:
        levels, coarsest = _multigrid_levels(A, free)
    except np.linalg.LinAlgError:
        raise SolverConvergenceError("the coarsest multigrid operator is not SPD", np.inf) from None
    mg_setup_s = perf_counter() - t0
    # an identity row would copy a fixed node's load into x
    if np.any(b[~free.ravel()] != 0.0):
        raise ValueError("the load vector is not zero at a fixed node")
    if maxiter is None:
        maxiter = int(50 * np.sqrt(dofs)) + 10
    # one entry per iteration, all the same iterate: the count is its length
    steps = []
    x, info = cg(A, b, rtol=rtol, maxiter=maxiter,
                 M=partial(_v_cycle, levels, coarsest), callback=steps.append)
    Ax = A @ x
    res = float(np.linalg.norm(Ax - b) / max(np.linalg.norm(b), 1e-300))
    if info != 0:
        raise SolverConvergenceError(
            f"CG did not converge within {maxiter} iterations (relative residual {res:.3e})", res
        )
    record = {"solver": "mg-cg", "iterations": len(steps), "rel_residual": res,
              "dofs": dofs, "nnz": A.nnz - (free.size - dofs), "levels": len(levels) + 1,
              "mg_setup_s": mg_setup_s, "bilinear_energy": float(x @ Ax)}
    return x, record


def _galerkin_solve(mesh: Mesh2D, load, metric, label: str, eps: float, k1: float, k2: float,
                    rtol: float) -> Field2D:
    """Assemble the load by `load()` (first, so its temporaries are gone
    before the matrix exists) and zero it at the Dirichlet nodes, then the
    matrix of the coefficient entries `metric()` with identity rows there,
    without the full K, and CG-solve for the nodal values; records the
    coefficients, the solve, the seconds of each phase, the mesh's smallest
    angle and the Galerkin identity terms in the meta."""
    free = mesh.free_mask
    t0 = perf_counter()
    b = load()
    b[mesh.dirichlet_nodes] = 0.0
    t1 = perf_counter()
    A = _assemble_p1(mesh, metric(), eps, k1, k2, free)
    t2 = perf_counter()
    x, record = cg_solve(A, b, free, rtol=rtol)
    meta = {"eps": eps, "k1": k1, "k2": k2, "assemble_s": t2 - t0, "stiffness_s": t2 - t1, "load_s": t1 - t0,
            **record, "solve_s": perf_counter() - t2, "min_angle": mesh.min_angle(),
            "load_functional": float(b @ x)}
    return Field2D(mesh=mesh, values=x, label=label, meta=meta)


def assemble_solve(mesh: Mesh2D, forcing, eps: float, k1: float = 1.0, k2: float = 1.0,
                   *, rtol: float = 1e-10) -> Field2D:
    """Galerkin solution of the perturbed weak problem on the fitted mesh."""
    _check_eps(eps)
    return _galerkin_solve(mesh, lambda: _load(mesh, forcing.F, forcing.f, forcing.quadrature_order),
                           lambda: _IDENTITY, "fitted-solve", eps, k1, k2, rtol)


def resample(b: Field2D, mesh: Mesh2D) -> Field2D:
    """P1-interpolate a field onto the nodes of another mesh whose columns
    are columns of the field's mesh."""
    return Field2D(mesh=mesh, values=_interp_columns(b, mesh.col_x, mesh.levels), label=f"resampled[{b.label}]")


def vnorm_diff_2d(a: Field2D, b: Field2D) -> float:
    """V-norm (int |grad a - grad b|^2)^(1/2) over a's mesh.

    On one mesh it reads the two fields' gradients (and caches them).  When
    b lives on another mesh, whose columns must be columns of a's, it
    subtracts b resampled onto a's mesh from a's values and differentiates
    that one difference field, so neither field forms or keeps a gradient.
    """
    if b.mesh is a.mesh:
        diff = a.gradients() - b.gradients()
    else:
        diff = Field2D(mesh=a.mesh, values=a.values - resample(b, a.mesh).values).gradients()
    return float(np.sqrt(max(np.sum(a.mesh.triangle_areas() * np.sum(diff * diff, axis=1)), 0.0)))


def _region_energies(fld: Field2D, metric, heights: np.ndarray,
                     eps: float, k1: float, k2: float) -> tuple[float, float, float, float]:
    """(e1, e2, total, flat_total) of the P1 field under a per-triangle metric.

    One energy density gives the split by the regions of the mesh levels (e1,
    e2, total) and the total of the flat split, whose region 1 is the part of
    each triangle below the cut with vertex heights `heights` (n_tri, 3).
    `metric` holds the entries (m00, m01, m11), each one number or an
    (n_tri,) array, as `_assemble_p1` takes them.  Exact: P1 gradients are
    constant.
    """
    g0, g1 = fld.gradients().T
    m00, m01, m11 = metric
    dens = g0 * (m00 * g0 + m01 * g1) + g1 * (m01 * g0 + m11 * g1)
    area = fld.mesh.triangle_areas()

    def split(below):
        e1 = k1 * float(np.sum(dens * below))
        e2 = (k2 / eps) * float(np.sum(dens * (area - below)))
        return e1, e2, e1 + e2

    below = area.copy()
    below.reshape(fld.mesh.nx, 2, -1)[:, 1] = 0.0  # the triangles above the interface level
    return *split(below), split(_area_below(heights, area))[2]


def energy_split(fld: Field2D, eps: float, k1: float = 1.0, k2: float = 1.0) -> tuple[float, ...]:
    """(e1, e2, total) with regions read from the mesh levels (diagonal
    split), and the total of the flat split at z = 0, straddling triangles
    clipped."""
    mesh = fld.mesh
    return _region_energies(fld, _IDENTITY, mesh._corner_values(mesh.levels), eps, k1, k2)
