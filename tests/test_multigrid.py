"""Multigrid-preconditioned CG on the whole node grid, with an identity row
for each fixed node: the solve's stiffness against the full one with its
fixed rows and columns replaced, the 1D interpolation of every axis against
the hat functions, the grid transfers and the coarse operators probed
through them against sparse Galerkin products, agreement with a direct
solve, symmetry of the V-cycle, iteration counts flat in the mesh size, the
solve record, and the CG loop against scipy's `cg` (imported here only)."""

from functools import partial
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st
from oracles import min_angle_loop, multigrid_prolongations, prolongation_1d

from darcyperturb import fem2d, flatten
from darcyperturb.flatten import assemble_flattened_stiffness, solve_flattened
from darcyperturb.geometry import ForcingSpec, make_perturbation

ONE2 = lambda x, z: np.ones_like(x)
FORCING = ForcingSpec(F=lambda x, z: np.cos(x + z), f=ONE2)


def sine(amp, k=1):
    return make_perturbation("sine", {"wavenumber": k}, amp)


def system(kind, nx, nz, amp, eps, k1=1.0, k2=1.0):
    """Mesh and stiffness of the fitted or the flattened problem."""
    if kind == "fitted":
        mesh = fem2d.build_fitted_mesh(sine(amp), nx, nz)
        return mesh, fem2d.assemble_stiffness(mesh, eps, k1, k2)
    mesh = fem2d.build_fitted_mesh(sine(0.0), nx, nz)
    return mesh, assemble_flattened_stiffness(mesh, sine(amp), eps, k1, k2)


def whole_grid(mesh, K):
    """The full matrix K in its own CSR layout, without the entries that
    couple a fixed node to another node and with 1 on the diagonal of each
    fixed node: the matrix of a solve over all nodes."""
    free = mesh.free_mask.ravel()
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    keep = free[rows] & free[K.indices] | (rows == K.indices)
    indptr = np.zeros_like(K.indptr)
    indptr[1:] = np.cumsum(np.bincount(rows[keep], minlength=K.shape[0]))
    return sp.csr_matrix((np.where(free[rows], K.data, 1.0)[keep], K.indices[keep], indptr), shape=K.shape)


def hierarchy(mesh, K):
    """The whole-grid system of a solve and its multigrid hierarchy."""
    A = whole_grid(mesh, K)
    return A, fem2d._multigrid_levels(A, mesh.free_mask)


def zero_at_fixed(mesh, v):
    """v with its entries at the fixed nodes of the mesh set to zero."""
    return np.where(mesh.free_mask.ravel(), v, 0.0)


def assert_fixed_rows_are_identity(B, free):
    """Every row of the fixed nodes (False in the flat mask `free`) of the
    CSR matrix B holds 1 on the diagonal and nothing else."""
    fixed = np.flatnonzero(~free)
    assert np.all(np.diff(B.indptr)[fixed] == 1)
    assert np.array_equal(B.indices[B.indptr[fixed]], fixed)
    assert np.all(B.data[B.indptr[fixed]] == 1.0)


kinds = st.sampled_from(["fitted", "flattened"])
sizes = st.integers(2, 24)
amps = st.floats(0.0, 0.6)
eps_values = st.floats(0.01, 1.0)
k_values = st.floats(0.1, 10.0)


@settings(deadline=None, max_examples=60)
@given(kind=kinds, nx=sizes, nz=sizes, amp=amps, eps=eps_values, k1=k_values, k2=k_values)
def test_free_node_assembly_is_the_reduced_full_matrix(kind, nx, nz, amp, eps, k1, k2):
    # the solve assembles over all nodes, with no coupling of a fixed node and
    # an identity row for it; that must be the public full assembly K with
    # those entries replaced, and its free block K[free][:, free], bit for
    # bit and in the same CSR layout
    mesh, K = system(kind, nx, nz, amp, eps, k1, k2)
    metric = fem2d._IDENTITY if kind == "fitted" else flatten._averaged_metric(mesh, sine(amp))
    A = fem2d._assemble_p1(mesh, metric, eps, k1, k2, mesh.free_mask)
    free = mesh.free_mask.ravel()
    assert A.has_canonical_format
    assert_fixed_rows_are_identity(A, free)
    for mine, ref in ((A, whole_grid(mesh, K)), (A[free][:, free], K[free][:, free])):
        assert mine.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            ours, theirs = getattr(mine, name), getattr(ref, name)
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours.view(np.int64) if name == "data" else ours,
                                  theirs.view(np.int64) if name == "data" else theirs)


def relative_gap(mine, theirs) -> float:
    """||mine - theirs|| / ||theirs|| in the Frobenius norm, sparse or dense."""
    norm = spla.norm if sp.issparse(theirs) else np.linalg.norm
    return norm(mine - theirs) / norm(theirs)


@pytest.mark.parametrize("n", range(4, 41))
def test_line_interpolation_is_the_coarse_hat_functions(n):
    # one stored entry per coarse line, two per other fine line (1/3 and 2/3
    # in the last interval of an odd n), no explicit zero; the CSR transpose
    # and the dense pair are the same matrix
    lines = fem2d._Lines(n)
    hats, coarse = prolongation_1d(n)
    P = lines.matrix
    assert P.format == "csr" and P.shape == hats.shape and P.has_sorted_indices
    assert np.array_equal(lines.coarse, coarse)
    assert np.array_equal(P.indptr, hats.indptr) and np.array_equal(P.indices, hats.indices)
    assert np.max(np.abs(P.data - hats.data)) <= 1e-15
    assert np.all(P.data != 0.0)
    assert np.all(np.diff(P.indptr)[coarse] == 1)
    assert np.all(np.delete(np.diff(P.indptr), coarse) == 2)
    if n % 2:
        assert np.any(np.isclose(P.data, 1.0 / 3.0)) and np.any(np.isclose(P.data, 2.0 / 3.0))
    P_csr, R_csr = lines.sparse
    P_dense, R_dense = lines.dense
    assert P_csr is P and R_csr.format == "csr" and (R_csr != P.T).nnz == 0
    assert np.array_equal(P_dense, P.toarray()) and np.array_equal(R_dense, P.toarray().T)


@settings(deadline=None, max_examples=60)
@given(kind=kinds, nx=sizes, nz=sizes, amp=amps, eps=eps_values, seed=st.integers(0, 2**32 - 1),
       small=st.sampled_from([0, fem2d._SMALL_GRID, 10**9]))
@example(kind="fitted", nx=2, nz=300, amp=0.1, eps=0.1, seed=0, small=fem2d._SMALL_GRID)
@example(kind="fitted", nx=300, nz=2, amp=0.1, eps=0.1, seed=0, small=0)
# a fine grid of 65 x 81 nodes, above the default fem2d._SMALL_GRID: its
# axes transfer by CSR products, the coarser grids' by dense products, and so
# do the probes that form each coarse operator; with every grid small, it
# meets the dense products too
@example(kind="flattened", nx=64, nz=40, amp=0.3, eps=0.1, seed=0, small=fem2d._SMALL_GRID)
@example(kind="flattened", nx=64, nz=40, amp=0.3, eps=0.1, seed=0, small=10**9)
def test_stencil_hierarchy_is_the_sparse_galerkin_product(kind, nx, nz, amp, eps, seed, small):
    # every coarse operator, read off nine probes through the level's
    # transfers and the operator above, is P^T A P of the level above plus
    # an identity row for each coarse fixed node, with the sparse
    # P = kron(Px, Pz) between the free nodes; every level's fixed rows are
    # identity rows; the coarsest comes back as its inverse Cholesky factor,
    # so it is compared as L L^T; the transfers apply P and P^T to vectors
    # zero at the fixed nodes, alone and with the residual and the sum that
    # the V-cycle forms on the way, by dense 1D products on the grids of up
    # to `small` nodes, by CSR ones above: on every level for small = 0, on
    # none for 10**9
    mesh, K = system(kind, nx, nz, amp, eps)
    with mock.patch.object(fem2d, "_SMALL_GRID", small):
        A, (levels, coarsest) = hierarchy(mesh, K)
    prolongations = multigrid_prolongations(mesh.free_mask)
    assert len(levels) == len(prolongations) and levels[0][0] is A
    L = np.linalg.inv(coarsest)
    coarse_operators = [B for B, *_ in levels[1:]] + [sp.csr_matrix(L @ L.T)]
    free = mesh.free_mask.ravel()
    rng = np.random.default_rng(seed)
    for (fine, _, transfer), (P, coarse_free), coarse in zip(levels, prolongations, coarse_operators):
        assert_fixed_rows_are_identity(fine, free)
        assert relative_gap(coarse - sp.diags((~coarse_free).astype(float)), P.T @ fine @ P) <= 1e-12
        v = np.where(coarse_free, rng.standard_normal(P.shape[1]), 0.0)
        r, s = np.where(free, rng.standard_normal((2, P.shape[0])), 0.0)
        assert relative_gap(transfer.prolong(v), P @ v) <= 1e-14
        assert relative_gap(transfer.restrict(r), P.T @ r) <= 1e-14
        assert relative_gap(transfer.prolong(v, s), s + P @ v) <= 1e-14
        assert relative_gap(transfer.restrict(r - s), P.T @ (r - s)) <= 1e-14
        free = coarse_free
    # the coarsest fixed rows and columns stay unit vectors through Cholesky
    # and inversion
    fixed = np.flatnonzero(~free)
    assert np.array_equal(coarsest[fixed], np.eye(len(free))[fixed])
    assert np.array_equal(coarsest[:, fixed], np.eye(len(free))[:, fixed])


@settings(deadline=None, max_examples=40)
@given(kind=kinds, nx=sizes, nz=sizes, amp=amps, eps=eps_values, k1=k_values, k2=k_values,
       seed=st.integers(0, 2**32 - 1))
def test_mg_cg_matches_direct_solve(kind, nx, nz, amp, eps, k1, k2, seed):
    mesh, K = system(kind, nx, nz, amp, eps, k1, k2)
    A, free = whole_grid(mesh, K), mesh.free_mask.ravel()
    b = zero_at_fixed(mesh, np.random.default_rng(seed).standard_normal(mesh.n_nodes))
    x, record = fem2d.cg_solve(A, b, mesh.free_mask, rtol=1e-13)
    direct = spla.spsolve(A.tocsc(), b)
    assert x.shape == (mesh.n_nodes,)
    assert np.linalg.norm(x - direct) <= 1e-8 * np.linalg.norm(direct)
    assert np.all(x[~free] == 0.0)
    # the record counts the free nodes and the entries between them
    assert record["dofs"] == np.count_nonzero(free)
    assert record["nnz"] == K[free][:, free].nnz


@settings(deadline=None, max_examples=30)
@given(kind=kinds, nx=sizes, nz=sizes, amp=amps, eps=eps_values, seed=st.integers(0, 2**32 - 1))
def test_v_cycle_is_symmetric_positive_definite(kind, nx, nz, amp, eps, seed):
    # on the vectors zero at the fixed nodes, the space of a solve, which the
    # V-cycle maps into itself
    mesh, K = system(kind, nx, nz, amp, eps)
    A, (levels, coarsest) = hierarchy(mesh, K)
    rng = np.random.default_rng(seed)
    u, v = zero_at_fixed(mesh, rng.standard_normal((2, A.shape[0])))
    Mu, Mv = fem2d._v_cycle(levels, coarsest, u), fem2d._v_cycle(levels, coarsest, v)
    assert abs(u @ Mv - v @ Mu) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(Mv)
    assert v @ Mv > 0.0
    assert np.all(Mu[mesh.dirichlet_nodes] == 0.0) and np.all(Mv[mesh.dirichlet_nodes] == 0.0)


@pytest.mark.parametrize("n", [32, 64, 65, 97, 128, 129, 193])
def test_iterations_flat_in_mesh_size(n):
    # odd n coarsens without a one-cell sliver, which took n = 193 to 37
    q = fem2d.assemble_solve(fem2d.build_fitted_mesh(sine(0.2), n, n), FORCING, eps=0.1)
    assert 1 <= q.meta["iterations"] <= 30


@pytest.mark.parametrize("nx, nz", [(2, 300), (300, 2)])
def test_thin_meshes_coarsen_to_a_small_system(nx, nz):
    mesh, K = system("fitted", nx, nz, 0.1, 0.1)
    _, (levels, coarsest) = hierarchy(mesh, K)
    assert len(levels) >= 3
    assert coarsest.shape[0] <= 2000
    q = fem2d.assemble_solve(mesh, FORCING, eps=0.1)
    assert q.meta["rel_residual"] <= 1e-10


def test_solve_record_in_meta(monkeypatch):
    maxiters = []
    cg = fem2d.cg

    def counted(*args, maxiter, **kwargs):
        maxiters.append(maxiter)
        return cg(*args, maxiter=maxiter, **kwargs)

    monkeypatch.setattr(fem2d, "cg", counted)
    fitted = fem2d.assemble_solve(fem2d.build_fitted_mesh(sine(0.2), 16, 16), FORCING, eps=0.1)
    ref = fem2d.build_fitted_mesh(sine(0.0), 16, 16)
    flattened = solve_flattened(sine(0.2), FORCING, 0.1, ref)
    # the default iteration limit follows the number of free nodes, not of all
    assert maxiters == [int(50 * np.sqrt(q.meta["dofs"])) + 10 for q in (fitted, flattened)]
    for q in (fitted, flattened):
        assert {"solver", "iterations", "rel_residual", "dofs", "nnz", "levels",
                "assemble_s", "stiffness_s", "load_s", "solve_s", "mg_setup_s", "min_angle"} <= set(q.meta)
        assert q.meta["assemble_s"] >= 0.0 and q.meta["solve_s"] >= 0.0
        assert q.meta["stiffness_s"] >= 0.0 and q.meta["load_s"] >= 0.0
        # the hierarchy is built inside the solve
        assert 0.0 < q.meta["mg_setup_s"] < q.meta["solve_s"]
        assert q.meta["assemble_s"] == pytest.approx(q.meta["stiffness_s"] + q.meta["load_s"], abs=1e-12)
        assert q.meta["min_angle"] == q.mesh.min_angle() == min_angle_loop(q.mesh)
        assert q.meta["solver"] == "mg-cg"
        assert q.meta["iterations"] >= 1
        assert 0.0 < q.meta["rel_residual"] <= 1e-10
        assert q.meta["dofs"] == q.mesh.n_nodes - len(q.mesh.dirichlet_nodes)
        assert np.all(q.values[q.mesh.dirichlet_nodes] == 0.0)
        assert np.all(q.values[q.mesh.free_mask.ravel()] != 0.0)
        # the P1 matrix between the free nodes: a diagonal plus at most six
        # neighbours per row
        assert q.meta["dofs"] < q.meta["nnz"] <= 7 * q.meta["dofs"]
        assert q.meta["levels"] >= 2


def test_maxiter_exhaustion_raises_with_finite_residual():
    mesh = fem2d.build_fitted_mesh(sine(0.2), 16, 16)
    A = whole_grid(mesh, fem2d.assemble_stiffness(mesh, 0.1, 1.0, 1.0))
    load = zero_at_fixed(mesh, fem2d._load(mesh, FORCING.F, FORCING.f, FORCING.quadrature_order))
    with pytest.raises(fem2d.SolverConvergenceError) as info:
        fem2d.cg_solve(A, load, mesh.free_mask, rtol=1e-14, maxiter=1)
    assert np.isfinite(info.value.residual) and info.value.residual > 0.0


# --- fem2d.cg against scipy.sparse.linalg.cg ----------------------------------


def scipy_cg(A, b, *, rtol, maxiter, M=None):
    """scipy's CG with the same arguments; returns (x, info, iterations)."""
    steps = []
    op = None if M is None else spla.LinearOperator(A.shape, matvec=M)
    x, info = spla.cg(A, b, rtol=rtol, atol=0.0, maxiter=maxiter, M=op, callback=steps.append)
    return x, info, len(steps)


def our_cg(A, b, *, rtol, maxiter, M=None):
    steps = []
    x, info = fem2d.cg(A, b, rtol=rtol, maxiter=maxiter, M=M, callback=steps.append)
    assert all(s is x for s in steps)
    return x, info, len(steps)


@st.composite
def spd_systems(draw):
    """A dense random SPD matrix with a drawn condition number, or a fitted or
    flattened stiffness with its V-cycle as preconditioner."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 30))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        B = (q * np.geomspace(1.0, draw(st.floats(1.0, 1e3)), n)) @ q.T
        return sp.csr_matrix(0.5 * (B + B.T)), rng.standard_normal(n), None
    mesh, K = system(draw(kinds), draw(sizes), draw(sizes), draw(amps), draw(eps_values))
    A, (levels, coarsest) = hierarchy(mesh, K)
    return A, zero_at_fixed(mesh, rng.standard_normal(A.shape[0])), partial(fem2d._v_cycle, levels, coarsest)


@settings(deadline=None, max_examples=60)
@given(case=spd_systems(), rtol=st.floats(1e-12, 1e-4), vcycle=st.booleans())
def test_cg_matches_scipy(case, rtol, vcycle):
    A, b, M = case
    M = M if vcycle else None
    maxiter = 10 * A.shape[0] + 50
    x, info, iters = our_cg(A, b, rtol=rtol, maxiter=maxiter, M=M)
    x_ref, info_ref, iters_ref = scipy_cg(A, b, rtol=rtol, maxiter=maxiter, M=M)
    assert info == info_ref == 0
    assert abs(iters - iters_ref) <= 1
    # CG stops on its recursively updated residual, so rounding can leave the
    # true residual ||Ax - b|| a little above rtol ||b|| (1.46 times it at
    # worst over 30 fresh-database seeds); scipy's cg stops by the same rule
    # and there returns the same x, so the true residual must be scipy's
    bnorm = np.linalg.norm(b)
    residual = np.linalg.norm(A @ x - b)
    assert residual <= rtol * bnorm or residual == np.linalg.norm(A @ x_ref - b)
    # within twice rtol ||b|| where both residuals lie below rtol ||b||, and
    # zero where x is scipy's
    assert np.linalg.norm(A @ (x - x_ref)) <= 2.0 * rtol * bnorm


def test_cg_of_zero_rhs_returns_zeros():
    A = sp.identity(5, format="csr")
    steps = []
    x, info = fem2d.cg(A, np.zeros(5), rtol=1e-10, callback=steps.append)
    assert info == 0 and steps == []
    assert np.array_equal(x, np.zeros(5))


def test_cg_exhausting_maxiter_returns_maxiter():
    mesh, K = system("fitted", 16, 16, 0.2, 0.1)
    A = whole_grid(mesh, K)
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x, info, iters = our_cg(A, b, rtol=1e-14, maxiter=3)
    x_ref, info_ref, iters_ref = scipy_cg(A, b, rtol=1e-14, maxiter=3)
    assert info == info_ref == 3
    assert iters == iters_ref == 3
    assert np.array_equal(x, x_ref)


def test_cg_with_the_exact_inverse_takes_one_step():
    A = sp.diags([2.0, 3.0, 5.0, 7.0], format="csr")
    x, info, iters = our_cg(A, np.ones(4), rtol=1e-12, maxiter=10, M=lambda r: r / A.diagonal())
    assert info == 0 and iters == 1
    assert np.allclose(x, 1.0 / A.diagonal(), rtol=1e-15)


def test_cg_stops_on_a_direction_of_no_positive_curvature():
    A = sp.diags([1.0, -1.0], format="csr")
    with pytest.raises(fem2d.SolverConvergenceError, match="not SPD"):
        fem2d.cg(A, np.ones(2), rtol=1e-10, maxiter=10)


def flat_system():
    """The flat fitted 16 x 16 mesh and its stiffness K over all nodes with
    identity rows at the fixed nodes, as the solve assembles it."""
    mesh = fem2d.build_fitted_mesh(sine(0.0), 16, 16)
    return mesh, whole_grid(mesh, fem2d.assemble_stiffness(mesh, 1.0, 1.0, 1.0))


def test_cg_solve_rejects_an_indefinite_system():
    # K - s D^1/2 H D^1/2 in K's own pattern, D = diag(K) / 4, where the P1
    # stencil H (diagonal 1, W/E/S/N -1/2, SW/NE +1/2) has the symbol
    # 1 - cos(tx) - cos(tz) + cos(tx + tz): 0 on constants and 4 on the
    # checkerboard mode.  At s = 2.5 the checkerboard curves down while the
    # diagonal and the coarse grids, which do not see it, stay positive: only
    # the CG loop can notice
    mesh, A = flat_system()
    j, l = np.divmod(np.arange(A.shape[0]), mesh.free_mask.shape[1])
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    dj, dl = j[A.indices] - j[rows], l[A.indices] - l[rows]
    H = np.where((dj == 0) & (dl == 0), 1.0, np.where(dj == dl, 0.5, -0.5))
    # zero at the fixed nodes, whose identity rows stay as they are
    d = zero_at_fixed(mesh, np.sqrt(A.diagonal() / 4.0))
    A.data -= 2.5 * d[rows] * H * d[A.indices]
    assert A.diagonal().min() > 0.0
    load = zero_at_fixed(mesh, np.random.default_rng(0).standard_normal(A.shape[0]))
    with pytest.raises(fem2d.SolverConvergenceError, match="CG met a direction") as info:
        fem2d.cg_solve(A, load, mesh.free_mask)
    assert np.isfinite(info.value.residual)


def test_cg_solve_rejects_an_indefinite_coarsest_operator_before_cg():
    # 3 K - 2 diag(K), formed in K's pattern, keeps K's positive diagonal,
    # but its smooth modes, which the coarsest grid sees, curve down: the
    # solve stops before the first CG step, with no residual to report
    mesh, K = flat_system()
    A = K.copy()
    A.data *= 3.0
    A.setdiag(A.diagonal() - 2.0 * K.diagonal())
    with pytest.raises(fem2d.SolverConvergenceError, match="coarsest multigrid operator is not SPD") as info:
        fem2d.cg_solve(A, zero_at_fixed(mesh, np.ones(A.shape[0])), mesh.free_mask)
    assert info.value.residual == np.inf


def test_cg_solve_takes_only_the_free_node_p1_matrix():
    # the hierarchy reads each coarse operator off nine probes, which is
    # exact only while every node of A couples inside its 3 x 3 window; so
    # A must have the whole-grid P1 pattern of the mask, explicit zeros
    # included, and a matrix with couplings beyond it, one without K's
    # explicit zeros, K with the mask of another grid, or the matrix of the
    # free nodes alone is refused, not solved; so is a load that is not zero
    # at a fixed node, whose identity row would copy it into the solution
    mesh, K = flat_system()
    free = mesh.free_mask.ravel()
    j, l = np.divmod(np.arange(K.shape[0]), mesh.free_mask.shape[1])
    w = zero_at_fixed(mesh, (-1.0) ** (j + l))
    w /= np.linalg.norm(w)
    pruned = K.copy()
    pruned.eliminate_zeros()
    assert pruned.nnz < K.nnz
    other = fem2d.build_fitted_mesh(sine(0.0), 16, 8).free_mask
    assert other.size != K.shape[0]
    b = zero_at_fixed(mesh, np.ones(K.shape[0]))
    for A, mask in (((K + 8.0 * sp.csr_matrix(np.outer(w, w))).tocsr(), mesh.free_mask),
                    (pruned, mesh.free_mask), (K, other), (K[free][:, free], mesh.free_mask)):
        with pytest.raises(ValueError, match="not the P1 matrix of the mask"):
            fem2d.cg_solve(A, b, mask)
    b[mesh.dirichlet_nodes[len(mesh.dirichlet_nodes) // 2]] = 1.0
    with pytest.raises(ValueError, match="not zero at a fixed node"):
        fem2d.cg_solve(K, b, mesh.free_mask)


@pytest.mark.parametrize("maxiter", [0, -1])
def test_cg_solve_rejects_maxiter_below_one(maxiter):
    # with no iteration CG would hand back the zero vector as a solution
    mesh, K = flat_system()
    with pytest.raises(ValueError, match="maxiter must be at least 1"):
        fem2d.cg_solve(K, zero_at_fixed(mesh, np.ones(K.shape[0])), mesh.free_mask, maxiter=maxiter)
