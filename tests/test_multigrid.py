"""Multigrid-preconditioned CG: agreement with a direct solve, symmetry of the
V-cycle, iteration counts flat in the mesh size, and the solve record."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from darcyperturb import fem2d
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


def hierarchy(mesh, K):
    """Reduced system on the free nodes and its multigrid hierarchy."""
    mask = np.ones(mesh.n_nodes, dtype=bool)
    mask[mesh.dirichlet_nodes] = False
    free = np.flatnonzero(mask)
    A = K[free][:, free]
    return A, free, fem2d._multigrid_levels(A, mask.reshape(mesh.node_grid.shape))


kinds = st.sampled_from(["fitted", "flattened"])
sizes = st.integers(2, 24)
amps = st.floats(0.0, 0.6)
eps_values = st.floats(0.01, 1.0)
k_values = st.floats(0.1, 10.0)


@settings(deadline=None, max_examples=40)
@given(kind=kinds, nx=sizes, nz=sizes, amp=amps, eps=eps_values, k1=k_values, k2=k_values,
       seed=st.integers(0, 2**32 - 1))
def test_mg_cg_matches_direct_solve(kind, nx, nz, amp, eps, k1, k2, seed):
    mesh, K = system(kind, nx, nz, amp, eps, k1, k2)
    load = np.random.default_rng(seed).standard_normal(mesh.n_nodes)
    values, record = fem2d.cg_solve(K, load, mesh.dirichlet_nodes, mesh.node_grid.shape, rtol=1e-13)
    A, free, _ = hierarchy(mesh, K)
    direct = spla.spsolve(A.tocsc(), load[free])
    assert np.linalg.norm(values[free] - direct) <= 1e-8 * np.linalg.norm(direct)
    assert np.all(values[mesh.dirichlet_nodes] == 0.0)
    assert record["dofs"] == len(free)
    assert record["nnz"] == A.nnz


@settings(deadline=None, max_examples=30)
@given(kind=kinds, nx=sizes, nz=sizes, amp=amps, eps=eps_values, seed=st.integers(0, 2**32 - 1))
def test_v_cycle_is_symmetric_positive_definite(kind, nx, nz, amp, eps, seed):
    mesh, K = system(kind, nx, nz, amp, eps)
    A, _, (levels, coarsest) = hierarchy(mesh, K)
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal((2, A.shape[0]))
    Mu, Mv = fem2d._v_cycle(levels, coarsest, u), fem2d._v_cycle(levels, coarsest, v)
    assert abs(u @ Mv - v @ Mu) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(Mv)
    assert v @ Mv > 0.0


@pytest.mark.parametrize("n", [32, 64, 128])
def test_iterations_flat_in_mesh_size(n):
    q = fem2d.assemble_solve(fem2d.build_fitted_mesh(sine(0.2), n, n), FORCING, eps=0.1)
    assert 1 <= q.meta["iterations"] <= 30


@pytest.mark.parametrize("nx, nz", [(2, 300), (300, 2)])
def test_thin_meshes_coarsen_to_a_small_system(nx, nz):
    mesh, K = system("fitted", nx, nz, 0.1, 0.1)
    _, _, (levels, coarsest) = hierarchy(mesh, K)
    assert len(levels) >= 3
    assert coarsest[0].shape[0] <= 2000
    q = fem2d.assemble_solve(mesh, FORCING, eps=0.1)
    assert q.meta["rel_residual"] <= 1e-10


def test_solve_record_in_meta():
    fitted = fem2d.assemble_solve(fem2d.build_fitted_mesh(sine(0.2), 16, 16), FORCING, eps=0.1)
    ref = fem2d.build_fitted_mesh(sine(0.0), 16, 16)
    flattened = solve_flattened(sine(0.2), FORCING, 0.1, ref)
    for q in (fitted, flattened):
        assert {"solver", "iterations", "rel_residual", "dofs", "nnz", "levels",
                "assemble_s", "solve_s"} <= set(q.meta)
        assert q.meta["assemble_s"] >= 0.0 and q.meta["solve_s"] >= 0.0
        assert q.meta["solver"] == "mg-cg"
        assert q.meta["iterations"] >= 1
        assert 0.0 < q.meta["rel_residual"] <= 1e-10
        assert q.meta["dofs"] == q.mesh.n_nodes - len(q.mesh.dirichlet_nodes)
        # the reduced P1 matrix: a diagonal plus at most six neighbours per row
        assert q.meta["dofs"] < q.meta["nnz"] <= 7 * q.meta["dofs"]
        assert q.meta["levels"] >= 2


def test_maxiter_exhaustion_raises_with_finite_residual():
    mesh = fem2d.build_fitted_mesh(sine(0.2), 16, 16)
    with pytest.raises(fem2d.SolverConvergenceError) as info:
        fem2d.assemble_solve(mesh, FORCING, eps=0.1, rtol=1e-14, maxiter=1)
    assert np.isfinite(info.value.residual) and info.value.residual > 0.0
