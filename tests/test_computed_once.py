"""Per-mesh, per-field and per-row invariants computed once: the cached
triangle areas of a mesh (its only stored geometry), the gradient of a
field, and the release of what a 2D solve no longer needs: each study row's
mesh before the next row builds its own, the unperturbed gradient before a
fitted row solves, the averaged flattening metric after each use, the
assembly's couplings before its CSR gather, and the multigrid hierarchy with
its solve."""

import gc
import tracemalloc
import weakref
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
import oracles
from oracles import basis_gradients, bits, field_gradients, sine_shape

from darcyperturb import fem2d, flatten
from darcyperturb.geometry import ForcingSpec, make_perturbation
from darcyperturb.study import run_sequence

ONE2 = lambda x, z: np.ones_like(x)
FORCING = ForcingSpec(F=lambda x, z: np.cos(x + z), f=ONE2)

families = st.one_of(
    st.builds(lambda k: ("sine", {"wavenumber": k}), st.integers(1, 3)),
    st.just(("bump", {})),
    st.builds(lambda c: ("hat", {"knot": c}), st.floats(0.2, 0.8)),
)


def sine(amp, k=1):
    return make_perturbation("sine", {"wavenumber": k}, amp)


@settings(deadline=None, max_examples=40)
@given(nx=st.integers(2, 24), nz=st.integers(2, 24), family=families, amp=st.floats(0.0, 0.9))
def test_cached_areas_equal_fresh_formula(nx, nz, family, amp):
    name, params = family
    mesh = fem2d.build_fitted_mesh(make_perturbation(name, params, amp), nx, nz)
    _, expected_area = basis_gradients(mesh)
    assert np.array_equal(bits(mesh.triangle_areas()), bits(expected_area))


def test_areas_are_computed_once_and_read_only():
    mesh = fem2d.build_fitted_mesh(sine(0.3), 6, 5)
    area = mesh.triangle_areas()
    assert mesh.triangle_areas() is area
    with pytest.raises(ValueError):
        area[0] = 1.0
    # the hat gradients are not part of the mesh
    assert not hasattr(mesh, "basis_gradients")
    assert all(np.shape(v) != (len(area), 3, 2) for v in vars(mesh).values())


def test_field_gradient_is_computed_once_and_read_only():
    mesh = fem2d.build_fitted_mesh(sine(0.3), 6, 5)
    values = np.linspace(0.0, 1.0, mesh.n_nodes)
    fld = fem2d.Field2D(mesh=mesh, values=values)
    g = fld.gradients()
    assert fld.gradients() is g
    assert np.array_equal(g, field_gradients(fld))
    with pytest.raises(ValueError):
        fld.values[0] = 1.0
    with pytest.raises(ValueError):
        g[0, 0] = 1.0


@pytest.mark.parametrize("mode, per_row", [("fitted2d", 2), ("flattened2d", 1)])
def test_sweep_computes_each_field_gradient_once(monkeypatch, mode, per_row):
    # p's gradient serves every row's xi, and a flattened row's V-norm; a
    # flattened row's rho serves its V-norm and both energy splits, and a
    # fitted row's V-norm differentiates p - q, besides q itself
    computed = []
    once = fem2d.Field2D._gradients

    def counted(fld):
        computed.append(fld.label)
        return once.func(fld)

    prop = cached_property(counted)
    prop.__set_name__(fem2d.Field2D, "_gradients")
    monkeypatch.setattr(fem2d.Field2D, "_gradients", prop)
    records = run_sequence(sine_shape, [0.2, 0.1, 0.05], FORCING, 0.5, 8, mode)
    assert [r.status for r in records] == ["ok"] * 3
    assert len(computed) == 3 * per_row + 1
    assert computed.count("fitted-solve") == 1 + (mode == "fitted2d") * 3


def test_meshes_hash_by_identity():
    a = fem2d.build_fitted_mesh(sine(0.0), 4, 4)
    b = fem2d.build_fitted_mesh(sine(0.0), 4, 4)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_metric_is_formed_per_zeta_and_read_only():
    # no memo: every call forms the metric of its own zeta afresh, the same
    # bits for the same zeta, and the stiffness follows it
    ref = fem2d.build_fitted_mesh(sine(0.0), 8, 8)
    z1, z2 = sine(0.3), sine(0.1, k=2)
    first, second, again = (flatten._averaged_metric(ref, z) for z in (z1, z2, z1))
    assert again is not first and np.array_equal(bits(again), bits(first))
    assert flatten._averaged_metric(ref, z1) is not flatten._averaged_metric(ref, z1)
    assert not np.array_equal(first, second)
    assert not any(m.flags.writeable for m in (first, second, again))
    for z, metric in ((z1, first), (z2, second)):
        K = flatten.assemble_flattened_stiffness(ref, z, 0.1)
        every = np.ones(ref.levels.shape, dtype=bool)
        assert np.array_equal(K.toarray(), fem2d._assemble_p1(ref, metric, 0.1, 1.0, 1.0, every).toarray())


def test_energy_split_uses_its_own_zeta():
    # the split after a solve of another zeta reads the metric of its own
    ref = fem2d.build_fitted_mesh(sine(0.0), 8, 8)
    z1, z2 = sine(0.3), sine(0.1, k=2)
    rho = flatten.solve_flattened(z1, FORCING, 0.1, ref)
    split = flatten.flattened_energy_split(rho, z2, 0.1)
    assert split[:3] == pytest.approx(oracles.flattened_energy_split(rho, z2, 0.1), rel=1e-12)
    assert split == flatten.flattened_energy_split(rho, z2, 0.1)
    assert split != flatten.flattened_energy_split(rho, z1, 0.1)


def test_flattened_sweep_keeps_no_metric(monkeypatch):
    # each row's solve and energy split form the metric for themselves, and
    # it dies with them: no metric array outlives its use
    formed = []
    metric = flatten._averaged_metric

    def tracked(mesh, zeta):
        m = metric(mesh, zeta)
        formed.append(weakref.ref(m))
        return m

    monkeypatch.setattr(flatten, "_averaged_metric", tracked)
    gc.disable()  # release by reference count, not by a collector pass
    try:
        records = run_sequence(sine_shape, [0.2, 0.1, 0.05], FORCING, 0.5, 8, "flattened2d")
    finally:
        gc.enable()
    assert [r.status for r in records] == ["ok"] * 3
    assert len(formed) == 2 * 3
    assert [k for k, ref in enumerate(formed) if ref() is not None] == []


def test_fitted_rows_solve_while_no_gradient_of_p_is_alive(monkeypatch):
    # every row's xi_p is read off p before the first row solves, and a
    # fitted gap differentiates p - q, not p: no field on the flat mesh
    # holds a gradient through a row's assembly and solve
    meshes, held = [], []
    build, solve = fem2d.build_fitted_mesh, fem2d.cg_solve

    def kept(zeta, nx, nz):
        meshes.append(build(zeta, nx, nz))
        return meshes[-1]

    def watched(*args, **kwargs):
        held.append([obj.label for obj in gc.get_objects()
                     if isinstance(obj, fem2d.Field2D) and obj.mesh is meshes[0] and "_gradients" in vars(obj)])
        return solve(*args, **kwargs)

    monkeypatch.setattr(fem2d, "build_fitted_mesh", kept)
    monkeypatch.setattr(fem2d, "cg_solve", watched)
    records = run_sequence(sine_shape, [0.2, 0.1, 0.05], FORCING, 0.5, 8, "fitted2d")
    assert [r.status for r in records] == ["ok"] * 3
    # p's own solve, then one per row
    assert held == [[]] * 4


@settings(deadline=None, max_examples=30)
@given(nx=st.integers(2, 12), ratio=st.integers(1, 3), nz=st.integers(2, 12), nz_b=st.integers(2, 12),
       family=families, amp=st.floats(0.0, 0.9), amp_b=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1))
def test_two_mesh_gap_differentiates_one_field_and_caches_no_gradient(nx, ratio, nz, nz_b, family, amp,
                                                                      amp_b, seed):
    # b lives on another mesh whose columns include a's: the gap is that of
    # the two fields' own gradients, b resampled onto a's mesh, and neither
    # field is left holding a gradient
    name, params = family
    rng = np.random.default_rng(seed)
    fields = []
    for mesh in (fem2d.build_fitted_mesh(make_perturbation(name, params, amp), nx, nz),
                 fem2d.build_fitted_mesh(sine(amp_b), ratio * nx, nz_b)):
        fields.append(fem2d.Field2D(mesh=mesh, values=rng.standard_normal(mesh.n_nodes)))
    a, b = fields
    gap = fem2d.vnorm_diff_2d(a, b)
    assert not any("_gradients" in vars(fld) for fld in (a, b))
    diff = fem2d.Field2D(mesh=a.mesh, values=a.values).gradients() - fem2d.resample(b, a.mesh).gradients()
    expected = np.sqrt(np.sum(a.mesh.triangle_areas() * np.sum(diff * diff, axis=1)))
    assert gap == pytest.approx(expected, rel=1e-12)


def test_flattened_sweep_keeps_no_multigrid_state():
    # the hierarchy, transfers included, dies with each solve: once a sweep
    # is done, fem2d holds no cache and no array or sparse matrix of its own
    records = run_sequence(sine_shape, [0.2, 0.1, 0.05], FORCING, 0.5, 8, "flattened2d")
    assert [r.status for r in records] == ["ok"] * 3
    held = [name for name, value in vars(fem2d).items()
            if getattr(value, "__module__", None) == fem2d.__name__ and hasattr(value, "cache_info")
            or isinstance(value, np.ndarray) or sp.issparse(value)]
    assert held == []


@pytest.mark.parametrize("kind", ["fitted", "flattened"])
def test_cg_solve_peak_is_the_coarse_operators_and_sixteen_grid_vectors(kind):
    # the caller holds the fine A and b; above them a solve holds the coarse
    # CSR operators and at most 16 node-grid arrays: the smoother weights of
    # every level (about 1.3), CG's vectors (about 5) and one V-cycle's
    # (about 4.6); 11.4-11.5 were measured for both kinds (11.9-12.0 while
    # CG and the V-cycle made a temporary per step), the hierarchy build
    # below it (next test), and stored transfers or sparse Galerkin products
    # took the peak to about 21
    mesh = fem2d.build_fitted_mesh(sine(0.0), 64, 64)
    free = mesh.free_mask
    metric = fem2d._IDENTITY if kind == "fitted" else flatten._averaged_metric(mesh, sine(0.3))
    A = fem2d._assemble_p1(mesh, metric, 0.5, 1.0, 1.0, free)
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    b[mesh.dirichlet_nodes] = 0.0
    # a solve on another grid first: the peak must not rest on anything an
    # earlier solve of this grid left behind
    other = fem2d.assemble_solve(fem2d.build_fitted_mesh(sine(0.0), 8, 8), FORCING, eps=0.5)
    assert other.meta["iterations"] >= 1
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fem2d.cg_solve(A, b, free)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    levels, _ = fem2d._multigrid_levels(A, free)
    coarse = sum(B.data.nbytes + B.indices.nbytes + B.indptr.nbytes for B, *_ in levels[1:])
    assert peak <= coarse + 16 * mesh.n_nodes * 8


@pytest.mark.parametrize("kind", ["fitted", "flattened"])
def test_multigrid_build_peak_is_the_coarse_operators_and_six_grid_vectors(kind):
    # the build reads A only through its matvec: nine probes per level, each
    # written straight into the coarse stencil planes.  Its peak is the row
    # sums of |A| for the fine smoother weights (A's entries, about 7
    # node-grid arrays, for one pass), before any coarse operator exists;
    # probing the first level holds the weights, the coarse stencil (2.25)
    # and a probe's fine vectors (about 2.5).  4.6-4.7 node-grid arrays
    # above the coarse operators were measured; reading A's stencil back a
    # block of columns at a time took 6.9-7.0
    mesh = fem2d.build_fitted_mesh(sine(0.0), 64, 64)
    free = mesh.free_mask
    metric = fem2d._IDENTITY if kind == "fitted" else flatten._averaged_metric(mesh, sine(0.3))
    A = fem2d._assemble_p1(mesh, metric, 0.5, 1.0, 1.0, free)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        levels, _ = fem2d._multigrid_levels(A, free)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    coarse = sum(B.data.nbytes + B.indices.nbytes + B.indptr.nbytes for B, *_ in levels[1:])
    assert peak <= coarse + 6 * mesh.n_nodes * 8


@pytest.mark.parametrize("kind", ["fitted", "flattened"])
def test_assembly_peak_is_the_stencil_and_the_csr_arrays(kind):
    # the six coupling arrays, each about the size of a node-grid array, are
    # freed once summed into the stencil, so above its entry the assembly
    # holds at most the stencil, the CSR arrays and a slack of four node-grid
    # arrays
    mesh = fem2d.build_fitted_mesh(sine(0.0), 64, 64)
    metric = fem2d._IDENTITY if kind == "fitted" else flatten._averaged_metric(mesh, sine(0.3))
    fem2d._assemble_p1(mesh, metric, 0.5, 1.0, 1.0, mesh.free_mask)  # the mesh's cached views
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        K = fem2d._assemble_p1(mesh, metric, 0.5, 1.0, 1.0, mesh.free_mask)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    grid = mesh.n_nodes * 8
    assert peak <= 7 * grid + K.data.nbytes + K.indices.nbytes + K.indptr.nbytes + 4 * grid


def test_row_mesh_released_before_next_row(monkeypatch):
    built = []
    alive = []
    build = fem2d.build_fitted_mesh

    def tracked(zeta, nx, nz):
        # the first mesh is the sweep's reference mesh and lives throughout
        alive.append([ref() is not None for ref in built[1:]])
        mesh = build(zeta, nx, nz)
        built.append(weakref.ref(mesh))
        return mesh

    monkeypatch.setattr(fem2d, "build_fitted_mesh", tracked)
    gc.disable()  # release by reference count, not by a collector pass
    try:
        records = run_sequence(sine_shape, [0.2, 0.1, 0.05], FORCING, 0.5, 8, "fitted2d")
    finally:
        gc.enable()
    assert [r.status for r in records] == ["ok"] * 3
    assert len(built) == 4
    assert alive == [[], [], [False], [False, False]]


@pytest.mark.parametrize("mode", ["fitted2d", "flattened2d"])
def test_study_solves_without_a_full_matrix_or_hat_gradients(monkeypatch, mode):
    # a sweep's solves assemble on the free nodes only, so the public full
    # assemblers are never called, and no mesh keeps per-triangle gradients
    def refuse(*args, **kwargs):
        raise AssertionError("the full stiffness was assembled")

    monkeypatch.setattr(fem2d, "assemble_stiffness", refuse)
    monkeypatch.setattr(flatten, "assemble_flattened_stiffness", refuse)
    meshes = []
    build = fem2d.build_fitted_mesh

    def kept(zeta, nx, nz):
        meshes.append(build(zeta, nx, nz))
        return meshes[-1]

    monkeypatch.setattr(fem2d, "build_fitted_mesh", kept)
    records = run_sequence(sine_shape, [0.2, 0.1], FORCING, 0.5, 8, mode)
    assert [r.status for r in records] == ["ok"] * 2
    assert len(meshes) == (3 if mode == "fitted2d" else 1)
    for mesh in meshes:
        n_tri = 2 * mesh.nx * 2 * mesh.nz
        assert all(np.shape(v) != (n_tri, 3, 2) for v in vars(mesh).values())
