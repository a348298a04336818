import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from darcyperturb import fem2d, flatten
from darcyperturb.geometry import FLAT_ZETA, ForcingSpec, lower_bound_constant, make_perturbation
from oracles import min_angle_loop
from darcyperturb.fem2d import (
    assemble_interface_load,
    assemble_solve,
    assemble_stiffness,
    assemble_volume_load,
    Field2D,
    build_fitted_mesh,
    energy_split,
    resample,
    vnorm_diff_2d,
)

ZERO2 = lambda x, z: np.zeros_like(x)
ONE2 = lambda x, z: np.ones_like(x)


def sine(amp, k=1):
    return make_perturbation("sine", {"wavenumber": k}, amp)


def forcing(F=ZERO2, f=ZERO2, order=4):
    return ForcingSpec(F=F, f=f, quadrature_order=order)


def test_mesh_counts_flat():
    m = build_fitted_mesh(sine(0.0), 2, 2)
    assert len(m.triangles) == 16
    assert m.n_nodes == 15
    assert np.allclose(m.zeta_at_cols, 0.0)
    assert np.min(m.triangle_areas()) > 1e-14


def test_mesh_region_areas():
    z = sine(0.25)
    m = build_fitted_mesh(z, 32, 32)
    areas = m.triangle_areas()
    assert np.min(areas) > 1e-14
    a1 = areas[m.region == 1].sum()
    a2 = areas[m.region == 2].sum()
    assert a1 == pytest.approx(1.0 + 0.25 * 2 / np.pi, abs=1e-3)
    assert a2 == pytest.approx(1.0 - 0.25 * 2 / np.pi, abs=1e-3)


def test_mesh_interface_polyline():
    for amp in (0.0, 0.1, 0.3):
        m = build_fitted_mesh(sine(amp, k=2), 24, 8)
        length = np.hypot(np.diff(m.col_x), np.diff(m.zeta_at_cols)).sum()
        assert length >= 1.0 - 1e-12
        # each edge between neighbouring interface nodes separates one
        # region-1 from one region-2 triangle
        iface = m.node_grid[:, m.nz]
        edge_set = {tuple(sorted(e)) for e in zip(iface[:-1], iface[1:])}
        touching = {e: [] for e in edge_set}
        for t, tri in enumerate(m.triangles):
            for a in range(3):
                e = tuple(sorted((tri[a], tri[(a + 1) % 3])))
                if e in touching:
                    touching[e].append(m.region[t])
        for e, regs in touching.items():
            assert sorted(regs) == [1, 2]


@pytest.mark.parametrize("nx,nz", [(3, 5), (7, 2)])
def test_mesh_layout(nx, nz):
    zeta = sine(0.2, k=2)
    m = build_fitted_mesh(zeta, nx, nz)
    g = m.node_grid
    assert g.shape == (nx + 1, 2 * nz + 1)
    assert m.triangles.shape == (4 * nx * nz, 3)
    # quad (j, l) -> triangles 2(j*2nz + l) and 2(j*2nz + l) + 1, region by level
    for j in range(nx):
        for l in range(2 * nz):
            t = 2 * (j * 2 * nz + l)
            assert tuple(m.triangles[t]) == (g[j, l], g[j + 1, l], g[j + 1, l + 1])
            assert tuple(m.triangles[t + 1]) == (g[j, l], g[j + 1, l + 1], g[j, l + 1])
            assert m.region[t] == m.region[t + 1] == (1 if l < nz else 2)
    assert m.triangles.dtype == m.region.dtype == np.int64

    # the Dirichlet set: the bottom, and the walls up to the interface level
    bottom = {g[j, 0] for j in range(nx + 1)}
    walls_below = {g[c, l] for c in (0, nx) for l in range(nz + 1)}
    assert set(m.dirichlet_nodes) == bottom | walls_below
    assert len(m.dirichlet_nodes) == (nx + 1) + 2 * nz
    assert np.array_equal(m.dirichlet_nodes, np.flatnonzero(~m.free_mask))
    assert m.free_mask.shape == g.shape and not m.free_mask.flags.writeable

    # level nz of every column is its interface node, at the height zeta(col_x)
    assert np.array_equal(m.zeta_at_cols, m.levels[:, nz])
    assert np.allclose(m.levels[:, nz], zeta.value(m.col_x), atol=1e-15)
    assert np.array_equal(m.nodes[g[:, nz]], np.column_stack([m.col_x, m.levels[:, nz]]))


def test_mesh_dirichlet_side():
    m = build_fitted_mesh(sine(0.2), 8, 8)
    dn = m.nodes[m.dirichlet_nodes]
    # bottom plus lateral walls below the (pinned) interface
    assert np.all((np.abs(dn[:, 1] + 1.0) < 1e-12) | (dn[:, 0] < 1e-12) | (dn[:, 0] > 1 - 1e-12))
    assert np.all(dn[:, 1] <= 1e-12)


def test_mesh_rejects_bad_input():
    with pytest.raises(ValueError):
        build_fitted_mesh(sine(0.1), 1, 8)


def test_min_angle():
    for amp in (0.0, 0.1, 0.2):
        m = build_fitted_mesh(sine(amp), 32, 32)
        assert m.min_angle() > 10.0


@settings(deadline=None, max_examples=60)
@given(family=st.sampled_from(["sine", "bump", "hat"]), amp=st.floats(0.0, 0.9),
       nx=st.integers(2, 24), nz=st.integers(2, 24))
def test_min_angle_matches_corner_loop(family, amp, nx, nz):
    m = build_fitted_mesh(make_perturbation(family, {}, amp), nx, nz)
    assert m.min_angle() == min_angle_loop(m)


def test_zero_data_zero_solution():
    m = build_fitted_mesh(sine(0.2), 12, 12)
    q = assemble_solve(m, forcing(), eps=0.5)
    assert np.max(np.abs(q.values)) == 0.0
    assert energy_split(q, 0.5) == (0.0, 0.0, 0.0, 0.0)


def test_linearity():
    m = build_fitted_mesh(sine(0.15), 16, 16)
    f1 = forcing(F=lambda x, z: x * z, f=lambda x, z: np.cos(x))
    f2 = forcing(F=lambda x, z: 2 * x * z, f=lambda x, z: 2 * np.cos(x))
    q1 = assemble_solve(m, f1, eps=0.5)
    q2 = assemble_solve(m, f2, eps=0.5)
    scale = np.max(np.abs(q1.values))
    assert np.max(np.abs(q2.values - 2 * q1.values)) < 1e-9 * max(scale, 1.0)


def test_midline_profile_bounded_positive():
    m = build_fitted_mesh(sine(0.0), 32, 32)
    q = assemble_solve(m, forcing(f=ONE2), eps=0.5)
    zs = np.linspace(-1, 1, 33)
    vals = fem2d._interp_columns(q, np.array([0.5]), zs[None])
    assert np.all(np.isfinite(vals))
    assert np.all(vals[1:] > 0.0)
    assert np.max(vals) < 2.0


def test_manufactured_solution_first_order():
    # separable exact solution matching all boundary and interface conditions
    from darcyperturb.quadrature import triangle_rule

    c, eps = 0.7, 0.5
    X = lambda x: x**2 * (1 - x) ** 2
    dX = lambda x: 2 * x * (1 - x) ** 2 - 2 * x**2 * (1 - x)
    d2X = lambda x: 2 - 12 * x + 12 * x**2
    Z2 = lambda z: 1 + c * (z - z**2 / 2)

    def grad_exact(x, z):
        gx = np.where(z <= 0, dX(x) * (1 + z), dX(x) * Z2(z))
        gz = np.where(z <= 0, X(x), X(x) * c * (1 - z))
        return gx, gz

    def F(x, z):
        return np.where(z <= 0, -d2X(x) * (1 + z), -(1 / eps) * (d2X(x) * Z2(z) - c * X(x)))

    fr = forcing(F=F, f=lambda x, z: X(x) * (1.0 - c / eps))
    bary, wq = triangle_rule(4)
    errs = []
    for n in (8, 16, 32):
        mesh = build_fitted_mesh(sine(0.0), n, n)
        ph = assemble_solve(mesh, fr, eps=eps)
        qp = np.einsum("qa,tad->tqd", bary, mesh.nodes[mesh.triangles])
        gx, gz = grad_exact(qp[..., 0], qp[..., 1])
        gh = ph.gradients()
        dens = (gx - gh[:, None, 0]) ** 2 + (gz - gh[:, None, 1]) ** 2
        errs.append(float(np.sqrt(np.sum(mesh.triangle_areas() * (dens @ wq)))))
    for e1, e2 in zip(errs, errs[1:]):
        assert 0.45 < e2 / e1 < 0.56  # first order in the V-norm


def test_self_convergence_decreasing():
    # wall corners limit the rate below O(h); assert a strict decrease instead
    fr = forcing(f=ONE2)
    sols = {n: assemble_solve(build_fitted_mesh(sine(0.0), n, n), fr, eps=0.5) for n in (8, 16, 32, 64)}
    diffs = [vnorm_diff_2d(sols[a], sols[b]) for a, b in ((8, 16), (16, 32), (32, 64))]
    assert all(d2 < 0.9 * d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_vnorm_same_field_and_other_mesh():
    m = build_fitted_mesh(sine(0.1), 8, 8)
    q = assemble_solve(m, forcing(f=ONE2), eps=0.5)
    assert vnorm_diff_2d(q, q) == 0.0
    ref = build_fitted_mesh(sine(0.0), 8, 8)
    p = assemble_solve(ref, forcing(f=ONE2), eps=0.5)
    assert vnorm_diff_2d(p, q) > 0.0


def test_vnorm_gap_decreases_with_amplitude():
    fr = forcing(f=ONE2)
    ref = build_fitted_mesh(sine(0.0), 32, 32)
    p = assemble_solve(ref, fr, eps=0.5)
    gaps = []
    for amp in (0.25, 0.125):
        q = assemble_solve(build_fitted_mesh(sine(amp), 32, 32), fr, eps=0.5)
        gaps.append(vnorm_diff_2d(p, q))
    assert gaps[1] < gaps[0]


def test_vnorm_rejects_incompatible_columns():
    m1 = build_fitted_mesh(sine(0.0), 10, 8)
    m2 = build_fitted_mesh(sine(0.0), 12, 8)
    a = assemble_solve(m1, forcing(f=ONE2), eps=0.5)
    b = assemble_solve(m2, forcing(f=ONE2), eps=0.5)
    with pytest.raises(ValueError):
        vnorm_diff_2d(a, b)


def test_galerkin_energy_identity():
    for amp, eps in ((0.0, 0.5), (0.2, 0.1)):
        m = build_fitted_mesh(sine(amp), 24, 24)
        q = assemble_solve(m, forcing(F=lambda x, z: x + z, f=lambda x, z: 1 + x), eps=eps)
        total = energy_split(q, eps)[2]
        assert total == pytest.approx(q.meta["load_functional"], rel=1e-8)


def test_energy_interface_identity_flat():
    # flat interface: total energy equals int_Gamma q dS for f = 1, F = 0
    m = build_fitted_mesh(sine(0.0), 32, 32)
    q = assemble_solve(m, forcing(f=ONE2), eps=0.5)
    total = energy_split(q, 0.5)[2]
    iface_nodes = m.node_grid[:, m.nz]
    xg = m.nodes[iface_nodes, 0]
    vals = q.values[iface_nodes]
    integral = np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(xg))  # trapezoid rule
    assert total == pytest.approx(integral, rel=1e-8)


def test_galerkin_orthogonality():
    m = build_fitted_mesh(sine(0.15), 16, 16)
    fr = forcing(F=lambda x, z: np.sin(x + z), f=lambda x, z: np.cos(x))
    q = assemble_solve(m, fr, eps=0.25)
    K = assemble_stiffness(m, 0.25, 1.0, 1.0)
    load = assemble_volume_load(m, fr.F) + assemble_interface_load(m, fr.f)
    res = K @ q.values - load
    free = np.setdiff1d(np.arange(m.n_nodes), m.dirichlet_nodes)
    rng = np.random.default_rng(21)
    scale = np.linalg.norm(load)
    for _ in range(50):
        v = np.zeros(m.n_nodes)
        v[free] = rng.normal(size=len(free))
        assert abs(v @ res) < 1e-8 * scale * np.linalg.norm(v)


def test_coercivity_inequality_random_fields():
    rng = np.random.default_rng(4)
    eps = 0.1
    for amp in (0.1, 0.2):
        z = sine(amp, k=2)
        m = build_fitted_mesh(z, 24, 24)
        c_z = lower_bound_constant(z, eps)
        free = np.setdiff1d(np.arange(m.n_nodes), m.dirichlet_nodes)
        from darcyperturb.fem2d import Field2D

        for _ in range(20):
            vals = np.zeros(m.n_nodes)
            vals[free] = rng.normal(size=len(free))
            fld = Field2D(mesh=m, values=vals)
            _, _, a_zeta, a_flat = energy_split(fld, eps)
            assert a_zeta >= c_z * a_flat - 1e-9 * a_flat


def test_energy_split_flat_partition():
    z = sine(0.2)
    m = build_fitted_mesh(z, 16, 16)
    rng = np.random.default_rng(9)
    from darcyperturb.fem2d import Field2D

    vals = rng.normal(size=m.n_nodes)
    fld = Field2D(mesh=m, values=vals)
    e1, e2, total, flat_total = energy_split(fld, 1.0)
    # eps = 1: both splits sum to the same plain Dirichlet energy
    assert e1 + e2 == total == pytest.approx(flat_total, rel=1e-12)


SHAPES = {"sine": {"wavenumber": 1}, "bump": {}, "hat": {"knot": 0.5}}


@settings(deadline=None, max_examples=40)
@given(nx=st.integers(2, 24), nz=st.integers(2, 24), family=st.sampled_from(sorted(SHAPES)),
       amp=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1))
def test_resample_identity(nx, nz, family, amp, seed):
    m = build_fitted_mesh(make_perturbation(family, SHAPES[family], amp), nx, nz)
    rng = np.random.default_rng(seed)
    q = Field2D(mesh=m, values=rng.standard_normal(m.n_nodes))
    assert np.array_equal(resample(q, m).values, q.values)
    # the flat interface maps every height to itself
    for direction in ("T", "T_inverse"):
        assert np.array_equal(flatten.t_apply(FLAT_ZETA, q, direction, m).values, q.values)


@settings(deadline=None, max_examples=60)
@given(nx=st.integers(2, 16), nz=st.integers(2, 16), family=st.sampled_from(sorted(oracles.FLAT_SPLIT_SHAPES)),
       sign=st.sampled_from([1, -1]), amp=st.floats(0.0, 0.8), eps=st.floats(0.05, 1.0),
       k1=st.floats(0.1, 10.0), k2=st.floats(0.1, 10.0), tensor=st.sampled_from(["identity", "metric"]),
       fitted=st.booleans())
def test_grid_assembly_matches_the_coo_reference(nx, nz, family, sign, amp, eps, k1, k2, tensor, fitted):
    # the seven stencil arrays give the pattern of the COO sum exactly and its
    # entries up to the order of summation
    zeta = oracles.signed_shape(family, amp, sign)
    mesh = build_fitted_mesh(zeta if fitted else FLAT_ZETA, nx, nz)
    metric = fem2d._IDENTITY if tensor == "identity" else flatten._averaged_metric(mesh, zeta)
    K = fem2d._assemble_p1(mesh, metric, eps, k1, k2)
    ref = oracles.assemble_p1(mesh, metric, eps, k1, k2)
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    row_max = np.repeat(np.maximum.reduceat(np.abs(ref.data), ref.indptr[:-1]), np.diff(ref.indptr))
    assert np.all(np.abs(K.data - ref.data) <= 1e-13 * row_max)


@settings(deadline=None, max_examples=40)
@given(nx=st.integers(2, 24), nz=st.integers(2, 24), family=st.sampled_from(sorted(oracles.FLAT_SPLIT_SHAPES)),
       sign=st.sampled_from([1, -1]), amp=st.floats(0.0, 0.8))
def test_node_grid_views_match_the_listed_mesh(nx, nz, family, sign, amp):
    # every connectivity view and the areas of the node-grid mesh are the
    # connectivity lists it once stored, bit for bit
    zeta = oracles.signed_shape(family, amp, sign)
    for mesh, listed in ((build_fitted_mesh(zeta, nx, nz), oracles.listed_mesh(zeta, nx, nz)),
                         (build_fitted_mesh(FLAT_ZETA, nx, nz), oracles.listed_mesh(FLAT_ZETA, nx, nz))):
        for name in ("nodes", "triangles", "region", "node_grid", "dirichlet_nodes"):
            view, expected = getattr(mesh, name), getattr(listed, name)
            assert view.dtype == expected.dtype and view.shape == expected.shape
            assert np.array_equal(view.view(np.int64), expected.view(np.int64))
            assert not view.flags.writeable and getattr(mesh, name) is view
        assert np.array_equal(oracles.bits(mesh.zeta_at_cols), oracles.bits(listed.zeta_at_cols))
        assert np.array_equal(oracles.bits(mesh.triangle_areas()), oracles.bits(listed.area))
        assert mesh.min_angle() == min_angle_loop(mesh)


@settings(deadline=None, max_examples=60)
@given(nx=st.integers(2, 24), nz=st.integers(2, 24), family=st.sampled_from(sorted(oracles.FLAT_SPLIT_SHAPES)),
       sign=st.sampled_from([1, -1]), amp=st.floats(0.0, 0.8), scale=st.integers(-6, 6),
       seed=st.integers(0, 2**32 - 1))
def test_grid_gradients_equal_the_hat_gradient_einsum(nx, nz, family, sign, amp, scale, seed):
    # the corner differences of the node grid, summed hat by hat, are the
    # einsum over the per-triangle hat gradients that the mesh once stored
    zeta = oracles.signed_shape(family, amp, sign)
    for mesh in (build_fitted_mesh(zeta, nx, nz), build_fitted_mesh(FLAT_ZETA, nx, nz)):
        values = np.random.default_rng(seed).standard_normal(mesh.n_nodes) * 10.0**scale
        fld = Field2D(mesh=mesh, values=values)
        assert np.array_equal(oracles.bits(fld.gradients()), oracles.bits(oracles.field_gradients(fld)))


# sources of both kinds for the load properties: polynomials, and
# transcendental functions that change sign inside the slab
SOURCES_2D = {
    "1": lambda x, z: np.ones_like(x),
    "x z": lambda x, z: x * z,
    "x^3 - 2 x z^2 + z": lambda x, z: x**3 - 2.0 * x * z**2 + z,
    "sin(3x + 2z)": lambda x, z: np.sin(3.0 * x + 2.0 * z),
    "exp(x) cos(4z)": lambda x, z: np.exp(x) * np.cos(4.0 * z),
    "sqrt(1 + x^2 + z^2)": lambda x, z: np.sqrt(1.0 + x**2 + z**2),
}


@settings(deadline=None, max_examples=60)
@given(nx=st.integers(2, 20), nz=st.integers(2, 20), family=st.sampled_from(sorted(oracles.FLAT_SPLIT_SHAPES)),
       sign=st.sampled_from([1, -1]), amp=st.floats(0.0, 0.8), source=st.sampled_from(sorted(SOURCES_2D)),
       flux=st.sampled_from(sorted(SOURCES_2D)), order=st.sampled_from([4, 6]), flattened=st.booleans())
def test_node_grid_loads_match_the_per_triangle_load(nx, nz, family, sign, amp, source, flux, order, flattened):
    # the loads added into the node grid by slices are the loads gathered and
    # scattered through the triangle list, up to the order of summation;
    # order 4 selects the degree-2 triangle rule and order 6 the degree-4 one
    zeta = oracles.signed_shape(family, amp, sign)
    F, f = SOURCES_2D[source], SOURCES_2D[flux]
    degree, gauss = (2, 4) if order == 4 else (4, 6)
    if flattened:
        mesh, listed = build_fitted_mesh(FLAT_ZETA, nx, nz), oracles.listed_mesh(FLAT_ZETA, nx, nz)
        load = flatten.assemble_flattened_load(mesh, zeta, forcing(F=F, f=f, order=order))
        F = oracles.pulled_back_source(zeta, F)
        f = lambda x, z, f=f: np.sqrt(1.0 + zeta.gradient(x) ** 2) * f(x, zeta.value(x))
    else:
        mesh, listed = build_fitted_mesh(zeta, nx, nz), oracles.listed_mesh(zeta, nx, nz)
        load = fem2d._load(mesh, F, f, order)
    volume, interface = oracles.volume_load(listed, F, degree), oracles.interface_load(listed, f, gauss)
    scale = oracles.volume_load(listed, lambda x, z: np.abs(F(x, z)), degree) + np.abs(interface)
    assert np.max(np.abs(load - (volume + interface))) <= 1e-14 * np.max(scale)
