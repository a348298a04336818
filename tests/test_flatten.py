import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import oracles
from oracles import (FLAT_SPLIT_SHAPES, bits, h1_norm_smooth, pullback_norm_bound, signed_shape, solve_flattened_1d,
                     t_apply_smooth)

from darcyperturb.geometry import (FLAT_ZETA, ForcingSpec, _heights_above, column_map, column_map_inverse,
                                   make_perturbation)
from darcyperturb import fem2d, solver1d
from darcyperturb.flatten import (
    _averaged_metric,
    _coercivity,
    ainv_norm_bound,
    assemble_flattened_load,
    assemble_flattened_stiffness,
    coercivity_constant,
    flattened_energy_split,
    matrix_property_report,
    solve_flattened,
    t_apply,
    transfer,
)

ZERO2 = lambda x, z: np.zeros_like(x)
ONE2 = lambda x, z: np.ones_like(x)


def sine(amp, k=1):
    return make_perturbation("sine", {"wavenumber": k}, amp)


def shapes5():
    return [
        sine(0.25),
        sine(0.2, k=2),
        make_perturbation("bump", {}, 0.3),
        make_perturbation("hat", {"knot": 0.5}, 0.3),
        sine(0.1, k=3),
    ]


# --- maps --------------------------------------------------------------------


def test_lambda_map_identity_at_zero():
    # Lambda_i keeps x and maps the height by geometry.column_map, its inverse by column_map_inverse
    zv = sine(0.0).value(np.array([0.3, 0.7]))
    z = np.array([-0.5, -0.1])
    assert np.allclose(column_map(-1.0, zv, z), z)
    assert np.allclose(column_map_inverse(-1.0, zv, z), z)


def test_lambda_map_column_endpoints():
    # at the peak of the sine, zeta = 0.25 exactly
    zv = sine(0.25).value(0.5)
    assert np.allclose(column_map(-1.0, zv, -1.0), -1.0)
    assert np.allclose(column_map(-1.0, zv, 0.25), 0.0, atol=1e-15)
    assert np.allclose(column_map_inverse(1.0, zv, 0.5), 0.5 * 0.75 + 0.25)


@st.composite
def perturbations(draw):
    """Every family with an amplitude below 1, the bound of admissibility."""
    family = draw(st.sampled_from(["sine", "bump", "hat"]))
    params = {"sine": {"wavenumber": draw(st.integers(1, 4))}, "bump": {},
              "hat": {"knot": draw(st.floats(0.05, 0.95))}}[family]
    return make_perturbation(family, params, draw(st.floats(0.0, 1.0, exclude_max=True)))


@settings(deadline=None, max_examples=100)
@given(zeta=perturbations(), seed=st.integers(0, 2**32 - 1))
def test_lambda_map_round_trip(zeta, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, 200)
    zv = zeta.value(x)
    for s, lo, hi in ((-1.0, -np.ones_like(x), zv), (1.0, zv, np.ones_like(x))):
        z = lo + rng.uniform(0, 1, 200) * (hi - lo)
        flat = column_map(s, zv, z)
        back = column_map_inverse(s, zv, flat)
        assert np.max(np.abs(back - z)) < 1e-12
    # the two inverse maps agree on the flat interface
    on_gamma = np.zeros_like(x)
    a = column_map_inverse(-1.0, zv, on_gamma)
    b = column_map_inverse(1.0, zv, on_gamma)
    assert np.max(np.abs(a - b)) == 0.0


# --- matrices ----------------------------------------------------------------


def test_grad_transfer_identity_at_zero():
    A, A_inv, _, det = transfer(1, sine(0.0), 0.4, -0.3)
    assert np.allclose(A, np.eye(2))
    assert np.allclose(A_inv, np.eye(2))
    assert det == 1.0


def test_grad_transfer_flat_gradient_sample():
    # at the sine peak the gradient vanishes, reproducing the constant-zeta case
    A, _, m, det = transfer(2, sine(0.25), 0.5, 0.3)
    assert np.allclose(A, np.diag([1.0, 4.0 / 3.0]), atol=1e-14)
    assert det == pytest.approx(0.75)
    assert np.allclose(m, np.diag([0.75, 4.0 / 3.0]), atol=1e-14)


def test_matrix_products_random():
    rng = np.random.default_rng(8)
    for zeta in shapes5():
        for i in (1, 2):
            x = rng.uniform(0.05, 0.95, 20)
            if zeta.knots:
                x = x[np.min(np.abs(x[:, None] - np.array(zeta.knots)), axis=1) >= 1e-3]
            z = rng.uniform(-1, 0, len(x)) if i == 1 else rng.uniform(0, 1, len(x))
            A, A_inv, m, det = transfer(i, zeta, x, z)
            assert A.shape == A_inv.shape == m.shape == (len(x), 2, 2)
            assert np.max(np.abs(A @ A_inv - np.eye(2))) < 1e-12
            s = (-1.0) ** i
            assert np.allclose(det, 1.0 - s * zeta.value(x), rtol=0.0, atol=1e-14)
            assert np.allclose(m, det[:, None, None] * np.swapaxes(A, 1, 2) @ A, atol=1e-12)


def test_grad_transfer_one_sided_at_knot():
    # at the tent peak the right-hand slope is reported
    hat = make_perturbation("hat", {"knot": 0.5}, 0.3)
    _, A_inv, _, det = transfer(1, hat, 0.5, -0.5)
    right_slope = -0.3 / 0.5
    stretch = 1.0 + (-0.5)  # 1 - (-1)^1 z
    assert A_inv[0, 1] == pytest.approx(stretch * right_slope, abs=1e-14)
    assert det == pytest.approx(1.3)


def test_bounds_arithmetic():
    z0 = sine(0.0)
    assert ainv_norm_bound(z0) == pytest.approx(np.sqrt(5.0))
    assert coercivity_constant(z0) == pytest.approx(0.2)
    assert pullback_norm_bound(z0) == pytest.approx(np.sqrt(2.0))

    # ||zeta||_W1inf = 0.5 -> bound sqrt(6), pullback stays sqrt(2)
    class Fake:
        norm_sup = 0.1
        norm_w1inf = 0.5

    assert ainv_norm_bound(Fake()) == pytest.approx(np.sqrt(6.0))
    assert pullback_norm_bound(Fake()) == pytest.approx(np.sqrt(2.0))

    class Fake2:
        norm_sup = 0.25
        norm_w1inf = 1.0

    assert coercivity_constant(Fake2()) == pytest.approx(0.75 / 9.0)


@settings(deadline=None, max_examples=200)
@given(size=st.floats(0.0, 1.0), dim=st.sampled_from([1, 2]))
@example(size=0.41645, dim=1)
@example(size=0.5102, dim=2)
def test_coercivity_of_a_number_has_the_bits_of_a_one_element_array(size, dim):
    # a 1D sweep passes the norms of a batch as arrays and of one row as numbers
    one = np.array([size])
    assert bits(_coercivity(size, size, dim)) == bits(_coercivity(one, one, dim))[0]


def test_matrix_property_report():
    rep = matrix_property_report(shapes5(), n_points=1000, seed=3)
    assert rep["aainv_max"] < 1e-12
    assert rep["det_max"] < 1e-12
    assert rep["norm_excess"] <= 0.0
    assert rep["coercivity_margin"] >= 0.0
    assert rep["chain_rule_max"] < 1e-6


# --- pullback operator --------------------------------------------------------


def test_t_apply_identity_at_zero():
    z0 = sine(0.0)
    mesh = fem2d.build_fitted_mesh(z0, 12, 12)
    fr = ForcingSpec(F=ZERO2, f=ONE2)
    q = fem2d.assemble_solve(mesh, fr, eps=0.5)
    tq = t_apply(z0, q, "T", mesh)
    assert np.max(np.abs(tq.values - q.values)) == 0.0


def test_t_apply_linear_profile():
    # r(x, z) = z with constant-like zeta at the sine peak column
    z = sine(0.25)
    mesh = fem2d.build_fitted_mesh(sine(0.0), 16, 16)
    tq = t_apply(z, lambda x, zz: zz, "T", mesh)
    # on the peak column x = 0.5, upper region: T r = 0.75 z + 0.25
    ids = mesh.node_grid[8]
    zs = mesh.nodes[ids, 1]
    upper = zs > 0
    assert np.allclose(tq.values[ids][upper], 0.75 * zs[upper] + 0.25, atol=1e-14)


def test_t_apply_round_trip_discrete():
    z = sine(0.2)
    fitted = fem2d.build_fitted_mesh(z, 32, 32)
    ref = fem2d.build_fitted_mesh(sine(0.0), 32, 32)
    fr = ForcingSpec(F=lambda x, zz: x + zz, f=ONE2)
    q = fem2d.assemble_solve(fitted, fr, eps=0.5)
    back = t_apply(z, t_apply(z, q, "T", ref), "T_inverse", fitted)
    # fitted nodes are exact pullbacks of reference nodes: round trip is exact
    assert np.max(np.abs(back.values - q.values)) < 1e-13


SOURCE_2D = lambda x, z: np.cos(3.0 * x + 2.0 * z)


@settings(deadline=None, max_examples=60)
@given(nx=st.integers(2, 24), nz=st.integers(2, 24), family=st.sampled_from(sorted(FLAT_SPLIT_SHAPES)),
       sign=st.sampled_from([1, -1]), amp=st.floats(0.0, 0.8), direction=st.sampled_from(["T", "T_inverse"]),
       every_other=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_column_interpolation_equals_the_point_evaluation(nx, nz, family, sign, amp, direction, every_other,
                                                          seed):
    # resample and t_apply interpolate up the node-grid columns; they give the
    # values of the per-point evaluation at the target nodes bit for bit, for
    # targets on the same columns and on every other source column
    zeta = signed_shape(family, amp, sign)
    fitted, flat = (zeta, FLAT_ZETA) if direction == "T" else (FLAT_ZETA, zeta)
    source_mesh = fem2d.build_fitted_mesh(fitted, 2 * nx if every_other else nx, nz)
    target = fem2d.build_fitted_mesh(flat, nx, nz)
    values = np.random.default_rng(seed).standard_normal(source_mesh.n_nodes)
    q = fem2d.Field2D(mesh=source_mesh, values=values)
    xn, zn = target.nodes.T
    assert np.array_equal(bits(fem2d.resample(q, target).values), bits(oracles.field_value(q, xn, zn)))
    for source in (q, SOURCE_2D):
        assert np.array_equal(bits(t_apply(zeta, source, direction, target).values),
                              bits(oracles.t_apply(zeta, source, direction, target)))


def test_t_operator_strong_continuity_and_bound():
    u = lambda x, z: np.sin(np.pi * x) * np.cos(0.5 * np.pi * z)
    gu = lambda x, z: (
        np.pi * np.cos(np.pi * x) * np.cos(0.5 * np.pi * z),
        -0.5 * np.pi * np.sin(np.pi * x) * np.sin(0.5 * np.pi * z),
    )
    nu = h1_norm_smooth(u, gu)
    prev = np.inf
    for n in range(1, 9):
        zz = sine(2.0**-n)
        tv, tg = t_apply_smooth(zz, u, gu)
        diff_v = lambda x, z: tv(x, z) - u(x, z)

        def diff_g(x, z):
            ax, az = tg(x, z)
            bx, bz = gu(x, z)
            return ax - bx, az - bz

        dn = h1_norm_smooth(diff_v, diff_g)
        assert dn < prev
        prev = dn
        tn = h1_norm_smooth(tv, tg)
        assert tn <= pullback_norm_bound(zz) * nu + 1e-9
    assert prev < 1e-2


# --- flattened solves ----------------------------------------------------------


def test_flattened_1d_reduces_to_original():
    fr = ForcingSpec(F=lambda x: np.cos(x), f=lambda x: 1.0 + x)
    rho = solve_flattened_1d(0.0, fr, eps=0.5)
    p = solver1d.solve_exact_1d(fr, 0.0, 0.5)
    xs = np.linspace(-1, 1, 301)
    assert np.max(np.abs(rho.value(xs) - p.value(xs))) < 1e-13


@pytest.mark.parametrize("zeta,eps", [(0.25, 0.5), (0.25, 0.1), (-0.3, 0.5)])
def test_flattened_1d_is_pullback_of_exact(zeta, eps):
    fr = ForcingSpec(F=lambda x: x**2, f=lambda x: np.cos(x))
    rho = solve_flattened_1d(zeta, fr, eps)
    q = solver1d.solve_exact_1d(fr, zeta, eps)
    xs = np.linspace(-1, 1, 401)
    s = np.where(xs < 0, -1.0, 1.0)
    assert np.max(np.abs(rho.value(xs) - q.value(xs * (1 - s * zeta) + zeta))) < 1e-12


def test_flattened_1d_linearity():
    f1 = ForcingSpec(F=lambda x: x, f=lambda x: np.ones_like(x))
    f2 = ForcingSpec(F=lambda x: 2 * x, f=lambda x: 2 * np.ones_like(x))
    a = solve_flattened_1d(0.25, f1, 0.5)
    b = solve_flattened_1d(0.25, f2, 0.5)
    xs = np.linspace(-1, 1, 101)
    assert np.max(np.abs(b.value(xs) - 2 * a.value(xs))) < 1e-12


def test_flattened_2d_zero_perturbation_matches_fitted():
    z0 = sine(0.0)
    ref = fem2d.build_fitted_mesh(z0, 24, 24)
    fr = ForcingSpec(F=ONE2, f=ONE2)
    fitted = fem2d.assemble_solve(ref, fr, eps=0.5)
    rho = solve_flattened(z0, fr, 0.5, ref)
    assert np.max(np.abs(fitted.values - rho.values)) < 1e-10


def test_flattened_2d_energy_identity():
    ref = fem2d.build_fitted_mesh(sine(0.0), 24, 24)
    rho = solve_flattened(sine(0.1), ForcingSpec(F=ZERO2, f=ONE2), 0.1, ref)
    assert rho.meta["bilinear_energy"] == pytest.approx(rho.meta["load_functional"], rel=1e-8)


def test_flattened_2d_requires_reference_mesh():
    fitted = fem2d.build_fitted_mesh(sine(0.2), 8, 8)
    with pytest.raises(ValueError):
        solve_flattened(sine(0.1), ForcingSpec(F=ZERO2, f=ONE2), 0.5, fitted)


def test_two_path_consistency_coarse():
    zeta = sine(0.1)
    fr = ForcingSpec(F=ZERO2, f=ONE2)
    eps = 0.1
    gaps = {}
    for n in (16, 32):
        fitted = fem2d.build_fitted_mesh(zeta, n, n)
        ref = fem2d.build_fitted_mesh(sine(0.0), n, n)
        q = fem2d.assemble_solve(fitted, fr, eps=eps)
        tq = t_apply(zeta, q, "T", ref)
        rho = solve_flattened(zeta, fr, eps, ref)
        gaps[n] = fem2d.vnorm_diff_2d(tq, rho)
    assert gaps[32] < gaps[16]
    assert gaps[32] <= 2.0 * gaps[16] * (16.0 / 32.0)


def test_two_path_consistency_sign_changing_shape():
    # k = 2 sine sweeps strips on both sides of the flat interface
    zeta = sine(0.15, k=2)
    fr = ForcingSpec(F=lambda x, z: np.cos(x + z), f=lambda x, z: 1.0 + 0.5 * x)
    gaps = {}
    for n in (16, 32):
        fitted = fem2d.build_fitted_mesh(zeta, n, n)
        ref = fem2d.build_fitted_mesh(sine(0.0), n, n)
        q = fem2d.assemble_solve(fitted, fr, eps=0.5)
        rho = solve_flattened(zeta, fr, 0.5, ref)
        gaps[n] = fem2d.vnorm_diff_2d(t_apply(zeta, q, "T", ref), rho)
    assert gaps[32] < 0.6 * gaps[16]


def test_two_path_consistency_piecewise_linear_shape():
    # piecewise-C1 displacement: quadrature points never hit the knot
    zeta = make_perturbation("hat", {"knot": 0.5}, 0.15)
    fr = ForcingSpec(F=lambda x, z: x, f=ONE2)
    fitted = fem2d.build_fitted_mesh(zeta, 24, 24)
    ref = fem2d.build_fitted_mesh(sine(0.0), 24, 24)
    q = fem2d.assemble_solve(fitted, fr, eps=0.5)
    rho = solve_flattened(zeta, fr, 0.5, ref)
    gap = fem2d.vnorm_diff_2d(t_apply(zeta, q, "T", ref), rho)
    zero = fem2d.Field2D(mesh=ref, values=np.zeros(ref.n_nodes))
    assert gap < 0.05 * fem2d.vnorm_diff_2d(rho, zero)


# --- one P1 problem for both paths ----------------------------------------------

sizes = st.integers(2, 8)
eps_values = st.floats(0.05, 1.0)
k_values = st.floats(0.1, 10.0)


@settings(deadline=None, max_examples=30)
@given(nx=sizes, nz=sizes, eps=eps_values, k1=k_values, k2=k_values)
def test_flattened_stiffness_at_flat_zeta_is_fitted(nx, nz, eps, k1, k2):
    flat = sine(0.0)
    ref = fem2d.build_fitted_mesh(flat, nx, nz)
    fitted = fem2d.assemble_stiffness(ref, eps, k1, k2)
    flattened = assemble_flattened_stiffness(ref, flat, eps, k1, k2)
    assert np.array_equal(fitted.toarray(), flattened.toarray())


@settings(deadline=None, max_examples=30)
@given(nx=sizes, nz=sizes, amp=st.floats(0.0, 0.6), eps=eps_values, k1=k_values, k2=k_values,
       seed=st.integers(0, 2**32 - 1))
def test_energy_split_is_the_quadratic_form_of_its_stiffness(nx, nz, amp, eps, k1, k2, seed):
    zeta = sine(amp)
    rng = np.random.default_rng(seed)
    fitted = fem2d.build_fitted_mesh(zeta, nx, nz)
    u = rng.standard_normal(fitted.n_nodes)
    total = fem2d.energy_split(fem2d.Field2D(mesh=fitted, values=u), eps, k1, k2)[2]
    K = fem2d.assemble_stiffness(fitted, eps, k1, k2)
    assert total == pytest.approx(u @ (K @ u), rel=1e-12)

    ref = fem2d.build_fitted_mesh(sine(0.0), nx, nz)
    v = rng.standard_normal(ref.n_nodes)
    total = flattened_energy_split(fem2d.Field2D(mesh=ref, values=v), zeta, eps, k1, k2)[2]
    K = assemble_flattened_stiffness(ref, zeta, eps, k1, k2)
    assert total == pytest.approx(v @ (K @ v), rel=1e-12)


@settings(deadline=None, max_examples=20)
@given(n=st.integers(2, 16), family=st.sampled_from(["sine", "bump", "hat"]),
       amp=st.floats(0.0, 0.6), eps=eps_values)
def test_galerkin_identity_on_both_paths(n, family, amp, eps):
    # load . u equals u . K u for the solved u, up to the CG tolerance
    params = {"sine": {"wavenumber": 1}, "bump": {}, "hat": {"knot": 0.5}}[family]
    zeta = make_perturbation(family, params, amp)
    fr = ForcingSpec(F=lambda x, z: x + z, f=lambda x, z: 1.0 + x)
    fitted = fem2d.assemble_solve(fem2d.build_fitted_mesh(zeta, n, n), fr, eps=eps)
    ref = fem2d.build_fitted_mesh(sine(0.0), n, n)
    flattened = solve_flattened(zeta, fr, eps, ref)
    for q in (fitted, flattened):
        assert q.meta["load_functional"] == pytest.approx(q.meta["bilinear_energy"], rel=1e-8)


# --- the flat split of the pulled-back field -------------------------------------

@settings(deadline=None, max_examples=30)
@given(n=st.integers(4, 12), family=st.sampled_from(sorted(FLAT_SPLIT_SHAPES)),
       sign=st.sampled_from([1, -1]), amp=st.floats(0.0, 0.6), eps=st.sampled_from([0.1, 0.5, 1.0]))
def test_flat_split_energy_agrees_on_both_paths(n, family, sign, amp, eps):
    # the flat split of the fitted solution q and of the pulled-back flattened
    # solution measure one energy, O(h) apart relative to the amplitude; on a
    # grid of these draws the largest |difference| / (amp h a_0) was 2.3 (sine,
    # amplitude 0.6, eps 0.1), and the flat split of rho itself is O(amp) off
    zeta = signed_shape(family, amp, sign)
    fr = ForcingSpec(F=ZERO2, f=ONE2)
    q = fem2d.assemble_solve(fem2d.build_fitted_mesh(zeta, n, n), fr, eps=eps)
    rho = solve_flattened(zeta, fr, eps, fem2d.build_fitted_mesh(FLAT_ZETA, n, n))
    fitted = fem2d.energy_split(q, eps)[3]
    flattened = flattened_energy_split(rho, zeta, eps)[3]
    assert abs(flattened - fitted) <= (4.0 * amp / n + 1e-9) * fitted


@settings(deadline=None, max_examples=40)
@given(nx=st.integers(2, 12), nz=st.integers(2, 12), family=st.sampled_from(sorted(FLAT_SPLIT_SHAPES)),
       sign=st.sampled_from([1, -1]), amp=st.floats(0.0, 0.8), eps=eps_values, k1=k_values, k2=k_values,
       seed=st.integers(0, 2**32 - 1))
def test_one_energy_pass_gives_the_bits_of_the_four_splits(nx, nz, family, sign, amp, eps, k1, k2, seed):
    # one density per field serves both splits; each number keeps the bits of
    # the split function that once computed it on its own
    zeta = signed_shape(family, amp, sign)
    rng = np.random.default_rng(seed)
    mesh = fem2d.build_fitted_mesh(zeta, nx, nz)
    q = fem2d.Field2D(mesh=mesh, values=rng.standard_normal(mesh.n_nodes))
    expected = oracles.energy_split(q, eps, k1, k2) + oracles.energy_split_flat(q, eps, k1, k2)[2:]
    assert bits(fem2d.energy_split(q, eps, k1, k2)).tolist() == bits(expected).tolist()
    ref = fem2d.build_fitted_mesh(FLAT_ZETA, nx, nz)
    rho = fem2d.Field2D(mesh=ref, values=rng.standard_normal(ref.n_nodes))
    expected = (oracles.flattened_energy_split(rho, zeta, eps, k1, k2)
                + oracles.flattened_energy_split_flat(rho, zeta, eps, k1, k2)[2:])
    assert bits(flattened_energy_split(rho, zeta, eps, k1, k2)).tolist() == bits(expected).tolist()


@settings(deadline=None, max_examples=40)
@given(nx=st.integers(2, 16), nz=st.integers(2, 16), family=st.sampled_from(sorted(FLAT_SPLIT_SHAPES)),
       sign=st.sampled_from([1, -1]), amp=st.floats(0.0, 0.8), seed=st.integers(0, 2**32 - 1))
def test_column_maps_keep_the_bits_of_every_site(nx, nz, family, sign, amp, seed):
    # the shared column maps against the formula each site wrote out
    zeta = signed_shape(family, amp, sign)
    mesh = fem2d.build_fitted_mesh(zeta, nx, nz)
    ref = fem2d.build_fitted_mesh(FLAT_ZETA, nx, nz)
    zc = zeta.value(mesh.col_x)
    assert np.array_equal(bits(mesh.nodes[:, 1]), bits(oracles.fitted_levels(zc, nz).ravel()))

    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, 64)
    z = rng.uniform(-1.0, 1.0, 64)
    zx = zeta.value(x)
    for s in (-1.0, 1.0, np.where(z < 0.0, -1.0, 1.0)):
        assert np.array_equal(bits(column_map_inverse(s, zx, z)), bits(oracles.unflatten_inline(s, zx, z)))
        assert np.array_equal(bits(column_map(s, zx, z)), bits(oracles.flatten_inline(s, zx, z)))

    u = lambda x, z: np.cos(3.0 * x + 2.0 * z)
    for out, direction in ((ref, "T"), (mesh, "T_inverse")):
        assert np.array_equal(bits(t_apply(zeta, u, direction, out).values),
                              bits(oracles.t_apply(zeta, u, direction, out)))

    def weighted_f(x, z):
        return np.sqrt(1.0 + zeta.gradient(x) ** 2) * ONE2(x, zeta.value(x))

    expected = fem2d._load(ref, oracles.pulled_back_source(zeta, u), weighted_f, 4)
    load = assemble_flattened_load(ref, zeta, ForcingSpec(F=u, f=ONE2))
    assert np.array_equal(bits(load), bits(expected))

    for s, line in ((-1.0, -zc / (1.0 + zc)), (1.0, -zc / (1.0 - zc))):
        assert np.array_equal(bits(_heights_above(ref, column_map(s, zc, 0.0))), bits(_heights_above(ref, line)))


@settings(deadline=None, max_examples=40)
@given(nx=st.integers(2, 16), nz=st.integers(2, 16), family=st.sampled_from(sorted(FLAT_SPLIT_SHAPES)),
       sign=st.sampled_from([1, -1]), amp=st.floats(0.0, 0.8))
def test_metric_read_once_per_column_keeps_the_bits_of_every_point(nx, nz, family, sign, amp):
    # zeta and its gradient read once per column and orientation give the
    # averages of reading them at every quadrature point, on the reference
    # mesh and on a fitted one
    zeta = signed_shape(family, amp, sign)
    for mesh in (fem2d.build_fitted_mesh(FLAT_ZETA, nx, nz), fem2d.build_fitted_mesh(zeta, nx, nz)):
        metric = _averaged_metric(mesh, zeta)
        assert metric.shape == (3, len(mesh.triangles)) and not metric.flags.writeable
        assert np.array_equal(bits(metric), bits(oracles.averaged_metric(mesh, zeta)))
