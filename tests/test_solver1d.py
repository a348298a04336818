from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from darcyperturb import solver1d
from darcyperturb.config import compile_expression
from darcyperturb.geometry import ForcingSpec
from oracles import (FLUXES, SOURCES, TOL, bits, eval_per_piece, from_nodal, insert_points_loop, max_jump,
                     piece_index_clip, row_bound, row_energy, row_exact, row_vnorm_diff, row_xi, solve_fem_1d,
                     vnorm_inner_1d)

from darcyperturb.solver1d import (
    energy_split_1d,
    estimate_rhs_1d,
    hperp_exact_original,
    hperp_exact_perturbed,
    project_H,
    project_Hperp,
    solve_exact_1d,
    vnorm_diff_1d,
    xi_1d,
)

ZERO = lambda x: np.zeros_like(x)
ONE = lambda x: np.ones_like(x)


def forcing(F=ZERO, f=ZERO, order=8):
    return ForcingSpec(F=F, f=f, quadrature_order=order)


def sample(field, n=401):
    x = np.linspace(-1.0, 1.0, n)
    return x, field.value(x)


# --- exact solver against hand-integrated oracles -------------------------


def test_exact_flux_only_flat_interface():
    p = solve_exact_1d(forcing(f=ONE), zeta=0.0, eps=0.3)
    x, v = sample(p)
    expected = np.where(x <= 0.0, x + 1.0, 1.0)
    assert np.max(np.abs(v - expected)) < 1e-12
    assert max_jump(p) < 1e-10
    assert abs(p.value(-1.0)) < 1e-14


def test_exact_volume_source_flat_interface():
    eps = 0.25
    p = solve_exact_1d(forcing(F=ONE), zeta=0.0, eps=eps)
    x, v = sample(p)
    expected = np.where(
        x <= 0.0,
        (x + 1.0) + (1.0 - x**2) / 2.0,
        1.5 + eps * (x - x**2 / 2.0),
    )
    assert np.max(np.abs(v - expected)) < 1e-12
    assert p.value(0.0) == pytest.approx(1.5, abs=1e-13)


def test_exact_flux_only_shifted_interface():
    q = solve_exact_1d(forcing(f=ONE), zeta=0.25, eps=0.7)
    x, v = sample(q)
    expected = np.where(x <= 0.25, x + 1.0, 1.25)
    assert np.max(np.abs(v - expected)) < 1e-12


def test_exact_rejects_bad_eps():
    with pytest.raises(ValueError):
        solve_exact_1d(forcing(), zeta=0.0, eps=0.0)


def test_exact_rejects_nonfinite_forcing():
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValueError):
        solve_exact_1d(forcing(F=lambda x: 1.0 / (x - x)), zeta=0.0, eps=0.5)


# --- P1 FEM cross-check ----------------------------------------------------


def test_fem_reproduces_piecewise_linear_solution():
    fr = forcing(f=ONE)
    exact = solve_exact_1d(fr, zeta=0.0, eps=0.5)
    fem = solve_fem_1d(fr, zeta=0.0, eps=0.5, n_cells=64)
    x = fem.breakpoints
    assert np.max(np.abs(fem.value(x) - exact.value(x))) < 1e-12


def test_fem_first_order_rate():
    fr = forcing(F=ONE)
    exact = solve_exact_1d(fr, zeta=0.0, eps=0.5)
    errs = [vnorm_diff_1d(solve_fem_1d(fr, 0.0, 0.5, n), exact) for n in (16, 32, 64)]
    for e_coarse, e_fine in zip(errs, errs[1:]):
        ratio = e_fine / e_coarse
        assert 0.4 < ratio < 0.6  # halving within 20%


@pytest.mark.parametrize("zeta", [0.25, -0.3])
def test_fem_matches_exact_shifted(zeta):
    fr = forcing(F=lambda x: np.cos(x), f=lambda x: 1.0 + x)
    exact = solve_exact_1d(fr, zeta=zeta, eps=0.5)
    fem = solve_fem_1d(fr, zeta=zeta, eps=0.5, n_cells=64)
    assert vnorm_diff_1d(fem, exact) < 0.05
    x = np.linspace(-1, 1, 201)
    assert np.max(np.abs(fem.value(x) - exact.value(x))) < 5e-4


# --- projections ------------------------------------------------------------


def linear_field():
    return from_nodal(np.array([-1.0, 1.0]), np.array([0.0, 2.0]), label="x+1")


def test_projection_worked_example():
    r = linear_field()  # r(x) = x + 1
    ph = project_Hperp(r, 0.5)
    x = np.linspace(-1, 1, 401)
    expected = np.where(x <= 0.0, 0.0, np.where(x <= 0.5, x, 0.5))
    assert np.max(np.abs(ph.value(x) - expected)) < 1e-12
    pH = project_H(r, 0.5)
    assert np.max(np.abs(pH.value(x) + expected - r.value(x))) < 1e-12


def random_piecewise_field(rng, n_breaks=3, degree=3):
    """Continuous piecewise polynomial in V (vanishing at -1)."""
    interior = np.sort(rng.uniform(-0.95, 0.95, size=n_breaks))
    breaks = np.concatenate([[-1.0], interior, [1.0]])
    nodes = np.linspace(-1.0, 1.0, 24)
    vals = np.cumsum(rng.normal(size=len(nodes)))
    vals -= vals[0]
    return from_nodal(nodes, vals)


def test_projection_identity_and_orthogonality():
    rng = np.random.default_rng(11)
    for zeta in (0.1, 0.25, 0.5, -0.25, -0.1):
        for _ in range(5):
            r = random_piecewise_field(rng)
            s = random_piecewise_field(rng)
            ph, hp = project_H(r, zeta), project_Hperp(r, zeta)
            x = np.linspace(-1, 1, 501)
            assert np.max(np.abs(ph.value(x) + hp.value(x) - r.value(x))) < 1e-10
            assert abs(vnorm_inner_1d(ph, project_Hperp(s, zeta))) < 1e-10


def test_projection_membership_patterns():
    rng = np.random.default_rng(5)
    r = random_piecewise_field(rng)
    zeta = 0.3
    ph, hp = project_H(r, zeta), project_Hperp(r, zeta)
    gap = np.linspace(0.01, zeta - 0.01, 50)
    assert np.max(np.abs(ph.derivative(gap))) < 1e-13
    before = np.linspace(-0.99, -0.01, 50)
    assert np.max(np.abs(hp.value(before))) < 1e-13
    after = np.linspace(zeta + 0.01, 0.99, 50)
    assert np.max(np.abs(hp.derivative(after))) < 1e-13


def test_projection_zero_field():
    z = from_nodal(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
    for proj in (project_H(z, 0.25), project_Hperp(z, 0.25)):
        assert vnorm_inner_1d(proj, proj) < 1e-28


def test_projection_degenerate_zeta():
    r = linear_field()
    assert project_H(r, 0.0) is r
    perp = project_Hperp(r, 0.0)
    assert vnorm_inner_1d(perp, perp) == 0.0


# --- closed-form gap solutions ---------------------------------------------


def test_hperp_exact_zero_forcing():
    u = hperp_exact_original(ZERO, ZERO, zeta=0.25, eps=0.5)
    x = np.linspace(-1, 1, 101)
    assert np.max(np.abs(u.value(x))) < 1e-14


def test_hperp_exact_perturbed_tent():
    u = hperp_exact_perturbed(ZERO, ONE, zeta=0.25, eps=0.5)
    x = np.linspace(-1, 1, 401)
    expected = np.where(x <= 0.0, 0.0, np.where(x <= 0.25, x, 0.25))
    assert np.max(np.abs(u.value(x) - expected)) < 1e-12
    # zeta < 0: the gap (-0.25, 0) lies in q's 1/eps region and f drops out;
    # slope 0.5 (1 - x) for F = 1
    u = hperp_exact_perturbed(ONE, ONE, zeta=-0.25, eps=0.5)
    assert np.max(np.abs(u.value(x[x <= -0.25]))) < 1e-14
    assert float(u.value(-0.1)) == pytest.approx(0.088125, abs=1e-12)
    assert np.max(np.abs(u.value(x[x >= 0.0]) - 0.140625)) < 1e-12


def test_hperp_exact_original_value_at_interface():
    u = hperp_exact_original(ONE, ONE, zeta=0.25, eps=0.5)
    # eps * (zeta * int_0^1 F - int_0^zeta int_0^t F) = 0.5 * (0.25 - 0.03125)
    assert float(u.value(0.25)) == pytest.approx(0.109375, abs=1e-12)
    # zeta < 0: the gap (-0.25, 0) lies below p's interface and carries
    # f(0) = 1; slope 1 + int_x^1 F = 2 - x for F = 1
    u = hperp_exact_original(ONE, ONE, zeta=-0.25, eps=0.5)
    x = np.linspace(-1, 1, 401)
    assert np.max(np.abs(u.value(x[x <= -0.25]))) < 1e-14
    assert float(u.value(-0.1)) == pytest.approx(0.32625, abs=1e-12)
    assert np.max(np.abs(u.value(x[x >= 0.0]) - 0.53125)) < 1e-12


@pytest.mark.parametrize("zeta", [0.25, 0.1, -0.1, -0.25])
@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_hperp_matches_projected_exact(zeta, eps):
    cases = [
        (ZERO, ZERO),
        (ONE, ONE),
        (lambda x: x**2, lambda x: np.cos(x)),
    ]
    for F, f in cases:
        fr = forcing(F=F, f=f)
        q = solve_exact_1d(fr, zeta=zeta, eps=eps)
        p = solve_exact_1d(fr, zeta=0.0, eps=eps)
        assert vnorm_diff_1d(project_Hperp(q, zeta), hperp_exact_perturbed(F, f, zeta, eps)) < 1e-8
        assert vnorm_diff_1d(project_Hperp(p, zeta), hperp_exact_original(F, f, zeta, eps)) < 1e-8


# --- V-norm -----------------------------------------------------------------


def test_vnorm_identical_fields():
    r = linear_field()
    assert vnorm_diff_1d(r, r) == 0.0


def test_vnorm_worked_pair():
    fr = forcing(f=ONE)
    p = solve_exact_1d(fr, 0.0, 0.5)
    q = solve_exact_1d(fr, 0.25, 0.5)
    assert vnorm_diff_1d(p, q) == pytest.approx(0.5, abs=1e-12)


def test_vnorm_against_zero():
    zero = from_nodal(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
    assert vnorm_diff_1d(zero, linear_field()) == pytest.approx(np.sqrt(2.0), abs=1e-12)


# --- explicit bound ---------------------------------------------------------


def test_estimate_tight_flux_case():
    rec = estimate_rhs_1d(ZERO, ONE, zeta=0.25, eps=0.5)
    assert rec.h_part == pytest.approx(0.0, abs=1e-14)
    assert rec.hperp_part == pytest.approx(0.5, abs=1e-12)
    assert rec.total == pytest.approx(0.5, abs=1e-12)


def test_estimate_volume_term_value():
    # (1-eps) ||int_0^x F||_{L2(0,zeta)} = 0.5 * zeta^{3/2}/sqrt(3) for F = 1,
    # plus sqrt(zeta) * (1-eps) * int_0^1 F
    rec = estimate_rhs_1d(ONE, ZERO, zeta=0.25, eps=0.5)
    expected = 0.5 * 0.25**1.5 / np.sqrt(3.0) + np.sqrt(0.25) * 0.5
    assert rec.hperp_part == pytest.approx(expected, abs=1e-12)
    fr = forcing(F=ONE, f=ZERO)
    gap = vnorm_diff_1d(solve_exact_1d(fr, 0.0, 0.5), solve_exact_1d(fr, 0.25, 0.5))
    assert gap <= rec.total


def test_estimate_vanishes_with_zeta():
    f = lambda x: np.cos(3.0 * x)
    totals = [estimate_rhs_1d(ONE, f, z, 0.5).total for z in (0.2, 0.05, 0.01, 0.001)]
    assert all(t2 < t1 for t1, t2 in zip(totals, totals[1:]))
    assert totals[-1] < 0.05


@pytest.mark.parametrize("zeta", [0.3, 0.25, 0.1, -0.1, -0.25, -0.3])
@pytest.mark.parametrize("eps", [1.0, 0.5, 0.1])
def test_bound_validity(zeta, eps):
    cases = [
        (ZERO, ONE),
        (ONE, ZERO),
        (lambda x: x**2, lambda x: np.cos(x)),
        (lambda x: np.sin(2 * x), lambda x: 1.0 + 0.5 * x),
    ]
    for F, f in cases:
        fr = forcing(F=F, f=f)
        gap = vnorm_diff_1d(solve_exact_1d(fr, 0.0, eps), solve_exact_1d(fr, zeta, eps))
        assert gap <= estimate_rhs_1d(F, f, zeta, eps).total + 1e-9


def test_randomized_bound_and_oracle_stress():
    rng = np.random.default_rng(2024)

    def random_fn():
        kind = rng.integers(0, 4)
        a, b, c = rng.uniform(-2, 2, 3)
        w = rng.uniform(0.5, 6.0)
        if kind == 0:
            return lambda x: a + b * x + c * x**2
        if kind == 1:
            return lambda x: a * np.sin(w * x) + b
        if kind == 2:
            return lambda x: a * np.exp(0.5 * x) + c * x
        return lambda x: a * np.cos(w * x) + b * x**3

    for _ in range(60):
        F, f = random_fn(), random_fn()
        zeta = float(rng.uniform(-0.8, 0.8))
        if abs(zeta) < 1e-3:
            continue
        eps = float(rng.uniform(0.05, 1.0))
        fr = forcing(F=F, f=f)
        p = solve_exact_1d(fr, 0.0, eps)
        q = solve_exact_1d(fr, zeta, eps)
        assert vnorm_diff_1d(p, q) <= estimate_rhs_1d(F, f, zeta, eps).total + 1e-9
        assert vnorm_diff_1d(project_Hperp(q, zeta),
                             hperp_exact_perturbed(F, f, zeta, eps)) < 1e-10
        assert vnorm_diff_1d(project_Hperp(p, zeta),
                             hperp_exact_original(F, f, zeta, eps)) < 1e-10


def test_strong_convergence_sweep():
    F = lambda x: x**2 - 1.0 / 3.0
    f = lambda x: x
    fr = forcing(F=F, f=f)
    eps = 0.5
    p = solve_exact_1d(fr, 0.0, eps)
    gaps = [vnorm_diff_1d(p, solve_exact_1d(fr, 2.0**-n, eps)) for n in range(1, 13)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_energy_split_and_xi():
    fr = forcing(f=ONE)
    q = solve_exact_1d(fr, 0.25, 0.5)
    e1, e2, tot = energy_split_1d(q, 0.25, 0.5)
    # dq = 1 on (-1, 0.25), 0 after: e1 = 1.25, e2 = 0
    assert e1 == pytest.approx(1.25, abs=1e-10)
    assert e2 == pytest.approx(0.0, abs=1e-12)
    assert tot == pytest.approx(1.25, abs=1e-10)
    p = solve_exact_1d(fr, 0.0, 0.5)
    assert xi_1d(p, 0.25) == pytest.approx(0.0, abs=1e-12)  # dp = 0 on (0, 0.25)
    assert xi_1d(q, 0.25) == pytest.approx(-0.25, abs=1e-10)  # dq = 1 there


# --- evaluation shortcuts against the plain forms, bit for bit (tests/oracles.py)


@st.composite
def fields(draw):
    """Piecewise-linear fields through random nodes, and exact solutions
    with a constant or a varying source."""
    if draw(st.booleans()):
        inner = draw(st.lists(st.integers(-99, 99).map(lambda k: k / 100), max_size=6, unique=True))
        nodes = np.unique([-1.0, *inner, 1.0])
        values = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(nodes), max_size=len(nodes)))
        return from_nodal(nodes, values)
    F = compile_expression(draw(st.sampled_from(["0", "sin(pi*x) + x**2"])), ("x",))
    f = compile_expression(draw(st.sampled_from(["1", "1 + 0.5*x"])), ("x",))
    zeta = draw(st.floats(-0.9, 0.9))
    return solve_exact_1d(forcing(F, f), zeta, draw(st.floats(0.05, 1.0)))


@st.composite
def fields_and_points(draw):
    """A field and points on, inside and outside its breakpoints; half of the
    draws keep every point in one piece."""
    field = draw(fields())
    bp = field.breakpoints
    if draw(st.booleans()):
        i = draw(st.integers(0, len(bp) - 2))
        pts = st.one_of(st.just(bp[i]), st.floats(bp[i], bp[i + 1], exclude_max=True))
    else:
        pts = st.one_of(st.sampled_from(list(bp)), st.floats(-1.0, 1.0),
                        st.floats(-3.0, -1.0), st.floats(1.0, 3.0))
    xs = np.array(draw(st.lists(pts, min_size=1, max_size=40)))
    if draw(st.booleans()) and len(xs) % 2 == 0:
        xs = xs.reshape(2, -1)
    return field, xs


@settings(deadline=None, max_examples=200)
@given(case=fields_and_points())
def test_piecewise_eval_matches_per_piece_loop(case):
    field, xs = case
    assert np.array_equal(field._piece_index(xs), piece_index_clip(field, xs))
    for method, attr in ((field.value, "value"), (field.derivative, "deriv")):
        new, old = method(xs), eval_per_piece(field, xs, attr)
        assert new.shape == old.shape
        assert np.array_equal(bits(new), bits(old))
        x0 = float(xs.flat[0])
        new0, old0 = method(x0), eval_per_piece(field, x0, attr)
        assert type(new0) is float and bits(new0) == bits(old0)


def test_piecewise_eval_of_no_points():
    field = from_nodal(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 3.0]))
    assert field.value(np.empty(0)).shape == (0,)
    assert field.derivative(np.empty((0, 3))).shape == (0, 3)


@dataclass
class _Ramp:
    """A callable forcing that cannot be hashed: dataclass eq sets __hash__ to None."""

    slope: float

    def __call__(self, x):
        return self.slope * x


def test_bound_and_gap_solutions_take_an_unhashable_forcing():
    F, G = _Ramp(1.5), lambda x: 1.5 * x
    with pytest.raises(TypeError):
        hash(F)
    x = np.linspace(-1.0, 1.0, 41)
    for zeta in (0.3, -0.2):
        assert estimate_rhs_1d(F, ONE, zeta, 0.4) == estimate_rhs_1d(G, ONE, zeta, 0.4)
        for exact in (hperp_exact_original, hperp_exact_perturbed):
            assert np.array_equal(exact(F, ONE, zeta, 0.4).value(x), exact(G, ONE, zeta, 0.4).value(x))


anchors = st.one_of(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0]), st.floats(-1.0, 1.0))
# offsets up to a few merge tolerances, so that runs of close points form
offsets = st.one_of(st.sampled_from([TOL, -TOL]), st.integers(-4, 4).map(lambda k: k * TOL / 2))
points = st.one_of(anchors, st.builds(lambda a, d: a + d, anchors, offsets))


@st.composite
def breaks_and_extra(draw):
    """Breakpoints and extra points drawn from a small pool, so that equal
    values (0.0 and -0.0 among them) recur within and across the two lists."""
    pool = draw(st.lists(points, min_size=1, max_size=6))
    breaks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    extra = draw(st.lists(st.one_of(st.sampled_from(pool), points), max_size=4))
    return (np.array(breaks) if draw(st.booleans()) else breaks), extra


@settings(deadline=None, max_examples=300)
@given(case=breaks_and_extra())
@example(case=([-0.0, 1.0], [0.0]))
@example(case=([0.0, 1.0], [-0.0]))
@example(case=([-1.0, 0.0, -0.0], [0.0]))
@example(case=([-TOL / 2, 1.0], [0.0, -0.0]))
@example(case=([-1.0, 1.0], [TOL, 0.0, 2 * TOL, -TOL]))
def test_insert_points_matches_merge_loop(case):
    breaks, extra = case
    new, old = solver1d._insert_points(breaks, extra), insert_points_loop(breaks, extra)
    assert new.shape == old.shape
    assert np.array_equal(bits(new), bits(old))


# --- row batches against one row at a time (tests/oracles.py) ----------------

@st.composite
def one_signed_batches(draw):
    """Two or more distinct values of zeta, all in (0, 1) or all in (-1, 0)."""
    zetas = draw(st.lists(st.floats(1e-9, 0.999), min_size=2, max_size=20, unique=True))
    return np.array(zetas) * draw(st.sampled_from([1.0, -1.0]))


@settings(deadline=None, max_examples=60)
@given(F=st.sampled_from(SOURCES), f=st.sampled_from(FLUXES), eps=st.floats(0.0, 1.0, exclude_min=True),
       zetas=one_signed_batches(), s=st.floats(0.0, 0.99))
@np.errstate(over="ignore")  # e2 of a tiny eps
def test_batched_functions_match_rows_one_at_a_time(F, f, eps, zetas, s):
    F, f = compile_expression(F, ("x",)), compile_expression(f, ("x",))
    p = solve_exact_1d(forcing(F, f), 0.0, eps)
    q = solve_exact_1d(forcing(F, f), zetas, eps)
    gaps, (e1, e2, tot), xi_p, xi_q = (vnorm_diff_1d(p, q), energy_split_1d(q, zetas, eps),
                                        xi_1d(p, zetas), xi_1d(q, zetas))
    flat, bound = energy_split_1d(q, 0.0, eps), estimate_rhs_1d(F, f, zetas, eps)
    # a point of each band of every row: below the gap, in it and above it (s = 0
    # gives the breakpoints themselves; near s = 1 rounding could put a row's
    # point in the next band, and a batch needs each column in one band)
    lo, hi = np.minimum(zetas, 0.0), np.maximum(zetas, 0.0)
    xs = np.stack([-1.0 + (lo + 1.0) * s, lo + (hi - lo) * s, hi + (1.0 - hi) * s], axis=1)
    values, slopes = q.value(xs), q.derivative(xs)
    p_row = row_exact(F, f, 0.0, eps)
    for r, z in enumerate(zetas):
        q_row = row_exact(F, f, z, eps)
        e1_row, e2_row = row_energy(q_row, -1.0, z), row_energy(q_row, z, 1.0) / eps
        flat_row = row_energy(q_row, -1.0, 0.0) + row_energy(q_row, 0.0, 1.0) / eps
        h_part, hperp = row_bound(F, f, z, eps)
        expected = [row_vnorm_diff(p_row, q_row), e1_row, e2_row, e1_row + e2_row, flat_row,
                    row_xi(p_row, z), row_xi(q_row, z), h_part, hperp, h_part + hperp]
        got = [gaps[r], e1[r], e2[r], tot[r], flat[2][r], xi_p[r], xi_q[r],
               bound.h_part[r], bound.hperp_part[r], bound.total[r]]
        assert np.array_equal(bits(got), bits(expected)), r
        assert np.array_equal(bits(values[r]), bits(q_row.value(xs[r])))
        assert np.array_equal(bits(slopes[r]), bits(q_row.derivative(xs[r])))


@settings(deadline=None, max_examples=100)
@given(F=st.sampled_from(SOURCES), f=st.sampled_from(FLUXES), eps=st.floats(0.0, 1.0, exclude_min=True),
       zeta=st.one_of(st.floats(-0.999, 0.999), st.sampled_from([0.0, TOL / 2, -TOL, 2 * TOL])))
@np.errstate(over="ignore")
def test_single_zeta_matches_the_row_form(F, f, eps, zeta):
    """A float zeta is the one-row case and gives the per-row bits, as floats."""
    F, f = compile_expression(F, ("x",)), compile_expression(f, ("x",))
    q, q_row = solve_exact_1d(forcing(F, f), zeta, eps), row_exact(F, f, zeta, eps)
    x = np.linspace(-1.0, 1.0, 41)
    assert np.array_equal(q.breakpoints, q_row.breakpoints)
    assert np.array_equal(bits(q.value(x)), bits(q_row.value(x)))
    assert np.array_equal(bits(q.derivative(x)), bits(q_row.derivative(x)))
    p, p_row = solve_exact_1d(forcing(F, f), 0.0, eps), row_exact(F, f, 0.0, eps)
    bound = estimate_rhs_1d(F, f, zeta, eps)
    got = [vnorm_diff_1d(p, q), *energy_split_1d(q, zeta, eps)[:2], xi_1d(p, zeta),
           bound.h_part, bound.hperp_part]
    assert all(type(v) is float for v in got)
    expected = [row_vnorm_diff(p_row, q_row), row_energy(q_row, -1.0, zeta),
                row_energy(q_row, zeta, 1.0) / eps, row_xi(p_row, zeta), *row_bound(F, f, zeta, eps)]
    assert np.array_equal(bits(got), bits(expected))


def test_rows_of_another_structure_are_refused():
    fr = forcing(f=ONE)
    with pytest.raises(ValueError, match="differ in structure"):
        solve_exact_1d(fr, np.array([0.3, -0.2]), 0.5)
    with pytest.raises(ValueError, match="differ in structure"):
        solve_exact_1d(fr, np.array([0.3, TOL / 2]), 0.5)
    with pytest.raises(ValueError, match="zeta must lie"):
        estimate_rhs_1d(ZERO, ONE, np.array([0.3, -0.2]), 0.5)
    with pytest.raises(ValueError, match="zeta must lie"):
        xi_1d(solve_exact_1d(fr, 0.0, 0.5), np.array([0.3, 0.0]))
