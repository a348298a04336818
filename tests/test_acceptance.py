"""Acceptance suite: each test prints one PASS/FAIL line (run with -s or -rA).

Criteria cover the 1D closed-form oracles and bounds, the projection algebra,
the matrix identities of the flattening maps, the two solution paths in 2D,
the energy identities, strong convergence in 1D and 2D, the pullback-operator
continuity, and byte-identical study reruns.
"""

import time
from pathlib import Path

import numpy as np
from oracles import (from_nodal, h1_norm_smooth, hperp_exact_original, hperp_exact_perturbed, project_H, project_Hperp,
                     sine_shape, t_apply_smooth, vnorm_diff_1d, vnorm_inner_1d)

from darcyperturb.cli import dispatch
from darcyperturb.geometry import ForcingSpec, lower_bound_constant, make_perturbation
from darcyperturb import fem2d, flatten, solver1d, study

ZERO = lambda x: np.zeros_like(x)
ONE = lambda x: np.ones_like(x)
ZERO2 = lambda x, z: np.zeros_like(x)
ONE2 = lambda x, z: np.ones_like(x)


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {name}{detail}")
    assert ok, f"criterion {num} failed: {name}{detail}"


def _vnorm_sum_defect(ph, hp, r):
    """|| P_H r + P_perp r - r ||_V by direct quadrature of the derivative defect."""
    from darcyperturb.quadrature import gauss_rule

    breaks = np.union1d(np.union1d(ph.breakpoints, hp.breakpoints), r.breakpoints)
    t, w = gauss_rule(8)
    lo, hi = breaks[:-1], breaks[1:]
    half = 0.5 * (hi - lo)
    x = lo[:, None] + half[:, None] * (t[None, :] + 1.0)
    d = ph.derivative(x.ravel()) + hp.derivative(x.ravel()) - r.derivative(x.ravel())
    d = d.reshape(x.shape)
    return float(np.sqrt(max(np.sum(half * ((d * d) @ w)), 0.0)))


def sine(amp, k=1):
    return make_perturbation("sine", {"wavenumber": k}, amp)


def test_criterion_1_oned_oracle_equivalence():
    t0 = time.perf_counter()
    F_choices = [ZERO, ONE, lambda x: x**2]
    f_choices = [ZERO, ONE, lambda x: np.cos(x)]
    worst = 0.0
    for F in F_choices:
        for f in f_choices:
            for zeta in (0.25, -0.25, 0.1, -0.1):
                for eps in (0.5, 0.1):
                    fr = ForcingSpec(F=F, f=f, quadrature_order=8)
                    q = solver1d.solve_exact_1d(fr, zeta, eps)
                    p = solver1d.solve_exact_1d(fr, 0.0, eps)
                    worst = max(
                        worst,
                        vnorm_diff_1d(
                            project_Hperp(q, zeta),
                            hperp_exact_perturbed(F, f, zeta, eps),
                        ),
                        vnorm_diff_1d(
                            project_Hperp(p, zeta),
                            hperp_exact_original(F, f, zeta, eps),
                        ),
                    )
    elapsed = time.perf_counter() - t0
    _report(1, "1D oracle equivalence",
            worst < 1e-8 and elapsed < 1.0,
            f" (worst V-norm mismatch {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_oned_bound_tightness():
    fr = ForcingSpec(F=ZERO, f=ONE)
    p = solver1d.solve_exact_1d(fr, 0.0, 0.5)
    zetas = (0.25, 0.0625, 0.015625)
    gaps = []
    ok = True
    for z in zetas:
        gap = vnorm_diff_1d(p, solver1d.solve_exact_1d(fr, z, 0.5))
        bound = solver1d.estimate_rhs_1d(ZERO, ONE, z, 0.5).total
        gaps.append(gap)
        ok &= abs(gap - np.sqrt(z)) < 1e-9
        ok &= abs(gap - bound) < 1e-9
    slope = np.polyfit(np.log(zetas), np.log(gaps), 1)[0]
    ok &= abs(slope - 0.5) < 0.02
    _report(2, "1D bound tightness and sqrt slope", ok, f" (slope {slope:.4f})")


def test_criterion_3_oned_strong_convergence():
    fr = ForcingSpec(F=lambda x: x**2 - 1.0 / 3.0, f=lambda x: x)
    p = solver1d.solve_exact_1d(fr, 0.0, 0.5)
    gaps = [vnorm_diff_1d(p, solver1d.solve_exact_1d(fr, 2.0**-n, 0.5))
            for n in range(1, 13)]
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    _report(3, "1D strong convergence", monotone and gaps[-1] < 1e-3,
            f" (final gap {gaps[-1]:.2e})")


def test_criterion_4_projection_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    ok = True
    worst_sum, worst_orth = 0.0, 0.0
    for k in range(100):
        zeta = (0.1, 0.25, 0.5, -0.25)[k % 4]
        nodes = np.linspace(-1.0, 1.0, 16)
        vals = np.cumsum(rng.normal(size=16))
        vals -= vals[0]
        r = from_nodal(nodes, vals)
        s = from_nodal(nodes, np.concatenate([[0.0], np.cumsum(rng.normal(size=15))]))
        ph = project_H(r, zeta)
        hp = project_Hperp(r, zeta)
        worst_sum = max(worst_sum, _vnorm_sum_defect(ph, hp, r))
        worst_orth = max(worst_orth, abs(vnorm_inner_1d(ph, project_Hperp(s, zeta))))
        lo, hi = (0.0, zeta) if zeta > 0 else (zeta, 0.0)
        gap_pts = np.linspace(lo + 1e-3, hi - 1e-3, 20)
        ok &= float(np.max(np.abs(ph.derivative(gap_pts)))) < 1e-10
        before = np.linspace(-0.999, lo - 1e-3, 20)
        ok &= float(np.max(np.abs(hp.value(before)))) < 1e-10
        after = np.linspace(hi + 1e-3, 0.999, 20)
        ok &= float(np.max(np.abs(hp.derivative(after)))) < 1e-10
    elapsed = time.perf_counter() - t0
    ok &= worst_sum < 1e-10 and worst_orth < 1e-10 and elapsed < 1.0
    _report(4, "projection algebra on 100 random fields", ok,
            f" (sum defect {worst_sum:.2e}, orthogonality {worst_orth:.2e}, {elapsed:.2f}s)")


def test_criterion_5_matrix_suite():
    t0 = time.perf_counter()
    shapes = [sine(0.25), sine(0.2, k=2), make_perturbation("bump", {}, 0.3),
              make_perturbation("hat", {"knot": 0.5}, 0.3), sine(0.1, k=3)]
    rep = flatten.matrix_property_report(shapes, n_points=1000, seed=3)
    elapsed = time.perf_counter() - t0
    ok = (rep["aainv_max"] < 1e-12 and rep["det_max"] < 1e-12
          and rep["norm_excess"] <= 0.0 and rep["coercivity_margin"] >= 0.0
          and rep["chain_rule_max"] < 1e-6 and elapsed < 5.0)
    _report(5, "matrix suite (A A^-1, det, eigenvalue and norm bounds, chain rule)", ok,
            f" (chain rule {rep['chain_rule_max']:.2e}, {elapsed:.2f}s)")


def test_criterion_6_two_path_consistency():
    t0 = time.perf_counter()
    zeta = sine(0.1)
    fr = ForcingSpec(F=ZERO2, f=ONE2)
    eps = 0.1
    gaps = {}
    for n in (16, 32, 64, 128):
        fitted = fem2d.build_fitted_mesh(zeta, n, n)
        ref = fem2d.build_fitted_mesh(sine(0.0), n, n)
        q = fem2d.assemble_solve(fitted, fr, eps=eps)
        tq = flatten.t_apply(zeta, q, "T", ref)
        rho = flatten.solve_flattened(zeta, fr, eps, ref)
        gaps[n] = fem2d.vnorm_diff_2d(tq, rho)
    C = 2.0 * gaps[16] * 16.0  # calibrated on the coarsest pair, factor-2 slack
    elapsed = time.perf_counter() - t0
    ok = all(gaps[n] <= C / n for n in (32, 64, 128)) and elapsed < 120.0
    _report(6, "two-path consistency gap <= C h (16^2..128^2)", ok,
            f" (gap*n = {[round(gaps[n] * n, 5) for n in (16, 32, 64, 128)]}, {elapsed:.1f}s)")


def test_criterion_7_energy_identities():
    ok = True
    worst_rel = 0.0
    for amp, eps in ((0.0, 0.5), (0.1, 0.1), (0.2, 0.1), (0.15, 0.5)):
        mesh = fem2d.build_fitted_mesh(sine(amp), 32, 32)
        q = fem2d.assemble_solve(mesh, ForcingSpec(F=lambda x, z: x * z, f=ONE2), eps=eps)
        total = fem2d.energy_split(q, eps)[2]
        rel = abs(total - q.meta["load_functional"]) / abs(q.meta["load_functional"])
        worst_rel = max(worst_rel, rel)
    ok &= worst_rel < 1e-8

    rng = np.random.default_rng(4)
    eps = 0.1
    margin = np.inf
    for amp in (0.1, 0.2):
        z = sine(amp, k=2)
        mesh = fem2d.build_fitted_mesh(z, 32, 32)
        c_z = lower_bound_constant(z, eps)
        free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.dirichlet_nodes)
        for _ in range(20):
            vals = np.zeros(mesh.n_nodes)
            vals[free] = rng.normal(size=len(free))
            fld = fem2d.Field2D(mesh=mesh, values=vals)
            _, _, a_zeta, a_flat = fem2d.energy_split(fld, eps)
            margin = min(margin, (a_zeta - c_z * a_flat) / a_flat)
            ok &= a_zeta >= c_z * a_flat - 1e-9 * a_flat
    _report(7, "Galerkin diagonal identity and random-field coercivity", ok,
            f" (identity rel {worst_rel:.2e}, coercivity margin {margin:.4f})")


def test_criterion_8_twod_strong_convergence():
    t0 = time.perf_counter()
    fr = ForcingSpec(F=ZERO2, f=ONE2)
    eps = 0.1
    n = 64
    records = study.run_sequence(sine_shape, [0.2, 0.1, 0.05, 0.025], fr, eps, n, "fitted2d")
    gaps = [r.vnorm_gap for r in records]
    ok = all(r.status == "ok" for r in records)
    ok &= all(b < a for a, b in zip(gaps, gaps[1:]))
    # measurable discretization band at resolution n: || u_n - u_{n/2} ||_V
    p_n = fem2d.assemble_solve(fem2d.build_fitted_mesh(sine(0.0), n, n), fr, eps=eps)
    p_half = fem2d.assemble_solve(fem2d.build_fitted_mesh(sine(0.0), n // 2, n // 2), fr, eps=eps)
    self_err = fem2d.vnorm_diff_2d(p_half, p_n)
    ok &= gaps[-1] < 5.0 * self_err
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    _report(8, "2D strong convergence (fitted sweep)", ok,
            f" (gaps {[round(g, 4) for g in gaps]}, 5x self-conv {5 * self_err:.4f}, {elapsed:.1f}s)")


def test_criterion_9_t_operator_continuity():
    u = lambda x, z: np.sin(np.pi * x) * np.cos(0.5 * np.pi * z)
    gu = lambda x, z: (
        np.pi * np.cos(np.pi * x) * np.cos(0.5 * np.pi * z),
        -0.5 * np.pi * np.sin(np.pi * x) * np.sin(0.5 * np.pi * z),
    )
    shape_const = 1.0 + np.pi  # W1inf norm of the unit-amplitude sine shape
    prev = np.inf
    ok = True
    final = np.inf
    for n in range(1, 9):
        zz = sine(2.0**-n)
        ok &= zz.norm_w1inf <= shape_const + 1e-12
        tv, tg = t_apply_smooth(zz, u, gu)
        dv = lambda x, z: tv(x, z) - u(x, z)

        def dg(x, z):
            ax, az = tg(x, z)
            bx, bz = gu(x, z)
            return ax - bx, az - bz

        final = h1_norm_smooth(dv, dg, nx=64, nz=64)
        ok &= final < prev
        prev = final
    ok &= final < 1e-2
    _report(9, "pullback operator converges to identity", ok, f" (final H1 gap {final:.3e})")


def test_criterion_10_determinism(tmp_path):
    cfg = Path(__file__).resolve().parent.parent / "configs" / "study-1d-sqrt.ini"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = dispatch(["study", "--config", str(cfg), "--out-dir", str(out_a)])
    code_b = dispatch(["study", "--config", str(cfg), "--out-dir", str(out_b)])
    same = (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()
    _report(10, "byte-identical study reruns", code_a == 0 and code_b == 0 and same)
