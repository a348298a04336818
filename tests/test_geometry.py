import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import darcyperturb
from darcyperturb.fem2d import Field2D, build_fitted_mesh
from darcyperturb.geometry import (
    FLAT_ZETA,
    _segment_edges,
    lower_bound_constant,
    make_perturbation,
    perturbation_from_table,
    strip_measures,
    validate_admissible,
    xi_perturbation,
)


def test_zero_perturbation():
    z = make_perturbation("sine", {"wavenumber": 1}, amplitude=0.0)
    assert z.norm_sup == 0.0
    assert np.allclose(z.value(np.linspace(0, 1, 11)), 0.0)


def test_sine_norms():
    z = make_perturbation("sine", {"wavenumber": 1}, amplitude=0.25)
    assert z.norm_sup == pytest.approx(0.25)
    # ess-sup of the gradient is amplitude * pi
    assert z.norm_w1inf - z.norm_sup == pytest.approx(0.25 * np.pi)
    assert float(z.value(0.5)) == pytest.approx(0.25)


def test_hat_slopes():
    z = make_perturbation("hat", {"knot": 0.5}, amplitude=0.5)
    assert float(z.value(0.5)) == pytest.approx(0.5)
    assert float(z.gradient(0.2)) == pytest.approx(1.0)
    assert float(z.gradient(0.8)) == pytest.approx(-1.0)


def test_make_perturbation_rejections():
    with pytest.raises(ValueError):
        make_perturbation("sine", {"wavenumber": 1}, amplitude=1.0)
    with pytest.raises(ValueError):
        make_perturbation("sine", {"wavenumber": 0}, amplitude=0.1)
    with pytest.raises(ValueError):
        make_perturbation("sine", {"wavenumber": 1.5}, amplitude=0.1)  # would not pin at x=1
    with pytest.raises(ValueError):
        make_perturbation("spline", {}, amplitude=0.1)
    with pytest.raises(ValueError):
        make_perturbation("sine", {"wavenumber": 1}, amplitude=-0.1)
    with pytest.raises(ValueError):
        make_perturbation("hat", {"knot": 0.5, "wavenumber": 2}, amplitude=0.1)  # stray param


def test_admissibility():
    ok = validate_admissible(make_perturbation("sine", {"wavenumber": 1}, 0.25))
    assert ok.admissible and not ok.violations

    zero = validate_admissible(make_perturbation("sine", {"wavenumber": 1}, 0.0))
    assert zero.admissible

    # constant nonzero perturbation violates the wall pinning
    from darcyperturb.geometry import Perturbation

    const = Perturbation(
        value=lambda x: np.full_like(np.asarray(x, dtype=float), 0.1),
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        norm_sup=0.1,
        norm_w1inf=0.1,
    )
    rep = validate_admissible(const)
    assert not rep.admissible
    assert any("vanish" in v for v in rep.violations)


def test_table_perturbation():
    x = np.linspace(0.0, 1.0, 9)
    z = 0.2 * np.sin(np.pi * x)
    z[0] = z[-1] = 0.0
    tab = perturbation_from_table(x, z)
    assert tab.norm_sup == pytest.approx(0.2, abs=1e-2)
    assert validate_admissible(tab).admissible
    with pytest.raises(ValueError):
        perturbation_from_table(x, z + 0.05)


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_table_rejects_a_value_that_is_not_finite(column, bad):
    # each other check of the table is false on NaN, so a NaN row passed
    # them all; an inf broke one of them under another name
    table = np.column_stack([np.linspace(0.0, 1.0, 5), [0.0, 0.1, 0.2, 0.1, 0.0]])
    table[2, column] = bad
    with pytest.raises(ValueError, match="not finite"):
        perturbation_from_table(table[:, 0], table[:, 1])


def test_strip_measures_sine():
    z = make_perturbation("sine", {"wavenumber": 1}, 0.25)
    m1, m2 = strip_measures(z)
    assert m1 == pytest.approx(0.25 * 2.0 / np.pi, abs=1e-10)
    assert m2 == pytest.approx(0.0, abs=1e-12)


def test_strip_measures_sine2_symmetric():
    z = make_perturbation("sine", {"wavenumber": 2}, 0.25)
    m1, m2 = strip_measures(z)
    assert m1 == pytest.approx(0.25 / np.pi, abs=1e-10)
    assert m2 == pytest.approx(0.25 / np.pi, abs=1e-10)


def test_strip_measures_zero():
    z = make_perturbation("sine", {"wavenumber": 1}, 0.0)
    assert strip_measures(z) == (0.0, 0.0)


@pytest.mark.parametrize("family,params", [("sine", {"wavenumber": 2}), ("hat", {"knot": 0.3}), ("bump", {})])
def test_strip_measures_homogeneous(family, params):
    base = make_perturbation(family, dict(params), 0.4)
    m1, m2 = strip_measures(base)
    for t in (0.5, 0.25, 0.125):
        scaled = make_perturbation(family, dict(params), 0.4 * t)
        s1, s2 = strip_measures(scaled)
        assert abs(s1 - t * m1) < 1e-10
        assert abs(s2 - t * m2) < 1e-10


def test_lower_bound_constant():
    zero = make_perturbation("sine", {"wavenumber": 1}, 0.0)
    assert lower_bound_constant(zero, 0.3) == pytest.approx(1.0)

    z = make_perturbation("sine", {"wavenumber": 1}, 0.25)
    # m1 + m2 = 2*0.25/pi; eps = 0.1 -> 1 - 0.1*9*(0.5/pi)
    assert lower_bound_constant(z, 0.1) == pytest.approx(1.0 - 0.9 * 0.5 / np.pi, abs=1e-9)
    assert lower_bound_constant(z, 1.0) == pytest.approx(1.0)

    # monotone toward 1 as amplitude shrinks
    amps = [0.4, 0.2, 0.1, 0.05]
    cs = [lower_bound_constant(make_perturbation("sine", {"wavenumber": 1}, a), 0.1) for a in amps]
    assert all(c2 > c1 for c1, c2 in zip(cs, cs[1:]))
    assert cs[-1] > 0.97


def test_lower_bound_arithmetic():
    # m1 + m2 = 0.1 at eps = 0.5 gives 0.95; build a hat with that strip mass
    # hat integral = amplitude/2 -> amplitude 0.2
    z = make_perturbation("hat", {"knot": 0.5}, 0.2)
    assert lower_bound_constant(z, 0.5) == pytest.approx(0.95, abs=1e-10)


def reference_field(values_at, n=16):
    """P1 field on the n x n reference mesh with nodal values values_at(x, z)."""
    mesh = build_fitted_mesh(FLAT_ZETA, n, n)
    return Field2D(mesh=mesh, values=values_at(mesh.nodes[:, 0], mesh.nodes[:, 1]))


def polyline_strip_area(zeta, col_x):
    """int zeta_h (signed) and int |zeta_h| of the polyline through the columns."""
    a, b = zeta.value(col_x[:-1]), zeta.value(col_x[1:])
    dx = np.diff(col_x)
    signed = float(np.sum(0.5 * dx * (a + b)))
    # a column where zeta_h changes sign holds two triangles of heights |a| and |b|
    crossing = a * b < 0.0
    width = np.where(crossing, (a * a + b * b) / np.where(crossing, np.abs(a) + np.abs(b), 1.0),
                     np.abs(a + b))
    return signed, float(np.sum(0.5 * dx * width))


def test_xi_zero_perturbation():
    # both clips see the same heights, so every strip area is exactly 0
    rng = np.random.default_rng(3)
    r = reference_field(lambda x, z: rng.standard_normal(x.shape))
    assert xi_perturbation(r, make_perturbation("sine", {"wavenumber": 1}, 0.0)) == 0.0
    assert xi_perturbation(r, FLAT_ZETA) == 0.0


def test_xi_constant_gradient():
    # grad r constant c: xi = |c|^2 (m2 - m1) up to the trapezoid error of the
    # polyline, h^2 |zeta'(1) - zeta'(0)| / 12 + O(h^4) <= amp h^2 here
    c = (0.7, -1.3)
    c2 = c[0] ** 2 + c[1] ** 2
    n = 64
    r = reference_field(lambda x, z: c[0] * x + c[1] * z, n)
    for family, params, amp in [("sine", {"wavenumber": 1}, 0.3), ("sine", {"wavenumber": 2}, 0.2), ("hat", {"knot": 0.25}, 0.4)]:
        z = make_perturbation(family, params, amp)
        m1, m2 = strip_measures(z)
        assert xi_perturbation(r, z) == pytest.approx(c2 * (m2 - m1), abs=c2 * amp / n**2)


def test_xi_symmetric_cancel():
    z = make_perturbation("sine", {"wavenumber": 2}, 0.25)
    assert xi_perturbation(reference_field(lambda x, zz: zz), z) == pytest.approx(0.0, abs=1e-14)


def test_xi_sup_bound():
    rng = np.random.default_rng(7)
    z = make_perturbation("sine", {"wavenumber": 3}, 0.2)
    for _ in range(5):
        a, b, c = rng.uniform(-1, 1, size=3)
        r = reference_field(lambda x, zz: a * x + b * zz + c * x * zz, 24)
        g = r.gradients()
        sup2 = float(np.max(np.sum(g * g, axis=1)))
        _, strip = polyline_strip_area(z, r.mesh.col_x)
        assert abs(xi_perturbation(r, z)) <= sup2 * strip * (1.0 + 1e-12)


XI_SHAPES = {"sine": {"wavenumber": 1}, "sine2": {"wavenumber": 2}, "sine3": {"wavenumber": 3},
             "bump": {}, "hat": {"knot": 0.3}}


@settings(deadline=None, max_examples=60)
@given(family=st.sampled_from(sorted(XI_SHAPES)), amp=st.floats(0.0, 0.9), sign=st.sampled_from([1.0, -1.0]),
       n=st.integers(2, 24), c=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_xi_of_a_linear_field_is_the_polyline_strip_area(family, amp, sign, n, c):
    # for grad r = c the clip gives |c|^2 (|{z <= 0}| - |{z <= zeta_h}|) = -|c|^2 int zeta_h
    shape = make_perturbation(family.rstrip("23"), XI_SHAPES[family], amp)
    xs = np.linspace(0.0, 1.0, 2 * n + 1)
    zeta = shape if sign > 0 else perturbation_from_table(xs, -shape.value(xs))
    r = reference_field(lambda x, z: c[0] * x + c[1] * z, n)
    signed, _ = polyline_strip_area(zeta, r.mesh.col_x)
    assert abs(xi_perturbation(r, zeta) + (c[0] ** 2 + c[1] ** 2) * signed) <= 1e-13


def _run_python(code: str, cwd: Path) -> str:
    """Run `code` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(darcyperturb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_does_not_load_scipy_optimize(tmp_path):
    code = "import sys, darcyperturb.cli; print('scipy.optimize' in sys.modules)"
    assert _run_python(code, tmp_path) == "False"


@pytest.mark.parametrize("mode", ["fitted2d", "flattened2d"])
def test_one_signed_study_never_loads_scipy_optimize(tmp_path, mode):
    # sine k = 1 never changes sign, so no root is bracketed and the import
    # is not paid during the run either
    (tmp_path / "run.ini").write_text(
        "[domain]\ndim = 2\neps = 0.1\n"
        "[perturbation]\nfamily = sine\nwavenumber = 1\n"
        "[forcing]\nF = 0\nf = 1\n"
        "[solver]\nnx = 8\nnz = 8\n"
        f"[study]\nmode = {mode}\namplitudes = 0.2 0.1\n"
    )
    code = ("import sys\n"
            "from darcyperturb.cli import dispatch\n"
            "assert dispatch(['study', '--config', 'run.ini', '--out-dir', 'out']) == 0\n"
            "print('scipy.optimize' in sys.modules)")
    assert _run_python(code, tmp_path) == "False"
    assert (tmp_path / "out" / "records.csv").exists()


_STUDIES = {
    "oned": "[domain]\ndim = 1\neps = 0.5\n[forcing]\nF = 0\nf = 1\n"
            "[study]\nmode = oned\namplitudes = 0.2 0.1\n",
    "fitted2d": "[domain]\ndim = 2\neps = 0.1\n[perturbation]\nfamily = sine\nwavenumber = 1\n"
                "[forcing]\nF = 0\nf = 1\n[solver]\nnx = 8\nnz = 8\n"
                "[study]\nmode = fitted2d\namplitudes = 0.2 0.1\n",
}


@pytest.mark.parametrize("run", ["import", "oned", "fitted2d"])
def test_runs_load_no_scipy_beyond_sparse(tmp_path, run):
    # the baseline is what `import scipy.sparse` loads by itself, whatever the
    # scipy version; neither scipy.linalg nor scipy.sparse.linalg may come on top
    code = "import sys, scipy.sparse\nbase = set(sys.modules)\nfrom darcyperturb.cli import dispatch\n"
    if run != "import":
        (tmp_path / "run.ini").write_text(_STUDIES[run])
        code += "assert dispatch(['study', '--config', 'run.ini', '--out-dir', 'out']) == 0\n"
    code += "print(sorted(m for m in set(sys.modules) - base if m.split('.')[0] == 'scipy'))"
    assert _run_python(code, tmp_path) == "[]"


def test_table_sign_change_inside_segment():
    # zeta falls linearly from 0.3 at x = 0.2 to -0.1 at x = 0.7, so its zero
    # x0 = 0.575 is neither a knot nor a sample point: only root finding adds it
    x0 = 0.575
    zeta = perturbation_from_table(np.array([0.0, 0.2, 0.7, 1.0]), np.array([0.0, 0.3, -0.1, 0.0]))
    edges = _segment_edges(zeta)
    assert np.min(np.abs(edges - x0)) < 1e-12
    m1, m2 = strip_measures(zeta)
    assert m1 == pytest.approx(0.5 * x0 * 0.3, abs=1e-12)
    assert m2 == pytest.approx(0.5 * (1.0 - x0) * 0.1, abs=1e-12)
