import csv
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from darcyperturb import solver1d, study
from darcyperturb.config import compile_expression
from darcyperturb.geometry import ForcingSpec
from darcyperturb.study import (
    CSV_COLUMNS,
    ConvergenceRecord,
    check_estimates,
    emit_report,
    loglog_slope,
    run_sequence,
)
from oracles import FLUXES, SOURCES, TOL, bits, row_exact, row_study, sine_shape

ZERO = lambda x: np.zeros_like(x)
ONE = lambda x: np.ones_like(x)
ZERO2 = lambda x, z: np.zeros_like(x)
ONE2 = lambda x, z: np.ones_like(x)


def test_single_zero_amplitude():
    fr = ForcingSpec(F=ZERO, f=ONE)
    recs = run_sequence(None, [0.0], fr, 0.5, 64, "oned")
    assert len(recs) == 1
    assert recs[0].vnorm_gap == pytest.approx(0.0, abs=1e-12)
    assert recs[0].status == "ok"


def test_oned_sqrt_law():
    fr = ForcingSpec(F=ZERO, f=ONE)
    amps = [0.25 * 2.0**-k for k in range(7)]
    recs = run_sequence(None, amps, fr, 0.5, 64, "oned")
    for rec in recs:
        assert rec.vnorm_gap == pytest.approx(np.sqrt(rec.amplitude), abs=1e-9)
        assert rec.bound_total == pytest.approx(rec.vnorm_gap, abs=1e-9)
    assert loglog_slope(recs) == pytest.approx(0.5, abs=0.02)


def test_oned_bound_check_tight():
    fr = ForcingSpec(F=ZERO, f=ONE)
    recs = run_sequence(None, [0.25, 0.0625], fr, 0.5, 64, "oned")
    rep = check_estimates(recs)
    # the gap bound (a) holds with equality; only the energy check (b) can fail
    assert not any("exceeds bound" in f for f in rep.failures)


def test_amplitude_validation():
    fr = ForcingSpec(F=ZERO, f=ONE)
    with pytest.raises(ValueError):
        run_sequence(None, [], fr, 0.5, 64, "oned")
    with pytest.raises(ValueError):
        run_sequence(None, [0.1, 0.2], fr, 0.5, 64, "oned")
    with pytest.raises(ValueError):
        run_sequence(None, [1.2], fr, 0.5, 64, "oned")
    with pytest.raises(ValueError):
        run_sequence(None, [0.1], fr, 0.5, 64, "noned")


def test_failed_row_does_not_abort():
    def flaky(x):
        x = np.asarray(x)
        if np.any(x > 0.2):  # blows up only for the first amplitude
            raise ValueError("boom")
        return np.zeros_like(x)

    fr = ForcingSpec(F=ZERO, f=flaky)
    recs = run_sequence(None, [0.25, 0.125], fr, 0.5, 64, "oned")
    assert recs[0].status.startswith("failed")
    assert recs[1].status == "ok"
    rep = check_estimates(recs)
    assert not rep.passed


def _sweep_with_failing_solver(monkeypatch, mode, error):
    """Run a two-row sweep whose solves of perturbed problems raise `error`."""
    from darcyperturb import fem2d, flatten

    if mode == "oned":
        # zeta is an array for a batch of rows
        module, name, perturbed = solver1d, "solve_exact_1d", lambda args: np.any(np.asarray(args[1]) != 0.0)
    elif mode == "fitted2d":
        module, name, perturbed = fem2d, "assemble_solve", lambda args: np.any(args[0].zeta_at_cols)
    else:
        # only the rows solve on the flattened path; p is a fitted solve on the flat mesh
        module, name, perturbed = flatten, "solve_flattened", lambda args: args[0].norm_sup > 0.0
    fr = ForcingSpec(F=ZERO, f=ONE) if mode == "oned" else ForcingSpec(F=ZERO2, f=ONE2)
    real = getattr(module, name)

    def solve(*args, **kwargs):
        if perturbed(args):
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, solve)
    return run_sequence(sine_shape, [0.2, 0.1], fr, 0.5, 8, mode)


@pytest.mark.parametrize("mode", ["oned", "fitted2d", "flattened2d"])
def test_solver_error_marks_row_failed(monkeypatch, mode):
    from darcyperturb.fem2d import SolverConvergenceError

    recs = _sweep_with_failing_solver(monkeypatch, mode, SolverConvergenceError("no convergence", 1.0))
    assert [r.status for r in recs] == ["failed: no convergence"] * 2


@pytest.mark.parametrize("mode", ["oned", "fitted2d", "flattened2d"])
def test_programming_error_propagates(monkeypatch, mode):
    with pytest.raises(TypeError, match="bug"):
        _sweep_with_failing_solver(monkeypatch, mode, TypeError("bug"))


@pytest.mark.parametrize("mode", ["fitted2d", "flattened2d"])
def test_2d_sweep_builds_every_zeta_before_the_first_solve(monkeypatch, mode):
    """A shape that raises on a later amplitude stops the sweep before any
    mesh is built or any row solved: the error is not a failed row."""
    from darcyperturb import fem2d

    built = []
    monkeypatch.setattr(fem2d, "build_fitted_mesh", lambda *args: built.append(args))

    def shape(amp):
        if amp < 0.15:
            raise ValueError("hat knot must lie in (0, 1), got 1.5")
        return sine_shape(amp)

    with pytest.raises(ValueError, match="hat knot"):
        run_sequence(shape, [0.2, 0.1], ForcingSpec(F=ZERO2, f=ONE2), 0.5, 8, mode)
    assert built == []


# --- the 1D sweep in row batches against the sweep one row at a time (tests/oracles.py)

# amplitudes at and within the merge tolerance of 0 and 1, which run alone
EDGE_AMPLITUDES = [TOL / 2, TOL, 2 * TOL, 1e-12, 1.0 - 2 * TOL, 1.0 - TOL, 1.0 - TOL / 2,
                   float(np.nextafter(1.0, 0.0))]


@st.composite
def ladders(draw):
    """Decreasing amplitude ladders of any length, with edge amplitudes and 0 mixed in."""
    inner = st.floats(1e-9, 0.999)
    amps = draw(st.lists(st.one_of(inner, inner, inner, st.sampled_from(EDGE_AMPLITUDES)),
                         min_size=1, max_size=40))
    if draw(st.booleans()):
        amps.append(0.0)
    return sorted(set(amps), reverse=True)


def _assert_rows_match(recs, rows):
    assert len(recs) == len(rows)
    for rec, row in zip(recs, rows):
        assert rec.status == row["status"]
        for col in CSV_COLUMNS[4:-1]:
            assert bits(getattr(rec, col)) == bits(row[col]), (rec.amplitude, col)


@settings(deadline=None, max_examples=40)
@given(F=st.sampled_from(SOURCES), f=st.sampled_from(FLUXES),
       eps=st.floats(0.0, 1.0, exclude_min=True), amps=ladders())
@example(F="sin(pi*x) + x**2", f="1 + 0.5*x", eps=0.3,
         amps=sorted([k / 40 for k in range(1, 34)] + [TOL, 1.0 - TOL, 0.0], reverse=True))
@example(F="exp(x) - 2", f="cos(3*x)", eps=0.7,  # more rows than one batch holds
         amps=sorted([k / 100 for k in range(1, 100)] + [0.0], reverse=True))
def test_batched_sweep_matches_rows_one_at_a_time(F, f, eps, amps):
    forcing = ForcingSpec(F=compile_expression(F, ("x",)), f=compile_expression(f, ("x",)))
    with np.errstate(all="ignore"):
        recs = run_sequence(None, amps, forcing, eps, 64, "oned")
        rows = row_study(amps, forcing, eps)
    _assert_rows_match(recs, rows)


def _raises_at(zeta):
    def f(x):
        x = np.asarray(x)
        if np.any(x == zeta):
            raise ArithmeticError(f"no flux at {zeta}")
        return 1.0 + 0.5 * x

    return f


@pytest.mark.parametrize("F, f, status", [
    ("x**2", _raises_at(0.3), "failed: no flux at 0.3"),
    # f(0.3) is inf, so the slope of that row's solution is non-finite
    ("x**2", "1/(x - 0.3)", "failed: non-finite integrand sample in Antiderivative"),
    # every sample is finite, and so is the integral of F over (-1, 1), 1.2e308;
    # only with the row's flux of 1e308 at 0.3 does the slope overflow
    ("6e307", "1e308*exp(-(1000*(x - 0.3))**2)", "failed: non-finite integrand sample in Antiderivative"),
], ids=["raising-forcing", "non-finite-sample", "overflowing-slope"])
def test_failing_row_fails_alone_in_its_batch(F, f, status):
    amps = [(40 - k) / 100 for k in range(40)]
    assert 0.3 in amps[1:15]  # inside the first batch
    if isinstance(f, str):
        f = compile_expression(f, ("x",))
    forcing = ForcingSpec(F=compile_expression(F, ("x",)), f=f)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        recs = run_sequence(None, amps, forcing, 0.4, 64, "oned")
        rows = row_study(amps, forcing, 0.4)
    assert [r.status for r in recs] == [status if a == 0.3 else "ok" for a in amps]
    _assert_rows_match(recs, rows)


def test_overflowing_source_fails_the_unperturbed_solve():
    """A constant F whose integral overflows fails p, which every row shares:
    the sweep raises the error the one-row oracle raises."""
    forcing = ForcingSpec(F=compile_expression("1e308", ("x",)), f=ONE)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite integrand sample") as got:
            run_sequence(None, [0.4, 0.3], forcing, 0.4, 64, "oned")
        with pytest.raises(ValueError) as want:
            row_study([0.4, 0.3], forcing, 0.4)
    assert str(got.value) == str(want.value)


def test_redone_rows_carry_the_failed_attempt(monkeypatch):
    """Each row of a failed batch, solved again alone, also carries its share of
    the failed attempt's time (a clock that ticks once per reading)."""
    monkeypatch.setattr(study, "perf_counter", itertools.count().__next__)
    n = study._ONED_BATCH_ROWS
    # a decreasing ladder in (0.2, 0.4) for any n, with 0.3 at row n // 2
    amps = [0.3 * (1.0 + (n // 2 - k) / (4 * (n + 4))) for k in range(n + 4)]
    assert 0.3 in amps[:n]
    forcing = ForcingSpec(F=compile_expression("x**2", ("x",)), f=_raises_at(0.3))
    recs = run_sequence(None, amps, forcing, 0.4, 64, "oned")
    assert [r.status != "ok" for r in recs].count(True) == 1
    # the failed batch: one tick over n rows, then one tick per row; the rest: one tick over 4 rows
    assert [r.runtime for r in recs] == [1.0 + 1.0 / n] * n + [0.25] * 4


def test_forcings_see_flat_points():
    """A forcing written for 1-D arrays works in a batch: it is called on flat points."""

    def flat_only(fn):
        def call(x):
            assert np.ndim(x) == 1
            return fn(x)

        return call

    forcing = ForcingSpec(F=flat_only(lambda x: np.sin(3.0 * x)), f=flat_only(lambda x: 1.0 + x * x))
    amps = list(np.linspace(0.6, 0.05, 20))
    _assert_rows_match(run_sequence(None, amps, forcing, 0.2, 64, "oned"), row_study(amps, forcing, 0.2))


def test_oned_sweep_runs_in_batches(monkeypatch):
    """Rows of one structure are solved together, at most _ONED_BATCH_ROWS at a
    time; 0 and amplitudes within the merge tolerance of 0 or 1 run alone."""
    sizes = []
    real = solver1d.solve_exact_1d

    def solve(forcing, zeta, eps):
        sizes.append(np.size(zeta) if np.ndim(zeta) else None)
        return real(forcing, zeta, eps)

    monkeypatch.setattr(solver1d, "solve_exact_1d", solve)
    n = study._ONED_BATCH_ROWS
    amps = [1.0 - TOL / 2, *np.linspace(0.9, 0.1, 2 * n + 3), TOL, 0.0]
    recs = run_sequence(None, amps, ForcingSpec(F=ZERO, f=ONE), 0.5, 64, "oned")
    assert all(r.status == "ok" for r in recs)
    # p, the edge row, two full batches and the rest, the edge row and 0
    assert sizes == [None, None, n, n, 3, None, None]
    runtimes = [r.runtime for r in recs]
    assert runtimes[1:n + 1] == [runtimes[1]] * n


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_oned_batch_builds_no_value_antiderivative(monkeypatch, sign):
    """A batch of the 1D sweep reads only slopes: it builds IR, IL and the
    bound's IF, and no antiderivative of a slope.  Values read afterwards are
    built once and keep the bits of the one-row form."""
    built, fields = [], []

    class Counted(solver1d.Antiderivative):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    real = solver1d.solve_exact_1d

    def solve(*args):
        fields.append(real(*args))
        return fields[-1]

    F, f = compile_expression("sin(3*x) + x**2", ("x",)), compile_expression("exp(x) + 0.5", ("x",))
    forcing = ForcingSpec(F=F, f=f)
    p = solver1d.solve_exact_1d(forcing, 0.0, 0.13)
    zetas = sign * np.linspace(0.85, 0.05, 12)
    recs = [ConvergenceRecord(amplitude=z, norm_sup=abs(z), norm_w1inf=abs(z), resolution=64) for z in zetas]
    monkeypatch.setattr(solver1d, "Antiderivative", Counted)
    monkeypatch.setattr(solver1d, "solve_exact_1d", solve)
    study._fill_oned(recs, zetas, p, forcing, 0.13)
    assert len(built) == 3
    (q,) = fields
    lo, hi = np.minimum(zetas, 0.0), np.maximum(zetas, 0.0)
    s = np.linspace(0.0, 0.99, 9)
    xs = np.concatenate([-1.0 + (lo + 1.0)[:, None] * s, lo[:, None] + (hi - lo)[:, None] * s,
                         hi[:, None] + (1.0 - hi)[:, None] * s], axis=1)
    for _ in range(2):
        values = q.value(xs)
        assert len(built) == 5  # V_left and V_right, on the first read only
    for r, z in enumerate(zetas):
        assert np.array_equal(bits(values[r]), bits(row_exact(F, f, z, 0.13).value(xs[r])))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_oned_batch_differentiates_each_field_once(monkeypatch, sign):
    """The gap, both energy splits and xi_p of a batch read one table of
    slopes: p and q are each differentiated in one call."""
    calls = []
    real = solver1d.PiecewiseField1D._eval

    def counted(field, x, attr):
        if attr == "deriv":
            calls.append(field)
        return real(field, x, attr)

    F, f = compile_expression("sin(3*x) + x**2", ("x",)), compile_expression("exp(x) + 0.5", ("x",))
    forcing = ForcingSpec(F=F, f=f)
    p = solver1d.solve_exact_1d(forcing, 0.0, 0.13)
    zetas = sign * np.linspace(0.85, 0.05, 12)
    recs = [ConvergenceRecord(amplitude=z, norm_sup=abs(z), norm_w1inf=abs(z), resolution=64) for z in zetas]
    monkeypatch.setattr(solver1d.PiecewiseField1D, "_eval", counted)
    study._fill_oned(recs, zetas, p, forcing, 0.13)
    # once on p, and once on q, the field of 12 rows
    assert len(calls) == 2 and sum(c is p for c in calls) == 1
    assert {c.breakpoints.shape for c in calls} == {(3,), (12, 4)}


@pytest.mark.parametrize("F, f", [("0", "1"), ("sin(3*x) + x**2", "cos(x)")])
def test_full_and_partial_batch_match_rows_one_at_a_time(F, f):
    """70 amplitudes: one batch of _ONED_BATCH_ROWS rows, the size the
    benchmark runs, and one partial batch, each column bit for bit."""
    amps = list(np.linspace(0.9, 0.01, 70))
    assert [len(b) for b in study._oned_batches(amps)] == [study._ONED_BATCH_ROWS, 70 - study._ONED_BATCH_ROWS]
    forcing = ForcingSpec(F=compile_expression(F, ("x",)), f=compile_expression(f, ("x",)))
    _assert_rows_match(run_sequence(None, amps, forcing, 0.3, 64, "oned"), row_study(amps, forcing, 0.3))


def test_fitted2d_sweep_decreasing():
    from darcyperturb import fem2d
    from darcyperturb.geometry import make_perturbation

    fr = ForcingSpec(F=ZERO2, f=ONE2)
    recs = run_sequence(sine_shape, [0.2, 0.1, 0.05], fr, 0.1, 24, "fitted2d")
    gaps = [r.vnorm_gap for r in recs]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(r.status == "ok" for r in recs)

    # diagonal energies of q^zeta converge to the energy of the flat solve, and
    # the flat-split energies sandwich toward it
    ref = fem2d.build_fitted_mesh(make_perturbation("sine", {"wavenumber": 1}, 0.0), 24, 24)
    p_total = fem2d.energy_split(fem2d.assemble_solve(ref, fr, eps=0.1), 0.1)[2]
    diag_devs = [abs(r.energy_total - p_total) for r in recs]
    flat_devs = [abs(r.energy_flat_total - p_total) for r in recs]
    assert all(b < a for a, b in zip(diag_devs, diag_devs[1:]))
    assert all(b < a for a, b in zip(flat_devs, flat_devs[1:]))


def test_flattened2d_sweep_matches_energy():
    fr = ForcingSpec(F=ZERO2, f=ONE2)
    recs = run_sequence(sine_shape, [0.2, 0.1], fr, 0.1, 16, "flattened2d")
    assert all(r.status == "ok" for r in recs)
    assert recs[1].vnorm_gap < recs[0].vnorm_gap
    assert recs[0].energy_total > 0.0


def test_emit_report_roundtrip(tmp_path):
    fr = ForcingSpec(F=ZERO, f=ONE)
    recs = run_sequence(None, [0.25], fr, 0.5, 64, "oned")
    paths = emit_report(recs, tmp_path)
    lines = (tmp_path / "records.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("amplitude,")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["n_records"] == 1


def test_failed_row_with_a_comma_stays_one_cell(tmp_path):
    # the status cell is written as csv.writer writes it: a failure message
    # with a comma and a quote stays one cell of a 16-cell row, and the rows
    # without either keep their unquoted bytes
    def f(x):
        if np.any(np.asarray(x) == 0.3):
            raise ArithmeticError('no flux at 0.3, "sign" unknown')
        return 1.0 + 0.5 * np.asarray(x)

    recs = run_sequence(None, [0.4, 0.3, 0.2], ForcingSpec(F=ZERO, f=f), 0.5, 64, "oned")
    assert [r.status for r in recs] == ["ok", 'failed: no flux at 0.3, "sign" unknown', "ok"]
    emit_report(recs, tmp_path)
    lines = (tmp_path / "records.csv").read_text().splitlines()
    rows = list(csv.reader(lines))
    assert [len(row) for row in rows] == [len(CSV_COLUMNS)] * 4
    assert [row[-1] for row in rows] == ["status"] + [r.status for r in recs]
    for line, row in zip(lines, rows):
        written = io.StringIO()
        csv.writer(written, lineterminator="\n").writerow(row)
        assert written.getvalue() == line + "\n"
    assert lines[1] == ",".join(rows[1]) and lines[3] == ",".join(rows[3])


def test_emit_report_empty_errors(tmp_path):
    with pytest.raises(ValueError, match="no records"):
        emit_report([], tmp_path)


def test_emit_report_deterministic(tmp_path):
    fr = ForcingSpec(F=lambda x: x**2, f=lambda x: np.cos(x))
    first = run_sequence(None, [0.25, 0.125, 0.0625], fr, 0.5, 64, "oned")
    second = run_sequence(None, [0.25, 0.125, 0.0625], fr, 0.5, 64, "oned")
    emit_report(first, tmp_path / "a")
    emit_report(second, tmp_path / "b")
    assert (tmp_path / "a/records.csv").read_bytes() == (tmp_path / "b/records.csv").read_bytes()


def test_slope_of_sqrt_family():
    recs = [
        ConvergenceRecord(amplitude=a, norm_sup=a, norm_w1inf=a, resolution=1,
                          vnorm_gap=np.sqrt(a))
        for a in (0.25, 0.125, 0.0625, 0.03125, 0.015625)
    ]
    assert loglog_slope(recs) == pytest.approx(0.5, abs=1e-12)


def test_gap_target():
    fr = ForcingSpec(F=ZERO, f=ONE)
    recs = run_sequence(None, [0.25, 0.0625], fr, 0.5, 64, "oned")
    rep = check_estimates(recs, gap_target=1e-6)
    assert any("target" in f for f in rep.failures)
    rep2 = check_estimates(recs, gap_target=0.5)
    assert not any("target" in f for f in rep2.failures)
