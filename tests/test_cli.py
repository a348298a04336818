import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darcyperturb import flatten
from darcyperturb.cli import dispatch
from darcyperturb.config import _EXPR_FUNCS, _SECTION_KEYS, ConfigError, compile_expression, load_config


def write_config(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


GOOD_1D = """
[domain]
dim = 1
eps = 0.5

[forcing]
F = 0
f = 1

[study]
mode = oned
amplitudes = 0.25 0.125 0.0625 0.03125
gap_target = 0.3
"""

GOOD_2D = """
[domain]
dim = 2
eps = 0.5

[perturbation]
family = sine
amplitude = 0.2
wavenumber = 1

[forcing]
F = 0
f = 1

[solver]
nx = 8
nz = 8
"""


# --- config ------------------------------------------------------------------


def test_expression_compile_and_reject():
    fn = compile_expression("x**2 - 1/3", ("x",))
    assert fn(np.array([2.0]))[0] == pytest.approx(4 - 1 / 3)
    fn2 = compile_expression("sin(pi*x)*z", ("x", "z"))
    assert fn2(np.array([0.5]), np.array([2.0]))[0] == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        compile_expression("__import__('os')", ("x",))
    with pytest.raises(ConfigError):
        compile_expression("y + 1", ("x",))
    with pytest.raises(ConfigError):
        compile_expression("x.real", ("x",))


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = write_config(tmp_path / "bad.ini", "[domain]\nep = 0.5\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(cfg)
    cfg2 = write_config(tmp_path / "bad2.ini", "[dom]\neps = 0.5\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(cfg2)


def test_load_config_range_validation(tmp_path):
    cfg = write_config(tmp_path / "bad.ini", "[domain]\neps = 1.5\n")
    with pytest.raises(ConfigError, match="eps"):
        load_config(cfg)
    cfg2 = write_config(tmp_path / "bad2.ini", "[perturbation]\namplitude = 1.0\n")
    with pytest.raises(ConfigError, match="amplitude"):
        load_config(cfg2)
    cfg3 = write_config(tmp_path / "bad3.ini", "[solver]\nnx = 1\n")
    with pytest.raises(ConfigError, match="nx"):
        load_config(cfg3)
    cfg4 = write_config(tmp_path / "bad4.ini", "[domain]\nk1 = 0\n")
    with pytest.raises(ConfigError, match="k1"):
        load_config(cfg4)


def test_table_perturbation_from_config(tmp_path):
    xs = np.linspace(0, 1, 17)
    zs = 0.15 * np.sin(np.pi * xs)
    zs[0] = zs[-1] = 0.0
    np.savetxt(tmp_path / "zeta.csv", np.column_stack([xs, zs]), delimiter=",")
    cfg = write_config(tmp_path / "run.ini", "[perturbation]\nfamily = table\ntable = zeta.csv\n")
    loaded = load_config(cfg)
    zeta = loaded.perturbation()
    assert zeta.norm_sup == pytest.approx(0.15, abs=1e-2)


# --- CLI ---------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 64
    assert dispatch([]) == 64


def test_validate_zeta_admissible(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", GOOD_2D)
    assert dispatch(["validate-zeta", "--config", str(cfg)]) == 0


def test_validate_zeta_rejects_amplitude_out_of_range(tmp_path):
    cfg = write_config(tmp_path / "run.ini", GOOD_2D)
    assert dispatch(["validate-zeta", "--config", str(cfg), "--amplitude", "1.2"]) == 1


def test_validate_zeta_forcing_continuity(tmp_path):
    # a flux jumping across the interface fails the optional continuity check
    bad = write_config(tmp_path / "bad.ini", """
[perturbation]
family = sine
amplitude = 0.2

[forcing]
F = 0
f = sign(z)
continuity_tol = 1e-3
""")
    assert dispatch(["validate-zeta", "--config", str(bad)]) == 1

    good = write_config(tmp_path / "good.ini", """
[perturbation]
family = sine
amplitude = 0.2

[forcing]
F = 0
f = cos(pi*x) + z
continuity_tol = 0.1
""")
    assert dispatch(["validate-zeta", "--config", str(good)]) == 0


def test_validate_zeta_rejects_bad_table(tmp_path):
    xs = np.linspace(0, 1, 9)
    zs = np.full_like(xs, 0.1)  # constant, nonzero at the walls
    np.savetxt(tmp_path / "zeta.csv", np.column_stack([xs, zs]), delimiter=",")
    cfg = write_config(tmp_path / "run.ini", "[perturbation]\nfamily = table\ntable = zeta.csv\n")
    assert dispatch(["validate-zeta", "--config", str(cfg)]) == 1


def test_solve1d_csv(tmp_path):
    out = tmp_path / "sol.csv"
    cfg = write_config(tmp_path / "run.ini", GOOD_1D)
    code = dispatch(["solve1d", "--config", str(cfg), "--zeta", "0.25", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,value,derivative,piece_id"
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    # q(x) = x + 1 up to 0.25, then constant 1.25
    x, v = data[:, 0], data[:, 1]
    expected = np.where(x <= 0.25, x + 1.0, 1.25)
    assert np.max(np.abs(v - expected)) < 1e-12


def test_solve1d_forcing_file(tmp_path):
    forcing = write_config(tmp_path / "forcing.ini", "[forcing]\nF = 1\nf = 0\n")
    out = tmp_path / "sol.csv"
    assert dispatch(["solve1d", "--forcing", str(forcing), "--zeta", "0", "--eps", "0.25",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    mid = np.argmin(np.abs(data[:, 0]))
    assert data[mid, 1] == pytest.approx(1.5, abs=1e-10)


def test_solve1d_rejects_bad_zeta(tmp_path):
    assert dispatch(["solve1d", "--zeta", "1.5", "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("samples", ["-3", "0", "1", "2"])
def test_validate_zeta_rejects_too_few_samples(capsys, samples):
    # sampling x = 0 alone, or no interior point for the gradient, checks nothing
    assert dispatch(["validate-zeta", "--samples", samples]) == 1
    err = capsys.readouterr().err
    assert err == f"validation error: validate-zeta needs --samples >= 3, got {samples}\n"
    assert dispatch(["validate-zeta", "--samples", "3"]) == 0


@pytest.mark.parametrize("samples", ["-4", "0", "1"])
def test_solve1d_rejects_too_few_samples(tmp_path, capsys, samples):
    out = tmp_path / "sol.csv"
    assert dispatch(["solve1d", "--zeta", "0.25", "--samples", samples, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"validation error: solve1d needs --samples >= 2, got {samples}\n"
    assert not out.exists()
    # two samples are the ends of [-1, 1]; the breakpoints 0 and 0.25 join them
    assert dispatch(["solve1d", "--zeta", "0.25", "--samples", "2", "--out", str(out)]) == 0
    xs = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
    assert xs.tolist() == [-1.0, 0.0, 0.25, 1.0]


def test_solve2d_outputs(tmp_path):
    cfg = write_config(tmp_path / "run.ini", GOOD_2D)
    out = tmp_path / "field.csv"
    mesh_out = tmp_path / "mesh.csv"
    assert dispatch(["solve2d", "--config", str(cfg), "--out", str(out),
                     "--mesh-out", str(mesh_out)]) == 0
    assert out.read_text().startswith("node_id,x,z,value")
    mesh_lines = mesh_out.read_text().splitlines()
    assert mesh_lines[0] == "n0,n1,n2,region"
    assert len(mesh_lines) == 1 + 4 * 8 * 8


def test_flatten_check_ok():
    assert dispatch(["flatten-check", "--points", "200"]) == 0


@pytest.mark.parametrize("flag, value", [("--points", "0"), ("--points", "-3"), ("--seed", "-1")])
def test_flatten_check_rejects_no_points_or_a_negative_seed(capsys, flag, value):
    assert dispatch(["flatten-check", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: flatten-check needs --points >= 1 and --seed >= 0")
    assert flag in err and value in err


def test_flatten_check_runs_on_one_point():
    assert dispatch(["flatten-check", "--points", "1", "--seed", "0"]) == 0


def test_flatten_solve_with_comparison(tmp_path):
    cfg = write_config(tmp_path / "run.ini", GOOD_2D.replace("nx = 8", "nx = 16").replace("nz = 8", "nz = 16"))
    out = tmp_path / "rho.csv"
    cmp_csv = tmp_path / "gaps.csv"
    assert dispatch(["flatten-solve", "--config", str(cfg), "--out", str(out),
                     "--compare-fitted", str(cmp_csv)]) == 0
    lines = cmp_csv.read_text().splitlines()
    assert lines[0] == "h,vnorm_gap"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 2  # 8 and 16
    assert rows[0][0] > rows[1][0]


def test_flatten_solve_comparison_rejects_nz_other_than_nx(tmp_path, capsys):
    # the comparison table builds n x n meshes, so it cannot honour nz != nx
    cfg = write_config(tmp_path / "run.ini", GOOD_2D.replace("nx = 8", "nx = 16"))
    cmp_csv = tmp_path / "gaps.csv"
    assert dispatch(["flatten-solve", "--config", str(cfg), "--out", str(tmp_path / "rho.csv"),
                     "--compare-fitted", str(cmp_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "nz = nx" in err
    assert not cmp_csv.exists()
    # without the comparison the nx x nz solve runs
    assert dispatch(["flatten-solve", "--config", str(cfg), "--out", str(tmp_path / "rho.csv")]) == 0
    assert len((tmp_path / "rho.csv").read_text().splitlines()) == 1 + 17 * 17


@pytest.mark.parametrize("n", [4, 6])
def test_flatten_solve_comparison_rejects_nx_below_8(tmp_path, capsys, n):
    # the comparison halves n down to 8, so a smaller n would give a header-only table
    cfg = write_config(tmp_path / "run.ini", GOOD_2D)
    out, cmp_csv = tmp_path / "rho.csv", tmp_path / "gaps.csv"
    assert dispatch(["flatten-solve", "--config", str(cfg), "--nx", str(n), "--nz", str(n),
                     "--out", str(out), "--compare-fitted", str(cmp_csv)]) == 1
    err = capsys.readouterr().err
    assert err == f"validation error: flatten-solve --compare-fitted needs nx >= 8, got nx = {n}\n"
    assert not out.exists() and not cmp_csv.exists()
    # at nx = 8 the table has its one row
    assert dispatch(["flatten-solve", "--config", str(cfg), "--out", str(out),
                     "--compare-fitted", str(cmp_csv)]) == 0
    assert len(cmp_csv.read_text().splitlines()) == 2


def table_config(tmp_path: Path, extra: str = "") -> Path:
    """GOOD_2D with the sine replaced by a table of -0.15 sin(pi x)."""
    xs = np.linspace(0, 1, 17)
    zs = -0.15 * np.sin(np.pi * xs)
    zs[0] = zs[-1] = 0.0
    np.savetxt(tmp_path / "zeta.csv", np.column_stack([xs, zs]), delimiter=",")
    text = GOOD_2D.replace("family = sine\namplitude = 0.2\nwavenumber = 1\n", "family = table\ntable = zeta.csv\n")
    assert "table = zeta.csv" in text
    return write_config(tmp_path / "run.ini", text + extra)


def test_flatten_solve_accepts_a_table_perturbation(tmp_path):
    # the reference mesh is the flat one whatever the family
    cfg = table_config(tmp_path)
    out, cmp_csv = tmp_path / "rho.csv", tmp_path / "gaps.csv"
    assert dispatch(["flatten-solve", "--config", str(cfg), "--out", str(out), "--nx", "16", "--nz", "16",
                     "--compare-fitted", str(cmp_csv), "--mesh-out", str(tmp_path / "mesh.csv")]) == 0
    nodes = np.loadtxt(out, delimiter=",", skiprows=1)
    assert len(nodes) == 17 * 33
    assert np.array_equal(np.unique(nodes[:, 2]), np.linspace(-1.0, 1.0, 33))
    gaps = np.loadtxt(cmp_csv, delimiter=",", skiprows=1)
    assert gaps.shape == (2, 2) and np.all(np.isfinite(gaps[:, 1])) and np.all(gaps[:, 1] > 0.0)


@pytest.mark.parametrize("command, given", [
    ("validate-zeta", "flag"), ("solve2d", "flag"), ("flatten-solve", "flag"),
    ("validate-zeta", "key"), ("solve2d", "key"), ("flatten-solve", "key"), ("flatten-check", "key"),
])
def test_table_rejects_an_amplitude(tmp_path, capsys, command, given):
    # a table gives zeta itself: an amplitude next to it would be ignored
    cfg = table_config(tmp_path)
    if given == "key":
        cfg.write_text(cfg.read_text().replace("family = table\n", "family = table\namplitude = 0.05\n"))
    amplitude = ["--amplitude", "0.05"] if given == "flag" else []
    out = [] if command in ("validate-zeta", "flatten-check") else ["--out", str(tmp_path / "out.csv")]
    assert dispatch([command, "--config", str(cfg), *amplitude, *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "amplitude" in err
    assert not (tmp_path / "out.csv").exists()
    # without the amplitude the same table runs
    assert dispatch([command, "--config", str(table_config(tmp_path)), *out]) == 0


def test_flatten_check_checks_a_table_once(tmp_path, monkeypatch):
    checked = []
    report = flatten.matrix_property_report
    monkeypatch.setattr(flatten, "matrix_property_report",
                        lambda shapes, **kw: checked.append(len(shapes)) or report(shapes, **kw))
    assert dispatch(["flatten-check", "--config", str(table_config(tmp_path))]) == 0
    assert dispatch(["flatten-check"]) == 0
    # the table once, or the configured family at two amplitudes, plus three fixed shapes
    assert checked == [4, 5]


@pytest.mark.parametrize("mode", ["oned", "fitted2d", "flattened2d"])
def test_study_rejects_a_table_perturbation(tmp_path, capsys, mode):
    # a table has no amplitude: every row of the sweep would solve the same table
    cfg = table_config(tmp_path, f"\n[study]\nmode = {mode}\namplitudes = 0.2 0.1\n")
    out_dir = tmp_path / "out"
    assert dispatch(["study", "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "table" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("text, argv", [
    (GOOD_1D, ["study", "--mode", "fitted2d"]),
    (GOOD_1D, ["study", "--mode", "flattened2d"]),
    (GOOD_1D, ["solve2d"]),
    (GOOD_1D, ["flatten-solve"]),
    (GOOD_2D, ["study", "--mode", "oned"]),
    (GOOD_2D, ["solve1d"]),
])
def test_dim_that_contradicts_the_command_is_rejected(tmp_path, capsys, text, argv):
    # a command in the other dimension would ignore the config's family,
    # forcing variables and mesh sizes
    text += "\n[solver]\nnx = 8\nnz = 8\n" if "[solver]" not in text else ""
    out = ["--out-dir", str(tmp_path / "out")] if argv[0] == "study" else ["--out", str(tmp_path / "out")]
    cfg = write_config(tmp_path / "run.ini", text)
    assert dispatch([*argv, "--config", str(cfg), *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {' '.join(argv)} solves in") and "dim = " in err
    assert not (tmp_path / "out").exists()
    # a config without dim suits every command
    write_config(cfg, text.replace("dim = 1\n", "").replace("dim = 2\n", ""))
    assert dispatch([*argv, "--config", str(cfg), *out]) == 0


def test_study_end_to_end(tmp_path):
    cfg = write_config(tmp_path / "run.ini", GOOD_1D)
    out_dir = tmp_path / "out"
    assert dispatch(["study", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["loglog_slope"] == pytest.approx(0.5, abs=0.02)
    assert summary["gap_monotone_decreasing"] is True
    # rerun overwrites with identical records
    first = (out_dir / "records.csv").read_bytes()
    assert dispatch(["study", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "records.csv").read_bytes() == first


def test_study_writes_only_into_out_dir(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "run.ini", GOOD_1D)
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out_dir = tmp_path / "only-here"
    assert dispatch(["study", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["records.csv", "summary.json"]
    assert list(workdir.iterdir()) == []


def test_missing_config_is_io_error(tmp_path):
    assert dispatch(["study", "--config", str(tmp_path / "nope.ini")]) == 3


@pytest.mark.parametrize("text", [
    "eps = 0.5\n",
    "[domain]\neps = 0.5\neps = 0.4\n",
    "[domain]\neps = 0.5\n[domain]\ndim = 2\n",
], ids=["no-section-header", "duplicate-option", "duplicate-section"])
def test_malformed_config_is_validation_error(tmp_path, capsys, text):
    cfg = write_config(tmp_path / "run.ini", text)
    with pytest.raises(ConfigError, match="malformed config"):
        load_config(cfg)
    assert dispatch(["validate-zeta", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "Traceback" not in err


def test_non_numeric_table_is_validation_error(tmp_path, capsys):
    (tmp_path / "zeta.csv").write_text("0.0,0.0\n0.5,abc\n1.0,0.0\n")
    cfg = write_config(tmp_path / "run.ini", "[perturbation]\nfamily = table\ntable = zeta.csv\n")
    assert dispatch(["validate-zeta", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["flatten-check", "flatten-solve"])
def test_table_with_a_nan_is_validation_error(tmp_path, capsys, command):
    # a NaN passed every check of the table: flatten-check then failed in an
    # SVD and flatten-solve on a load that was not finite, neither naming it
    cfg = table_config(tmp_path)
    (tmp_path / "zeta.csv").write_text("0.0,0.0\n0.5,nan\n1.0,0.0\n")
    out = [] if command == "flatten-check" else ["--out", str(tmp_path / "rho.csv")]
    assert dispatch([command, "--config", str(cfg), *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "zeta table" in err and "not finite" in err
    assert not (tmp_path / "rho.csv").exists()


# --- inputs that the study honours or rejects --------------------------------


def _study_2d(mode: str, extra_domain: str = "", extra_solver: str = "") -> str:
    text = GOOD_2D.replace("eps = 0.5\n", "eps = 0.5\n" + extra_domain)
    text = text.replace("nz = 8\n", "nz = 8\n" + extra_solver)
    return text + f"\n[study]\nmode = {mode}\namplitudes = 0.2 0.1\n"


@pytest.mark.parametrize("text", [
    GOOD_1D.replace("eps = 0.5\n", "eps = 0.5\nk1 = 5\n"),
    _study_2d("fitted2d", extra_domain="k2 = 0.2\n"),
    _study_2d("flattened2d", extra_domain="k1 = 5\nk2 = 0.2\n"),
], ids=["oned-k1", "fitted2d-k2", "flattened2d-k1-k2"])
def test_study_rejects_non_unit_k(tmp_path, capsys, text):
    cfg = write_config(tmp_path / "run.ini", text)
    out_dir = tmp_path / "out"
    assert dispatch(["study", "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "k1 = k2 = 1" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("mode", ["fitted2d", "flattened2d"])
def test_study_rejects_nz_other_than_nx(tmp_path, capsys, mode):
    cfg = write_config(tmp_path / "run.ini", _study_2d(mode).replace("nx = 8\n", "nx = 16\n"))
    out_dir = tmp_path / "out"
    assert dispatch(["study", "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "nz = nx" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("mode", ["fitted2d", "flattened2d"])
def test_study_rejects_a_bad_shape_parameter(tmp_path, capsys, mode):
    # every zeta is built before the first solve, so a bad knot fails the run, not its rows
    text = _study_2d(mode).replace("family = sine\n", "family = hat\nknot = 1.5\n")
    cfg = write_config(tmp_path / "run.ini", text)
    out_dir = tmp_path / "out"
    assert dispatch(["study", "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: hat knot must lie in (0, 1)")
    assert not out_dir.exists()


def test_study_rejects_poincare_bound_as_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", GOOD_1D.replace("eps = 0.5\n", "eps = 0.5\npoincare_bound = 2.0\n"))
    out_dir = tmp_path / "out"
    assert dispatch(["study", "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "unknown key 'poincare_bound'" in err
    assert not out_dir.exists()


def test_solve1d_rejects_non_unit_k(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", GOOD_1D.replace("eps = 0.5\n", "eps = 0.5\nk2 = 2\n"))
    out = tmp_path / "sol.csv"
    assert dispatch(["solve1d", "--config", str(cfg), "--zeta", "0.25", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("validation error:")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["fitted2d", "flattened2d"])
def test_study_honours_cg_rtol(tmp_path, mode):
    records = {}
    for name, solver in (("default", ""), ("loose", "cg_rtol = 1e-3\n")):
        cfg = write_config(tmp_path / f"{name}.ini", _study_2d(mode, extra_solver=solver))
        assert dispatch(["study", "--config", str(cfg), "--out-dir", str(tmp_path / name)]) == 0
        records[name] = (tmp_path / name / "records.csv").read_text()
    assert records["loose"] != records["default"]


def _rejected(tmp_path, capsys, command: str, text: str, key: str):
    """Run `command` on the config `text` and check it exits 1 naming `key`,
    having written nothing."""
    cfg = write_config(tmp_path / "run.ini", text)
    out = [] if command == "validate-zeta" else ["--out-dir" if command == "study" else "--out", str(tmp_path / "out")]
    assert dispatch([command, "--config", str(cfg), *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("shape, key", [("family = hat\nknot = 1.5\n", "knot"),
                                        ("family = sine\nwavenumber = 0\n", "wavenumber")],
                         ids=["hat-knot", "sine-wavenumber"])
def test_oned_study_rejects_a_shape_it_cannot_build(tmp_path, capsys, shape, key):
    # the 1D rows never read the shape, so it was accepted and ignored
    _rejected(tmp_path, capsys, "study", GOOD_1D.replace("[forcing]", f"[perturbation]\n{shape}\n[forcing]"), key)


@pytest.mark.parametrize("line, key", [("nx = 32", "nx"), ("nz = 32", "nz"), ("cg_rtol = 1e-6", "cg_rtol")])
def test_oned_study_rejects_a_2d_solver_key(tmp_path, capsys, line, key):
    # no 1D computation reads it, so it was accepted and ignored
    _rejected(tmp_path, capsys, "study", GOOD_1D + f"\n[solver]\n{line}\n", key)


@pytest.mark.parametrize("line, key", [("nx = 32", "nx"), ("nz = 32", "nz"), ("cg_rtol = 1e-6", "cg_rtol")])
def test_solve1d_rejects_a_2d_solver_key(tmp_path, capsys, line, key):
    # the exact 1D solve reads none of them, so it was accepted and ignored
    _rejected(tmp_path, capsys, "solve1d", GOOD_1D + f"\n[solver]\n{line}\n", key)


def test_solve1d_keeps_2d_solver_keys_of_a_file_without_dim_or_mode(tmp_path):
    # such a file suits every command, and the 2D ones read the keys
    cfg = write_config(tmp_path / "run.ini", "[forcing]\nF = 0\nf = 1\n\n[solver]\nnx = 32\ncg_rtol = 1e-6\n")
    assert dispatch(["solve1d", "--config", str(cfg), "--zeta", "0.25", "--out", str(tmp_path / "sol.csv")]) == 0


@pytest.mark.parametrize("value", ["2", "1", "0", "-1", "nan", "inf"])
def test_solve2d_rejects_cg_rtol_outside_the_unit_interval(tmp_path, capsys, value):
    # 2 stopped CG before its first step and wrote zeros; -1 failed as "not SPD"
    _rejected(tmp_path, capsys, "solve2d", GOOD_2D + f"cg_rtol = {value}\n", "cg_rtol")


@pytest.mark.parametrize("line", ["k1 = nan", "k1 = inf", "k2 = nan", "k2 = -inf"])
def test_solve2d_rejects_non_finite_k(tmp_path, capsys, line):
    _rejected(tmp_path, capsys, "solve2d", GOOD_2D.replace("eps = 0.5\n", f"eps = 0.5\n{line}\n"), "k1, k2")


@pytest.mark.parametrize("command", ["solve2d", "flatten-solve"])
def test_2d_solve_rejects_a_load_that_is_not_finite(tmp_path, capsys, command):
    # the load reached CG, which failed as "the system is not SPD" (exit 2)
    with np.errstate(divide="ignore"):
        _rejected(tmp_path, capsys, command, GOOD_2D.replace("F = 0\n", "F = 1/(x-x)\n"), "load")


@pytest.mark.parametrize("value", ["nan", "-0.1", "-inf"])
def test_validate_zeta_rejects_nan_or_negative_continuity_tol(tmp_path, capsys, value):
    # NaN turned the check off: a flux jumping across the interface passed
    text = GOOD_2D.replace("f = 1\n", f"f = sign(z)\ncontinuity_tol = {value}\n")
    _rejected(tmp_path, capsys, "validate-zeta", text, "continuity_tol")


def test_validate_zeta_rejects_a_quadrature_order_above_100(tmp_path, capsys):
    # the 2D interface load asks numpy for a Gauss rule of this order, which
    # it forms from an order x order eigenproblem and tests up to 100 points
    text = GOOD_2D.replace("f = 1\n", "f = 1\nquadrature_order = 101\n")
    _rejected(tmp_path, capsys, "validate-zeta", text, "quadrature_order")


@pytest.mark.parametrize("value", ["0", "-0.3", "nan", "inf"])
def test_study_rejects_gap_target_that_is_not_positive_and_finite(tmp_path, capsys, value):
    _rejected(tmp_path, capsys, "study", GOOD_1D.replace("gap_target = 0.3", f"gap_target = {value}"), "gap_target")


# --- every documented failure maps to its exit code ---------------------------

_NAME = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)
_KNOWN_KEYS = set().union(*_SECTION_KEYS.values()) | {"f", "F"}
_OUTSIDE_UNIT = st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True),
                          st.just(float("nan")))
_DISALLOWED = st.one_of(
    st.sampled_from(["__import__('os')", "x.real", "y + 1", "[x]", "x if x else 1", "lambda: 1",
                     "x[0]", "(x, x)", "1 +", "x == 1", "x and 1", "open('f')", "{}"]),
    _NAME.filter(lambda n: n not in _EXPR_FUNCS).map(lambda n: f"{n}(x)"),
    _NAME.map(lambda n: f"x.{n}"),
)


def _config_with(section: str, line: str) -> str:
    """GOOD_1D with `line` added to `section` (appended when it is new)."""
    if f"[{section}]\n" in GOOD_1D:
        return GOOD_1D.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    return GOOD_1D + f"\n[{section}]\n{line}\n"


def _out(command: str, d: Path) -> list[str]:
    if command == "study":
        return ["--out-dir", str(d / "out")]
    return ["--out", str(d / "sol.csv")] if command == "solve1d" else []


@st.composite
def malformed_runs(draw):
    """(argv builder, config text, exit code): a bad config, a missing file
    or bad usage."""
    command = draw(st.sampled_from(["study", "validate-zeta", "solve1d"]))
    kind = draw(st.sampled_from(["section", "key", "eps", "size", "amplitude", "expression",
                                 "missing", "directory", "flag", "usage"]))
    text = None
    if kind == "section":
        name = draw(_NAME.filter(lambda n: n not in _SECTION_KEYS))
        text = _config_with(name, "a = 1")
    elif kind == "key":
        section = draw(st.sampled_from(sorted(_SECTION_KEYS)))
        key = draw(_NAME.filter(lambda n: n not in _KNOWN_KEYS))
        text = _config_with(section, f"{key} = 1")
    elif kind == "eps":
        text = GOOD_1D.replace("eps = 0.5", f"eps = {draw(_OUTSIDE_UNIT)!r}")
    elif kind == "size":
        key = draw(st.sampled_from(["nx", "nz", "n_cells"]))
        limit = 3 if key == "n_cells" else 1
        text = _config_with("solver", f"{key} = {draw(st.integers(-10**6, limit))}")
    elif kind == "amplitude":
        amp = draw(st.one_of(st.floats(max_value=-5e-324), st.floats(min_value=1.0),
                             st.just(float("nan"))))
        text = _config_with("perturbation", f"amplitude = {amp!r}")
    elif kind == "expression":
        key = draw(st.sampled_from(["F", "f"]))
        text = GOOD_1D.replace(f"\n{key} = ", f"\n{key} = {draw(_DISALLOWED)}\n# ", 1)
    if text is not None:
        return (lambda d: [command, "--config", str(d / "run.ini"), *_out(command, d)]), text, 1
    if kind in ("missing", "directory"):
        name = "absent.ini" if kind == "missing" else "."
        return (lambda d: [command, "--config", str(d / name), *_out(command, d)]), GOOD_1D, 3
    if kind == "flag":
        flag = "--zz" + draw(_NAME)
        return (lambda d: [command, "--config", str(d / "run.ini"), flag]), GOOD_1D, 64
    argv = draw(st.sampled_from([[], ["frobnicate"], ["study", "--mode", "bogus"],
                                 ["solve1d", "--zeta", "abc"], ["validate-zeta", "--samples", "1.5"]]))
    return (lambda d: list(argv)), GOOD_1D, 64


@settings(deadline=None, max_examples=150)
@given(run=malformed_runs())
def test_malformed_input_exit_codes(run):
    argv_for, text, code = run
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "run.ini").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            got = dispatch(argv_for(d))
        assert got == code, err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().startswith({1: "validation error:", 3: "i/o error:", 64: "usage error:"}[code])
        assert not (d / "out").exists() and not (d / "sol.csv").exists()
