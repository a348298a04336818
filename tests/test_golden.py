"""The shipped study configs reproduce their committed records.csv, and
`solve1d` its committed field CSVs.

`tests/golden/<name>.csv` is the reference records.csv of `darcyperturb
study` on `configs/<name>.ini`.  1D records must match byte for byte; 2D
records must keep every status and agree in every numeric column to 1e-9
relative, the room left for the summation order of the assembly.
`tests/golden/solve1d-*.csv` are `solve1d` outputs, which read the values of
the exact field, and must match byte for byte.
`tests/golden/flatten-solve-compare-<n>x<n>.csv` are the `--compare-fitted`
tables of `flatten-solve` on `configs/solve2d-demo.ini`, the one command that
pulls a fitted field back through T, and agree as the 2D records do.
Regenerate a file only for an intended change of outputs.
"""

import csv
import math
from pathlib import Path

import pytest

from darcyperturb.cli import dispatch

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
GOLDEN = HERE / "golden"
REL_TOL_2D = 1e-9


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(text.splitlines()))


@pytest.mark.parametrize("name", ["study-1d-sqrt", "study-2d-fitted", "study-2d-flattened"])
def test_shipped_study_matches_golden(tmp_path, name):
    assert dispatch(["study", "--config", str(CONFIGS / f"{name}.ini"), "--out-dir", str(tmp_path)]) == 0
    got = (tmp_path / "records.csv").read_bytes()
    want = (GOLDEN / f"{name}.csv").read_bytes()
    if name == "study-1d-sqrt":
        assert got == want
        return
    _assert_close_rows(got.decode(), want.decode())


def _assert_close_rows(got: str, want: str):
    """The same columns, rows and statuses, and every number within REL_TOL_2D."""
    got_rows, want_rows = _rows(got), _rows(want)
    assert list(got_rows[0]) == list(want_rows[0])
    assert len(got_rows) == len(want_rows)
    for k, (g, w) in enumerate(zip(got_rows, want_rows)):
        assert g.get("status") == w.get("status"), f"row {k}"
        for col in w:
            if col == "status":
                continue
            a, b = float(g[col]), float(w[col])
            assert (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=REL_TOL_2D), \
                f"row {k} {col}: {a!r} vs golden {b!r}"


@pytest.mark.parametrize("n", [16, 15])
def test_flatten_solve_comparison_matches_golden(tmp_path, n):
    gaps = tmp_path / "gaps.csv"
    argv = ["flatten-solve", "--config", str(CONFIGS / "solve2d-demo.ini"), "--nx", str(n), "--nz", str(n),
            "--out", str(tmp_path / "rho.csv"), "--compare-fitted", str(gaps)]
    assert dispatch(argv) == 0
    _assert_close_rows(gaps.read_text(), (GOLDEN / f"flatten-solve-compare-{n}x{n}.csv").read_text())


def test_both_2d_goldens_measure_one_flat_split():
    # fitted a_0(q) and the flattened a_0 of the pulled-back field agree to 1 %
    fitted = _rows((GOLDEN / "study-2d-fitted.csv").read_text())
    flattened = _rows((GOLDEN / "study-2d-flattened.csv").read_text())
    assert [r["amplitude"] for r in fitted] == [r["amplitude"] for r in flattened]
    for f, g in zip(fitted, flattened):
        assert math.isclose(float(f["energy_flat_total"]), float(g["energy_flat_total"]), rel_tol=0.01)


# solve1d golden -> its arguments; the first is the README command
SOLVE1D = {
    "solve1d-sqrt-zeta0.25": ["--zeta", "0.25", "--eps", "0.5", "--forcing", str(CONFIGS / "study-1d-sqrt.ini")],
    "solve1d-sqrt-zeta-0.3": ["--zeta", "-0.3", "--eps", "0.5", "--forcing", str(CONFIGS / "study-1d-sqrt.ini")],
    "solve1d-smooth-zeta0.35": ["--zeta", "0.35", "--forcing", str(GOLDEN / "solve1d-smooth.ini")],
    "solve1d-smooth-zeta-0.2": ["--zeta", "-0.2", "--forcing", str(GOLDEN / "solve1d-smooth.ini")],
}


@pytest.mark.parametrize("name", sorted(SOLVE1D))
def test_solve1d_matches_golden(tmp_path, name):
    out = tmp_path / "sol.csv"
    assert dispatch(["solve1d", *SOLVE1D[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
