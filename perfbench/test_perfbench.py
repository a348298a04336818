"""Tests of the benchmark itself: the correctness gate must catch corrupted
results, the tracer must patch names where callers look them up, and the
benchmark description must stay consistent.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import gate as gate_mod  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

from darcyperturb.cli import dispatch  # noqa: E402


def _study(tmp_path: Path, text: str) -> tuple[Path, list[dict], dict]:
    config = tmp_path / "study.ini"
    config.write_text(text)
    out = tmp_path / "out"
    assert dispatch(["study", "--config", str(config), "--out-dir", str(out)]) == 0
    rows = gate_mod.parse_records((out / "records.csv").read_text())
    return config, rows, json.loads((out / "summary.json").read_text())


def _small(name: str, seed: int, n: int, rows: int):
    """Workload `name` shrunk to an n x n mesh (2D) or `rows` amplitudes (1D)."""
    spec = dict(WORKLOADS[name], n=n, rows=rows)
    original = WORKLOADS[name]
    WORKLOADS[name] = spec
    try:
        return make_workload(name, seed)
    finally:
        WORKLOADS[name] = original


def _failed_names(gate: gate_mod.Gate) -> set[str]:
    return {name for name, ok, _ in gate.checks if not ok}


# ------------------------------------------------------------- workloads

def test_seed_only_moves_the_amplitude_ladder():
    for name in WORKLOADS:
        a, b, again = make_workload(name, 1), make_workload(name, 2), make_workload(name, 1)
        assert a == again
        assert a.amplitudes != b.amplitudes
        strip = lambda w: [line for line in w.config_text.splitlines() if not line.startswith("amplitudes")]  # noqa: E731
        assert strip(a) == strip(b)
        assert all(x > y for x, y in zip(a.amplitudes, a.amplitudes[1:]))
        assert 0.0 < a.amplitudes[-1] and a.amplitudes[0] < 1.0


def test_workload_sizes_match_their_names():
    assert len(make_workload("oned-dense", 5).amplitudes) == 1600
    fitted = make_workload("fitted2d-n128", 5)
    assert "nx = 128" in fitted.config_text and len(fitted.amplitudes) == 4
    assert 0.19 <= fitted.amplitudes[0] <= 0.21
    assert fitted.amplitudes[1] == fitted.amplitudes[0] / 2
    assert "nx = 192" in make_workload("flattened2d-n192", 5).config_text


# ------------------------------------------------------------- gate

def test_oned_gate_passes_and_catches_corruption(tmp_path):
    wl = _small("oned-dense", 3, n=0, rows=40)
    _, rows, summary = _study(tmp_path, wl.config_text)
    gate = gate_mod.Gate()
    gate_mod.check_rows(gate, rows, wl.mode, wl.amplitudes)
    gate_mod.note_estimates(gate, summary)
    assert gate.failed == 0 and gate.attempted == 1 + 4 * 40
    assert gate.notes and all("diagonal energy" in note for note in gate.notes)

    bad = [dict(r) for r in rows]
    bad[7]["vnorm_gap"] = repr(float(bad[7]["vnorm_gap"]) * (1.0 + 1e-7))
    bad[9]["vnorm_gap"] = repr(float(bad[9]["bound_total"]) + 1e-6)
    bad[11]["status"] = "failed: corrupted"
    bad[12]["amplitude"] = repr(float(bad[12]["amplitude"]) * 0.5)
    gate = gate_mod.Gate()
    gate_mod.check_rows(gate, bad, wl.mode, wl.amplitudes)
    failed = _failed_names(gate)
    assert {"row7.sqrt_law", "row9.bound", "row11.status", "row12.amplitude"} <= failed

    gate = gate_mod.Gate()
    gate_mod.check_rows(gate, rows[:-1], wl.mode, wl.amplitudes)
    assert "rows.count" in _failed_names(gate)


@pytest.mark.parametrize("name", ["fitted2d-n128", "flattened2d-n192"])
def test_twod_gate_and_spot_check_catch_corruption(tmp_path, name):
    wl = _small(name, 4, n=8, rows=3)
    config, rows, _ = _study(tmp_path, wl.config_text)
    gate = gate_mod.Gate()
    gate_mod.check_rows(gate, rows, wl.mode, wl.amplitudes)
    row = wl.spot_row
    gap = float(rows[row]["vnorm_gap"])
    gate_mod.spot_check(gate, config, wl.mode, wl.amplitudes[row], gap)
    assert gate.failed == 0, gate.failures()

    bad = [dict(r) for r in rows]
    bad[2]["vnorm_gap"] = bad[1]["vnorm_gap"]
    gate = gate_mod.Gate()
    gate_mod.check_rows(gate, bad, wl.mode, wl.amplitudes)
    assert _failed_names(gate) == {"row2.gap_decreases"}

    gate = gate_mod.Gate()
    gate_mod.spot_check(gate, config, wl.mode, wl.amplitudes[row], gap * (1.0 + 1e-5))
    assert _failed_names(gate) == {"spot.gap"}


def test_determinism_check_catches_a_changed_byte():
    gate = gate_mod.Gate()
    gate_mod.check_identical(gate, "same", b"a,b\n1,2\n", b"a,b\n1,2\n")
    gate_mod.check_identical(gate, "changed", b"a,b\n1,2\n", b"a,b\n1,3\n")
    assert _failed_names(gate) == {"changed"}


def test_run_gate_counts_a_differing_sample(tmp_path):
    wl = _small("oned-dense", 6, n=0, rows=10)
    config, rows, summary = _study(tmp_path, wl.config_text)
    records = (tmp_path / "out" / "records.csv").read_bytes()
    sample = {"exit_code": 0, "package_file": str(run.PACKAGE / "__init__.py"),
              "records": records, "summary": summary, "traced": False}
    gate = run._gate(wl, config, [sample, dict(sample)])
    assert gate.failed == 0
    changed = dict(sample, records=records.replace(b",ok", b",no", 1))
    gate = run._gate(wl, config, [sample, changed, dict(sample, exit_code=1)])
    assert _failed_names(gate) == {"sample1.untraced_records_identical", "sample2.exit_code"}


# ------------------------------------------------------------- tracing

def test_traced_child_counts_calls_made_through_imported_names(tmp_path):
    wl = _small("flattened2d-n192", 2, n=8, rows=3)
    config = tmp_path / "study.ini"
    config.write_text(wl.config_text)
    result = tmp_path / "child.json"
    env = run.Runner(tmp_path, 0.0).env
    subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "--result", str(result),
                    "--config", str(config), "--out-dir", str(tmp_path / "out"), "--trace"],
                   env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
    summary = json.loads(result.read_text())["trace"]
    values = run._layer_values(summary)
    # one fitted solve of the reference problem, then one flattened solve per
    # row, each reaching cg_solve through the name flatten imported
    assert values["fem2d.cg_solve.calls"] == 1 + 3
    assert values["flatten.solve_flattened.calls"] == 3
    assert values["fem2d.assemble_interface_load.calls"] == 1 + 3
    # study imports xi_perturbation and lower_bound_constant by name
    assert values["geometry.xi_perturbation.calls"] == 3
    assert values["geometry.lower_bound_constant.calls"] == 3
    assert values["fem2d.cg_solve.iters"] > 0 and values["fem2d.cg_solve.dofs"] > 0
    assert 0.0 < values["fem2d.cg_solve.rel_residual"] <= 1e-10 * 1.5
    assert values["cli.dispatch.calls"] == 1 and values["solver1d.spans"] == 0
    assert summary["hook_errors"] == [] and summary["absent"] == []
    for f in summary["functions"].values():
        assert 0.0 <= f["self_s"] <= f["total_s"] + 1e-9


def test_self_time_subtracts_child_spans():
    clock = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]).__next__
    tracer = spans.Tracer(clock=clock)
    inner = tracer.wrap("fem2d.inner", lambda: None)
    outer = tracer.wrap("study.outer", lambda: (inner(), inner()))
    outer()
    funcs = tracer.summary()["functions"]
    assert funcs["fem2d.inner"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert funcs["study.outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}


def test_missing_modules_and_functions_are_absent_not_fatal(tmp_path, monkeypatch):
    pkg = tmp_path / "refactored"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    # fem2d without cg, energy_split_flat or the separate assemblers; no flatten module
    (pkg / "fem2d.py").write_text(
        "def assemble(mesh):\n    return 1\n\n"
        "def build_fitted_mesh(zeta):\n    return None\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = spans.Tracer()
    spans.install(tracer, package="refactored")
    mod = sys.modules["refactored.fem2d"]
    assert mod.assemble(None) == 1
    mod.build_fitted_mesh(None)  # the triangle counter cannot read None
    summary = tracer.summary()
    assert "flatten" in summary["absent"] and "fem2d" not in summary["absent"]
    assert summary["hook_errors"] and "build_fitted_mesh" in summary["hook_errors"][0]

    traced = {"traced": True, "run_s": 2.0, "trace": summary}
    values, absent = run._per_layer(
        ["fem2d.assemble.calls", "fem2d.assemble_stiffness.self_s", "fem2d.cg_solve.iters",
         "flatten.self_s", "trace.overhead_s"],
        [traced, {"traced": False, "run_s": 1.5}])
    assert values["fem2d.assemble.calls"] == 1
    assert values["trace.overhead_s"] == 0.5
    assert absent == ["fem2d.assemble_stiffness.self_s", "fem2d.cg_solve.iters", "flatten.self_s"]
    assert all(values[name] == 0.0 for name in absent)


# ------------------------------------------------------------- description

def test_benchmark_json_and_expectations_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expectations = json.loads((BENCH_DIR / "expectations.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    assert workloads == list(WORKLOADS)
    assert set(end_to_end) == {"run_s", "setup_s", "peak_rss_mb"}
    assert [m["name"] for m in spec["per_layer"]] == list(expectations)
    for name, exp in expectations.items():
        assert exp["moves"] in end_to_end, name
        assert exp["workload"] in workloads + ["all"], name
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oned-dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert not (tmp_path / "perfbench" / "results").exists()

