"""Correctness gate: every check a benchmark run makes on the program's outputs.

Each check is one attempt; the failed ones are the run's `failed` count.
Rows whose diagonal energy falls below C_zeta times the flat-split energy are
an honest mathematical result (see README, numerical notes), so they are
noted and not counted.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

# 1D physics of the workloads (F = 0, f = 1): gap = sqrt(amplitude) exactly
SQRT_LAW_RTOL = 1e-9
# slack of the 1D bound check, as in study.check_estimates
BOUND_ATOL = 1e-9
# direct re-solve against the CG study row
SPOT_RTOL = 1e-6
# Galerkin identity load(u) = a(u, u) at the CG tolerance, as in the test suite
GALERKIN_RTOL = 1e-8


@dataclass
class Gate:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.checks)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.checks if not ok)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.checks if not ok]


def parse_records(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_rows(gate: Gate, rows: list[dict], mode: str, amplitudes) -> None:
    """Row-level checks of one records.csv against the generated ladder."""
    gate.check("rows.count", len(rows) == len(amplitudes), f"{len(rows)} rows for {len(amplitudes)} amplitudes")
    for k, (row, amp) in enumerate(zip(rows, amplitudes)):
        gate.check(f"row{k}.amplitude", float(row["amplitude"]) == amp, f"{row['amplitude']} != {amp!r}")
        gate.check(f"row{k}.status", row["status"] == "ok", row["status"])
    ok = [r for r in rows if r["status"] == "ok"]
    if mode == "oned":
        ratios = [float(r["vnorm_gap"]) / math.sqrt(float(r["amplitude"])) for r in ok]
        for k, (row, ratio) in enumerate(zip(ok, ratios)):
            gate.check(f"row{k}.sqrt_law", abs(ratio - ratios[0]) <= SQRT_LAW_RTOL * abs(ratios[0]),
                       f"gap/sqrt(amplitude) {ratio!r} vs {ratios[0]!r}")
            gap, bound = float(row["vnorm_gap"]), float(row["bound_total"])
            gate.check(f"row{k}.bound", gap <= bound + BOUND_ATOL, f"gap {gap!r} > bound {bound!r}")
    else:
        gaps = [float(r["vnorm_gap"]) for r in ok]
        for k in range(1, len(gaps)):
            gate.check(f"row{k}.gap_decreases", gaps[k] < gaps[k - 1], f"{gaps[k]!r} >= {gaps[k - 1]!r}")


def note_estimates(gate: Gate, summary: dict) -> None:
    """Keep the study's own estimate failures as notes, not as failed checks.

    Each is either an honest diagonal-energy result or duplicates a counted
    row check (failed status, 1D gap above its bound).
    """
    gate.notes.extend(summary.get("estimate_failures", []))


def check_identical(gate: Gate, name: str, reference: bytes, other: bytes) -> None:
    gate.check(name, reference == other, "records.csv bytes differ")


def spot_check(gate: Gate, config_path, mode: str, amplitude: float, recorded_gap: float) -> None:
    """Re-solve one 2D row with a direct sparse solve and compare the gap.

    Assembles the fitted (or flattened) system with the public `fem2d` and
    `flatten` functions, solves it with `scipy.sparse.linalg.spsolve`, and
    requires the study's CG gap to agree to SPOT_RTOL.  The CG solve of the
    same row must also satisfy the Galerkin identity recorded in its meta.
    """
    import numpy as np
    from scipy.sparse.linalg import spsolve

    from darcyperturb import fem2d, flatten
    from darcyperturb.config import load_config

    cfg = load_config(config_path)
    forcing = cfg.forcing(dim=2)
    zeta = cfg.perturbation(amplitude=amplitude)
    ref = fem2d.build_fitted_mesh(cfg.perturbation(amplitude=0.0), cfg.nx, cfg.nz)

    def direct(mesh, K, load):
        free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.dirichlet_nodes)
        values = np.zeros(mesh.n_nodes)
        values[free] = spsolve(K[free][:, free].tocsc(), load[free])
        return fem2d.Field2D(mesh=mesh, values=values)

    def fitted_system(mesh):
        degree = 2 if forcing.quadrature_order <= 4 else 4
        load = fem2d.assemble_volume_load(mesh, forcing.F, degree=degree)
        load = load + fem2d.assemble_interface_load(mesh, forcing.f, order=max(2, forcing.quadrature_order))
        return fem2d.assemble_stiffness(mesh, cfg.eps, cfg.k1, cfg.k2), load

    p = direct(ref, *fitted_system(ref))
    if mode == "fitted2d":
        mesh = fem2d.build_fitted_mesh(zeta, cfg.nx, cfg.nz)
        q = direct(mesh, *fitted_system(mesh))
        solved = fem2d.assemble_solve(mesh, forcing, eps=cfg.eps)
    else:
        K = flatten.assemble_flattened_stiffness(ref, zeta, cfg.eps, cfg.k1, cfg.k2)
        q = direct(ref, K, flatten.assemble_flattened_load(ref, zeta, forcing))
        solved = flatten.solve_flattened(zeta, forcing, cfg.eps, ref)
    gap = fem2d.vnorm_diff_2d(p, q)
    gate.check("spot.gap", abs(gap - recorded_gap) <= SPOT_RTOL * abs(gap),
               f"direct gap {gap!r} vs study gap {recorded_gap!r} at amplitude {amplitude!r}")
    load_fn, energy = solved.meta["load_functional"], solved.meta["bilinear_energy"]
    gate.check("spot.galerkin_identity", abs(load_fn - energy) <= GALERKIN_RTOL * abs(load_fn),
               f"load functional {load_fn!r} vs bilinear energy {energy!r}")
