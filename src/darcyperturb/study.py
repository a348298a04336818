"""Convergence-study harness: perturbation sweeps, measured V-norm gaps and
energies, numeric checks of the perturbation inequalities, and machine-readable
reports (records.csv + summary.json).  In 2D, energy_flat_total is a_0 of the
row's perturbed field (q, or the pulled-back T^{-1} rho), and xi_p the exact
P1 integral of p over the strips of the polyline of zeta through the columns."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from . import fem2d, flatten, solver1d
from .config import MODES
from .geometry import FLAT_ZETA, Perturbation, _lower_bound, lower_bound_constant, xi_perturbation

SCHEMA_VERSION = 1

# errors that mark one sweep row as failed; anything else is a bug and propagates
_ROW_ERRORS = (fem2d.SolverConvergenceError, ValueError, ArithmeticError)

# rows of a 1D sweep solved together: on a 1600-row sweep, 64 rows take half
# the time of 16 and 128 no less than 64; peak RSS was 54.7-54.9 MiB at all
# three (2-vCPU x86-64, numpy 2.4), most of it the imports
_ONED_BATCH_ROWS = 64

# column order of records.csv (runtime is reported in summary.json only, so
# reruns of the same config are byte-identical)
CSV_COLUMNS = (
    "amplitude",
    "norm_sup",
    "norm_w1inf",
    "resolution",
    "vnorm_gap",
    "energy_e1",
    "energy_e2",
    "energy_total",
    "energy_flat_total",
    "lower_bound_c",
    "coercivity_e",
    "xi_p",
    "bound_h_part",
    "bound_hperp_part",
    "bound_total",
    "status",
)
# the columns of records.csv that are not floats
_TEXT_COLUMNS = ("resolution", "status")
# rows of records.csv formatted at a time: the cells of all 1,600 rows of a
# 1D sweep at once raised its peak RSS by 1.8 MiB (2-vCPU x86-64, numpy 2.4)
_REPORT_BLOCK_ROWS = 64


@dataclass
class ConvergenceRecord:
    """One row of a perturbation sweep."""

    amplitude: float
    resolution: int
    norm_sup: float = math.nan
    norm_w1inf: float = math.nan
    vnorm_gap: float = math.nan
    energy_e1: float = math.nan
    energy_e2: float = math.nan
    energy_total: float = math.nan
    energy_flat_total: float = math.nan
    lower_bound_c: float = math.nan
    coercivity_e: float = math.nan
    xi_p: float = math.nan
    bound_h_part: float = math.nan
    bound_hperp_part: float = math.nan
    bound_total: float = math.nan
    runtime: float = math.nan
    status: str = "ok"


def _check_amplitudes(amplitudes: Sequence[float]):
    amps = [float(a) for a in amplitudes]
    if not amps:
        raise ValueError("no amplitudes given")
    if any(a < 0.0 or a >= 1.0 for a in amps):
        raise ValueError("amplitudes must lie in [0, 1)")
    if any(a2 >= a1 for a1, a2 in zip(amps, amps[1:])):
        raise ValueError("amplitudes must be strictly decreasing")
    return amps


def run_sequence(shape: Callable[[float], Perturbation] | None, amplitudes: Sequence[float],
                 forcing, eps: float, resolution: int, mode: str,
                 *, rtol: float = 1e-10) -> list[ConvergenceRecord]:
    """Solve the perturbed problem along a decreasing amplitude sequence.

    Every mode computes the unperturbed solution once and fills its rows
    through one driver, `_rows`, in batches: runs of one structure in 1D, one
    row each in 2D.  Expected numerical errors (`_ROW_ERRORS`) mark the
    affected row as failed without aborting the sweep; any other error
    propagates.  A 2D sweep builds every zeta = shape(amp) before its first
    solve, so an invalid shape parameter raises instead of failing rows; a
    1D sweep, whose rows read only the amplitude, builds its shape (when
    given) once, at the first amplitude, to the same end.  A 2D sweep also
    reads every row's xi_p off p right after p's solve, like the zetas
    outside the row failure rule; a fitted sweep then hands its rows p's
    values without p's cached gradient, so no row solves while that
    gradient is alive, while a flattened sweep keeps it, since every
    flattened gap reads it.  `rtol` is the CG tolerance of the 2D solves.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    amps = _check_amplitudes(amplitudes)
    if mode == "oned":
        if shape is not None:
            shape(amps[0])
        p = solver1d.solve_exact_1d(forcing, 0.0, eps)
        fill = lambda recs, zeta: _fill_oned(recs, zeta, p, forcing, eps)
        batches = _oned_batches(amps)
    else:
        if shape is None:
            raise ValueError("2D modes need a perturbation shape")
        zetas = {amp: shape(amp) for amp in amps}
        n = int(resolution)
        p = fem2d.assemble_solve(fem2d.build_fitted_mesh(FLAT_ZETA, n, n), forcing, eps=eps, rtol=rtol)
        xis = {amp: xi_perturbation(p, zeta) for amp, zeta in zetas.items()}
        if mode == "fitted2d":
            # a fitted gap reads no gradient of p: drop the one the xi's cached
            p = fem2d.Field2D(mesh=p.mesh, values=p.values, label=p.label, meta=p.meta)
        fill = lambda recs, amp: _twod_row(recs[0], p, zetas[amp], xis[amp], forcing, eps, mode, rtol)
        batches = ([amp] for amp in amps)
    return [rec for batch in batches for rec in _rows(batch, fill, resolution)]


def _oned_batches(amps):
    """The amplitudes in runs of at most _ONED_BATCH_ROWS that share one
    structure (each in (0, 1), none within BREAKPOINT_MERGE_TOL of 0 or 1),
    and every other amplitude alone."""
    tol = solver1d.BREAKPOINT_MERGE_TOL
    for regular, run in groupby(amps, key=lambda amp: amp > tol and 1.0 - amp > tol):
        run = list(run)
        step = _ONED_BATCH_ROWS if regular else 1
        for k in range(0, len(run), step):
            yield run[k:k + step]


def _rows(amps, fill, resolution) -> list[ConvergenceRecord]:
    """Records of the batch `amps`, filled together by fill(recs, zeta), with
    zeta the amplitudes as an array (one amplitude as a float).

    A batch that fails is filled again one row at a time, so a failing row
    fails alone, and the failed attempt's time is shared over its rows.  Each
    row's runtime is the batch's time over its rows.
    """
    recs = [ConvergenceRecord(amplitude=amp, resolution=int(resolution)) for amp in amps]
    t0 = perf_counter()
    try:
        fill(recs, np.array(amps) if len(amps) > 1 else amps[0])
    except _ROW_ERRORS as exc:  # keep sweeping
        if len(amps) > 1:
            attempt = (perf_counter() - t0) / len(amps)
            recs = [rec for amp in amps for rec in _rows([amp], fill, resolution)]
            for rec in recs:
                rec.runtime += attempt
            return recs
        recs[0].status = f"failed: {exc}"
    runtime = (perf_counter() - t0) / len(recs)
    for rec in recs:
        rec.runtime = runtime
    return recs


def _fill_oned(recs, zeta, p, forcing, eps) -> None:
    """Fill the rows of `recs` in order, a few columns at a time, for zeta (the
    amplitudes as an array, or one as a float) against the unperturbed p."""

    def put(**columns):
        for name, values in columns.items():
            for rec, v in zip(recs, np.broadcast_to(values, len(recs))):
                setattr(rec, name, float(v))

    # in 1D the strips sweep |zeta|, and both norms of zeta are |zeta|
    size = np.abs(zeta)
    put(norm_sup=size, norm_w1inf=size)
    q = solver1d.solve_exact_1d(forcing, zeta, eps)
    # every integral of a squared slope reads one table: p and q differentiated
    # once, on the cells of their merged breakpoints, which hold 0 and zeta
    table = solver1d._Slopes(p, q)
    dp, dq = table.slopes
    put(vnorm_gap=table.vnorm(dp, dq))
    e1, e2, tot = table.energy_split(dq, zeta, eps)
    put(energy_e1=e1, energy_e2=e2, energy_total=tot)
    put(energy_flat_total=table.energy_split(dq, 0.0, eps)[2])
    put(lower_bound_c=_lower_bound(eps, size), coercivity_e=flatten._coercivity(size, size, 1))
    put(xi_p=table.xi(dp, zeta))
    bound = solver1d.estimate_rhs_1d(forcing.F, forcing.f, zeta, eps)
    put(bound_h_part=bound.h_part, bound_hperp_part=bound.hperp_part, bound_total=bound.total)


def _twod_row(rec: ConvergenceRecord, p: fem2d.Field2D, zeta: Perturbation, xi_p: float, forcing,
              eps: float, mode: str, rtol: float) -> None:
    """Fill one 2D row against the unperturbed solution p, whose xi_p for
    this zeta the sweep read before its first row.

    A function of its own so that the row's mesh, field and cached mesh
    geometry are released before the next row builds its mesh.
    """
    rec.norm_sup, rec.norm_w1inf = zeta.norm_sup, zeta.norm_w1inf
    rec.lower_bound_c = lower_bound_constant(zeta, eps)
    rec.coercivity_e = flatten.coercivity_constant(zeta)
    rec.xi_p = xi_p
    if mode == "fitted2d":
        mesh = fem2d.build_fitted_mesh(zeta, rec.resolution, rec.resolution)
        q = fem2d.assemble_solve(mesh, forcing, eps=eps, rtol=rtol)
        energies = fem2d.energy_split(q, eps)
    else:
        q = flatten.solve_flattened(zeta, forcing, eps, p.mesh, rtol=rtol)
        energies = flatten.flattened_energy_split(q, zeta, eps)
    rec.vnorm_gap = fem2d.vnorm_diff_2d(p, q)
    rec.energy_e1, rec.energy_e2, rec.energy_total, rec.energy_flat_total = energies


@dataclass(frozen=True)
class EstimateReport:
    passed: bool
    failures: tuple[str, ...] = ()


def check_estimates(records: Sequence[ConvergenceRecord],
                    gap_target: float | None = None) -> EstimateReport:
    """Assert the measured rows against the perturbation inequalities.

    Per row: the gap must respect the explicit bound where the row has one
    (1D rows; 2D rows leave bound_total at NaN), and the diagonal energy must
    dominate lower_bound_c times the flat-split energy.  The last row's gap is
    checked against `gap_target` when given.
    """
    failures: list[str] = []
    for k, rec in enumerate(records):
        if rec.status != "ok":
            failures.append(f"row {k}: {rec.status}")
            continue
        if not math.isnan(rec.bound_total):
            if rec.vnorm_gap > rec.bound_total + 1e-9:
                failures.append(
                    f"row {k}: gap {rec.vnorm_gap:.6e} exceeds bound {rec.bound_total:.6e}"
                )
        tol = 1e-9 * max(1.0, abs(rec.energy_flat_total))
        if rec.energy_total < rec.lower_bound_c * rec.energy_flat_total - tol:
            failures.append(
                f"row {k}: diagonal energy {rec.energy_total:.6e} below "
                f"C_zeta * flat energy {rec.lower_bound_c * rec.energy_flat_total:.6e}"
            )
    if gap_target is not None and records:
        last = records[-1]
        if last.status == "ok" and not last.vnorm_gap < gap_target:
            failures.append(f"final gap {last.vnorm_gap:.6e} not below target {gap_target:.6e}")
    return EstimateReport(passed=not failures, failures=tuple(failures))


def loglog_slope(records: Sequence[ConvergenceRecord]) -> float | None:
    """Least-squares slope of log gap vs log amplitude on the last four rows."""
    pairs = [
        (r.amplitude, r.vnorm_gap)
        for r in records
        if r.status == "ok" and r.amplitude > 0.0 and r.vnorm_gap > 0.0
    ]
    if len(pairs) < 2:
        return None
    pairs = pairs[-4:]
    la = np.log([a for a, _ in pairs])
    lg = np.log([g for _, g in pairs])
    return float(np.polyfit(la, lg, 1)[0])


def _csv_field(text: str) -> str:
    """`text` as a cell of `csv.writer` with QUOTE_MINIMAL: in quotes, its
    own quotes doubled, when it holds a comma, a quote or a line break, so
    that a failure message stays one cell; else as it is."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_report(records: Sequence[ConvergenceRecord], out_dir,
                estimate_report: EstimateReport | None = None) -> dict:
    """Write records.csv (stable column order, runtime excluded) and summary.json."""
    if not records:
        raise ValueError("no records")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # one column at a time: repr of each float (NaN of either sign gives
    # 'nan'), str of the integer resolution and of the status, quoted as
    # `csv.writer` quotes a field; in blocks of rows, so that only one
    # block's cells are held at once
    lines = [",".join(CSV_COLUMNS)]
    for k in range(0, len(records), _REPORT_BLOCK_ROWS):
        block = records[k:k + _REPORT_BLOCK_ROWS]
        columns = [[_csv_field(str(getattr(r, col))) for r in block] if col in _TEXT_COLUMNS
                   else map(repr, np.array([getattr(r, col) for r in block], dtype=float).tolist())
                   for col in CSV_COLUMNS]
        lines += map(",".join, zip(*columns))
    csv_path = out / "records.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    gaps = [r.vnorm_gap for r in records if r.status == "ok"]
    monotone = all(b < a for a, b in zip(gaps, gaps[1:])) if len(gaps) > 1 else True
    summary = {
        "schema_version": SCHEMA_VERSION,
        "n_records": len(records),
        "n_failed": sum(1 for r in records if r.status != "ok"),
        "gap_monotone_decreasing": monotone,
        "loglog_slope": loglog_slope(records),
        "final_gap": gaps[-1] if gaps else None,
        "runtimes": [r.runtime for r in records],
    }
    if estimate_report is not None:
        summary["estimates_passed"] = estimate_report.passed
        summary["estimate_failures"] = list(estimate_report.failures)
    json_path = out / "summary.json"
    json_path.write_text(json.dumps(summary, indent=2) + "\n")
    return {"records": str(csv_path), "summary": str(json_path)}
