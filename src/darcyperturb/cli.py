"""Command-line front end.

Exit codes: 0 success, 1 validation failure, 2 solver nonconvergence,
3 I/O error, 64 usage error.  Diagnostics go to stderr; data goes to the
requested output files (or stdout for single-solution dumps without --out).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fem2d, flatten, solver1d, study as study_mod
from .config import _SECTION_KEYS, ConfigError, RunConfig, load_config
from .geometry import FLAT_ZETA, make_perturbation, validate_admissible

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_IO = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _say(msg: str):
    print(msg, file=sys.stderr)


def build_parser() -> _Parser:
    parser = _Parser(prog="darcyperturb", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="run configuration file")
        return p

    p = add("validate-zeta", "check admissibility of the configured perturbation")
    p.add_argument("--amplitude", type=float)
    p.add_argument("--samples", type=int, default=1024)

    p = add("solve1d", "exact 1D solve; CSV columns x, value, derivative, piece_id")
    p.add_argument("--zeta", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--forcing", type=Path, help="config file providing the [forcing] section")
    p.add_argument("--out", type=Path)
    p.add_argument("--samples", type=int, default=257)

    for name in ("solve2d", "flatten-solve"):
        p = add(name, "2D fitted solve" if name == "solve2d" else "2D flattened solve on the reference mesh")
        p.add_argument("--zeta-family", dest="zeta_family", choices=("sine", "bump", "hat", "table"))
        p.add_argument("--amplitude", type=float)
        p.add_argument("--nx", type=int)
        p.add_argument("--nz", type=int)
        p.add_argument("--eps", type=float)
        p.add_argument("--forcing", type=Path)
        p.add_argument("--out", type=Path)
        p.add_argument("--mesh-out", dest="mesh_out", type=Path)
        if name == "flatten-solve":
            p.add_argument("--compare-fitted", dest="compare_fitted", type=Path,
                           help="emit a CSV (h, vnorm_gap) comparing with pulled-back fitted solves")

    p = add("flatten-check", "matrix and round-trip property run; exit 1 on violation")
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("study", "run a perturbation sweep and emit records.csv + summary.json")
    p.add_argument("--mode", choices=study_mod.MODES)
    p.add_argument("--out-dir", dest="out_dir", type=Path, required=False)
    return parser


def _load(args, overrides: dict | None = None) -> RunConfig:
    cfg = load_config(args.config, overrides)
    if getattr(args, "forcing", None):
        forcing_cfg = load_config(args.forcing)
        cfg.f_volume = forcing_cfg.f_volume
        cfg.f_interface = forcing_cfg.f_interface
        cfg.quadrature_order = forcing_cfg.quadrature_order
    return cfg


def _require_unit_k(cfg: RunConfig, command: str):
    # the exact 1D solver, lower_bound_constant and estimate_rhs_1d assume k1 = k2 = 1
    if cfg.k1 != 1.0 or cfg.k2 != 1.0:
        raise ConfigError(f"{command} supports only k1 = k2 = 1, got k1 = {cfg.k1:g}, k2 = {cfg.k2:g}")


def _require_square(cfg: RunConfig, command: str):
    # the study sweeps and the --compare-fitted table build n x n meshes with n = nx
    if cfg.nz != cfg.nx:
        raise ConfigError(f"{command} needs nz = nx, got nx = {cfg.nx}, nz = {cfg.nz}")


def _reject_unread_keys(cfg: RunConfig, command: str, keys: set):
    # `keys` are the config keys that `command` does not read; a file that
    # names neither dim nor mode suits every command and keeps them for the
    # commands that read them
    if cfg.given & {"dim", "mode"}:
        unread = [f"[{section}] {key}" for section, names in _SECTION_KEYS.items()
                  for key in sorted(names & keys & cfg.given)]
        if unread:
            raise ConfigError(f"{command} does not read {', '.join(unread)}, set in the config")


def _write_or_stdout(path: Path | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _cmd_validate_zeta(args) -> int:
    # three samples leave one interior point for the gradient check
    if args.samples < 3:
        raise ConfigError(f"validate-zeta needs --samples >= 3, got {args.samples}")
    cfg = _load(args, {"amplitude": args.amplitude})
    zeta = cfg.perturbation()
    report = validate_admissible(zeta, samples=args.samples)
    problems = list(report.violations) + cfg.validate_forcing()
    if problems:
        for v in problems:
            _say(f"violation: {v}")
        return EXIT_VALIDATION
    _say("perturbation admissible")
    return EXIT_OK


def _field_csv_1d(field, samples: int) -> str:
    xs = np.unique(np.concatenate([np.linspace(-1.0, 1.0, samples), field.breakpoints]))
    idx = field._piece_index(xs)
    lines = ["x,value,derivative,piece_id"]
    vals = field.value(xs)
    ders = field.derivative(xs)
    for x, v, d, i in zip(xs, vals, ders, idx):
        lines.append(f"{float(x)!r},{float(v)!r},{float(d)!r},{int(i)}")
    return "\n".join(lines) + "\n"


def _cmd_solve1d(args) -> int:
    # two samples make the grid span [-1, 1]
    if args.samples < 2:
        raise ConfigError(f"solve1d needs --samples >= 2, got {args.samples}")
    cfg = _load(args, {"eps": args.eps})
    cfg.require_dim(1, "solve1d")
    _require_unit_k(cfg, "solve1d")
    # it solves at --zeta with the exact solver
    _reject_unread_keys(cfg, "solve1d", {"amplitude", "n_cells", "nx", "nz", "cg_rtol"})
    zeta = 0.0 if args.zeta is None else args.zeta
    if not -1.0 < zeta < 1.0:
        raise ConfigError(f"--zeta must lie in (-1, 1), got {zeta}")
    field = solver1d.solve_exact_1d(cfg.forcing(), zeta, cfg.eps)
    _write_or_stdout(args.out, _field_csv_1d(field, args.samples))
    return EXIT_OK


def _field_csv_2d(field) -> str:
    lines = ["node_id,x,z,value"]
    for i, ((x, z), v) in enumerate(zip(field.mesh.nodes, field.values)):
        lines.append(f"{i},{float(x)!r},{float(z)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def _mesh_csv(mesh) -> str:
    lines = ["n0,n1,n2,region"]
    for tri, reg in zip(mesh.triangles, mesh.region):
        lines.append(f"{tri[0]},{tri[1]},{tri[2]},{reg}")
    return "\n".join(lines) + "\n"


def _solve2d_config(args) -> RunConfig:
    cfg = _load(args, {
        "family": getattr(args, "zeta_family", None),
        "amplitude": args.amplitude,
        "nx": args.nx,
        "nz": args.nz,
        "eps": args.eps,
    })
    cfg.require_dim(2, args.command)
    return cfg


def _cmd_solve2d(args) -> int:
    cfg = _solve2d_config(args)
    mesh = fem2d.build_fitted_mesh(cfg.perturbation(), cfg.nx, cfg.nz)
    field = fem2d.assemble_solve(mesh, cfg.forcing(), cfg.eps, cfg.k1, cfg.k2, rtol=cfg.cg_rtol)
    _write_or_stdout(args.out, _field_csv_2d(field))
    if args.mesh_out is not None:
        _write_or_stdout(args.mesh_out, _mesh_csv(mesh))
    return EXIT_OK


def _cmd_flatten_solve(args) -> int:
    cfg = _solve2d_config(args)
    if args.compare_fitted is not None:
        _require_square(cfg, "flatten-solve --compare-fitted")
        # the table halves n down to 8, so a smaller n would give no row
        if cfg.nx < 8:
            raise ConfigError(f"flatten-solve --compare-fitted needs nx >= 8, got nx = {cfg.nx}")
    zeta = cfg.perturbation()
    forcing = cfg.forcing()
    ref = fem2d.build_fitted_mesh(FLAT_ZETA, cfg.nx, cfg.nz)
    field = flatten.solve_flattened(zeta, forcing, cfg.eps, ref, cfg.k1, cfg.k2, rtol=cfg.cg_rtol)
    _write_or_stdout(args.out, _field_csv_2d(field))
    if args.mesh_out is not None:
        _write_or_stdout(args.mesh_out, _mesh_csv(ref))
    if args.compare_fitted is not None:
        sizes = []
        n = cfg.nx
        while n >= 8:
            sizes.append(n)
            if n % 2:
                break
            n //= 2
        lines = ["h,vnorm_gap"]
        for n in sorted(sizes):
            refn = fem2d.build_fitted_mesh(FLAT_ZETA, n, n)
            fitted = fem2d.build_fitted_mesh(zeta, n, n)
            q = fem2d.assemble_solve(fitted, forcing, cfg.eps, cfg.k1, cfg.k2, rtol=cfg.cg_rtol)
            rho = flatten.solve_flattened(zeta, forcing, cfg.eps, refn, cfg.k1, cfg.k2, rtol=cfg.cg_rtol)
            gap = fem2d.vnorm_diff_2d(flatten.t_apply(zeta, q, "T", refn), rho)
            lines.append(f"{1.0 / n!r},{float(gap)!r}")
        _write_or_stdout(args.compare_fitted, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_flatten_check(args) -> int:
    if args.points < 1 or args.seed < 0:
        raise ConfigError(f"flatten-check needs --points >= 1 and --seed >= 0, got {args.points} and {args.seed}")
    cfg = _load(args)
    # a table is checked as it is; another family at two amplitudes
    configured = [cfg.perturbation()] if cfg.family == "table" else [
        cfg.perturbation(amplitude=a) for a in (0.25, 0.1)
    ]
    shapes = configured + [
        make_perturbation("sine", {"wavenumber": 2}, 0.2),
        make_perturbation("hat", {"knot": 0.5}, 0.3),
        make_perturbation("bump", {}, 0.3),
    ]
    report = flatten.matrix_property_report(shapes, n_points=args.points, seed=args.seed)
    ok = (
        report["aainv_max"] < 1e-12
        and report["det_max"] < 1e-12
        and report["norm_excess"] <= 1e-12
        and report["coercivity_margin"] >= -1e-12
        and report["chain_rule_max"] < 1e-6
    )
    for key, val in report.items():
        _say(f"{key}: {val:.3e}")
    if not ok:
        _say("matrix property violation detected")
        return EXIT_VALIDATION
    _say("all matrix and round-trip properties hold")
    return EXIT_OK


def _cmd_study(args) -> int:
    cfg = _load(args, {"mode": args.mode})
    _require_unit_k(cfg, "study")
    if cfg.family == "table":
        raise ConfigError("study cannot sweep a table perturbation: a table has no amplitude")
    cfg.require_dim(1 if cfg.mode == "oned" else 2, f"study --mode {cfg.mode}")
    if cfg.mode != "oned":
        _require_square(cfg, f"study {cfg.mode}")
    else:
        _reject_unread_keys(cfg, "study --mode oned", {"nx", "nz", "cg_rtol"})
    out_dir = args.out_dir if args.out_dir is not None else Path("study-out")
    resolution = cfg.n_cells if cfg.mode == "oned" else cfg.nx
    records = study_mod.run_sequence(cfg.perturbation, cfg.amplitudes, cfg.forcing(), cfg.eps, resolution,
                                     cfg.mode, rtol=cfg.cg_rtol)
    verdict = study_mod.check_estimates(records, cfg.gap_target)
    paths = study_mod.emit_report(records, out_dir, estimate_report=verdict)
    # estimate failures are part of the report, not a run failure (see README)
    for failure in verdict.failures:
        _say(f"estimate failure: {failure}")
    _say(f"wrote {paths['records']} and {paths['summary']}")
    return EXIT_OK


_COMMANDS = {
    "validate-zeta": _cmd_validate_zeta,
    "solve1d": _cmd_solve1d,
    "solve2d": _cmd_solve2d,
    "flatten-solve": _cmd_flatten_solve,
    "flatten-check": _cmd_flatten_check,
    "study": _cmd_study,
}


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("missing subcommand")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        _say(f"usage error: {exc}")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ValueError) as exc:
        _say(f"validation error: {exc}")
        return EXIT_VALIDATION
    except fem2d.SolverConvergenceError as exc:
        _say(f"solver error: {exc}")
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        _say(f"i/o error: {exc}")
        return EXIT_IO


def main(argv=None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
