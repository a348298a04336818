"""Plain-text run configuration (key = value sections) and safe forcing
expressions.

Sections: [domain], [perturbation], [forcing], [solver], [study].  Unknown
sections or keys are rejected; numeric ranges are validated at load time.
Forcing terms are arithmetic expressions in x (1D) or x, z (2D) over a small
whitelist of numpy functions.
"""

from __future__ import annotations

import ast
import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import ForcingSpec, Perturbation, make_perturbation, perturbation_from_table
from .quadrature import MAX_ORDER, as_array_fn


class ConfigError(ValueError):
    """Invalid or out-of-range run configuration."""


_EXPR_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "minimum": np.minimum, "maximum": np.maximum, "sign": np.sign,
}
_EXPR_CONSTS = {"pi": np.pi, "e": np.e}

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.USub, ast.UAdd,
    ast.Load,
)


def compile_expression(expr: str, variables: tuple[str, ...]):
    """Compile an arithmetic expression into a vectorized callable."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad forcing expression {expr!r}: {exc}") from exc
    names = set(variables) | set(_EXPR_CONSTS)
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(f"disallowed construct {type(node).__name__!r} in expression {expr!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _EXPR_FUNCS:
                raise ConfigError(f"unknown function call in expression {expr!r}")
        elif isinstance(node, ast.Name) and node.id not in names and node.id not in _EXPR_FUNCS:
            raise ConfigError(f"unknown name {node.id!r} in expression {expr!r}")
    code = compile(tree, "<forcing>", "eval")
    scope = {"__builtins__": {}, **_EXPR_FUNCS, **_EXPR_CONSTS}

    def fn(*args):
        return eval(code, scope, dict(zip(variables, args)))

    return as_array_fn(fn)


_SECTION_KEYS = {
    "domain": {"dim", "eps", "k1", "k2"},
    "perturbation": {"family", "amplitude", "wavenumber", "knot", "table"},
    "forcing": {"f_volume", "f_interface", "quadrature_order", "continuity_tol"},
    "solver": {"n_cells", "nx", "nz", "cg_rtol"},
    "study": {"mode", "amplitudes", "gap_target"},
}


@dataclass
class RunConfig:
    """Validated contents of a run configuration file."""

    dim: int = 2
    eps: float = 0.5
    k1: float = 1.0
    k2: float = 1.0

    family: str = "sine"
    amplitude: float = 0.1
    wavenumber: int = 1
    knot: float = 0.5
    table: str | None = None

    f_volume: str = "0"
    f_interface: str = "1"
    quadrature_order: int = 4
    continuity_tol: float | None = None

    n_cells: int = 256
    nx: int = 64
    nz: int = 64
    cg_rtol: float = 1e-10

    mode: str = "oned"
    amplitudes: tuple[float, ...] = (0.25, 0.125, 0.0625)
    gap_target: float | None = None

    base_dir: Path = field(default_factory=Path)
    # the keys (as attribute names) that the file sets
    given: frozenset[str] = frozenset()

    def validate(self) -> "RunConfig":
        if self.dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {self.dim}")
        if not 0.0 < self.eps <= 1.0:
            raise ConfigError(f"eps must lie in (0, 1], got {self.eps}")
        if not (0.0 < self.k1 < np.inf and 0.0 < self.k2 < np.inf):
            raise ConfigError(f"k1, k2 must be positive and finite, got {self.k1}, {self.k2}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigError(f"amplitude must lie in [0, 1), got {self.amplitude}")
        if self.n_cells < 4:
            raise ConfigError(f"n_cells must be >= 4, got {self.n_cells}")
        if self.nx < 2 or self.nz < 2:
            raise ConfigError(f"nx, nz must be >= 2, got {self.nx}, {self.nz}")
        if not 1 <= self.quadrature_order <= MAX_ORDER:
            raise ConfigError(f"quadrature_order must lie in [1, {MAX_ORDER}], got {self.quadrature_order}")
        if self.continuity_tol is not None and not self.continuity_tol >= 0.0:
            raise ConfigError(f"continuity_tol must be >= 0, got {self.continuity_tol}")
        if not 0.0 < self.cg_rtol < 1.0:
            raise ConfigError(f"cg_rtol must lie in (0, 1), got {self.cg_rtol}")
        if self.mode not in ("oned", "fitted2d", "flattened2d"):
            raise ConfigError(f"unknown study mode {self.mode!r}")
        if any(not 0.0 <= a < 1.0 for a in self.amplitudes):
            raise ConfigError("study amplitudes must lie in [0, 1)")
        if self.gap_target is not None and not 0.0 < self.gap_target < np.inf:
            raise ConfigError(f"gap_target must be positive and finite, got {self.gap_target}")
        return self

    def require_dim(self, dim: int, command: str) -> None:
        """Run in `dim` dimensions, rejecting a [domain] dim of the file that
        says otherwise (a file without one suits every command)."""
        if "dim" in self.given and self.dim != dim:
            raise ConfigError(f"{command} solves in {dim}D, but the config sets dim = {self.dim}")
        self.dim = dim

    # --- builders -----------------------------------------------------------

    def perturbation(self, amplitude: float | None = None) -> Perturbation:
        amp = self.amplitude if amplitude is None else amplitude
        if self.family == "table":
            if amplitude is not None:
                raise ConfigError(_TABLE_AMPLITUDE)
            if not self.table:
                raise ConfigError("perturbation family 'table' needs a table = <csv> entry")
            path = (self.base_dir / self.table).resolve()
            data = np.loadtxt(path, delimiter=",", dtype=float)
            if data.ndim != 2 or data.shape[1] != 2:
                raise ConfigError(f"zeta table {path} must have two columns (x, zeta)")
            return perturbation_from_table(data[:, 0], data[:, 1])
        params = {}
        if self.family == "sine":
            params["wavenumber"] = self.wavenumber
        elif self.family == "hat":
            params["knot"] = self.knot
        try:
            return make_perturbation(self.family, params, amp)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def forcing(self, dim: int | None = None) -> ForcingSpec:
        dim = self.dim if dim is None else dim
        variables = ("x",) if dim == 1 else ("x", "z")
        F = compile_expression(self.f_volume, variables)
        f = compile_expression(self.f_interface, variables)
        return ForcingSpec(F=F, f=f, quadrature_order=self.quadrature_order)

    def validate_forcing(self) -> list[str]:
        """Finite-value sampling of F and the optional f-continuity check."""
        problems: list[str] = []
        fr = self.forcing()
        if self.dim == 1:
            xs = np.linspace(-1.0, 1.0, 257)
            Fv, fv = fr.F(xs), fr.f(xs)
        else:
            xs = np.linspace(0.0, 1.0, 33)
            zs = np.linspace(-1.0, 1.0, 33)
            X, Z = np.meshgrid(xs, zs)
            Fv, fv = fr.F(X, Z), fr.f(X, Z)
        if not np.all(np.isfinite(Fv)):
            problems.append("volume source F is not finite on the sampling grid")
        if not np.all(np.isfinite(fv)):
            problems.append("interface source f is not finite on the sampling grid")
        if self.continuity_tol is not None:
            deltas = np.logspace(-6, -2, 9)
            if self.dim == 1:
                f0 = fr.f(np.zeros(1))[0]
                worst = max(abs(float(fr.f(np.asarray([d]))[0]) - f0) for d in deltas)
            else:
                xs = np.linspace(0.0, 1.0, 17)
                f0 = fr.f(xs, np.zeros_like(xs))
                worst = max(float(np.max(np.abs(fr.f(xs, np.full_like(xs, d)) - f0))) for d in deltas)
            if worst > self.continuity_tol:
                problems.append(
                    f"f varies by {worst:g} near the interface, above continuity_tol {self.continuity_tol:g}"
                )
        return problems


def _parse_value(section: str, key: str, raw: str):
    ints = {"dim", "wavenumber", "quadrature_order", "n_cells", "nx", "nz"}
    floats = {"eps", "k1", "k2", "amplitude", "knot", "cg_rtol",
              "continuity_tol", "gap_target"}
    if key in ints:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from exc
    if key in floats:
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from exc
    if key == "amplitudes":
        try:
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"[study] amplitudes must be numbers, got {raw!r}") from exc
    return raw


_TABLE_AMPLITUDE = "family = table takes no amplitude: the table gives zeta itself"

_KEY_RENAMES = {("forcing", "f"): "f_interface", ("forcing", "F"): "f_volume"}


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Load and validate a run configuration file (the defaults for path
    None), applying flag overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keep key case so F and f read naturally
    cfg = RunConfig()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            # read_file, unlike read, raises on a path it cannot open (a directory, say)
            with path.open() as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        cfg.base_dir = path.parent
    given = set()
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            attr = _KEY_RENAMES.get((section, key), key)
            if attr not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            setattr(cfg, attr, _parse_value(section, attr, raw))
            given.add(attr)
    cfg.given = frozenset(given)
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
    for key, value in overrides.items():
        setattr(cfg, key, value)
    if cfg.family == "table" and ("amplitude" in overrides or "amplitude" in cfg.given):
        raise ConfigError(_TABLE_AMPLITUDE)
    return cfg.validate()
