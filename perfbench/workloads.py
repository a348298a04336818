"""Benchmark workloads: one `darcyperturb study` configuration per name,
generated from a seed.

The seed jitters the amplitude ladder (and picks the row the 2D spot check
re-solves) and nothing else, so the cost of a run stays the same across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# mode, mesh size (2D) and ladder shape of each workload; the reasons for the
# choice are recorded in BENCHMARK.json
WORKLOADS = {
    "fitted2d-n128": {"mode": "fitted2d", "n": 128, "rows": 4, "start": 0.2},
    "flattened2d-n192": {"mode": "flattened2d", "n": 192, "rows": 3, "start": 0.2},
    "oned-dense": {"mode": "oned", "rows": 1600, "top": 0.5},
}

# jitter of the first 2D amplitude, as a share of its nominal value
START_JITTER = 0.05

_TWOD_TEMPLATE = """\
[domain]
dim = 2
eps = 0.1

[perturbation]
family = sine
wavenumber = 1

[forcing]
F = 0
f = 1

[solver]
nx = {n}
nz = {n}

[study]
mode = {mode}
amplitudes = {amplitudes}
"""

# the shipped 1D physics of configs/study-1d-sqrt.ini: the gap is sqrt(amplitude)
_ONED_TEMPLATE = """\
[domain]
dim = 1
eps = 0.5

[forcing]
F = 0
f = 1

[solver]
n_cells = 256

[study]
mode = oned
amplitudes = {amplitudes}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    mode: str
    amplitudes: tuple[float, ...]
    config_text: str
    spot_row: int | None  # 2D row re-solved by the spot check


def make_workload(name: str, seed: int) -> Workload:
    """The study configuration of workload `name` for `seed`."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    if spec["mode"] == "oned":
        amps: set[float] = set()
        while len(amps) < spec["rows"]:
            a = spec["top"] * rng.random()
            if a > 0.0:
                amps.add(a)
        ladder = tuple(sorted(amps, reverse=True))
        text = _ONED_TEMPLATE.format(amplitudes=" ".join(map(repr, ladder)))
        spot_row = None
    else:
        start = spec["start"] * (1.0 + START_JITTER * (2.0 * rng.random() - 1.0))
        ladder = tuple(start / 2.0**k for k in range(spec["rows"]))
        text = _TWOD_TEMPLATE.format(n=spec["n"], mode=spec["mode"],
                                     amplitudes=" ".join(map(repr, ladder)))
        spot_row = rng.randrange(spec["rows"])
    return Workload(name=name, seed=seed, mode=spec["mode"], amplitudes=ladder,
                    config_text=text, spot_row=spot_row)
