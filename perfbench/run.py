"""darcyperturb benchmark: timed `study` sweeps with a correctness gate.

    python3 perfbench/run.py --workload fitted2d-n128 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  Each
sample is one `darcyperturb study` call made through
`darcyperturb.cli.dispatch` in a fresh interpreter (`perfbench/child.py`) on
a configuration generated from the seed (`perfbench/workloads.py`).

With `--trace 0` the run times untraced samples for `--seconds` seconds and
reports the end-to-end metrics of BENCHMARK.json as medians over the samples:

* `run_s`       wall seconds of one study dispatch, after import to return
* `setup_s`     seconds from spawning the interpreter until `darcyperturb.cli`
                is imported, over a few import-only starts and every sample
* `peak_rss_mb` peak resident memory of a sample process

With `--trace 1` untraced and traced samples alternate, and the run reports
the per-layer metrics of BENCHMARK.json as medians over the traced samples
(`perfbench/spans.py` wraps each layer module from outside).  Which
end-to-end metric and workload each per-layer metric should move is recorded
in `perfbench/expectations.json`.

Both modes run the correctness gate (`perfbench/gate.py`): row checks on
records.csv, byte-identical records.csv across samples, and for 2D workloads
a direct-solve spot check of one seeded row.  Failed checks over attempted
checks is the fail ratio; it is printed with the metrics on stderr.  The last
stdout line is the JSON result; the full record of the run, provenance
included, is written to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate as gate_mod
from workloads import WORKLOADS, make_workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "darcyperturb"

# import-only interpreter starts per run, besides the start of every sample
SETUP_STARTS = 2
# no run may outlast this many seconds; a sample is cut at the deadline
DEADLINE_S = 170.0
# untraced samples a --trace 0 run needs for the determinism check, and the
# untraced, traced, untraced samples of a --trace 1 run
MIN_SAMPLES = 2
MIN_TRACE_SAMPLES = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The run cannot produce a result."""


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Runner:
    """Spawns sample interpreters and keeps what they report."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.count = 0

    def spawn(self, config: Path | None = None, trace: bool = False) -> dict:
        """One child run: its report plus setup and wall seconds and, for a
        study, the records.csv bytes and summary.json (empty if not written)."""
        self.count += 1
        result = self.work / f"child{self.count}.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--result", str(result)]
        if config is not None:
            out_dir = self.work / f"out{self.count}"
            cmd += ["--config", str(config), "--out-dir", str(out_dir)]
            if trace:
                cmd.append("--trace")
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchError("run deadline reached")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"sample {self.count} exceeded the run deadline") from exc
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"sample {self.count} exited with {proc.returncode}: {proc.stderr[-2000:]}")
        report = json.loads(result.read_text())
        report["setup_s"] = report["ready_monotonic"] - spawned
        report["wall_s"] = time.monotonic() - spawned
        report["traced"] = trace
        if config is not None:
            records, summary = out_dir / "records.csv", out_dir / "summary.json"
            report["records"] = records.read_bytes() if records.exists() else b""
            report["summary"] = json.loads(summary.read_text()) if summary.exists() else {}
        return report


def _collect(runner: Runner, config: Path, seconds: float, trace: bool) -> tuple[list, list]:
    """Setup starts, then samples for `seconds`: (setup reports, sample reports).

    A new sample starts only while the median sample so far still fits in
    the window, so a run lasts about `seconds` whatever the program's speed.
    A traced run alternates untraced and traced samples, starting untraced.
    """
    setups = [runner.spawn() for _ in range(SETUP_STARTS)]
    samples: list[dict] = []
    minimum = MIN_TRACE_SAMPLES if trace else MIN_SAMPLES
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        if len(samples) >= minimum:
            typical = statistics.median(s["wall_s"] for s in samples)
            if elapsed + typical > seconds:
                break
        samples.append(runner.spawn(config, trace=trace and len(samples) % 2 == 1))
    return setups, samples


def _gate(workload, config: Path, samples: list[dict]) -> gate_mod.Gate:
    gate = gate_mod.Gate()
    for k, s in enumerate(samples):
        gate.check(f"sample{k}.exit_code", s["exit_code"] == 0, f"exit code {s['exit_code']}")
        gate.check(f"sample{k}.package", Path(s["package_file"]).resolve().is_relative_to(PACKAGE),
                   f"imported {s['package_file']}")
    reference = samples[0]
    rows = gate_mod.parse_records(reference["records"].decode())
    gate_mod.check_rows(gate, rows, workload.mode, workload.amplitudes)
    gate_mod.note_estimates(gate, reference["summary"])
    for k, s in enumerate(samples[1:], start=1):
        kind = "traced" if s["traced"] else "untraced"
        gate_mod.check_identical(gate, f"sample{k}.{kind}_records_identical", reference["records"], s["records"])
    if workload.spot_row is not None and workload.spot_row < len(rows):
        row = rows[workload.spot_row]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        try:
            gate_mod.spot_check(gate, config, workload.mode, workload.amplitudes[workload.spot_row],
                                float(row["vnorm_gap"]))
        except (AttributeError, ImportError, TypeError) as exc:
            # a public function the reference solve relies on is gone or changed
            gate.check("spot.reference", False, f"{type(exc).__name__}: {exc}")
    return gate


def _median(values) -> float:
    return float(statistics.median(values))


def _end_to_end(setups: list[dict], samples: list[dict]) -> dict[str, list[float]]:
    """The samples of each end-to-end metric; the run reports their median."""
    return {
        "run_s": [s["run_s"] for s in samples],
        "setup_s": [s["setup_s"] for s in setups + samples],
        "peak_rss_mb": [s["maxrss_kb"] / 1024.0 for s in samples],
    }


def _layer_values(summary: dict) -> dict:
    """Flatten one traced sample's summary into per-layer metric values."""
    values = {}
    for name, f in summary["functions"].items():
        values[f"{name}.self_s"] = f["self_s"]
        values[f"{name}.calls"] = f["calls"]
    for layer, m in summary["modules"].items():
        if layer not in summary["absent"]:
            values[f"{layer}.self_s"] = m["self_s"]
            values[f"{layer}.spans"] = m["spans"]
    counts = summary["counts"]
    values.update({k: v for k, v in counts.items() if not k.endswith(("clip_visited", "clip_straddling"))})
    if "fem2d.energy_split_flat.clip_visited" in counts:
        visited = counts["fem2d.energy_split_flat.clip_visited"]
        values["fem2d.energy_split_flat.clip_useful_ratio"] = (
            counts["fem2d.energy_split_flat.clip_straddling"] / visited if visited else 0.0)
    if "fem2d.Mesh2D.basis_gradients.calls" in values and "fem2d.build_fitted_mesh.calls" in values:
        meshes = values["fem2d.build_fitted_mesh.calls"]
        values["fem2d.Mesh2D.basis_gradients.calls_per_mesh"] = (
            values["fem2d.Mesh2D.basis_gradients.calls"] / meshes if meshes else 0.0)
    if "quadrature.Antiderivative.__call__.calls" in values:
        values["quadrature.Antiderivative.evals"] = values["quadrature.Antiderivative.__call__.calls"]
    return values


def _per_layer(names: list[str], samples: list[dict]) -> tuple[dict, list[str]]:
    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    per_sample = [_layer_values(s["trace"]) for s in traced]
    run_traced = _median(s["run_s"] for s in traced)
    derived = {"trace.run_s": run_traced,
               "trace.overhead_s": run_traced - _median(s["run_s"] for s in untraced)}
    values, absent = {}, []
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif all(name in v for v in per_sample):
            values[name] = _median(v[name] for v in per_sample)
        else:
            values[name] = 0.0
            absent.append(name)
    return values, absent


def _provenance(workload, samples: list[dict]) -> dict:
    first = samples[0]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "workload": workload.name,
        "seed": workload.seed,
        "config": workload.config_text,
        "spot_row": workload.spot_row,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = make_workload(workload_name, seed)
    results = BENCH_DIR / "results"
    work = results / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "study.ini"
        config.write_text(workload.config_text)
        runner = Runner(work, time.monotonic())
        setups, samples = _collect(runner, config, seconds, trace)
        gate = _gate(workload, config, samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, absent = _per_layer(names, samples)
        layers = [s["trace"] for s in samples if s["traced"]]
        spread = {}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        drawn = _end_to_end(setups, samples)
        values = {name: _median(v) for name, v in drawn.items()}
        spread = {name: {"n": len(v), "quartiles": statistics.quantiles(v, n=4)} for name, v in drawn.items()}
        absent, layers = [], []
    record = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    full = {
        **record,
        "fail_ratio": gate.failed / gate.attempted,
        "spread": spread,
        "absent": absent,
        "failures": gate.failures(),
        "notes": gate.notes,
        "provenance": _provenance(workload, samples),
        "seconds": seconds,
        "samples": [{k: s.get(k) for k in ("traced", "run_s", "setup_s", "wall_s", "maxrss_kb")}
                    for s in samples],
        "setup_starts": [s["setup_s"] for s in setups],
        "trace_summaries": layers,
    }
    results.mkdir(exist_ok=True)
    out = results / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(full, indent=1) + "\n")
    _report(full, out)
    return record


def _report(full: dict, out: Path) -> None:
    say = functools.partial(print, file=sys.stderr)
    prov = full["provenance"]
    say(f"workload {prov['workload']} seed {prov['seed']}: {len(full['samples'])} samples, "
        f"git {prov['git_sha']}, src {prov['src_sha256'][:12]}, nproc {prov['nproc']}, "
        f"numpy {prov['numpy']}, scipy {prov['scipy']}")
    for name, m in full["metrics"].items():
        line = f"  {name:<52} {m['value']:>14.6g} {m['unit']}"
        if name in full["spread"]:
            q1, _, q3 = full["spread"][name]["quartiles"]
            line += f"  (median of {full['spread'][name]['n']}, quartiles {q1:.4g} to {q3:.4g})"
        say(line)
    say(f"  {'fail_ratio':<52} {full['fail_ratio']:>14.6g} ratio "
        f"({full['failed']} of {full['attempted']} checks failed)")
    for line in full["failures"][:20]:
        say(f"  {line}")
    if full["notes"]:
        say(f"  {len(full['notes'])} estimate failures reported by the study (not counted), "
            f"first: {full['notes'][0]}")
    if full["absent"]:
        say(f"  absent: {', '.join(full['absent'])}")
    say(f"full record: {out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a darcyperturb checkout; {PACKAGE} or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
