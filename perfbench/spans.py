"""In-memory span tracing of the darcyperturb layers, installed from outside.

`install` wraps every public function of each layer module (and the public
methods and `__call__` of the classes those modules define).  Each call records
a span (name, start, end, parent) in memory; `Tracer.summary` folds the spans
into per-function calls, total and self time, and per-module totals.

A function is patched under every name that binds it in any layer module or
the package namespace, because callers look names up where they imported
them: `study` imports `xi_perturbation` by name from `geometry`, and `flatten`
imports `cg_solve` from `fem2d`.  A layer module that is missing is recorded
in `Tracer.absent`; a function that is missing is simply never wrapped, and
metrics derived from it are reported as absent by the caller.

A few spans also feed counters (see `_HOOKS`), and the `cg` name that `fem2d`
imports from scipy is wrapped with a counting callback (no span, so CG time
stays in the self time of `fem2d.cg_solve`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "config", "study", "geometry", "quadrature", "solver1d", "fem2d", "flatten")

# modelled vector traffic of one Jacobi-CG iteration besides the matvec: the
# preconditioner (2 reads, 1 write), three vector updates (2 reads, 1 write
# each) and two dot products (2 reads each), 8-byte floats
_CG_VECTOR_PASSES = 3 + 9 + 4


class Tracer:
    """Span recorder: a list of (name, start, end, parent index) plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.wrapped: set[str] = set()
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                self._run_hook(name, hook, args, result)
            return result

        self.wrapped.add(name)
        return traced

    def _run_hook(self, name, hook, args, result):
        # a counter must never break the traced program: a signature that no
        # longer fits the hook is recorded and the counter stays as it was
        try:
            hook(self.counts, args, result)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def summary(self) -> dict:
        """Per-function and per-module calls, total and self seconds, plus counters."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        funcs = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.wrapped}
        modules = {layer: {"spans": 0, "self_s": 0.0} for layer in LAYERS}
        for idx, (name, start, end, _) in enumerate(self.spans):
            dur = end - start
            f = funcs[name]
            f["calls"] += 1
            f["total_s"] += dur
            f["self_s"] += dur - child_time[idx]
            layer = modules[name.split(".", 1)[0]]
            layer["spans"] += 1
            layer["self_s"] += dur - child_time[idx]
        return {
            "functions": funcs,
            "modules": modules,
            "counts": dict(self.counts),
            "absent": list(self.absent),
            "hook_errors": list(self.hook_errors),
        }


# ---------------------------------------------------------------- counters

def _count_triangles(counts, args, mesh):
    counts["fem2d.build_fitted_mesh.triangles"] += len(mesh.triangles)


def _count_nnz(counts, args, K):
    counts["fem2d.assemble_stiffness.nnz"] = max(counts["fem2d.assemble_stiffness.nnz"], K.nnz)


def _count_clip(counts, args, result):
    # share of the triangles the flat-split clip visits that straddle z = 0
    mesh = args[0].mesh
    z = mesh.nodes[mesh.triangles][:, :, 1]
    counts["fem2d.energy_split_flat.clip_visited"] += len(z)
    counts["fem2d.energy_split_flat.clip_straddling"] += int(((z.min(axis=1) < 0.0) & (z.max(axis=1) > 0.0)).sum())


def _count_report_bytes(counts, args, paths):
    counts["study.emit_report.bytes"] += sum(Path(p).stat().st_size for p in paths.values())


# span name -> (counter hook, the counters it feeds)
_HOOKS = {
    "fem2d.build_fitted_mesh": (_count_triangles, ("fem2d.build_fitted_mesh.triangles",)),
    "fem2d.assemble_stiffness": (_count_nnz, ("fem2d.assemble_stiffness.nnz",)),
    "fem2d.energy_split_flat": (_count_clip, ("fem2d.energy_split_flat.clip_visited",
                                              "fem2d.energy_split_flat.clip_straddling")),
    "study.emit_report": (_count_report_bytes, ("study.emit_report.bytes",)),
}


def _counting_cg(tracer: Tracer, cg):
    """Wrap scipy's `cg` to count iterations, DOFs, residual and modelled bytes."""
    counts = tracer.counts

    @functools.wraps(cg)
    def counted(A, b, *args, callback=None, **kwargs):
        iters = 0

        def count(xk):
            nonlocal iters
            iters += 1
            if callback is not None:
                callback(xk)

        x, info = cg(A, b, *args, callback=count, **kwargs)
        n = A.shape[0]
        bnorm = float(np.linalg.norm(b))
        rel = float(np.linalg.norm(A @ x - b)) / bnorm if bnorm > 0.0 else 0.0
        matvec_bytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + 2 * 8 * n
        counts["fem2d.cg_solve.iters"] += iters
        counts["fem2d.cg_solve.dofs"] = max(counts["fem2d.cg_solve.dofs"], n)
        counts["fem2d.cg_solve.rel_residual"] = max(counts["fem2d.cg_solve.rel_residual"], rel)
        counts["fem2d.cg_solve.bytes_computed"] += iters * (matvec_bytes + _CG_VECTOR_PASSES * 8 * n)
        return x, info

    for key in ("iters", "dofs", "rel_residual", "bytes_computed"):
        counts[f"fem2d.cg_solve.{key}"] = 0.0
    return counted


# ---------------------------------------------------------------- install

def _rebind(namespaces, old, new):
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is old:
                setattr(ns, key, new)


def install(tracer: Tracer, package: str = "darcyperturb") -> None:
    """Wrap the public functions of every layer module of `package`."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"{package}.{layer}")
        except ImportError:
            tracer.absent.append(layer)
    namespaces = [sys.modules[package], *modules.values()]

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                hook, counters = _HOOKS.get(name, (None, ()))
                for counter in counters:
                    tracer.counts[counter] = 0.0
                _rebind(namespaces, obj, tracer.wrap(name, obj, hook))
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (not meth.startswith("_") or meth == "__call__"):
                        setattr(obj, meth, tracer.wrap(f"{layer}.{attr}.{meth}", fn))

    fem2d = modules.get("fem2d")
    if fem2d is not None and hasattr(fem2d, "cg"):
        _rebind(namespaces, fem2d.cg, _counting_cg(tracer, fem2d.cg))
