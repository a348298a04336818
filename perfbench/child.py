"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py --result out.json [--config study.ini --out-dir dir [--trace]]

Imports `darcyperturb.cli` (found through PYTHONPATH), records the monotonic
time at which it is ready, and, unless only the import is measured, runs one
`study` through `darcyperturb.cli.dispatch`.  With `--trace` the layer modules
are wrapped by `spans.install` after the import and before the dispatch.  The
result (times, exit code, peak RSS, versions, trace summary) goes to
`--result` as JSON.
"""

import argparse
import json
import resource
import time

import darcyperturb.cli

ready = time.monotonic()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--config")
    parser.add_argument("--out-dir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import numpy
    import scipy

    result = {
        "ready_monotonic": ready,
        "package_file": darcyperturb.__file__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if args.config is not None:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        t0 = time.perf_counter()
        code = darcyperturb.cli.dispatch(["study", "--config", args.config, "--out-dir", args.out_dir])
        result["run_s"] = time.perf_counter() - t0
        result["exit_code"] = code
        if tracer is not None:
            result["trace"] = tracer.summary()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
