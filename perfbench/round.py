"""One measured round of a workload, in a fresh process.

Started by run.py with BLAS/OpenMP threads pinned to one. Prints one JSON
line: set-up time, time to the last verdict, peak resident memory, the
verdict and check failures of every operation, and with --trace the
per-span self times. Run from the root of a checkout: regsys is imported
from ./src and nowhere else.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"


def _import_regsys():
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import regsys

    if Path(regsys.__file__).resolve().parent != (SRC / "regsys").resolve():
        raise SystemExit(f"regsys imported from {regsys.__file__}, not from {SRC}")
    return regsys


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "REGSYS_THREADS")},
        "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None,
                        help="record spans and write them to this file when the round ends")
    parser.add_argument("--warmup", action="store_true", help="import regsys and exit")
    args = parser.parse_args()

    regsys = _import_regsys()
    import numpy as np

    import workloads
    from regsys.cli import run
    from regsys.errors import RegsysError

    if args.warmup:
        return 0
    ops = workloads.operations(args.workload, args.seed)
    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        run = regsys.cli.run  # the wrapped binding
    setup_s = time.perf_counter() - T0

    outcomes = []
    if tracer:
        tracer.active = True
    start = time.perf_counter()
    for config, _check, _seed in ops:
        try:
            outcomes.append(run(config))
        except RegsysError as exc:
            outcomes.append(exc)
    verify_s = time.perf_counter() - start
    if tracer:
        tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = []
    for (config, check, check_seed), outcome in zip(ops, outcomes):
        if isinstance(outcome, Exception):
            failures = [f"refused: {type(outcome).__name__}: {outcome}"]
        else:
            failures = [f"report assertion failed: {a['name']} {a['measured']:.3e} {a['direction']} "
                        f"{a['tolerance']:.1e}" for a in outcome["assertions"] if not a["passed"]]
            try:
                failures += check(outcome["config"], outcome, np.random.default_rng(check_seed))
            except Exception as exc:  # a check that crashes counts as a failed operation
                failures.append(f"check raised {type(exc).__name__}: {exc}")
        results.append({"kind": config["kind"], "failures": failures})

    doc = {"setup_s": setup_s, "verify_s": verify_s, "peak_rss_mb": peak_rss_mb,
           "ops": results, "env": environment()}
    if tracer:
        doc["layers"] = tracer.summary()
        doc["self_total_s"] = sum(self_s for _calls, self_s in doc["layers"].values())
        doc["expm_n3"] = tracer.expm_n3
        tracer.write(Path(args.trace_out))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
