"""regsys benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload long-grid --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Each round is a fresh Python process
(perfbench/round.py) with BLAS/OpenMP threads pinned to one and
REGSYS_THREADS unset; rounds repeat until --seconds have passed, so every
run attempts whole rounds of the same operations. The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics (with --trace 0 the end-to-end medians over rounds, with --trace 1
the per-layer figures of the traced rounds, which alternate with untraced
ones so the tracing overhead is measured in the same run).

Every run is also appended, with its environment and per-round figures, to
perfbench/out/runs.jsonl; the spans of the last traced round go to
perfbench/out/trace-<workload>.json. Exit status 0 means a result was
printed; 2 means the checkout has no src/regsys, 1 that a round broke.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("margins", "long-grid", "boundary", "beam")
# a run may not outlast this, whatever --seconds says
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("REGSYS_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def run_round(args, env, trace_out: Path | None, deadline: float, warmup: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", args.workload, "--seed", str(args.seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if warmup:
        cmd.append("--warmup")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.perf_counter(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return {} if warmup else json.loads(proc.stdout.strip().splitlines()[-1])


def source_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src" / "regsys").glob("*.py")))


def bench_config() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def per_layer_units() -> dict:
    """{name: unit} of the per-layer metrics, in BENCHMARK.json order."""
    return {m["name"]: m["unit"] for m in bench_config()["per_layer"]}


def layer_metrics(untraced: list, traced: list) -> tuple[dict, bool]:
    """Per-layer metrics, medians over the traced rounds, and whether every
    traced round's self times add up to its own verify_s (within 1 %).

    `<layer>.<function>.calls|self_s` and `kernel.<name>.calls|self_s` come
    from the span summary (0 when the workload never enters the span);
    trace.overhead_pct compares traced with untraced rounds of this run."""
    def med(values):
        return statistics.median(list(values))

    units = per_layer_units()
    values = {}
    for name in units:
        if name == "kernel.expm.n3":
            values[name] = med(r["expm_n3"] for r in traced)
        elif name == "trace.verify_s":
            values[name] = med(r["verify_s"] for r in traced)
        elif name == "trace.self_total_s":
            values[name] = med(r["self_total_s"] for r in traced)
        elif name == "trace.overhead_pct":
            values[name] = 100.0 * (med(r["verify_s"] for r in traced)
                                    / med(r["verify_s"] for r in untraced) - 1.0)
        else:
            span, field = name.rsplit(".", 1)
            column = 0 if field == "calls" else 1
            values[name] = med(r["layers"].get(span, [0, 0.0])[column] for r in traced)
    accounted = all(abs(r["self_total_s"] - r["verify_s"]) <= 0.01 * r["verify_s"] for r in traced)
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, accounted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "regsys" / "__init__.py").is_file():
        print(f"error: {root} has no src/regsys; run from the root of a regsys checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = bench_config()["run_seconds"]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = child_env()
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    trace_out = out_dir / f"trace-{args.workload}.json"

    try:
        run_round(args, env, None, deadline, warmup=True)  # compile bytecode once, untimed
        rounds = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t = time.perf_counter()
            result = run_round(args, env, trace_out if traced else None, deadline)
            rounds.append(dict(result, traced=traced, round_s=time.perf_counter() - t))
            whole = not args.trace or len(rounds) % 2 == 0
            if whole and time.perf_counter() - start >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if op["failures"]]
    for op in failed:
        print(f"FAILED {op['kind']}: {'; '.join(op['failures'])}", file=sys.stderr)
    untraced = [r for r in rounds if not r["traced"]]
    correct = True
    if args.trace:
        metrics, correct = layer_metrics(untraced, [r for r in rounds if r["traced"]])
        if not correct:
            print("error: span self times do not add up to the traced verify_s", file=sys.stderr)
    else:
        metrics = {
            "verify_s": {"value": statistics.median(r["verify_s"] for r in untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in untraced), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in untraced), "unit": "MB"},
        }
    result = {"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}

    env_record = dict(rounds[0]["env"], src_regsys_lines=source_lines(root))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env_record, "wall_s": time.perf_counter() - started,
              "rounds": [{k: r[k] for k in ("traced", "round_s", "setup_s", "verify_s", "peak_rss_mb")} for r in rounds],
              "result": result}
    with open(out_dir / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"env": env_record, "rounds": len(rounds)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
