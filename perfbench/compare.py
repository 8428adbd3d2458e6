"""Run sets of benchmark runs and compare them against BENCHMARK.json bounds.

    python3 perfbench/compare.py run A --seeds 1-10            # every workload
    python3 perfbench/compare.py run B --seeds 1-10 --workloads beam
    python3 perfbench/compare.py check A B

`run` invokes the benchmark command once per (workload, seed) with the
configured run length and --trace 0, and appends each result to
perfbench/out/set-<label>.jsonl. `check` reports, per workload and
end-to-end metric, the median and the quartile spread (q3 - q1) / median
of each set. It fails when a spread exceeds its bound (setup_s excepted),
when the second set's median is worse than the first's by more than the
bound, or when the share of failed operations differs between the sets.
It flags spreads above a third of the bound, the steadiness target.
Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, bench_config

OUT = HERE / "out"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(label: str, seeds: list[int], workloads: list[str]) -> int:
    bench = bench_config()
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"set-{label}.jsonl", "a") as fh:
        for workload in workloads:
            for seed in seeds:
                cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                fh.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                fh.flush()
                shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{label} {workload} seed {seed}: {shown}, failed {result['failed']}/{result['attempted']}")
    return 0


def load(label: str) -> dict:
    """{workload: [result, ...]}"""
    out: dict[str, list] = {}
    for line in (OUT / f"set-{label}.jsonl").read_text().splitlines():
        rec = json.loads(line)
        out.setdefault(rec["workload"], []).append(rec["result"])
    return out


def summary(results: list, metric: str) -> tuple[float, float]:
    values = [r["metrics"][metric]["value"] for r in results]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def failed_share(results: list) -> float:
    return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)


def check(labels: list[str]) -> int:
    bench = bench_config()
    sets = [load(label) for label in labels]
    ok = True
    for workload in sorted(set.intersection(*(set(s) for s in sets))):
        shares = [failed_share(s[workload]) for s in sets]
        print(f"{workload}: runs {[len(s[workload]) for s in sets]}, failed share {shares}")
        if len(set(shares)) > 1:
            ok = False
            print("  FAIL failed share differs between sets")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summary(s[workload], name) for s in sets]
            line = f"  {name:<12} bound {bound:<5}"
            for label, (med, spread) in zip(labels, stats):
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, ok = " FAIL", False
                elif name != "setup_s" and spread > bound / 3:
                    flag = " (above bound/3)"
                line += f" | {label}: median {med:.4g} spread {spread:.3f}{flag}"
            if len(stats) == 2:
                change = stats[1][0] / stats[0][0] - 1.0
                worse = change if m["better"] == "lower" else -change
                line += f" | change {change:+.3f}"
                if worse > bound:
                    line, ok = line + " FAIL", False
            print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="run one set")
    p_run.add_argument("label")
    p_run.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p_run.add_argument("--workloads", default=None,
                       help="comma separated; default the workloads in BENCHMARK.json")
    p_check = sub.add_parser("check", help="summarize one set or compare two")
    p_check.add_argument("labels", nargs="+")
    args = parser.parse_args()
    if args.cmd == "run":
        names = [w["name"] for w in bench_config()["workloads"]]
        workloads = args.workloads.split(",") if args.workloads else names
        return run_set(args.label, _seeds(args.seeds), workloads)
    if len(args.labels) > 2:
        parser.error("check takes one or two labels")
    return check(args.labels)


if __name__ == "__main__":
    sys.exit(main())
