#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py WORKLOAD [RUNS] [FIRST_SEED] [--trace]

Runs `perfbench/run.py --workload WORKLOAD --seed S --seconds N` for RUNS
consecutive seeds (default 10, from FIRST_SEED, default 1), with N the
run_seconds of BENCHMARK.json, and prints per metric the median and the
interquartile range as a share of the median, next to the metric's bound.
Exits non-zero if a run fails or reports failed operations.
"""
import json
import statistics
import subprocess
import sys


def main():
    args = [a for a in sys.argv[1:] if a != "--trace"]
    trace = "1" if "--trace" in sys.argv else "0"
    workload = args[0]
    runs = int(args[1]) if len(args) > 1 else 10
    first = int(args[2]) if len(args) > 2 else 1
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    ok = True
    for seed in range(first, first + runs):
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", workload, "--seed",
             str(seed), "--seconds", str(bench["run_seconds"]), "--trace", trace],
            capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if result["failed"] or not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed\n{out.stderr[-2000:]}")
            ok = False
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not spread <= bound / 3:
            flag = "  above a third of the bound"
        print(f"{name:28s} median {med:.6g}  spread {spread:.4f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
