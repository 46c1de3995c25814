#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each with another seed,
and reports each metric's spread: the distance between the first and third
quartile of its values as a share of their median, next to the metric's
bound from BENCHMARK.json. Can also compare two saved run sets: medians
must agree within the bounds and the exact counts must be equal.

    python3 perfbench/spread.py run --runs 10 --first-seed 1000 --out set1.json [--trace] [--workloads a,b]
    python3 perfbench/spread.py compare set1.json set2.json

Run it from the root of the repository.
"""
import argparse
import json
import statistics
import subprocess
import sys

EXACT = ["spatial.cells", "core.kernel_blocks", "core.bcp_queries", "stream.cells_touched",
         "stream.points_rescanned", "stream.connectivity_queries", "stream.compactions",
         "durable.wal_bytes_per_batch", "serve.response_bytes"]


def bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_set(args):
    spec = bench()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        results[name] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "1" if args.trace else "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: outputs incorrect\n{out.stderr[-2000:]}")
            results[name].append({"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed} done", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f)
    report(results, spec, args.trace)


def report(results, spec, trace):
    bounds = {m["name"]: m.get("bound") for m in spec["per_layer" if trace else "end_to_end"]}
    worst = 0.0
    for name, runs in results.items():
        print(f"== {name} ({len(runs)} runs)")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric] for r in runs if metric in r["metrics"]]
            if len(values) != len(runs):
                print(f"  {metric:34s} MISSING in {len(runs) - len(values)} runs")
                worst = float("inf")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if bound is not None:
                flag = "FAIL" if spread > bound else ("wide" if spread > bound / 3 else "ok")
                if metric != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {metric:34s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}  {flag}")
    print(f"worst spread / bound (setup_s aside): {worst:.3f}")


def compare(args):
    spec = bench()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    ok = True
    for name in a:
        for metric, bound in bounds.items():
            if metric not in a[name][0]["metrics"]:
                continue
            ma = statistics.median(r["metrics"][metric] for r in a[name])
            mb = statistics.median(r["metrics"][metric] for r in b[name])
            worse = (mb - ma) / ma if better[metric] == "lower" else (ma - mb) / ma
            status = "ok" if worse <= bound else "DRIFT"
            ok &= status == "ok"
            print(f"{name:11s} {metric:22s} {ma:12.6g} -> {mb:12.6g}  worse by {worse:+.4f} (bound {bound}) {status}")
        for ra, rb in zip(a[name], b[name]):
            for metric in EXACT:
                if metric in ra["metrics"] and ra["metrics"][metric] != rb["metrics"].get(metric):
                    ok = False
                    print(f"{name} seed {ra['seed']}: {metric} {ra['metrics'][metric]} != {rb['metrics'].get(metric)}")
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1000)
    r.add_argument("--workloads")
    r.add_argument("--trace", action="store_true")
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = parser.parse_args()
    run_set(args) if args.mode == "run" else compare(args)


if __name__ == "__main__":
    main()
