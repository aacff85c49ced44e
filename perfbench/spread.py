#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark once per seed on each workload and prints, for every
metric, the median of its values and the distance between their first and
third quartiles as a share of the median -- the spread BENCHMARK.json's
bounds are checked against. Run it from the root of the checkout:

    python3 perfbench/spread.py --workloads offline-dnn served-vox --seeds 1-10

--json writes every raw value, the summary, and each run's CPU steal share,
wall time and, offline, host-speed factor to a file. For the offline
workloads it also prints the spread of the timings as timed on the host,
before the host-speed correction (names ending in "@host").
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip().splitlines()
    took = time.monotonic() - start
    steal = next((l.rsplit(" ", 1)[-1] for l in lines if l.startswith("cpu steal during the run:")), "?")
    factor = next((float(l.rsplit(" ", 1)[-1]) for l in lines if l.startswith("host reference:")), None)
    res = json.loads(lines[-1])
    timed = next((l for l in lines if l.startswith("as timed on this host:")), None)
    if timed:
        x, b, s = (float(v) for v in re.findall(r"[0-9.]+(?= (?:x|ms))", timed))
        for name, v, unit in (("throughput_xrt", x, "x"), ("batch_p50_ms", b, "ms"), ("stream_p50_ms", s, "ms")):
            res["metrics"][name + "@host"] = {"value": v, "unit": unit}
    return res, steal, factor, took


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    for w in args.workloads:
        values, steals, factors, took = {}, [], [], []
        for s in seeds(args.seeds):
            res, steal, factor, t = run(w, s, args.seconds, args.trace)
            steals.append(steal)
            factors.append(factor)
            took.append(round(t, 1))
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {s}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {s} done in {t:.1f} s, cpu steal {steal}", file=sys.stderr, flush=True)
        report[w] = {"cpu_steal": steals, "host_factor": factors, "run_wall_s": took}
        for name, v in sorted(values.items()):
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            report[w][name] = {"median": med, "spread": spread, "values": v}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            print(f"{w:16s} {name:36s} median {med:14.6g}  spread {spread:7.3f}  bound {bound}  {flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
