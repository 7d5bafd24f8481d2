#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics across seeds.

    python3 perfbench/spread.py --workload durable_corr --seeds 1-10

Runs perfbench/run.py once per seed and prints, for each end-to-end metric,
the median and the quartile spread (IQR / median, quartiles from
statistics.quantiles(values, n=4)) beside the metric's bound in
BENCHMARK.json. A spread below a third of the bound is steady. The
open-loop latencies and the read share, which every run measures but no
bound gates, follow, taken from run.py's report on standard error.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

UNGATED = ("visible_p50_us", "visible_p99_us", "query_p50_us",
           "query_p99_us", "driver.read_share")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def reported_metrics(stderr):
    """Metric values from run.py's report lines on standard error:
    '   <name> <value> <unit> n=<samples>'."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[3].startswith("n="):
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                continue
    return out


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        specs = json.load(f)["end_to_end"]
    values = {s["name"]: [] for s in specs}
    ungated = {name: [] for name in UNGATED}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--trace", "0"]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: run.py exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect run ({result['failed']} failed)",
                  file=sys.stderr)
        for name, vals in values.items():
            vals.append(result["metrics"][name]["value"])
        reported = reported_metrics(proc.stderr)
        for name, vals in ungated.items():
            if name in reported:
                vals.append(reported[name])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v[-1]:.6g}" for n, v in {**values, **ungated}.items()
            if v), file=sys.stderr)

    summary = {}
    print(f"{'metric':18s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for spec in specs:
        vals = values[spec["name"]]
        spread = benchlib.quartile_spread(vals)
        verdict = ("steady" if spread < spec["bound"] / 3 else
                   "within bound" if spread <= spec["bound"] else "TOO WIDE")
        print(f"{spec['name']:18s} {statistics.median(vals):14.6g} "
              f"{spread:8.4f} {spec['bound']:6.2f}  {verdict}")
        summary[spec["name"]] = {"median": statistics.median(vals),
                                 "spread": spread, "values": vals}
    for name, vals in ungated.items():
        if len(vals) < 2 or statistics.median(vals) == 0:
            continue
        spread = benchlib.quartile_spread(vals)
        print(f"{name:18s} {statistics.median(vals):14.6g} {spread:8.4f} "
              f"{'-':>6s}  ungated")
        summary[name] = {"median": statistics.median(vals), "spread": spread,
                         "values": vals}
    print(json.dumps({"workload": args.workload, "metrics": summary}))


if __name__ == "__main__":
    main()
