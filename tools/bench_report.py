#!/usr/bin/env python3
"""Validate and compare BENCH_hotpath.json files (see bench/bench_hotpath.cc).

Usage:
    bench_report.py validate FILE
        Checks the schema and the plausibility of every recorded number.
        Exit 0 when the file is a well-formed hot-path bench result.

    bench_report.py compare BASELINE CURRENT [--max-regression 0.20]
                                             [--max-p99-regression 0.50]
                                             [--max-wal-overhead 0.10]
                                             [--max-disk-overhead 0.15]
        Prints a per-workload throughput/latency diff and exits 1 when any
        workload's elements/second regressed by more than the threshold
        (fraction of the baseline), or its p99 step latency grew by more
        than --max-p99-regression (tail latency is noisier than
        throughput, so its default budget is wider; like the WAL budget
        it is only enforced at full scale). Improvements never fail the
        gate. Additionally fails when the current run's recorded
        wal_overhead (inde vs inde_wal throughput gap) exceeds the WAL
        budget, or its disk_overhead (inde vs inde_disk, the
        segment-store window's I/O tax) exceeds the disk budget —
        again only at full scale, where the fsync / segment I/O cost is
        amortized over a realistic stream; at tiny/quick scale the gaps
        are noise-dominated and only reported. shard_scaling_efficiency
        (eps(s8) / 8*eps(s1), from the sharded ingestion rows) is
        reported for both files but never gated: it measures the host's
        core count as much as the engine.

        A workload present in only one of the two files is loudly
        flagged: rows missing from CURRENT fail the gate (a silently
        dropped benchmark is a coverage regression); rows new in CURRENT
        warn without failing (the baseline simply predates them) so a
        freshly added row cannot be mistaken for full-history coverage.

Only the Python standard library is used.
"""

import argparse
import json
import sys

SCHEMA = "psky-bench-hotpath-v1"
WORKLOAD_KEYS = {
    "elements_per_second": float,
    "total_seconds": float,
    "p50_step_us": float,
    "p99_step_us": float,
    "max_candidates": int,
    "max_skyline": int,
}
TOP_KEYS = {
    "schema": str,
    "scale": str,
    "n": int,
    "window": int,
    "dims": int,
    "q": float,
    "batch_size": int,
    "kernel_variant": str,
    "workloads": dict,
}


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def validate(doc, path):
    errors = []
    for key, typ in TOP_KEYS.items():
        if key not in doc:
            errors.append(f"missing key: {key}")
        elif not isinstance(doc[key], typ) and not (
            typ is float and isinstance(doc[key], int)
        ):
            errors.append(f"{key}: expected {typ.__name__}")
    if errors:
        return errors
    if doc["schema"] != SCHEMA:
        errors.append(f"schema is {doc['schema']!r}, expected {SCHEMA!r}")
    if not doc["workloads"]:
        errors.append("workloads is empty")
    # wal_overhead is optional (pre-WAL result files lack it) but must be
    # a plausible fraction when present; negative means WAL-on measured
    # faster, which is jitter, not an error.
    # disk_overhead (inde vs inde_disk) follows the same rules.
    for key in ("wal_overhead", "disk_overhead"):
        if key in doc:
            v = doc[key]
            if not isinstance(v, (int, float)):
                errors.append(f"{key} is not a number")
            elif not -1.0 < v < 1.0:
                errors.append(f"{key} {v} is not a plausible fraction")
    # shard_n / shard_window are optional: the stream size the shard rows
    # ran on (capped below the sequential rows' n/window — per-shard
    # candidate inflation makes full-window anti rows intractable; see
    # bench_hotpath.cc).
    for key in ("shard_n", "shard_window"):
        if key in doc:
            v = doc[key]
            if not isinstance(v, int) or v <= 0:
                errors.append(f"{key}: expected a positive integer")
    # shard_scaling_efficiency is optional (pre-sharding result files lack
    # it): eps(s8) / (8 * eps(s1)) per spatial workload. 1.0 is perfect
    # linear scaling; genuinely superlinear values occur on many-core
    # hosts (the s1 baseline pays the engine's queue/merge overhead on a
    # single worker), so allow up to 3x before calling it nonsense.
    if "shard_scaling_efficiency" in doc:
        sse = doc["shard_scaling_efficiency"]
        if not isinstance(sse, dict):
            errors.append("shard_scaling_efficiency is not an object")
        else:
            for name, v in sse.items():
                if not isinstance(v, (int, float)):
                    errors.append(
                        f"shard_scaling_efficiency {name}: not a number"
                    )
                elif not 0.0 < v < 3.0:
                    errors.append(
                        f"shard_scaling_efficiency {name}: {v} is not a "
                        "plausible efficiency"
                    )
    for name, w in doc["workloads"].items():
        for key, typ in WORKLOAD_KEYS.items():
            if key not in w:
                errors.append(f"workload {name}: missing {key}")
            elif not isinstance(w[key], (int, float)):
                errors.append(f"workload {name}: {key} is not a number")
            elif w[key] < 0:
                errors.append(f"workload {name}: {key} is negative")
        if "elements_per_second" in w and w["elements_per_second"] == 0:
            errors.append(f"workload {name}: zero throughput")
    return errors


def cmd_validate(args):
    doc = load(args.file)
    errors = validate(doc, args.file)
    if errors:
        for e in errors:
            print(f"{args.file}: {e}", file=sys.stderr)
        return 1
    wl = ", ".join(sorted(doc["workloads"]))
    print(
        f"{args.file}: ok (scale={doc['scale']}, "
        f"kernel={doc['kernel_variant']}, workloads: {wl})"
    )
    return 0


def cmd_compare(args):
    base = load(args.baseline)
    cur = load(args.current)
    for path, doc in ((args.baseline, base), (args.current, cur)):
        errors = validate(doc, path)
        if errors:
            for e in errors:
                print(f"{path}: {e}", file=sys.stderr)
            return 1
    if base["scale"] != cur["scale"]:
        print(
            f"warning: comparing scale={base['scale']} baseline against "
            f"scale={cur['scale']} run; throughput numbers are only "
            "meaningful at matching scales",
            file=sys.stderr,
        )

    # Row mismatches are loud: a workload silently vanishing from the
    # current run would otherwise look like a clean PASS over a shrunken
    # benchmark, and a row only the current run has must not pretend the
    # baseline ever measured it.
    dropped = sorted(set(base["workloads"]) - set(cur["workloads"]))
    added = sorted(set(cur["workloads"]) - set(base["workloads"]))
    for name in dropped:
        print(
            f"WARNING: workload '{name}' is in the baseline but MISSING "
            f"from {args.current} — benchmark coverage shrank",
            file=sys.stderr,
        )
    for name in added:
        print(
            f"WARNING: workload '{name}' is new in {args.current} and has "
            f"no baseline row — it is reported but ungated this run",
            file=sys.stderr,
        )

    failed = []
    p99_failed = []
    gate_p99 = cur["scale"] == "full"
    print(
        f"{'workload':<10} {'base elem/s':>12} {'cur elem/s':>12} "
        f"{'delta':>8}  {'base p99us':>10} {'cur p99us':>10}"
    )
    for name in sorted(base["workloads"]):
        b = base["workloads"][name]
        c = cur["workloads"].get(name)
        if c is None:
            print(f"{name:<10} missing from {args.current}")
            failed.append(name)
            continue
        b_eps = b["elements_per_second"]
        c_eps = c["elements_per_second"]
        delta = (c_eps - b_eps) / b_eps
        mark = ""
        if delta < -args.max_regression:
            failed.append(name)
            mark = "  << REGRESSION"
        if (
            gate_p99
            and b["p99_step_us"] > 0
            and (c["p99_step_us"] - b["p99_step_us"]) / b["p99_step_us"]
            > args.max_p99_regression
        ):
            p99_failed.append(name)
            mark += "  << P99 REGRESSION"
        print(
            f"{name:<10} {b_eps:>12.0f} {c_eps:>12.0f} {delta:>+7.1%}  "
            f"{b['p99_step_us']:>10.2f} {c['p99_step_us']:>10.2f}{mark}"
        )
    for path, doc in ((args.baseline, base), (args.current, cur)):
        sse = doc.get("shard_scaling_efficiency")
        if sse:
            pretty = ", ".join(
                f"{k}={v:.3f}" for k, v in sorted(sse.items())
            )
            print(f"shard scaling efficiency ({path}): {pretty}")
    wal_failed = False
    if "wal_overhead" in cur:
        overhead = cur["wal_overhead"]
        print(f"wal overhead (inde vs inde_wal): {overhead:+.1%}")
        if cur["scale"] == "full" and overhead > args.max_wal_overhead:
            wal_failed = True
            print(
                f"FAIL: WAL overhead {overhead:.1%} exceeds the "
                f"{args.max_wal_overhead:.0%} durability budget",
                file=sys.stderr,
            )
    disk_failed = False
    if "disk_overhead" in cur:
        overhead = cur["disk_overhead"]
        print(f"disk overhead (inde vs inde_disk): {overhead:+.1%}")
        if cur["scale"] == "full" and overhead > args.max_disk_overhead:
            disk_failed = True
            print(
                f"FAIL: disk-window overhead {overhead:.1%} exceeds the "
                f"{args.max_disk_overhead:.0%} out-of-core budget",
                file=sys.stderr,
            )
    if failed:
        print(
            f"FAIL: throughput regressed more than "
            f"{args.max_regression:.0%} on: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    if p99_failed:
        print(
            f"FAIL: p99 step latency grew more than "
            f"{args.max_p99_regression:.0%} on: {', '.join(p99_failed)}",
            file=sys.stderr,
        )
        return 1
    if wal_failed or disk_failed:
        return 1
    print(
        f"PASS: no workload regressed more than {args.max_regression:.0%} "
        f"(p99 budget {args.max_p99_regression:.0%})"
    )
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_val = sub.add_parser("validate", help="check one result file")
    p_val.add_argument("file")
    p_val.set_defaults(func=cmd_validate)
    p_cmp = sub.add_parser("compare", help="diff two result files")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("current")
    p_cmp.add_argument("--max-regression", type=float, default=0.20)
    p_cmp.add_argument("--max-p99-regression", type=float, default=0.50)
    p_cmp.add_argument("--max-wal-overhead", type=float, default=0.10)
    p_cmp.add_argument("--max-disk-overhead", type=float, default=0.15)
    p_cmp.set_defaults(func=cmd_compare)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
