#!/usr/bin/env python3
"""Repository benchmark: builds the driver, runs workloads, checks outputs.

    python3 perfbench/run.py --workload ingest_anti --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                    # every workload, default seed
    python3 perfbench/run.py --self-test        # the benchmark's own tests
    python3 perfbench/run.py --write-reference  # regenerate reference.json

Run it from the root of a checkout. Each workload runs in its own driver
process. The last line of standard output is one JSON object with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Everything else, including every metric the driver measured with its
unit and sample count, goes to standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

# A run must end within 180 s; a wedged driver is killed before that.
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def nproc():
    return max(1, len(os.sched_getaffinity(0)))


def check_call(cmd):
    # Build and test chatter goes to stderr: stdout carries the result.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("command failed: " + " ".join(cmd))


def build():
    """Configures (once) and builds the driver and tests; returns the
    build directory."""
    if not (ROOT / "src" / "core").is_dir():
        fail(f"library sources not found under {ROOT / 'src'}; "
             "run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = (base if base.is_absolute() else ROOT / base) / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        check_call(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"])
    check_call(["cmake", "--build", str(out), "-j", str(nproc())])
    return out


def run_driver(cmd):
    """Runs one driver process to completion and returns its report."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with status {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def driver_command(build_dir, cfg, workload, seed, seconds, trace, work,
                   trace_out):
    cmd = [str(build_dir / "perfbench_driver"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work),
           "--rate", str(cfg["workloads"][workload]["rate_eps"]),
           "--shards", str(max(1, nproc() - 1))]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    return cmd


def print_report(workload, seed, report, result, mismatches):
    err = sys.stderr
    print(f"== {workload} seed={seed} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}",
          file=err)
    for why in report["reasons"] + mismatches:
        print(f"   failure: {why}", file=err)
    for name, m in report["metrics"].items():
        print(f"   {name:42s} {m['value']:>16.6g} {m['unit']:7s} "
              f"n={m['samples']}", file=err)


def run_workload(build_dir, bench, cfg, reference, workload, seed, seconds,
                 trace):
    work = OUT_DIR / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_out = None
    if trace:
        trace_out = OUT_DIR / "traces" / f"{workload}-seed{seed}.json"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
    try:
        report = run_driver(driver_command(build_dir, cfg, workload, seed,
                                           seconds, trace, work, trace_out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    expected = []
    if seed == reference["seed"]:
        expected = reference["streams"][cfg["workloads"][workload]["stream"]]
    mismatches = benchlib.reference_mismatches(report["checks"], expected)
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    result = benchlib.assemble(report, specs, mismatches, len(expected),
                               per_layer=bool(trace))
    print_report(workload, seed, report, result, mismatches)
    return result, report


def write_reference(build_dir, cfg):
    """Records the sequential SSKY results at the driver's check positions
    for the default seed, with the window and positions they hold for."""
    seed = cfg["default_seed"]
    reports = {}
    for stream in sorted({w["stream"] for w in cfg["workloads"].values()}):
        reports[stream] = run_driver([
            str(build_dir / "perfbench_driver"), "--reference",
            "--stream", stream, "--seed", str(seed)])
    first = next(iter(reports.values()))
    reference = {"seed": seed}
    for key in ("window", "check_every", "check_count"):
        reference[key] = first[key]
    reference["streams"] = {s: r["checks"] for s, r in reports.items()}
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json")
    cfg = load_json(HERE / "config.json")
    build_dir = build()
    if args.self_test:
        check_call([str(build_dir / "perfbench_tests")])
        check_call([sys.executable, "-m", "unittest", "discover",
                    "-s", str(HERE / "tests"), "-p", "test_*.py"])
        return
    if args.write_reference:
        write_reference(build_dir, cfg)
        return
    reference = load_json(HERE / "reference.json")
    seed = cfg["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in bench["workloads"]]

    if args.workload != "all":
        if args.workload not in names:
            fail(f"unknown workload {args.workload!r}; have {', '.join(names)}")
        result, _ = run_workload(build_dir, bench, cfg, reference,
                                 args.workload, seed, seconds, args.trace)
        print(json.dumps(result))
        return

    results, reports = {}, {}
    for name in names:
        results[name], reports[name] = run_workload(
            build_dir, bench, cfg, reference, name, seed, seconds, args.trace)
    speedup = benchlib.parallel_speedup(reports)
    read_shares = benchlib.read_shares(reports)
    if speedup is not None:
        print(f"ingest_eps(parallel_anti) / ingest_eps(ingest_anti) = "
              f"{speedup:.4f}; closed-loop share in the consumer's reads: "
              f"parallel_anti {read_shares['parallel_anti']:.4f} "
              f"(barrier + merge), ingest_anti "
              f"{read_shares['ingest_anti']:.4f} (Skyline())",
              file=sys.stderr)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "parallel_speedup": speedup,
        "read_shares": read_shares,
        "workloads": results,
    }))


if __name__ == "__main__":
    main()
