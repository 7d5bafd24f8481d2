"""Result arithmetic of the repository benchmark.

Kept apart from run.py so the benchmark's own tests exercise it without
building or running anything.
"""

import statistics


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles from statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def reference_mismatches(checks, reference):
    """Reasons the run's fixed-position results differ from `reference`.

    A reference position the run never observed counts as a mismatch."""
    observed = {c["pos"]: c for c in checks}
    out = []
    for ref in reference:
        got = observed.get(ref["pos"])
        if got is None:
            out.append(f"no result observed at position {ref['pos']}")
            continue
        for key in ("candidates", "skyline", "digest"):
            if got[key] != ref[key]:
                out.append(f"position {ref['pos']}: {key} {got[key]} "
                           f"!= reference {ref[key]}")
    return out


def assemble(report, specs, mismatches, reference_checks, per_layer):
    """The benchmark's result line from a driver report.

    `specs` are the BENCHMARK.json metrics to report ({"name", "unit"}).
    Each reference comparison is one more operation attempted, and each
    mismatch one more failed. A missing end-to-end metric fails the run;
    a per-layer metric of a layer the workload does not run reads 0.
    """
    metrics = {}
    missing = []
    for spec in specs:
        found = report["metrics"].get(spec["name"])
        if found is None and not per_layer:
            missing.append(spec["name"])
            continue
        value = 0.0 if found is None else found["value"]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    attempted = report["attempted"] + reference_checks + len(missing)
    failed = report["failed"] + len(mismatches) + len(missing)
    return {"correct": failed == 0, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def parallel_speedup(reports):
    """ingest_eps of parallel_anti over ingest_anti: the shard engine's
    speedup over the sequential operator on the same stream."""
    try:
        par = reports["parallel_anti"]["metrics"]["ingest_eps"]["value"]
        seq = reports["ingest_anti"]["metrics"]["ingest_eps"]["value"]
    except KeyError:
        return None
    return par / seq if seq else None


def read_shares(reports):
    """Each workload's share of closed-loop time spent in the consumer's
    reads (driver.read_share); on parallel_anti, barrier plus merge."""
    return {name: r["metrics"]["driver.read_share"]["value"]
            for name, r in reports.items()
            if "driver.read_share" in r["metrics"]}
