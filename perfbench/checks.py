"""Correctness checks and digests of the bundles the CLI writes."""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from workloads import Workload

# Combined bounds are lowers[ref] - x * (lowers[ref] - lowers[r]) with
# 0 <= x <= 1; near x = 1 the subtractions can round an ulp or two past
# the hull.
_ULPS = 4


def digest(bundle: str) -> str:
    """SHA-256 over every file of the bundle, by sorted name."""
    hasher = hashlib.sha256()
    for name in sorted(os.listdir(bundle)):
        hasher.update(name.encode() + b"\0")
        with open(os.path.join(bundle, name), "rb") as handle:
            hasher.update(handle.read())
        hasher.update(b"\0")
    return hasher.hexdigest()


def _rows(path: str) -> list:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _slack(*values: float) -> float:
    return _ULPS * math.ulp(max(abs(v) for v in values))


def check_analyze(workload: Workload, bundle: str) -> list:
    """Return a list of problems with an ``analyze`` bundle (empty when sound)."""
    problems = []
    rows = _rows(os.path.join(bundle, "intervals.csv"))
    expected = workload.n_methods * workload.n_queries
    if len(rows) != expected:
        problems.append(f"intervals.csv has {len(rows)} rows, expected {expected}")
    fan: dict = {}
    wimp: dict = {}
    for row in rows:
        lower, upper, point = float(row["lower"]), float(row["upper"]), float(row["point"])
        if not (math.isfinite(lower) and math.isfinite(upper) and math.isfinite(point)):
            problems.append(f"non-finite bound in {row['method']} row")
        elif lower > upper:
            problems.append(f"{row['method']} interval [{lower}, {upper}] out of order")
        key = (row["kind"], row["functional"], row["response"], row["shock"], row["horizon"])
        if row["method"] == "fixed_rank":
            fan.setdefault(key, {})[int(row["rank"])] = (lower, upper)
        elif row["method"] == "wimp":
            wimp[key] = (lower, upper)

    weights = _rows(os.path.join(bundle, "weights.csv"))
    total = math.fsum(float(row["weight"]) for row in weights)
    if abs(total - 1.0) > 1e-12:
        problems.append(f"weights sum to {total!r}")
    refs = [int(row["rank"]) for row in weights if row["is_reference"] == "1"]
    if len(refs) != 1:
        return problems + [f"{len(refs)} reference ranks in weights.csv"]
    ref = refs[0]
    if len(wimp) != workload.n_queries or len(fan) != workload.n_queries:
        return problems + ["combined interval or fan does not cover every query"]

    # Prudence: the combined interval contains the reference-rank interval
    # and stays inside the hull of the fan.
    for key, (lower, upper) in wimp.items():
        per_rank = fan[key]
        ref_lower, ref_upper = per_rank[ref]
        hull_lower = min(v[0] for v in per_rank.values())
        hull_upper = max(v[1] for v in per_rank.values())
        if lower > ref_lower or upper < ref_upper:
            problems.append(f"combined interval misses the reference interval at {key}")
        if lower < hull_lower - _slack(ref_lower, hull_lower) or upper > hull_upper + _slack(
            ref_upper, hull_upper
        ):
            problems.append(f"combined interval leaves the hull of the fan at {key}")
    return problems


def check_simulate(workload: Workload, bundle: str) -> list:
    """Return a list of problems with a ``simulate`` bundle (empty when sound)."""
    problems = []
    rows = _rows(os.path.join(bundle, "coverage.csv"))
    expected = workload.n_methods * workload.n_queries
    if len(rows) != expected:
        problems.append(f"coverage.csv has {len(rows)} rows, expected {expected}")
    for row in rows:
        coverage = float(row["coverage"])
        if not 0.0 <= coverage <= 1.0:  # also rejects NaN
            problems.append(f"{row['method']} coverage {coverage!r} outside [0, 1]")
        if int(row["n_success"]) + int(row["n_fail"]) != workload.n_mc:
            problems.append(f"{row['method']} successes and failures do not sum to n_mc")
    return problems


def check(workload: Workload, bundle: str) -> list:
    if workload.command == "analyze":
        return check_analyze(workload, bundle)
    return check_simulate(workload, bundle)


def method_failures(bundle: str) -> int:
    """Failed (replication, method) pairs recorded in a ``simulate`` bundle."""
    with open(os.path.join(bundle, "metadata.json"), "r", encoding="utf-8") as handle:
        metadata = json.load(handle)
    if metadata["command"] != "simulate":
        return 0
    return sum(metadata["failure_census"].values())
