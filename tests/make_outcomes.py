"""The outcome fixture: what twelve fixed CLI runs produce.

Runs seed 1 operation 0 and seed 7 operations 1-3 of each benchmark
workload through ``wimpvar.cli.main``, with the inputs and arguments of
``perfbench/workloads.py`` (imported, never changed), and summarizes each
bundle in two parts:

- ``discrete_sha256``, a sha256 of the discrete outcomes: every column of
  every table except the float columns and the config hash (methods,
  queries, ranks, ``is_reference``, ``n_covered``/``n_success``/
  ``n_fail``), which float cells are not finite, and the metadata keys in
  OUTCOME_KEYS (reference rank, true rank, failure census);
- ``floats``, per table, method and float column: the count, sum, sum of
  absolute values, minimum and maximum of the finite cells.

``tests/test_outcomes.py`` reruns the twelve runs: the inputs and the
discrete digests must match exactly, and each float statistic to within
FLOAT_RTOL of the largest magnitude in its column (times the count for
the two sums).  A change that regenerates the fixture says in CHANGES.md
what moved, and why.  Regenerating keeps each recorded float group that
the new run reproduces within that tolerance, so the fixture's diff shows
only the groups that moved.

Run from the repository root to rewrite ``tests/outcomes.json``:

    PYTHONPATH=src python tests/make_outcomes.py

It also records each bundle's closest calls (``margins``, not checked by
the test), so that a digest that moves on another BLAS can be told from a
real change: how far the reference rank's weight is above the next one,
how far a trace statistic is from its 5% critical value, and how far a
``simulate`` bound is from the true response, each relative.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import json
import math
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _load_workloads():
    """perfbench/workloads.py, loaded from its file so that sys.path, and
    with it the other perfbench modules, stay as they were."""
    path = os.path.join(os.path.dirname(HERE), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

FIXTURE = os.path.join(HERE, "outcomes.json")
CONFIGS = tuple(
    (name, seed, index)
    for name in workloads.WORKLOADS
    for seed, index in ((1, 0), (7, 1), (7, 2), (7, 3))
)
FLOAT_COLUMNS = {
    "lower", "upper", "point",  # intervals.csv
    "raw_weight", "weight", "trace_stat",  # weights.csv
    "coverage", "mean_width", "median_cp", "min_cp",  # coverage.csv, summary.csv
}
IGNORED_COLUMNS = {"config_hash"}
OUTCOME_KEYS = ("reference_rank", "true_rank", "failure_census")
FLOAT_RTOL = 1e-8


def _read(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _group(row: dict) -> str:
    """A row's method, with its rank when the table has one: the fan's
    ranks are one method each."""
    method = row.get("method", "all")
    return f"{method}:{row['rank']}" if "method" in row and row.get("rank") else method


def summarize(bundle: str) -> dict:
    """The discrete digest and the float statistics of one bundle."""
    with open(os.path.join(bundle, "metadata.json"), encoding="utf-8") as handle:
        metadata = json.load(handle)
    discrete = {"metadata": {key: metadata[key] for key in OUTCOME_KEYS if key in metadata}}
    floats = {}
    for name in sorted(os.listdir(bundle)):
        if not name.endswith(".csv"):
            continue
        rows = _read(os.path.join(bundle, name))
        columns = list(rows[0]) if rows else []
        keys = [c for c in columns if c not in FLOAT_COLUMNS | IGNORED_COLUMNS]
        values = [c for c in columns if c in FLOAT_COLUMNS]
        table = discrete[name] = [keys + values]
        cells = {}
        for row in rows:
            numbers = [float(row[c]) for c in values]
            # a float cell enters the digest only by not being finite
            table.append([row[c] for c in keys] + [repr(x) if not math.isfinite(x) else "" for x in numbers])
            group = cells.setdefault(_group(row), {c: [] for c in values})
            for column, x in zip(values, numbers):
                if math.isfinite(x):
                    group[column].append(x)
        floats[name] = {
            group: {column: _stats(xs) for column, xs in by_column.items()}
            for group, by_column in cells.items()
        }
    return {
        "discrete_sha256": hashlib.sha256(json.dumps(discrete, sort_keys=True).encode()).hexdigest(),
        "floats": floats,
    }


def _stats(xs: list) -> dict:
    a = np.array(xs, dtype=float)
    if not a.size:
        return {"n": 0}
    return {
        "n": int(a.size),
        "sum": float(a.sum()),
        "abs_sum": float(np.abs(a).sum()),
        "min": float(a.min()),
        "max": float(a.max()),
    }


def float_mismatches(now: dict, then: dict, rtol: float = FLOAT_RTOL) -> list:
    """The (table, group, column, statistic) entries of ``now`` farther
    from ``then`` than ``rtol`` times the column's largest magnitude (times
    the count for a sum), or missing; [] when all match."""
    bad = []
    for table, groups in then.items():
        for group, columns in groups.items():
            for column, old in columns.items():
                new = now.get(table, {}).get(group, {}).get(column)
                if new is None or new["n"] != old["n"]:
                    bad.append((table, group, column, "n"))
                    continue
                if not old["n"]:
                    continue
                scale = max(abs(old["min"]), abs(old["max"]))
                for stat in ("sum", "abs_sum", "min", "max"):
                    bound = rtol * scale * (old["n"] if stat.endswith("sum") else 1)
                    if not abs(new[stat] - old[stat]) <= bound:
                        bad.append((table, group, column, stat))
    return bad


def merge_floats(now: dict, then: dict) -> dict:
    """``now``'s float statistics, except that each (table, group) which
    reproduces ``then``'s within FLOAT_RTOL, by :func:`float_mismatches`,
    keeps ``then``'s values.  So a regenerated fixture moves only the
    groups that a change moved, not those a BLAS rounds otherwise."""
    merged = {}
    for table, groups in now.items():
        merged[table] = {}
        for group, columns in groups.items():
            old = then.get(table, {}).get(group)
            kept = old is not None and old.keys() == columns.keys() and not float_mismatches(
                {table: {group: columns}}, {table: {group: old}}
            )
            merged[table][group] = old if kept else columns
    return merged


def run(name: str, seed: int, index: int, work: str) -> tuple:
    """One configuration through ``cli.main`` in ``work``; returns (its
    input digest, the bundle path).  The input digest covers the CLI
    arguments, with paths replaced, and the dataset written for them."""
    from wimpvar.cli import main

    workload = workloads.WORKLOADS[name]
    data = os.path.join(work, "input.csv")
    bundle = os.path.join(work, "bundle")
    op_seed = workloads.write_input(workload, seed, index, data)
    argv = workloads.argv(workload, op_seed, data, bundle)
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"{name} seed {seed} op {index} exited {code}")
    digest = hashlib.sha256(json.dumps([a.replace(work, "<work>") for a in argv]).encode())
    if os.path.exists(data):
        with open(data, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest(), bundle


def outcome(name: str, seed: int, index: int, margins: bool = False) -> dict:
    """One configuration's entry, as in ``tests/outcomes.json``."""
    with tempfile.TemporaryDirectory() as work:
        with _bound_margins() if margins else contextlib.nullcontext() as gaps:
            input_sha256, bundle = run(name, seed, index, work)
        entry = {"workload": name, "seed": seed, "index": index, "input_sha256": input_sha256}
        entry.update(summarize(bundle))
        if margins:
            entry["margins"] = _margins(bundle, gaps)
    return entry


@contextlib.contextmanager
def _bound_margins():
    """While entered, collects the relative gaps |bound - truth| /
    max(|bound|, |truth|) of the ``simulate`` bounds against the true
    responses; yields the list they are added to."""
    from wimpvar import montecarlo

    gaps, truth = [], {}
    saved = montecarlo.true_irf, montecarlo._bounds_from

    def true_irf(spec, h_max):
        irf = saved[0](spec, h_max)
        truth["flat"] = np.moveaxis(irf.values[1:], 0, -1).ravel()
        return irf

    def bounds_from(method, result, n_queries):
        lower, upper = saved[1](method, result, n_queries)
        for bound in (lower, upper):
            scale = np.maximum(np.abs(bound), np.abs(truth["flat"]))
            gaps.extend(np.abs(bound - truth["flat"])[scale > 0] / scale[scale > 0])
        return lower, upper

    montecarlo.true_irf, montecarlo._bounds_from = true_irf, bounds_from
    try:
        yield gaps
    finally:
        montecarlo.true_irf, montecarlo._bounds_from = saved


def _margins(bundle: str, gaps: list) -> dict:
    """A bundle's closest calls; a bound equal to the truth is exact
    arithmetic (a rank-0 fit of a random walk), so it is counted apart."""
    from wimpvar._batch import trace_critical_value

    if gaps:
        gaps = np.array(gaps)
        return {
            "bound_to_truth": float(gaps[gaps > 0].min()),
            "bound_equals_truth": int((gaps == 0).sum()),
        }
    rows = _read(os.path.join(bundle, "weights.csv"))
    weights = sorted(float(row["weight"]) for row in rows)
    stats = [float(row["trace_stat"]) for row in rows[:-1]]
    crit = [trace_critical_value(len(stats) - r, 0.05) for r in range(len(stats))]
    return {
        "reference_weight_lead": (weights[-1] - weights[-2]) / weights[-1],
        "trace_to_critical_5pct": min(abs(s - c) / c for s, c in zip(stats, crit)),
    }


def main() -> None:
    recorded = {}
    if os.path.exists(FIXTURE):
        with open(FIXTURE, encoding="utf-8") as handle:
            bundles = json.load(handle)["bundles"]
        recorded = {(b["workload"], b["seed"], b["index"]): b for b in bundles}
    entries = [outcome(*config, margins=True) for config in CONFIGS]
    for entry in entries:
        old = recorded.get((entry["workload"], entry["seed"], entry["index"]))
        if old is None:
            continue
        entry["floats"] = merge_floats(entry["floats"], old["floats"])
        if all(entry[key] == old[key] for key in ("input_sha256", "discrete_sha256", "floats")):
            entry["margins"] = old["margins"]  # nothing moved: keep the closest calls too
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump({"float_rtol": FLOAT_RTOL, "bundles": entries}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for entry in entries:
        print(entry["workload"], entry["seed"], entry["index"], entry["discrete_sha256"][:16], entry["margins"])


if __name__ == "__main__":
    main()
