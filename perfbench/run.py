"""Benchmark of the ``wimpvar`` command line, run in process.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload analyze_k4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One operation is one ``wimpvar.cli.main`` call: an ``analyze`` of a
generated dataset or one 16-replication ``simulate`` chunk.  The run does
an untimed warm-up operation on fixed inputs, then operations with fresh
inputs until ``--seconds`` have passed, checks every bundle and prints, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` every other operation is traced and the metrics are the
per-layer ones.  End-to-end times are scaled by a speed probe timed before
every operation (see PROBE_REFERENCE_S).  The line before the result holds
the details: machine, probe times, raw wall times, every operation time and
every bundle digest.
"""
from __future__ import annotations

import os

# One BLAS thread in every process of the run, children included; set
# before numpy is first imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

# numpy, wimpvar and the modules next to this file that use them are
# imported inside functions: the set-up probe runs this file in a fresh
# interpreter and times their first import itself.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"  # relative to ROOT: bundle paths land in metadata.json
WORKLOAD_NAMES = ("analyze_k4", "analyze_long", "simulate_dgp1")

MIN_OPS = 4  # trace mode needs two traced and two untraced operations
# On a shared host the machine's speed drifts by up to a third, within a
# run and between runs, with CPU time equal to wall time; ten-run spreads
# of the median wall time per operation reached 0.32, and longer runs did
# not narrow them.  A fixed probe (_probe) slows down with the machine, so
# each timed operation and set-up sample is scaled by PROBE_REFERENCE_S /
# (the time of the probe just before it): it reads as seconds on a machine
# where the probe takes PROBE_REFERENCE_S.  The raw wall times are in the
# details line.
PROBE_REFERENCE_S = 0.022
COUNT_OPS = 2  # work counts come from the first traced operations only
SETUP_REPS = 5
RATIOS = {
    "bootstrap.level1.useful_ratio": ("bootstrap.level1.distinct", "bootstrap.level1.builds"),
    "batch.sweep.ok_ratio": ("batch.sweep.ok", "batch.sweep.samples"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time, machine record and speed probe


def _setup_probe(workload_name: str) -> None:
    """Child process: time a cold import of wimpvar and one operation's inputs."""
    start = time.perf_counter()
    import wimpvar  # noqa: F401

    imported = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    os.makedirs(os.path.join(WORK, workload.name), exist_ok=True)
    workloads.write_input(
        workload, workloads.REFERENCE_SEED, workloads.REFERENCE_INDEX,
        os.path.join(WORK, workload.name, "setup-input.csv"),
    )
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "inputs_s": done - imported}))


def _setup_samples(workload_name: str, probes: list) -> list:
    samples = []
    for _ in range(SETUP_REPS):
        probes.append(_probe())
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
             "--seed", "0", "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle
                    if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}; {blas.get('openblas configuration', '')}",
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_THREADS},
    }


@functools.cache
def _probe_data():
    import numpy as np

    rng = np.random.default_rng(12345)
    return rng.standard_normal((199, 100, 6)), rng.standard_normal((199, 100, 3))


def _probe() -> float:
    """Seconds of one fixed speed probe: a pure-Python loop and batched
    least squares with a sort in numpy, the kinds of work the operations do."""
    import numpy as np

    x, y = _probe_data()
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    xt = x.transpose(0, 2, 1)
    beta = np.linalg.solve(xt @ x, xt @ y)
    np.sort((y - x @ beta).reshape(len(x), -1), axis=1)
    return time.perf_counter() - start


def _scaled_median(seconds: list, probes: list) -> float:
    """Median of the times, each scaled by the probe taken just before it."""
    return statistics.median(t * PROBE_REFERENCE_S / p for t, p in zip(seconds, probes, strict=True))


def _source_digest() -> str:
    hasher = hashlib.sha256()
    package = os.path.join(SRC, "wimpvar")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                hasher.update(name.encode() + b"\0" + handle.read())
    return hasher.hexdigest()[:16]


# ---------------------------------------------------------------------------
# operations


class _Ledger:
    """Bundle digests of earlier runs in this checkout, per program version.

    The same operation of the same program must give the same bytes on
    every run; a different digest fails the operation.
    """

    def __init__(self):
        self.path = os.path.join(WORK, "digests.json")
        self.version = _source_digest()
        self.entries = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as handle:
                self.entries = json.load(handle)
        self.seen = self.entries.setdefault(self.version, {})

    def check(self, key: str, digest: str) -> list:
        known = self.seen.setdefault(key, digest)
        return [] if known == digest else [f"bundle digest {digest[:16]} differs from {known[:16]} of an earlier run"]

    def save(self):
        tmp = f"{self.path}.tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.entries, handle, sort_keys=True)
        os.replace(tmp, self.path)


def _run_op(workload, seed, index, tracer=None):
    """One CLI call on fresh inputs; returns (seconds, problems, digest)."""
    import checks
    import workloads
    from wimpvar.cli import main

    base = os.path.join(WORK, workload.name)
    bundle = os.path.join(base, "bundle")
    input_path = os.path.join(base, "input.csv")
    shutil.rmtree(bundle, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    op_seed = workloads.write_input(workload, seed, index, input_path)
    argv = workloads.argv(workload, op_seed, input_path, bundle)
    if tracer:
        tracer.begin_op()
        tracer.install()
    start = time.perf_counter()
    try:
        code = main(argv)
    except Exception:  # a crash fails this operation; the run goes on
        code = None
        traceback.print_exc()
    seconds = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    if code != 0:
        return seconds, [f"main returned {code}"], None
    return seconds, checks.check(workload, bundle), checks.digest(bundle)


def _per_layer(names, traced: list, untraced: list) -> dict:
    """Per-operation layer metrics: times averaged over every traced
    operation, work counts over the first COUNT_OPS, which every run has."""
    counted = traced[:COUNT_OPS]
    values = {}
    for name, unit in names.items():
        if name == "trace.overhead_share":
            values[name] = (
                statistics.median(op["trace.op_s"] for op in traced)
                / statistics.median(untraced) - 1.0
            )
        elif name in RATIOS:
            num, den = RATIOS[name]
            total = sum(op.get(den, 0) for op in counted)
            values[name] = sum(op.get(num, 0) for op in counted) / total if total else 0.0
        elif unit == "s":
            values[name] = statistics.fmean(op.get(name, 0.0) for op in traced)
        else:
            values[name] = statistics.fmean(op.get(name, 0) for op in counted)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple:
    setup_probes = []
    setup = [] if trace else _setup_samples(name, setup_probes)
    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    probes = []  # one before each timed operation
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as handle:
        reference = json.load(handle)["reference_digests"].get(name)
    ledger = _Ledger()
    details = {"workload": name, "seed": seed, "trace": int(trace), "machine": _machine()}
    failures = []
    attempted = 0
    op_times, untraced_times, traced_ops, digests = [], [], [], []

    def record(key, problems, digest):
        nonlocal attempted
        attempted += 1
        if digest:
            problems = problems + ledger.check(key, digest)
        if problems:
            failures.append({"op": key, "problems": problems[:5]})

    with contextlib.redirect_stdout(io.StringIO()):
        # Warm-up on seed-independent inputs: its digest is the drift check.
        _, problems, ref_digest = _run_op(
            workload, workloads.REFERENCE_SEED, workloads.REFERENCE_INDEX
        )
        record(f"{name}/reference", problems, ref_digest)
        tracer = tracing.Tracer() if trace else None
        index = 0
        loop_start = time.perf_counter()
        while index < MIN_OPS or time.perf_counter() - loop_start < seconds:
            index += 1
            traced = trace and index % 2 == 1
            probes.append(_probe())
            op_seconds, problems, digest = _run_op(
                workload, seed, index, tracer if traced else None
            )
            record(f"{name}/{seed}/{index}", problems, digest)
            op_times.append(op_seconds)
            digests.append(digest)
            if not traced:
                untraced_times.append(op_seconds)
                continue
            values = tracer.end_op(op_seconds)
            if digest:
                values["montecarlo.method_failures"] = checks.method_failures(
                    os.path.join(WORK, name, "bundle")
                )
            traced_ops.append(values)
    ledger.save()

    details.update(
        probe_s={"setup": setup_probes, "ops": probes, "end": _probe()},
        op_seconds=op_times,
        digests=digests,
        drift={
            "reference_digest": ref_digest,
            "stored": reference,
            "drift": ref_digest != reference,
        },
        failures=failures,
    )
    if trace:
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = _per_layer(names, traced_ops, untraced_times)
        details.update(absent_spans=tracer.absent, hook_errors=tracer.hook_errors)
        with open(os.path.join(WORK, f"spans-{name}-{seed}.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    else:
        setup_totals = [s["import_s"] + s["inputs_s"] for s in setup]
        details.update(
            setup_samples=setup,
            wall_s={"op_p50": statistics.median(op_times), "setup": statistics.median(setup_totals)},
        )
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {
            "op_s_p50": _scaled_median(op_times, probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": _scaled_median(setup_totals, setup_probes),
        }
    if ref_digest and ref_digest != reference:
        print(f"drift: {name} reference bundle digest {ref_digest[:16]} "
              f"differs from the stored {str(reference)[:16]}", file=sys.stderr)
    missing = set(names) ^ set(metrics)
    if missing:
        raise SystemExit(f"metrics and BENCHMARK.json disagree on: {sorted(missing)}")
    return details, {
        "correct": not failures,
        "attempted": attempted,
        "failed": len({f["op"] for f in failures}),
        "metrics": {n: {"value": metrics[n], "unit": names[n]} for n in names},
    }


def run_all(args) -> int:
    """Each workload in its own process (peak memory is per process); one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:.6g} {entry['unit']}")
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "wimpvar")):
        print(f"no wimpvar sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.setup_probe:
        _setup_probe(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    details, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
