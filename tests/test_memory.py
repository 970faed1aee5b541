import concurrent.futures
import json
import os
import platform
import subprocess
import sys

import pytest

import wimpvar
from wimpvar import ConfigError, _memory
from wimpvar.montecarlo import run_experiment

from test_montecarlo import _tiny_config

ELEVEN_METHODS = "ols,true_rank,aic,bic,bers_aic,bers_bic,ma,fdbb_aic,fdbb_bic,wimp,lavar"
HERE = os.path.dirname(os.path.abspath(__file__))
GLIBC_SETTINGS = (*_memory.USER_SETTINGS, "GLIBC_TUNABLES")


@pytest.fixture
def calls(monkeypatch):
    """The (option, value) pairs pin_allocator passes to a stand-in mallopt."""
    for name in GLIBC_SETTINGS:
        monkeypatch.delenv(name, raising=False)
    seen = []
    monkeypatch.setattr(_memory, "_mallopt", lambda: lambda option, value: seen.append((option, value)))
    return seen


def test_pins_mmap_then_trim_threshold(calls):
    _memory.pin_allocator()
    # glibc's dynamic ceiling on 64-bit systems, and trim = 2 x mmap
    assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]


@pytest.mark.parametrize(
    "name, value",
    [(name, "1048576") for name in _memory.USER_SETTINGS]
    + [("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=1048576")],
)
def test_the_users_glibc_settings_take_precedence(calls, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    _memory.pin_allocator()
    assert calls == []


def test_other_tunables_leave_the_pinning_on(calls, monkeypatch):
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2")
    _memory.pin_allocator()
    assert len(calls) == 2


def test_a_libc_without_mallopt_is_left_alone(monkeypatch):
    import ctypes

    for name in GLIBC_SETTINGS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert _memory._mallopt() is None
    _memory.pin_allocator()


@pytest.fixture
def pools(monkeypatch):
    """The keyword arguments of each process pool run_experiment makes; a
    stand-in pool maps in this process and starts none."""
    made = []

    class InProcessPool:
        def __init__(self, **kwargs):
            made.append(kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return made


def test_run_experiment_pins_its_pool_workers_only(calls, pools):
    cfg = _tiny_config(("ols",), n_mc=17)  # two chunks
    run_experiment(cfg, workers=1)
    assert pools == []
    run_experiment(cfg, workers=2)
    assert pools == [{"max_workers": 2, "initializer": _memory.pin_allocator}]
    assert calls == []  # never in the caller's own process


@pytest.mark.parametrize("n_mc, workers, size", [(2, 8, 1), (16, 3, 1), (17, 8, 2), (40, 2, 2)])
def test_the_pool_has_no_more_workers_than_chunks(pools, n_mc, workers, size):
    # A forking pool starts every worker at once, so a worker with no chunk
    # would be a process forked for nothing.
    run_experiment(_tiny_config(("ols",), n_mc=n_mc), workers=workers)
    assert [pool["max_workers"] for pool in pools] == [size]


@pytest.mark.parametrize("workers", [2.0, 2.5, "2"])
def test_a_worker_count_that_is_not_an_integer_is_refused(pools, workers):
    with pytest.raises(ConfigError, match="workers must be an integer"):
        run_experiment(_tiny_config(("ols",), n_mc=2), workers=workers)
    assert pools == []


def _child_env() -> dict:
    """A fresh interpreter's environment: this tree's package, one BLAS
    thread and none of the user's glibc malloc settings."""
    env = {name: value for name, value in os.environ.items() if name not in GLIBC_SETTINGS}
    src = os.path.dirname(os.path.dirname(os.path.abspath(wimpvar.__file__)))
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))),
    )
    return env


def test_importing_the_package_loads_no_process_pool():
    # Only a run on a pool imports the pool machinery (run_experiment).
    script = (
        "import sys, wimpvar; print(sorted(name for name in sys.modules"
        " if name.startswith(('concurrent.futures.process', 'multiprocessing'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_repeated_simulate_calls_fault_in_few_pages(tmp_path):
    # Without pinned thresholds glibc hands the megabyte-sized arrays of
    # one call back to the kernel and faults them in again on the next:
    # about 10k minor faults per call on this shape, against under 20.
    script = f"""
import json, resource, sys
from wimpvar.cli import main

faults = []
for i in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = main(["simulate", "--dgp", "dgp1", "--n-mc", "4", "--B", "199", "--h-max", "60",
                 "--workers", "1", "--seed", str(i), "--methods", {ELEVEN_METHODS!r},
                 "--out", {str(tmp_path)!r} + f"/bundle{{i}}"])
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert code == 0, code
print(json.dumps(faults))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(count < 1000 for count in faults[1:]), faults


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_repeated_analyze_calls_fault_in_few_pages(tmp_path):
    # Every build, and every replay of a level-1 batch by FDBB level two and
    # lavar, allocates its chunk buffers afresh on each call; with pinned
    # thresholds they come back from the heap instead of being faulted in
    # again.  analyze_k4's operations 0-4 of benchmark seed 7 (K=4, T=200,
    # p=2, B=399, every extra method): about 3.4k minor faults in the first
    # call, then under 50.
    perfbench = os.path.join(os.path.dirname(HERE), "perfbench")
    script = f"""
import json, resource, sys
sys.path.insert(0, {perfbench!r})
import workloads
from wimpvar.cli import main

workload, faults = workloads.WORKLOADS["analyze_k4"], []
for i in range(5):
    path = {str(tmp_path)!r} + f"/input{{i}}.csv"
    seed = workloads.write_input(workload, 7, i, path)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = main(workloads.argv(workload, seed, path, {str(tmp_path)!r} + f"/bundle{{i}}"))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert code == 0, code
print(json.dumps(faults))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(count < 1000 for count in faults[1:]), faults
