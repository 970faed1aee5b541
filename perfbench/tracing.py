"""Spans around calls into the ``wimpvar`` modules, patched in from outside.

Each traced function is replaced, in every ``wimpvar`` module namespace that
binds it, by a wrapper that records a span (layer, start, end, parent).  A
layer's self time is its spans' duration minus the time their child spans
cover.  A target that no longer exists is reported as absent, with zero
calls, so the benchmark keeps working while the package is refactored.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "wimpvar"

# layer -> traced functions ("module:qualname").  Self time of each layer is
# reported as "<layer>.self_s".
LAYERS = {
    "cli.ingest_csv": ["cli:ingest_csv"],
    "cli.write_csv": ["cli:_write_csv"],
    "montecarlo.simulate_path": ["montecarlo:simulate_path"],
    "montecarlo.bounds_from": ["montecarlo:_bounds_from"],
    "bootstrap.draw": ["bootstrap:_draw_index_matrix"],
    "bootstrap.level1": ["bootstrap:_level1_batch"],
    "bootstrap.query_eval": ["bootstrap:_CompiledQueries.evaluate"],
    "bootstrap.assemble": ["bootstrap:_to_interval_set"],
    "bootstrap.hall": ["bootstrap:_hall_bounds"],
    "bootstrap.zeta": [
        "bootstrap:_zeta_at_rank", "bootstrap:_zeta_at_selected", "bootstrap:_chol_batch",
    ],
    "bootstrap.prepare": [
        "bootstrap:_prepare", "bootstrap:_Prepared.point_zetas", "bootstrap:_Prepared.select_rank",
    ],
    "bootstrap.method": [
        "bootstrap:fixed_rank_interval", "bootstrap:bers_interval", "bootstrap:ma_interval",
        "bootstrap:fdbb_interval", "bootstrap:lag_augmented_interval", "bootstrap:wimp_interval",
    ],
    "batch.rebuild": ["_batch:rebuild_vecm_batch", "_batch:rebuild_levels_batch"],
    "batch.detrend": ["_batch:detrend_batch"],
    "batch.regressors": ["_batch:regressors_batch"],
    "batch.sweep": ["_batch:sweep_batch"],
    "batch.rank_fit": [
        "_batch:rank_fit_batch", "_batch:var_matrices_batch", "_batch:residuals_batch",
        "_batch:sigma_batch",
    ],
    "batch.irf": ["_batch:irf_batch"],
    "batch.select": ["_batch:select_batch"],
    "batch.ols_levels": ["_batch:ols_var_levels_batch"],
}
# Every other function defined in these modules (the scalar observed-sample
# path and the combination rule) counts towards the module's own layer.
WHOLE_MODULES = ("vecm", "timeseries", "ranks", "wimp")

# Public constructors also get an inclusive time, "bootstrap.method.<m>.s".
METHODS = {
    "fixed_rank_interval": "fixed_rank",
    "bers_interval": "bers",
    "ma_interval": "ma",
    "fdbb_interval": "fdbb",
    "lag_augmented_interval": "lavar",
    "wimp_interval": "wimp",
}


# ---------------------------------------------------------------------------
# work counters, read from the arguments and results of traced calls


def _write_csv_bytes(op, args, result):
    op.counts["cli.write_csv.bytes"] += os.path.getsize(args["path"])


def _draw_rows(op, args, result):
    op.counts["bootstrap.draw.rows"] += result.shape[0]


def _level1_key(op, args, result):
    # Two builds are redundant when data, settings and DGP rank all match.
    prep = args["prep"]
    data = hashlib.sha1(prep.raw.tobytes()).hexdigest()
    op.level1_keys.add((data, prep.raw.shape, prep.p, str(prep.mode), repr(prep.cfg), args["dgp_rank"]))


def _rebuild_steps(op, args, result):
    errors = args["errors"]
    op.counts["batch.rebuild.sample_steps"] += errors.shape[0] * errors.shape[1]


def _sweep_ok(op, args, result):
    op.counts["batch.sweep.samples"] += result.ok.size
    op.counts["batch.sweep.ok"] += int(result.ok.sum())


def _interval_reps(op, args, result):
    interval_set = result[0] if isinstance(result, tuple) else result
    op.counts["bootstrap.reps"] += interval_set.n_boot
    op.counts["bootstrap.failed_reps"] += interval_set.n_failed


HOOKS = {
    "cli:_write_csv": _write_csv_bytes,
    "bootstrap:_draw_index_matrix": _draw_rows,
    "bootstrap:_level1_batch": _level1_key,
    "_batch:rebuild_vecm_batch": _rebuild_steps,
    "_batch:rebuild_levels_batch": _rebuild_steps,
    "_batch:sweep_batch": _sweep_ok,
    **{f"bootstrap:{name}": _interval_reps for name in METHODS},
}


class _OpTrace:
    """Accumulators for one operation."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.level1_keys: set = set()
        self.covered = 0.0  # seconds inside top-level spans


class Tracer:
    """Installs span wrappers into the package and accumulates per operation."""

    def __init__(self):
        self.spans: list = []  # (layer, start, end, parent index or -1)
        self.absent: list = []
        self.hook_errors = 0
        self.op = _OpTrace()
        self._stack: list = []
        self._patches: list = []  # (namespace, attribute, original, wrapper)
        self._collect()

    # -- installation --------------------------------------------------------

    def _targets(self):
        for layer, names in LAYERS.items():
            for name in names:
                yield layer, name
        for short in WHOLE_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    yield short, f"{short}:{attr}"

    def _collect(self):
        wrapped = set()
        namespaces = [
            module for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer, target in self._targets():
            module_name, _, qualname = target.partition(":")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            if id(original) in wrapped:  # an alias of a function already traced
                continue
            wrapped.add(id(original))
            wrapper = self._wrap(original, layer, METHODS.get(qualname), HOOKS.get(target))
            if outer:  # a method: its class is the one namespace that binds it
                self._patches.append((owner, attr, original, wrapper))
                continue
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._patches.append((namespace, name, original, wrapper))

    def install(self):
        for namespace, name, _, wrapper in self._patches:
            setattr(namespace, name, wrapper)

    def uninstall(self):
        for namespace, name, original, _ in self._patches:
            setattr(namespace, name, original)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, layer, method, hook):
        self_key = f"{layer}.self_s"
        inclusive_key = f"bootstrap.method.{method}.s" if method else None
        signature = inspect.signature(fn) if hook else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (layer, start, end, parent)
                op.self_s[self_key] += duration - frame[1]
                op.calls[layer] += 1
                if inclusive_key:
                    op.inclusive_s[inclusive_key] += duration
                if stack:
                    stack[-1][1] += duration
                else:
                    op.covered += duration
            if hook:
                try:
                    hook(op, signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    self.hook_errors += 1
            return result

        return wrapper

    # -- per-operation results -----------------------------------------------

    def begin_op(self):
        self.op = _OpTrace()

    def end_op(self, op_seconds: float) -> dict:
        """Self times, inclusive times and work counts of the finished operation."""
        op = self.op
        values = dict(op.self_s)
        values.update(op.inclusive_s)
        values.update(op.counts)
        values["bootstrap.level1.builds"] = op.calls["bootstrap.level1"]
        values["bootstrap.level1.distinct"] = len(op.level1_keys)
        values["bootstrap.query_eval.calls"] = op.calls["bootstrap.query_eval"]
        values["batch.irf.calls"] = op.calls["batch.irf"]
        values["trace.unattributed_s"] = op_seconds - op.covered
        values["trace.op_s"] = op_seconds
        return values
