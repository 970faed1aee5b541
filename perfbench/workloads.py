"""Workload definitions: seeded inputs and the CLI argument list of each operation.

An operation is one ``wimpvar`` CLI call.  Its inputs (the CSV dataset for
``analyze``, the ``--seed`` of every call) come from the workload seed and
the operation index only, so two operations of one run never share inputs
and the same (seed, index) pair gives the same inputs on every run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The README's eleven Monte Carlo methods.
SIMULATE_METHODS = (
    "ols,true_rank,aic,bic,bers_aic,bers_bic,ma,fdbb_aic,fdbb_bic,wimp,lavar"
)
# Every extra analyze method; the fan and the combined interval always run.
ANALYZE_EXTRAS = "ols,bers_aic,bers_bic,ma,ma_fixed,fdbb_aic,fdbb_bic,lavar"


@dataclass(frozen=True)
class Workload:
    name: str
    code: int  # mixes the workload into every derived seed
    command: str  # "analyze" or "simulate"
    n_vars: int = 0
    n_obs: int = 0
    n_trends: int = 0  # common stochastic trends of the generated data
    args: tuple = ()  # fixed CLI flags besides --input/--out/--seed
    n_methods: int = 0  # interval sets per query in the bundle
    n_queries: int = 0
    n_mc: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="analyze_k4",
            code=1,
            command="analyze",
            n_vars=4,
            n_obs=200,
            n_trends=2,
            args=("--p", "2", "--B", "399", "--methods", ANALYZE_EXTRAS),
            # fan over ranks 0..4, the combined interval and eight extras
            n_methods=5 + 1 + 8,
            n_queries=4 * 4 * 21,
        ),
        Workload(
            name="analyze_long",
            code=2,
            command="analyze",
            n_vars=3,
            n_obs=800,
            n_trends=1,
            args=(
                "--p", "4", "--B", "399",
                "--queries", "max:1,2;element:2,1,8;element:3,3,20",
            ),
            n_methods=4 + 1,
            n_queries=3,
        ),
        Workload(
            name="simulate_dgp1",
            code=3,
            command="simulate",
            args=(
                "--dgp", "dgp1", "--T", "100", "--n-mc", "16", "--B", "199",
                "--h-max", "60", "--workers", "1", "--methods", SIMULATE_METHODS,
            ),
            n_methods=11,
            n_queries=3 * 3 * 60,
            n_mc=16,
        ),
    )
}

# Inputs of the untimed warm-up operation do not depend on the run seed, so
# its bundle digest can be compared with a stored reference.
REFERENCE_SEED = 0
REFERENCE_INDEX = 0


def _rng(workload: Workload, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([workload.code, seed, index])


MAX_MIX_CONDITION = 10.0


def _mixing_matrix(rng: np.random.Generator, n_vars: int) -> np.ndarray:
    """A random mix of the parts, redrawn until well conditioned.

    A nearly singular mix makes the series nearly collinear; the fitted
    model is then too unstable to resample and ``analyze`` rightly refuses
    it (a K=4 input whose mix had condition number 800 did so).  About 98%
    of K=4 first draws pass the bound and are kept as they are.
    """
    while True:
        mix = rng.uniform(-1.0, 1.0, (n_vars, n_vars)) + 2.0 * np.eye(n_vars)
        if np.linalg.cond(mix) <= MAX_MIX_CONDITION:
            return mix


def cointegrated_levels(rng: np.random.Generator, n_obs: int, n_vars: int, n_trends: int):
    """Levels with ``n_trends`` random walks and stationary AR(2) parts, mixed.

    The cointegration rank is ``n_vars - n_trends``.  A burn-in of 50 rows
    is dropped; a constant and a linear trend are added, which the
    default ``constant_and_trend`` detrending removes.
    """
    burn = 50
    total = n_obs + burn
    shocks = rng.standard_normal((total, n_vars))
    parts = np.empty((total, n_vars))
    parts[:, :n_trends] = np.cumsum(shocks[:, :n_trends], axis=0)
    stationary = np.zeros((total, n_vars - n_trends))
    for t in range(2, total):
        stationary[t] = 0.5 * stationary[t - 1] - 0.2 * stationary[t - 2] + shocks[t, n_trends:]
    parts[:, n_trends:] = stationary
    mix = _mixing_matrix(rng, n_vars)
    time = np.arange(n_obs, dtype=float)
    return parts[burn:] @ mix.T + 10.0 + 0.02 * time[:, None]


def write_input(workload: Workload, seed: int, index: int, path: str) -> int:
    """Write this operation's dataset to ``path``; returns its ``--seed``."""
    rng = _rng(workload, seed, index)
    op_seed = int(rng.integers(0, 2**31))
    if workload.command == "analyze":
        values = cointegrated_levels(rng, workload.n_obs, workload.n_vars, workload.n_trends)
        lines = [",".join(f"y{k + 1}" for k in range(workload.n_vars))]
        lines.extend(",".join(format(v, ".17g") for v in row) for row in values.tolist())
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
    return op_seed


def argv(workload: Workload, op_seed: int, input_path: str, out_dir: str) -> list:
    """The CLI arguments of one operation."""
    io = ["--out", out_dir, "--seed", str(op_seed)]
    if workload.command == "analyze":
        io = ["--input", input_path] + io
    return [workload.command, *io, *workload.args]
