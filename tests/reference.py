"""Reference implementations that the package no longer ships.

The package evaluates queries through compiled batch gathers, writes CSV
rows with one format per table, builds responses by doubling, fills one
variable-major design per chunk of samples and sweeps one Gram matrix per
sample; these are the plain per-query, per-cell, step-by-step, explicitly
indexed and explicitly partialled versions the tests check it against.
"""
from types import SimpleNamespace

import numpy as np

from wimpvar import ConfigError, IrfArray, IrfQuery, VarLevels, _batch, companion_matrix
from wimpvar.vecm import REDUCED_FORM, STRUCTURAL_CHOLESKY


def companion_roots(var: VarLevels) -> np.ndarray:
    """Moduli of the companion-matrix eigenvalues, sorted descending."""
    moduli = np.abs(np.linalg.eigvals(companion_matrix(var)))
    return np.sort(moduli)[::-1]


def irf_stepwise(mats: np.ndarray, h_max: int) -> np.ndarray:
    """Reduced-form responses (B, h_max+1, K, K) of a levels VAR stack by
    the step recursion Psi_0 = I, Psi_j = sum_{i=1..min(j,p)} A_i Psi_{j-i}."""
    n_batch, p, n_vars, _ = mats.shape
    psi = np.empty((n_batch, h_max + 1, n_vars, n_vars))
    psi[:, 0] = np.eye(n_vars)
    for j in range(1, h_max + 1):
        acc = mats[:, 0] @ psi[:, j - 1]
        for i in range(2, min(j, p) + 1):
            acc += mats[:, i - 1] @ psi[:, j - i]
        psi[:, j] = acc
    return psi


def irf_structural(irf: IrfArray, chol: np.ndarray) -> IrfArray:
    """Structural responses Phi_j = Psi_j P for a given impact factor P."""
    if irf.kind != REDUCED_FORM:
        raise ConfigError("structural responses are built from reduced-form ones")
    return IrfArray(irf.values @ chol, STRUCTURAL_CHOLESKY)


def evaluate_zeta(irf: IrfArray, query: IrfQuery) -> float:
    """Evaluate one impulse-response functional on an IRF stack."""
    if query.kind != irf.kind:
        raise ConfigError(
            f"query kind {query.kind!r} does not match responses of kind {irf.kind!r}"
        )
    n_vars = irf.n_vars
    if query.a > n_vars or query.b > n_vars:
        raise ConfigError(
            f"indices (a={query.a}, b={query.b}) out of range for K={n_vars}"
        )
    if query.needed_horizon > irf.h_max:
        raise ConfigError(
            f"query needs horizon {query.needed_horizon} but responses stop at {irf.h_max}"
        )
    series = irf.values[:, query.a - 1, query.b - 1]
    if query.functional == "element":
        return float(series[query.horizon])
    return float(series[: query.h_max + 1].max())


def format_cell(value) -> str:
    """One CSV cell: a string as it is, an integer in decimal, any other
    number with 17 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def regressor_blocks(tilde: np.ndarray, p: int, paper_convention: bool = False):
    """The (Z0, Z1, Z2) regression blocks of a (B, T, K) stack, indexed
    time by time.

    Row s of every block is calendar time t = first + s (0-based), with
    first = p, or p + 1 under the alternative sample convention.  Z0 holds
    the differences y_t - y_{t-1}, Z1 the lagged levels y_{t-1} and Z2 the
    lagged differences y_{t-i} - y_{t-i-1}, i = 1..p-1, side by side.
    """
    n_batch, n_obs, n_vars = tilde.shape
    rows = range(p + (1 if paper_convention else 0), n_obs)
    z0 = np.array([[y[t] - y[t - 1] for t in rows] for y in tilde])
    z1 = np.array([[y[t - 1] for t in rows] for y in tilde])
    z2 = np.array(
        [[[y[t - i] - y[t - i - 1] for i in range(1, p)] for t in rows] for y in tilde]
    ).reshape(n_batch, len(rows), n_vars * (p - 1))
    return z0, z1, z2


def sweep_partialled(z0: np.ndarray, z1: np.ndarray, z2: np.ndarray, p: int):
    """The reduced-rank sweep by explicit partialling: R0 and R1 are the
    residuals of Z0 and Z1 on Z2, and the moments are their products.  The
    eigenproblem is solved by the package's own step, ``_batch._canonical``.

    Returns a namespace with the fields of ``_batch.BatchSweep`` that the
    moments determine, plus S11, R0 and R1.
    """
    n_batch, t_eff, n_vars = z0.shape
    reason = np.zeros(n_batch, dtype=np.int64)
    finite = (
        np.isfinite(z0).all(axis=(1, 2))
        & np.isfinite(z1).all(axis=(1, 2))
        & np.isfinite(z2).all(axis=(1, 2))
    )
    _batch._flag(reason, finite, _batch.NONFINITE)
    # A non-finite sample is swept as zeros, as the package sweeps it.
    z0, z1, z2 = (np.where(finite[:, None, None], z, 0.0) for z in (z0, z1, z2))
    if z2.shape[2]:
        a22 = np.swapaxes(z2, 1, 2) @ z2
        _batch._flag(reason, _batch._spd_mask(a22), _batch.SINGULAR_Z2)
        a22 = _batch._masked(a22, reason == 0)
        p20 = np.linalg.solve(a22, np.swapaxes(z2, 1, 2) @ z0)
        p21 = np.linalg.solve(a22, np.swapaxes(z2, 1, 2) @ z1)
        r0 = z0 - z2 @ p20
        r1 = z1 - z2 @ p21
    else:
        p20 = np.empty((n_batch, 0, n_vars))
        p21 = np.empty((n_batch, 0, n_vars))
        r0, r1 = z0, z1
    s00 = np.swapaxes(r0, 1, 2) @ r0 / t_eff
    s01 = np.swapaxes(r0, 1, 2) @ r1 / t_eff
    s11 = np.swapaxes(r1, 1, 2) @ r1 / t_eff
    lam, vectors, ln_det = _batch._canonical(s00, s01, s11, reason)
    return SimpleNamespace(
        eigenvalues=lam, vectors=vectors, S00=s00, S01=s01, S11=s11, R0=r0, R1=r1,
        P20=p20, P21=p21, ln_det_s00=ln_det, p=p, t_eff=t_eff, reason=reason,
    )
