"""Single-sample reference implementations that the package no longer ships.

The package evaluates queries through compiled batch gathers and writes CSV
rows with one format per table; these are the plain per-query and per-cell
versions the tests check it against.
"""
import numpy as np

from wimpvar import ConfigError, IrfArray, IrfQuery, VarLevels, companion_matrix
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
