"""Single-sample reference implementations that the package no longer ships.

The package evaluates queries through compiled batch gathers; these are the
plain per-query versions the tests check it against.
"""
import numpy as np

from wimpvar import ConfigError, IrfArray, IrfQuery, VarLevels, companion_matrix
from wimpvar.vecm import REDUCED_FORM, STRUCTURAL_CHOLESKY


def companion_roots(var: VarLevels) -> np.ndarray:
    """Moduli of the companion-matrix eigenvalues, sorted descending."""
    moduli = np.abs(np.linalg.eigvals(companion_matrix(var)))
    return np.sort(moduli)[::-1]


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
