from types import SimpleNamespace

import numpy as np
import pytest

from wimpvar import DataError, DetrendMode, TimeSeriesData, _batch, detrend, difference
from wimpvar.vecm import observed_sweep


def test_detrend_constant_series_exact():
    y = np.full((20, 2), 7.5)
    out = detrend(y, DetrendMode.CONSTANT)
    assert np.allclose(out.tilde_values, 0.0, atol=1e-12)
    assert np.allclose(out.mu0, 7.5)
    assert np.allclose(out.mu1, 0.0)


def test_detrend_exact_linear_fit():
    t = np.arange(1, 31)
    y = (2.0 + 3.0 * t)[:, None]
    out = detrend(y, DetrendMode.CONSTANT_AND_TREND)
    assert np.allclose(out.tilde_values, 0.0, atol=1e-9)
    assert np.allclose(out.mu0, [2.0], atol=1e-9)
    assert np.allclose(out.mu1, [3.0], atol=1e-10)


def test_detrend_matches_normal_equations_oracle():
    rng = np.random.default_rng(42)
    y = rng.standard_normal((50, 3))
    out = detrend(y, DetrendMode.CONSTANT_AND_TREND)

    # independent normal-equations solve
    t = np.arange(1.0, 51.0)
    design = np.column_stack([np.ones(50), t])
    coef = np.linalg.solve(design.T @ design, design.T @ y)
    resid = y - design @ coef
    assert np.allclose(out.tilde_values, resid, atol=1e-10)
    assert np.allclose(out.mu0, coef[0], atol=1e-10)
    assert np.allclose(out.mu1, coef[1], atol=1e-10)


def test_detrend_mode_none_is_identity_with_zero_deterministics():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((15, 2))
    out = detrend(y, "none")
    assert np.array_equal(out.tilde_values, y)
    assert np.all(out.mu0 == 0) and np.all(out.mu1 == 0)


def test_detrend_column_means_vanish():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((80, 4)) + 5.0
    for mode in (DetrendMode.CONSTANT, DetrendMode.CONSTANT_AND_TREND):
        out = detrend(y, mode)
        assert np.all(np.abs(out.tilde_values.mean(axis=0)) < 1e-8)


def test_retrend_roundtrip_identity():
    rng = np.random.default_rng(2)
    y = rng.standard_normal((60, 3)) * 10 + 100
    for mode in DetrendMode:
        out = detrend(y, mode)
        assert np.allclose(out.retrend(), y, rtol=1e-10, atol=1e-10)


def test_detrend_invariant_to_added_trend():
    rng = np.random.default_rng(3)
    y = rng.standard_normal((70, 2))
    base = detrend(y, DetrendMode.CONSTANT_AND_TREND)
    t = np.arange(1, 71)[:, None]
    shifted = y + np.array([4.0, -2.0]) + t * np.array([0.5, 1.5])
    again = detrend(shifted, DetrendMode.CONSTANT_AND_TREND)
    assert np.allclose(base.tilde_values, again.tilde_values, atol=1e-8)


def test_non_finite_input_rejected_with_coordinates():
    y = np.ones((10, 2))
    y[4, 1] = np.nan
    with pytest.raises(DataError, match="row 5"):
        TimeSeriesData(y)
    with pytest.raises(DataError, match="row 5"):
        detrend(y, DetrendMode.CONSTANT)


def test_timeseriesdata_rejects_duplicate_names():
    with pytest.raises(DataError, match="duplicate"):
        TimeSeriesData(np.ones((5, 2)), names=("a", "a"))


def test_difference_constant_rows_zero():
    assert np.all(difference(np.ones((7, 3))) == 0)


def test_difference_hand_case():
    out = difference(np.array([1.0, 3.0, 6.0])[:, None])
    assert np.array_equal(out.ravel(), [2.0, 3.0])


def test_difference_inverts_cumsum():
    rng = np.random.default_rng(4)
    noise = rng.standard_normal((40, 2))
    path = np.cumsum(noise, axis=0)
    assert np.allclose(difference(path), noise[1:], atol=1e-12)


def _blocks(y, p, paper_convention=False):
    """The Z0, Z1 and Z2 blocks of one sample, read from the design the sweep
    and the residuals fill."""
    ((_, _, design),) = _batch._design_chunks(np.asarray(y, dtype=float)[None], p, paper_convention)
    blocks = design[0].T  # (T_eff, K(p+1)): [Z2 Z1 Z0]
    lagged = y.shape[1] * (p - 1)
    return SimpleNamespace(
        Z0=blocks[:, lagged + y.shape[1] :],
        Z1=blocks[:, lagged : lagged + y.shape[1]],
        Z2=blocks[:, :lagged],
        t_eff=blocks.shape[0],
    )


def test_regressors_p1_has_empty_lag_block():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((30, 2))
    reg = _blocks(y, 1)
    assert reg.Z2.shape == (29, 0)
    assert reg.Z0.shape == (29, 2)
    assert reg.Z1.shape == (29, 2)


def test_regressors_hand_case_p2():
    y = np.array([1.0, 2.0, 4.0, 7.0, 11.0])[:, None]
    reg = _blocks(y, 2)
    assert np.array_equal(reg.Z0.ravel(), [2.0, 3.0, 4.0])
    assert np.array_equal(reg.Z1.ravel(), [2.0, 4.0, 7.0])
    assert np.array_equal(reg.Z2.ravel(), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_regressors_row_counts(p):
    rng = np.random.default_rng(6)
    y = rng.standard_normal((50, 3))
    reg = _blocks(y, p)
    assert reg.Z0.shape[0] == reg.Z1.shape[0] == reg.Z2.shape[0] == 50 - p
    assert reg.Z2.shape[1] == 3 * (p - 1)


def test_regressors_paper_convention_drops_one_row():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((50, 3))
    minimal = _blocks(y, 2)
    paper = _blocks(y, 2, paper_convention=True)
    assert paper.t_eff == minimal.t_eff - 1
    assert np.array_equal(paper.Z0, minimal.Z0[1:])
    assert np.array_equal(paper.Z1, minimal.Z1[1:])
    assert np.array_equal(paper.Z2, minimal.Z2[1:])


def test_regressors_alignment_regenerates_innovations():
    # Simulate an error-correction process with known parameters and check
    # that the aligned blocks reproduce the innovations exactly.
    rng = np.random.default_rng(8)
    pi = np.array([[-0.2, 0.1], [0.05, -0.3]])
    gamma = np.array([[0.3, 0.0], [-0.1, 0.2]])
    T = 200
    innov = rng.standard_normal((T, 2))
    y = np.zeros((T, 2))
    y[1] = y[0] + innov[1]
    for t in range(2, T):
        y[t] = y[t - 1] + pi @ y[t - 1] + gamma @ (y[t - 1] - y[t - 2]) + innov[t]
    reg = _blocks(y, 2)
    recovered = reg.Z0 - reg.Z1 @ pi.T - reg.Z2 @ gamma.T
    assert np.allclose(recovered, innov[2:], atol=1e-10)


def test_regressors_reject_bad_lag_order():
    with pytest.raises(DataError):
        observed_sweep(np.ones((30, 2)) + np.arange(30)[:, None], 0)
