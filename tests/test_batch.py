"""The batch kernels against closed-form oracles.

Each estimator step has one implementation, in ``wimpvar._batch``; the
single-sample API is its B=1 call, so every test also checks that the
public function returns exactly the matching slice of a B>1 batch.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import regressor_blocks, sweep_partialled
from wimpvar import EstimationError, _batch
from wimpvar.ranks import (
    RankSelector,
    TRACE_CRIT_LEVELS,
    TRACE_CRIT_VALUES,
    ic_param_count,
    plausibility_weights,
    select_rank_ic,
    select_rank_sequential,
)
from wimpvar.timeseries import DetrendMode, DetrendedSeries, detrend
from wimpvar.vecm import (
    VarLevels,
    companion_matrix,
    irf_reduced,
    johansen_fit_from,
    observed_sweep,
    trace_stats_from_eigenvalues,
    var_to_vecm,
    vecm_to_var,
)
from wimpvar.montecarlo import make_dgp, simulate_path


def _stack(n_batch, T=120, seed=60, variant="dgp1"):
    spec = make_dgp(variant, T)
    return np.stack(
        [simulate_path(spec, np.random.default_rng(seed + i)) for i in range(n_batch)]
    )


def _sweep(ys, p):
    return _batch.sweep_batch(ys, p)


@pytest.mark.parametrize("mode", list(DetrendMode))
def test_detrend_batch_matches_reference(mode):
    ys = _stack(6)
    tilde, coef = _batch.detrend_batch(ys, mode)
    t = np.arange(1.0, ys.shape[1] + 1.0)
    design = {
        DetrendMode.NONE: np.empty((t.size, 0)),
        DetrendMode.CONSTANT: np.ones((t.size, 1)),
        DetrendMode.CONSTANT_AND_TREND: np.column_stack([np.ones(t.size), t]),
    }[mode]
    for i in range(6):
        # OLS oracle: the residual is orthogonal to the design, and adding
        # the fitted deterministics back reproduces the data.
        assert np.allclose(design.T @ tilde[i], 0.0, atol=1e-9)
        assert np.allclose(tilde[i] + design @ coef[i], ys[i], rtol=0, atol=1e-12)
        ref = detrend(ys[i], mode)
        assert np.array_equal(ref.tilde_values, tilde[i])
        padded = np.vstack([coef[i], np.zeros((2 - coef.shape[1], 3))])
        assert np.array_equal(np.vstack([ref.mu0, ref.mu1]), padded)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("paper", [False, True])
def test_regressors_batch_matches_reference(p, paper):
    # The blocks the sweep and the residuals read, chunk by chunk across a
    # chunk edge, are [Z1 | Z0]' and the lagged differences of the
    # time-indexed blocks.
    ys = _stack(_batch._CHUNK + 3)
    z0, z1, z2 = regressor_blocks(ys, p, paper)
    t_eff = z0.shape[1]
    spans = []
    for lo, hi, v, lags in _batch._lag_blocks(ys, p, t_eff):
        assert np.array_equal(np.swapaxes(v, 1, 2), np.concatenate([z1, z0], axis=2)[lo:hi])
        assert np.array_equal(np.swapaxes(lags[0], 1, 2), z0[lo:hi])
        for lag in range(1, p):
            z2_lag = z2[lo:hi, :, 3 * (lag - 1) : 3 * lag]
            assert np.array_equal(np.swapaxes(lags[lag], 1, 2), z2_lag)
        spans.append((lo, hi))
    assert spans == [(0, _batch._CHUNK), (_batch._CHUNK, ys.shape[0])]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vars=st.integers(1, 4),
    p=st.integers(1, 5),
    paper=st.booleans(),
    data=st.data(),
)
def test_lag_gram_and_residuals_equal_the_explicit_design(seed, n_vars, p, paper, data):
    n_obs = data.draw(st.integers(n_vars * p + 10, 300))
    exponents = data.draw(st.lists(st.floats(-6, 6), min_size=n_vars, max_size=n_vars))
    rng = np.random.default_rng(seed)
    ys = np.cumsum(rng.standard_normal((3, n_obs, n_vars)), axis=1) * 10.0 ** np.array(exponents)
    z0, z1, z2 = regressor_blocks(ys, p, paper)
    design = np.concatenate([z2, z1, z0], axis=2)
    expected = np.swapaxes(design, 1, 2) @ design
    gram = _batch.gram_batch(ys, p, z0.shape[1])
    # Each entry within 1e-13 of the root of its two diagonal entries.
    root = np.sqrt(np.diagonal(expected, axis1=1, axis2=2))
    assert np.all(np.abs(gram - expected) <= 1e-13 * root[:, :, None] * root[:, None, :])
    if p == 1:
        # The product of the contiguous variable-major [Z1 | Z0] block itself.
        block = np.ascontiguousarray(np.swapaxes(np.concatenate([z1, z0], axis=2), 1, 2))
        assert np.array_equal(gram, np.matmul(block, np.swapaxes(block, 1, 2)))
    sweep = _batch.sweep_batch(ys, p, paper)
    pi, gammas = _batch.rank_fit_batch(sweep, data.draw(st.integers(0, n_vars)))
    # [Gamma_1 ... Gamma_{p-1} | Pi]' stacked, the coefficients of [Z2 | Z1]
    coef = np.concatenate(
        [np.swapaxes(gammas, 2, 3).reshape(3, -1, n_vars), np.swapaxes(pi, 1, 2)], axis=1
    )
    lagged = np.concatenate([z2, z1], axis=2)
    # Each residual within 1e-13 of the sum of the magnitudes of its terms.
    scale = np.abs(z0) + np.abs(lagged) @ np.abs(coef)
    resid = _batch.residuals_batch(sweep, pi)
    assert np.all(np.abs(resid - (z0 - lagged @ coef)) <= 1e-13 * scale)


@pytest.mark.parametrize("p", [1, 2])
def test_sweep_batch_matches_decomposition(p):
    ys = _stack(5)
    z0, z1, z2 = regressor_blocks(ys, p)
    sweep = _batch.sweep_batch(ys, p)
    assert sweep.ok.all()
    for i in range(5):
        # Partialling oracle: S00, S01 and S11 are the moment matrices of the
        # least-squares residuals of Z0 and Z1 on Z2.
        resid = np.hstack([z0[i], z1[i]])
        if p > 1:
            coef, *_ = np.linalg.lstsq(z2[i], resid, rcond=None)
            resid = resid - z2[i] @ coef
        r0, r1 = resid[:, :3], resid[:, 3:]
        s11 = r1.T @ r1 / sweep.t_eff
        s01 = sweep.S01[i]
        lam, vecs = sweep.eigenvalues[i], sweep.vectors[i]
        assert np.allclose(sweep.S00[i], r0.T @ r0 / sweep.t_eff, atol=1e-10)
        assert np.allclose(s01, r0.T @ r1 / sweep.t_eff, atol=1e-10)
        # The sweep's S11 is the one its vectors normalize, V' S11 V = I.
        assert np.allclose(np.linalg.inv(vecs @ vecs.T), s11, atol=1e-10)
        # Generalized eigenproblem oracle: lam S11 v = S10 S00^{-1} S01 v
        # with the normalization V' S11 V = I.
        lhs = s11 @ vecs * lam
        rhs = s01.T @ np.linalg.solve(sweep.S00[i], s01) @ vecs
        assert np.allclose(lhs, rhs, atol=1e-10 * np.abs(rhs).max())
        assert np.allclose(vecs.T @ s11 @ vecs, np.eye(3), atol=1e-9)
        assert np.all(np.diff(lam) <= 0) and lam[-1] >= 0 and lam[0] < 1
        one = observed_sweep(ys[i], p)
        for name in ("eigenvalues", "vectors", "S00", "S01", "P20", "P21"):
            assert np.array_equal(getattr(one, name)[0], getattr(sweep, name)[i])
        assert one.ln_det_s00[0] == sweep.ln_det_s00[i]


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_rank_fit_batch_matches_reference(p, rank):
    ys = _stack(4)
    z0, z1, z2 = regressor_blocks(ys, p)
    sweep = _batch.sweep_batch(ys, p)
    pi, gammas = _batch.rank_fit_batch(sweep, rank)
    resid = _batch.residuals_batch(sweep, pi)
    sigma = _batch.sigma_batch(sweep, rank)
    for i in range(4):
        assert np.linalg.matrix_rank(pi[i], tol=1e-10) <= rank
        # Given Pi, the Gammas are the OLS fit of Z0 - Z1 Pi' on Z2, and the
        # residuals are what that regression leaves.
        target = z0[i] - z1[i] @ pi[i].T
        if p > 1:
            coef, *_ = np.linalg.lstsq(z2[i], target, rcond=None)
            for lag in range(p - 1):
                assert np.allclose(gammas[i, lag], coef[lag * 3 : (lag + 1) * 3].T, atol=1e-9)
        stacked = np.hstack(list(gammas[i])) if p > 1 else np.empty((3, 0))
        assert np.allclose(resid[i], target - z2[i] @ stacked.T, atol=1e-10)
        # S00 - alpha alpha' equals the residual covariance.
        assert np.allclose(sigma[i], resid[i].T @ resid[i] / sweep.t_eff, atol=1e-12)
        fit = johansen_fit_from(observed_sweep(ys[i], p), rank)
        assert np.array_equal(fit.Pi, pi[i])
        assert np.array_equal(np.reshape(fit.Gammas, gammas[i].shape), gammas[i])
        assert np.array_equal(fit.residuals, resid[i])
        assert np.array_equal(fit.Sigma_u, sigma[i])


def test_var_matrices_and_irf_batch_match_reference():
    ys = _stack(4)
    sweep = _sweep(ys, 3)
    pi, gammas = _batch.rank_fit_batch(sweep, 2)
    mats = _batch.var_matrices_batch(pi, gammas)
    psi = _batch.irf_batch(mats, 15)
    for i in range(4):
        var = VarLevels(tuple(mats[i]))
        # Closed-form inverse of the conversion.
        pi_back, gammas_back = var_to_vecm(var)
        assert np.allclose(pi_back, pi[i], atol=1e-12)
        assert np.allclose(gammas_back, gammas[i], atol=1e-12)
        # Psi_h = J C^h J' with C the companion matrix.
        comp = companion_matrix(var)
        power = np.eye(comp.shape[0])
        for h in range(16):
            assert np.allclose(psi[i, h], power[:3, :3], atol=1e-10)
            power = comp @ power
        fit = johansen_fit_from(observed_sweep(ys[i], 3), 2)
        assert np.array_equal(np.stack(vecm_to_var(fit).A), mats[i])
        assert np.array_equal(irf_reduced(vecm_to_var(fit), 15).values, psi[i])


def test_rebuild_of_vecm_matrices_matches_scalar_loop():
    rng = np.random.default_rng(61)
    pi = rng.standard_normal((3, 3)) * 0.05
    gammas = rng.standard_normal((1, 3, 3)) * 0.1
    errors = rng.standard_normal((4, 30, 3))
    init = rng.standard_normal((3, 3))  # p + 1 = 3 rows
    mats = _batch.var_matrices_batch(pi[None], gammas[None])[0]
    out = _batch.rebuild_levels_batch(mats, errors, init)
    assert out.shape == (4, 33, 3)
    for b in range(4):
        path = np.zeros((33, 3))
        path[:3] = init
        for t in range(3, 33):
            path[t] = (
                path[t - 1]
                + pi @ path[t - 1]
                + gammas[0] @ (path[t - 1] - path[t - 2])
                + errors[b, t - 3]
            )
        assert np.allclose(out[b], path, atol=1e-12)


def test_rebuild_levels_batch_matches_scalar_loop():
    rng = np.random.default_rng(62)
    mats = rng.standard_normal((2, 2, 2)) * 0.3
    errors = rng.standard_normal((3, 20, 2))
    init = rng.standard_normal((3, 2))
    out = _batch.rebuild_levels_batch(mats, errors, init)
    for b in range(3):
        path = np.zeros((23, 2))
        path[:3] = init
        for t in range(3, 23):
            path[t] = mats[0] @ path[t - 1] + mats[1] @ path[t - 2] + errors[b, t - 3]
        assert np.allclose(out[b], path, atol=1e-12)


def test_rebuild_levels_batch_p4_matches_scalar_loop_across_blocks():
    # 3 full blocks of _BLOCK steps and a partial one, with shared coefficients.
    rng = np.random.default_rng(63)
    mats = rng.standard_normal((4, 3, 3)) * 0.15
    n_steps = 3 * _batch._BLOCK + 5
    errors = rng.standard_normal((5, n_steps, 3))
    init = rng.standard_normal((5, 3))
    out = _batch.rebuild_levels_batch(mats, errors, init)
    assert out.shape == (5, 5 + n_steps, 3)
    for b in range(5):
        path = np.zeros((5 + n_steps, 3))
        path[:5] = init
        for t in range(5, 5 + n_steps):
            path[t] = errors[b, t - 5]
            for lag in range(1, 5):
                path[t] += mats[lag - 1] @ path[t - lag]
        assert np.array_equal(out[b, :5], init)
        assert np.allclose(out[b], path, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("n_steps", [_batch._BLOCK - 1, _batch._BLOCK, 3 * _batch._BLOCK + 5])
def test_rebuild_levels_batch_per_sample_matches_scalar_loop(p, n_steps):
    # Per-sample matrices and initial rows: every sample its own recursion.
    rng = np.random.default_rng(64 + p)
    mats = rng.standard_normal((5, p, 3, 3)) * (0.4 / p)
    errors = rng.standard_normal((5, n_steps, 3))
    init = rng.standard_normal((5, p + 1, 3))
    out = _batch.rebuild_levels_batch(mats, errors, init)
    assert out.shape == (5, p + 1 + n_steps, 3)
    for b in range(5):
        path = np.zeros((p + 1 + n_steps, 3))
        path[: p + 1] = init[b]
        for t in range(p + 1, p + 1 + n_steps):
            path[t] = errors[b, t - p - 1]
            for lag in range(1, p + 1):
                path[t] += mats[b, lag - 1] @ path[t - lag]
        assert np.array_equal(out[b, : p + 1], init[b])
        assert np.allclose(out[b], path, rtol=1e-12, atol=1e-12)


def test_ols_var_levels_batch_matches_lstsq():
    ys = _stack(3, T=80)
    mats, resid, ok = _batch.ols_var_levels_batch(ys, 2)
    assert ok.all()
    for i in range(3):
        y = ys[i]
        target = y[2:]
        design = np.hstack([y[1:-1], y[:-2]])
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert np.allclose(mats[i, 0], coef[:3].T, atol=1e-8)
        assert np.allclose(mats[i, 1], coef[3:].T, atol=1e-8)
        assert np.allclose(resid[i], target - design @ coef, atol=1e-8)


def test_trace_and_weights_batch_match_reference():
    ys = _stack(5)
    sweep = _sweep(ys, 1)
    stats = _batch.trace_stats_batch(sweep.eigenvalues, sweep.t_eff)
    raw, weights = _batch.weights_batch(stats, sweep.t_eff, 1.0, 0.5)
    shrink = sweep.t_eff ** -0.5
    for i in range(5):
        lam = sweep.eigenvalues[i]
        oracle = [-sweep.t_eff * sum(np.log(1.0 - lam[j]) for j in range(r, 3)) for r in range(4)]
        assert np.allclose(stats[i], oracle, atol=1e-9)
        assert stats[i, -1] == 0.0 and not np.signbit(stats[i, -1])
        survival = [np.exp(-shrink * j) for j in oracle]
        oracle_w = [survival[0]] + [survival[r] - survival[r - 1] for r in range(1, 4)]
        assert np.allclose(raw[i], oracle_w, atol=1e-12)
        assert np.allclose(weights[i], np.array(oracle_w) / sum(oracle_w), atol=1e-12)
        ref_stats = trace_stats_from_eigenvalues(lam, sweep.t_eff)
        assert np.array_equal(ref_stats, stats[i])
        ref_w = plausibility_weights(ref_stats, sweep.t_eff, 1.0, 0.5)
        assert np.array_equal(ref_w.raw, raw[i])
        assert np.array_equal(ref_w.normalized, weights[i])


@pytest.mark.parametrize("criterion", ["aic", "bic"])
def test_ic_select_batch_matches_reference(criterion):
    ys = _stack(6, variant="dgp2")
    sweep = _sweep(ys, 2)
    picked = _batch.select_batch(sweep, RankSelector(criterion))
    c_t = 2.0 if criterion == "aic" else np.log(sweep.t_eff)
    for i in range(6):
        # Oracle: refit every rank and compare ln det Sigma(r) + penalty.
        one = observed_sweep(ys[i], 2)
        values = []
        for rank in range(4):
            resid = johansen_fit_from(one, rank).residuals
            _, ln_det = np.linalg.slogdet(resid.T @ resid / sweep.t_eff)
            values.append(ln_det + c_t * ic_param_count(rank, 3, 2) / sweep.t_eff)
        assert picked[i] == np.argmin(values)
        assert select_rank_ic(ys[i], 2, criterion) == picked[i]


def test_seq_select_batch_matches_reference():
    ys = _stack(6, variant="dgp2")
    sweep = _sweep(ys, 1)
    picked = _batch.seq_select_batch(sweep, 0.05)
    column = TRACE_CRIT_LEVELS.index(0.05)
    for i in range(6):
        lam = sweep.eigenvalues[i]
        oracle = 3
        for rank in range(3):
            stat = -sweep.t_eff * np.sum(np.log(1.0 - lam[rank:]))
            if stat < TRACE_CRIT_VALUES[3 - rank - 1, column]:
                oracle = rank
                break
        assert picked[i] == oracle
        assert select_rank_sequential(ys[i], 1, 0.05) == picked[i]


def test_select_batch_fixed():
    ys = _stack(2)
    sweep = _batch.sweep_batch(ys, 1)
    assert np.all(_batch.select_batch(sweep, RankSelector("fixed", rank=2)) == 2)


def test_sweep_batch_masks_degenerate_samples():
    ys = _stack(5)
    ys[2] = 1.0  # constant sample: singular moment matrices
    sweep = _batch.sweep_batch(ys, 1)
    assert not sweep.ok[2]
    assert sweep.reason[2] & _batch.SINGULAR_S11
    assert sweep.ok[[0, 1, 3, 4]].all()
    # the healthy samples are unaffected by the bad one
    clean = _batch.sweep_batch(ys[[0, 1, 3, 4]], 1)
    assert np.allclose(sweep.eigenvalues[[0, 1, 3, 4]], clean.eigenvalues, atol=1e-12)


def _constant(y):
    return np.ones_like(y)


def _nan_row(y):
    y = y.copy()
    y[40] = np.nan
    return y


def _duplicate_difference(y):
    y = y.copy()
    y[:, 1] = y[:, 0]
    return y


def _perfect_fit(y):
    # Noise-free VAR(1) levels: Z1 explains Z0 exactly.
    turn = np.array([[np.cos(0.3), -np.sin(0.3), 0.0], [np.sin(0.3), np.cos(0.3), 0.0], [0.0, 0.0, 0.5]])
    out = np.empty_like(y)
    out[0] = [1.0, 0.0, 1.0]
    for t in range(1, y.shape[0]):
        out[t] = 0.99 * turn @ out[t - 1]
    return out


@pytest.mark.parametrize(
    "spoil, p, bit, message",
    [
        (_constant, 1, _batch.SINGULAR_S11, "singular S11 moment matrix"),
        (_nan_row, 2, _batch.NONFINITE, "non-finite regressors"),
        (_duplicate_difference, 2, _batch.SINGULAR_Z2, "singular lagged-difference moment matrix"),
        (_perfect_fit, 1, _batch.EIG_CEIL, "largest squared canonical correlation"),
    ],
)
def test_degenerate_samples_get_the_partialled_sweeps_bits(spoil, p, bit, message):
    ys = _stack(4)
    ys[2] = spoil(ys[2])
    sweep = _batch.sweep_batch(ys, p)
    oracle = sweep_partialled(*regressor_blocks(ys, p), p)
    assert sweep.reason[2] & bit and oracle.reason[2] & bit
    assert np.array_equal(sweep.reason, oracle.reason)
    assert sweep.ok[[0, 1, 3]].all()
    # The sample alone raises the message of its first failure bit; a
    # non-finite sample gets that far only as an already detrended series.
    alone = DetrendedSeries(ys[2], np.zeros(3), np.zeros(3), DetrendMode.NONE)
    with pytest.raises(EstimationError, match=message):
        observed_sweep(alone, p)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("paper", [False, True])
def test_residuals_from_the_levels_match_the_partialled_blocks(p, paper):
    ys = _stack(6)
    sweep = _batch.sweep_batch(ys, p, paper)
    oracle = sweep_partialled(*regressor_blocks(ys, p, paper), p)
    # Per-sample ranks, as FDBB's level two uses them.
    ranks = np.array([0, 1, 2, 3, 1, 2])
    fits = np.stack([_batch.rank_fit_batch(sweep, rank)[0] for rank in range(4)])
    pi = fits[ranks, np.arange(6)]
    resid = _batch.residuals_batch(sweep, pi)
    expected = oracle.R0 - oracle.R1 @ np.swapaxes(pi, 1, 2)
    assert resid.shape == expected.shape == (6, sweep.t_eff, 3)
    # Both are differences of the same regression at rounding level: within
    # 1e-12 of the largest difference of the data.
    assert np.allclose(resid, expected, rtol=0, atol=1e-12 * np.abs(oracle.R0).max())
