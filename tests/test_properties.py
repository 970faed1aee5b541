"""Property-based tests of invariants the estimator guarantees.

* One implementation: a B=1 batch gives, bit for bit, the matching slice of
  a B>1 batch, for every kernel the single-sample API calls.
* One query-value path: query values at per-sample ranks equal, row by row
  and bit for bit, the values at each row's rank imposed on the whole batch,
  and the observed sample's table at ranks 0..K equals B=1 calls.
* Equivariance: at a fixed rank the reduced-rank fit commutes with a
  relabelling or rescaling of the variables, so the squared canonical
  correlations and trace statistics do not move, and the reduced-form
  responses follow the transformation, Psi -> D Psi D^{-1}.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wimpvar import _batch  # noqa: E402
from wimpvar import BootstrapConfig, IrfQuery  # noqa: E402
from wimpvar import fit_vecm, irf_reduced, trace_statistics, vecm_to_var  # noqa: E402
from wimpvar.bootstrap import _compile_queries, _prepare, _zeta_at_rank  # noqa: E402
from wimpvar.timeseries import DetrendMode  # noqa: E402


def _paths(seed: int, n_batch: int, n_obs: int = 90, n_vars: int = 3) -> np.ndarray:
    """Cointegrated levels: one random walk loaded on every variable, plus noise."""
    rng = np.random.default_rng(seed)
    trend = np.cumsum(rng.standard_normal((n_batch, n_obs, 1)), axis=1)
    loads = rng.uniform(0.5, 1.5, (n_batch, 1, n_vars))
    return trend * loads + rng.standard_normal((n_batch, n_obs, n_vars)) + 5.0


MODES = st.sampled_from(list(DetrendMode))


def _pipeline(ys, mode, p, h_max=8):
    """Every batch step the single-sample API runs, on one stack."""
    tilde, coef = _batch.detrend_batch(ys, mode)
    z0, z1, z2 = _batch.regressors_batch(tilde, p)
    sweep = _batch.sweep_batch(z0, z1, z2, p)
    out = {"tilde": tilde, "coef": coef, "z0": z0, "z1": z1, "z2": z2}
    for name in ("eigenvalues", "vectors", "S00", "S01", "R0", "R1", "ln_det_s00", "reason"):
        out[name] = getattr(sweep, name)
    stats = _batch.trace_stats_batch(sweep.eigenvalues, sweep.t_eff)
    out["trace"] = stats
    out["raw"], out["weights"] = _batch.weights_batch(stats, sweep.t_eff, 1.0, 0.5)
    for rank in range(ys.shape[2] + 1):
        pi, gammas = _batch.rank_fit_batch(sweep, rank)
        sigma = _batch.sigma_batch(sweep, rank)
        out[f"pi{rank}"], out[f"gammas{rank}"] = pi, gammas
        out[f"resid{rank}"] = _batch.residuals_batch(sweep, pi)
        out[f"sigma{rank}"] = sigma
        out[f"chol{rank}"] = _batch.cholesky_batch(sigma)[0]
        out[f"psi{rank}"] = _batch.irf_batch(_batch.var_matrices_batch(pi, gammas), h_max)
    for name in ("aic", "bic"):
        out[name] = np.argmin(
            _batch.ic_values_batch(sweep.eigenvalues, sweep.ln_det_s00, sweep.t_eff, p, name),
            axis=1,
        )
    out["trace_rank"] = _batch.seq_select_batch(sweep, 0.05)
    return out


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(2, 9),
    mode=MODES,
    p=st.integers(1, 3),
    data=st.data(),
)
def test_one_sample_equals_its_slice_of_a_batch(seed, n_batch, mode, p, data):
    ys = _paths(seed, n_batch)
    index = data.draw(st.integers(0, n_batch - 1))
    batched = _pipeline(ys, mode, p)
    alone = _pipeline(ys[index : index + 1], mode, p)
    for name, values in alone.items():
        assert np.array_equal(values[0], batched[name][index]), name


def _query_set(kind):
    """Element and maximum queries of one response kind over K=3."""
    return tuple(
        [IrfQuery(a=a, b=b, horizon=h, kind=kind) for a in (1, 3) for b in (2, 3) for h in (0, 4)]
        + [IrfQuery(a=2, b=1, h_max=6, functional="max_over_horizons", kind=kind)]
    )


QUERY_SETS = st.sampled_from([_query_set("reduced_form"), _query_set("structural_cholesky")])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(2, 9),
    mode=MODES,
    p=st.integers(1, 3),
    queries=QUERY_SETS,
    data=st.data(),
)
def test_per_sample_ranks_equal_each_rank_imposed_on_the_batch(seed, n_batch, mode, p, queries, data):
    tilde, _ = _batch.detrend_batch(_paths(seed, n_batch), mode)
    sweep = _batch.sweep_batch(*_batch.regressors_batch(tilde, p), p)
    cq = _compile_queries(queries, 3)
    ranks = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n_batch, max_size=n_batch)))
    values, ok, (pi, gammas) = _zeta_at_rank(sweep, ranks, cq)
    for rank in range(4):
        rows = ranks == rank
        at_rank, ok_at_rank, (pi_at_rank, gammas_at_rank) = _zeta_at_rank(sweep, rank, cq)
        assert np.array_equal(values[rows], at_rank[rows], equal_nan=True)
        assert np.array_equal(ok[rows], ok_at_rank[rows])
        assert np.array_equal(pi[rows], pi_at_rank[rows])
        assert np.array_equal(gammas[rows], gammas_at_rank[rows])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=MODES, p=st.integers(1, 3), queries=QUERY_SETS)
def test_observed_table_rows_equal_one_sample_calls(seed, mode, p, queries):
    prep = _prepare(_paths(seed, 1)[0], p, queries, BootstrapConfig(), mode)
    table, table_ok = prep.points
    assert table.shape == (4, len(queries))
    for rank in range(4):
        alone, ok_alone, _ = _zeta_at_rank(prep.sweep, rank, prep.cq)
        assert np.array_equal(table[rank], alone[0], equal_nan=True)
        assert table_ok[rank] == ok_alone[0]


def _fit_pieces(y, p, rank, mode, h_max=10):
    fit = fit_vecm(y, p, rank, mode)
    return fit.eigenvalues, trace_statistics(fit), irf_reduced(vecm_to_var(fit), h_max).values


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    order=st.permutations(range(3)),
    p=st.integers(1, 2),
    rank=st.integers(0, 3),
    mode=MODES,
)
def test_permuting_the_variables_permutes_the_responses(seed, order, p, rank, mode):
    y = _paths(seed, 1)[0]
    lam, stats, psi = _fit_pieces(y, p, rank, mode)
    lam_p, stats_p, psi_p = _fit_pieces(y[:, order], p, rank, mode)
    assert np.allclose(lam_p, lam, rtol=1e-8, atol=1e-11)
    assert np.allclose(stats_p, stats, rtol=1e-8, atol=1e-8)
    expected = psi[:, order][:, :, order]
    assert np.allclose(psi_p, expected, rtol=1e-7, atol=1e-9 * np.abs(psi).max())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    var=st.integers(0, 2),
    scale=st.floats(0.01, 100.0).filter(lambda c: abs(c - 1.0) > 1e-3),
    p=st.integers(1, 2),
    rank=st.integers(0, 3),
    mode=MODES,
)
def test_rescaling_a_variable_scales_its_response_row_and_column(seed, var, scale, p, rank, mode):
    y = _paths(seed, 1)[0]
    lam, stats, psi = _fit_pieces(y, p, rank, mode)
    scaled = y.copy()
    scaled[:, var] *= scale
    lam_s, stats_s, psi_s = _fit_pieces(scaled, p, rank, mode)
    assert np.allclose(lam_s, lam, rtol=1e-8, atol=1e-11)
    assert np.allclose(stats_s, stats, rtol=1e-8, atol=1e-8)
    factor = np.ones(3)
    factor[var] = scale
    expected = psi * factor[None, :, None] / factor[None, None, :]
    assert np.allclose(psi_s, expected, rtol=1e-7, atol=1e-9 * np.abs(expected).max())
