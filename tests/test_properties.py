"""Property-based tests of invariants the estimator guarantees.

* One implementation: a B=1 batch gives, bit for bit, the matching slice of
  a B>1 batch, for every kernel the single-sample API calls and for the
  resampling recursion, at every position of the batch.
* One positive-definiteness test: the batched Cholesky factor equals
  LAPACK's to rounding, gives a non-finite or zero sample the identity, and
  flags the same samples whatever the units of the variables.  Its batched
  inverse inverts it to rounding bounded by |L^{-1}| |L|, also near the
  pivot floor, and gives a failed sample's identity the identity.
* The doubling response kernel equals the step recursion up to rounding
  bounded by the responses of the absolute coefficients, and the Gram sweep
  equals the explicitly partialled one up to rounding bounded by the moment
  magnitude, with the same failure bits.
* One query-value path: query values at per-sample ranks equal, row by row
  and bit for bit, the values at each row's rank imposed on the whole batch,
  and the observed sample's table at ranks 0..K equals B=1 calls.
* One entry point: the prepared sample's sweep is, field for field and bit
  for bit, the sweep ``observed_sweep`` gives the same data.
* Equivariance: at a fixed rank the reduced-rank fit commutes with a
  relabelling or rescaling of the variables, so the squared canonical
  correlations and trace statistics do not move, and the reduced-form
  responses follow the transformation, Psi -> D Psi D^{-1}.
* Shared work on a held level-1 batch: ``ma``/``ma_fixed`` and each
  ``bers_*``/``fdbb_*`` pair compute their common part once, read-only,
  and every method's interval set is, bit for bit, the one it gives alone
  on a fresh sample, whatever order the methods run in.
* One row format per CSV table writes the cells the per-cell format did.
"""
import functools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from reference import format_cell, irf_stepwise, regressor_blocks, sweep_partialled  # noqa: E402
from wimpvar import _batch, bootstrap, cli  # noqa: E402
from wimpvar import BootstrapConfig, IntervalSet, IrfQuery, RankSelector  # noqa: E402
from wimpvar import fit_vecm, irf_reduced, select_rank_ic, trace_statistics, vecm_to_var  # noqa: E402
from wimpvar.bootstrap import (  # noqa: E402
    METHODS, _attempt, _compile_queries, _prepare, _zeta_at_rank, run_methods,
)
from wimpvar.errors import DataError  # noqa: E402
from wimpvar.timeseries import DetrendMode  # noqa: E402
from wimpvar.vecm import observed_sweep  # noqa: E402


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
    z0, z1, z2 = regressor_blocks(tilde, p)
    sweep = _batch.sweep_batch(tilde, p)
    out = {"tilde": tilde, "coef": coef, "z0": z0, "z1": z1, "z2": z2}
    for name in ("eigenvalues", "vectors", "S00", "S01", "ln_det_s00", "reason"):
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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(2, 70),
    p=st.integers(1, 4),
    n_vars=st.integers(1, 4),
    n_steps=st.integers(0, 3 * _batch._BLOCK),
    shared_mats=st.booleans(),
    shared_init=st.booleans(),
    data=st.data(),
)
def test_rebuilt_path_is_independent_of_its_batch(
    seed, n_batch, p, n_vars, n_steps, shared_mats, shared_init, data
):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((n_batch, p, n_vars, n_vars)) * (0.5 / p)
    init = rng.standard_normal((n_batch, p + 1, n_vars))
    errors = rng.standard_normal((n_batch, n_steps, n_vars))
    if shared_mats:
        mats = mats[0]
    if shared_init:
        init = init[0]

    def rebuild(rows):
        return _batch.rebuild_levels_batch(
            mats if shared_mats else mats[rows],
            errors[rows],
            init if shared_init else init[rows],
        )

    full = rebuild(np.arange(n_batch))
    assert full.shape == (n_batch, p + 1 + n_steps, n_vars)
    index = data.draw(st.integers(0, n_batch - 1))
    assert np.array_equal(rebuild(np.array([index]))[0], full[index])
    order = np.array(data.draw(st.permutations(range(n_batch))))
    assert np.array_equal(rebuild(order), full[order])


def _moment_stack(
    seed: int, n_batch: int, n: int, singular: bool = False, jitter: float = 0.0
) -> np.ndarray:
    """(B, n, n) moment matrices X X' of Gaussian X (n, 2n + 5), well
    conditioned; when ``singular``, X's last row is a random combination of
    the others (zero for n = 1), plus ``jitter`` times a Gaussian row, which
    leaves the last pivot a share of about jitter^2 / (n - 1) for n > 1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_batch, n, 2 * n + 5))
    if singular:
        x[:, -1] = (rng.standard_normal((n_batch, 1, n - 1)) @ x[:, :-1])[:, 0]
        if jitter:
            x[:, -1] += jitter * rng.standard_normal((n_batch, 2 * n + 5))
    return x @ np.swapaxes(x, 1, 2)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(1, 9),
    n=st.integers(1, 9),
    data=st.data(),
)
def test_cholesky_batch_equals_the_lapack_factor(seed, n_batch, n, data):
    mats = _moment_stack(seed, n_batch, n)
    factor, ok = _batch.cholesky_batch(mats)
    assert ok.all()
    # Both round sums of n products of factor entries, each bounded by the
    # root of its row's diagonal entry.
    scale = np.sqrt(np.diagonal(mats, axis1=1, axis2=2).max(axis=1))
    error = np.abs(factor - np.linalg.cholesky(mats)).max(axis=(1, 2))
    assert np.all(error <= 1e-13 * scale)
    index = data.draw(st.integers(0, n_batch - 1))
    alone, ok_alone = _batch.cholesky_batch(mats[index : index + 1])
    assert np.array_equal(alone[0], factor[index]) and ok_alone[0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(1, 9),
    n=st.integers(1, 9),
    near_floor=st.booleans(),
    jitter=st.floats(-5.5, -3.0),
    exponents=st.lists(st.floats(-6.0, 6.0), min_size=9, max_size=9),
    spoil=st.booleans(),
    data=st.data(),
)
def test_tril_inverse_batch_inverts_the_factor(
    seed, n_batch, n, near_floor, jitter, exponents, spoil, data
):
    # A near-floor stack leaves the last pivot a share of 1e-11 to 1e-6;
    # the shares below _PIVOT_FLOOR fail.
    mats = _moment_stack(seed, n_batch, n, near_floor, 10.0**jitter)
    scales = 10.0 ** np.array(exponents[:n])
    mats = mats * scales[:, None] * scales[None, :]
    if spoil:
        mats[data.draw(st.integers(0, n_batch - 1)), 0, 0] = np.nan
    factor, ok = _batch.cholesky_batch(mats)
    inv = _batch.tril_inverse_batch(factor)
    assert np.all(inv[~ok] == np.eye(n))
    # Row-wise substitution leaves |X L - I| <= c n eps |X| |L| for X = L^{-1},
    # whatever the units.  The largest error seen, over 6000 such draws, was
    # 1.6 eps |X| |L| (at n = 6); the bound here is n eps |X| |L|.
    error = np.abs(inv @ factor - np.eye(n))
    assert np.all(error <= n * np.finfo(float).eps * (np.abs(inv) @ np.abs(factor)))
    for row in range(n_batch):
        assert np.array_equal(_batch.tril_inverse_batch(factor[row : row + 1])[0], inv[row])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(1, 9),
    n=st.integers(1, 6),
    singular=st.booleans(),
    exponents=st.lists(st.floats(-6.0, 6.0), min_size=6, max_size=6),
)
def test_cholesky_batch_test_does_not_depend_on_units(seed, n_batch, n, singular, exponents):
    mats = _moment_stack(seed, n_batch, n, singular)
    scales = 10.0 ** np.array(exponents[:n])
    _, ok = _batch.cholesky_batch(mats)
    _, ok_scaled = _batch.cholesky_batch(mats * scales[:, None] * scales[None, :])
    assert np.array_equal(ok, np.full(n_batch, not singular))
    assert np.array_equal(ok_scaled, ok)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(2, 9),
    n=st.integers(1, 6),
    bad=st.sampled_from([np.nan, np.inf, -np.inf, 0.0]),
    data=st.data(),
)
def test_cholesky_batch_gives_a_bad_sample_the_identity(seed, n_batch, n, bad, data):
    mats = _moment_stack(seed, n_batch, n)
    index = data.draw(st.integers(0, n_batch - 1))
    if bad == 0.0:
        mats[index] = 0.0
    else:
        mats[index, data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = bad
    factor, ok = _batch.cholesky_batch(mats)
    assert not ok[index] and np.array_equal(factor[index], np.eye(n))
    assert np.delete(ok, index).all()
    for row in range(n_batch):
        alone, _ = _batch.cholesky_batch(mats[row : row + 1])
        assert np.array_equal(alone[0], factor[row])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(2, 70),
    mode=MODES,
    p=st.integers(1, 4),
    n_vars=st.integers(1, 4),
    paper=st.booleans(),
    data=st.data(),
)
def test_gram_sweep_matches_the_partialled_sweep(seed, n_batch, mode, p, n_vars, paper, data):
    tilde, _ = _batch.detrend_batch(_paths(seed, n_batch, n_vars=n_vars), mode)
    blocks = regressor_blocks(tilde, p, paper)
    fast = _batch.sweep_batch(tilde, p, paper)
    slow = sweep_partialled(*blocks, p)
    assert fast.t_eff == slow.t_eff
    assert np.array_equal(fast.reason, slow.reason)
    # Both sweeps round T_eff-term dot products, each within T_eff eps of
    # the products of the magnitudes (Higham's bound), so the allowance is
    # T_eff eps times the moment magnitude: the largest raw second moment
    # of a regressor, per sample.  Over the smallest eigenvalue of each
    # matrix that is inverted, it bounds every field; the largest share of
    # it taken in 3000 random draws was 0.10 (S00).
    tol = fast.t_eff * np.finfo(float).eps
    moment = (np.concatenate(blocks, axis=2) ** 2).sum(axis=1).max(axis=1) / fast.t_eff
    for name in ("S00", "S01"):
        error = np.abs(getattr(fast, name) - getattr(slow, name)).max(axis=(1, 2))
        assert np.all(error <= tol * moment), name
    floor00 = np.linalg.eigvalsh(slow.S00)[:, 0]
    floor11 = np.linalg.eigvalsh(slow.S11)[:, 0]
    assert np.all(np.abs(fast.ln_det_s00 - slow.ln_det_s00) <= tol * moment / floor00)
    error = np.abs(fast.eigenvalues - slow.eigenvalues).max(axis=1)
    assert np.all(error <= tol * moment / np.minimum(floor00, floor11))
    if p > 1:
        z2 = blocks[2]
        floor22 = np.linalg.eigvalsh(np.swapaxes(z2, 1, 2) @ z2 / fast.t_eff)[:, 0]
        for name in ("P20", "P21"):
            ref = getattr(slow, name)
            error = np.abs(getattr(fast, name) - ref).max(axis=(1, 2))
            bound = tol * moment * (1.0 + np.abs(ref).max(axis=(1, 2))) / floor22
            assert np.all(error <= bound), name
    # The blocks are filled _CHUNK samples at a time: a sample's sweep is the
    # same bit for bit alone and at any place in a batch, across chunk edges.
    index = data.draw(st.integers(0, n_batch - 1))
    order = np.array(data.draw(st.permutations(range(n_batch))))
    for rows in (np.array([index]), order):
        part = _batch.sweep_batch(tilde[rows], p, paper)
        for name in ("eigenvalues", "vectors", "S00", "S01", "P20", "P21", "ln_det_s00", "reason"):
            assert np.array_equal(getattr(part, name), getattr(fast, name)[rows]), name


# Horizons on both sides of the doubling kernel's power-of-two steps.
IRF_HORIZONS = (0, 1, 2, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(2, 9),
    p=st.integers(1, 4),
    n_vars=st.integers(1, 4),
    h_max=st.sampled_from(IRF_HORIZONS),
    data=st.data(),
)
def test_doubled_responses_match_the_step_recursion(seed, n_batch, p, n_vars, h_max, data):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((n_batch, p, n_vars, n_vars))
    # Scale A_i by c^i so that the companion matrix of |A| has spectral
    # radius in [0.2, 1]; every response of A then stays bounded.
    radius = np.abs(np.linalg.eigvals(_batch.companion_batch(np.abs(mats)))).max(axis=1)
    shrink = rng.uniform(0.2, 1.0, n_batch) / radius
    mats *= shrink[:, None, None, None] ** np.arange(1, p + 1)[None, :, None, None]
    fast = _batch.irf_batch(mats, h_max)
    slow = irf_stepwise(mats, h_max)
    assert fast.shape == slow.shape == (n_batch, h_max + 1, n_vars, n_vars)
    # Every partial product of either order of summation is bounded by the
    # responses of |A|, so the rounding difference is too: at most
    # 4 eps (h + 1) K p times that magnitude (0.41 was the largest factor
    # seen in 3000 draws).
    magnitude = irf_stepwise(np.abs(mats), h_max)
    horizon = np.arange(h_max + 1)[None, :, None, None]
    tol = 4 * np.finfo(float).eps * (horizon + 1) * n_vars * p * magnitude
    assert np.all(np.abs(fast - slow) <= tol)
    index = data.draw(st.integers(0, n_batch - 1))
    assert np.array_equal(_batch.irf_batch(mats[index : index + 1], h_max)[0], fast[index])


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
    sweep = _batch.sweep_batch(tilde, p)
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
@given(
    seed=st.integers(0, 2**32 - 1), mode=MODES, p=st.integers(1, 3), paper=st.booleans(),
    queries=QUERY_SETS,
)
def test_observed_table_rows_equal_one_sample_calls(seed, mode, p, paper, queries):
    y = _paths(seed, 1)[0]
    prep = _prepare(y, p, queries, BootstrapConfig(paper_sample_convention=paper), mode)
    # The prepared sample's sweep is the one entry point's, field for field.
    sweep = observed_sweep(y, p, mode, paper)
    for name, value in vars(prep.sweep).items():
        other = getattr(sweep, name)
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype and value.shape == other.shape, name
            assert value.tobytes() == other.tobytes(), name
        else:
            assert value == other, name
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
    scale=st.floats(1e-6, 1e6).filter(lambda c: abs(c - 1.0) > 1e-3),
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
    for criterion in ("aic", "bic"):
        assert select_rank_ic(scaled, p, criterion, mode) == select_rank_ic(y, p, criterion, mode)


# ---------------------------------------------------------------------------
# work shared on the held level-1 batch

MEMO_SEEDS = (0, 11)  # seed 0: AIC, BIC and the reference rank share one batch


def _fresh(seed):
    """A K=3, p=2 sample with structural queries, prepared anew."""
    cfg = BootstrapConfig(n_boot=39, seed=seed)
    return _prepare(_paths(seed, 1, n_obs=70)[0], 2, _query_set("structural_cholesky"), cfg,
                    DetrendMode.CONSTANT)


@functools.lru_cache(maxsize=None)
def _alone(seed):
    """Every analyze method's result, each on its own fresh sample."""
    return {name: _attempt(METHODS[name].run, _fresh(seed)) for name in cli._ANALYZE_EXTRAS}


def _same_result(a, b) -> bool:
    if isinstance(a, Exception):
        return type(a) is type(b) and str(a) == str(b)
    fields = ("method", "rank", "queries", "n_boot", "n_failed", "rank_counts")
    return isinstance(b, IntervalSet) and all(
        getattr(a, name) == getattr(b, name) for name in fields
    ) and all(
        getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name in ("lower", "upper", "point")
    )


@settings(max_examples=12, deadline=None)
@given(seed=st.sampled_from(MEMO_SEEDS), order=st.permutations(cli._ANALYZE_EXTRAS))
def test_run_methods_gives_each_method_its_result_alone_in_any_order(seed, order):
    out = run_methods(_fresh(seed), order)
    assert list(out) == list(order)
    for name in order:
        assert _same_result(out[name], _alone(seed)[name]), name


@pytest.mark.parametrize("seed", MEMO_SEEDS)
def test_method_pairs_compute_their_level1_part_once(seed, monkeypatch):
    built, zeta_sweeps = [], []
    build, zeta = bootstrap._level1_batch, bootstrap._zeta_at_rank

    def building(prep, dgp_rank):
        boot = build(prep, dgp_rank)
        built.append(boot.sweep)
        return boot

    def counting(sweep, *args, **kwargs):
        zeta_sweeps.append(sweep)
        return zeta(sweep, *args, **kwargs)

    monkeypatch.setattr(bootstrap, "_level1_batch", building)
    monkeypatch.setattr(bootstrap, "_zeta_at_rank", counting)

    def level1_calls(names):
        built.clear()
        zeta_sweeps.clear()
        out = run_methods(_fresh(seed), names)
        assert all(isinstance(result, IntervalSet) for result in out.values()), out
        assert len(built) == 1  # the pair reads one batch
        return sum(sweep is built[0] for sweep in zeta_sweeps)

    assert level1_calls(("ma", "ma_fixed")) == 4  # ranks 0..K, K = 3
    assert level1_calls(("ma_fixed", "ma")) == 4
    for label in ("aic", "bic"):
        assert level1_calls((f"bers_{label}", f"fdbb_{label}")) == 1
        assert level1_calls((f"fdbb_{label}", f"bers_{label}")) == 1


def _arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    return [array for item in value for array in _arrays(item)]


def test_memo_arrays_are_read_only():
    prep = _fresh(MEMO_SEEDS[0])
    for run in (lambda: bootstrap.bers_interval(prep, RankSelector("aic")),
                lambda: bootstrap.ma_interval(prep, "fixed")):
        run()
        arrays = _arrays(list(prep._held.memo.values()))
        assert len(arrays) >= 3
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


# ---------------------------------------------------------------------------
# CSV rows

_SPECIAL_FLOATS = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
    2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3,
]
# One strategy per type a table column can hold.
_CELLS = {
    "int": st.integers(-(2**70), 2**70),
    "int8": st.integers(-128, 127).map(np.int8),
    "int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "uint64": st.integers(0, 2**64 - 1).map(np.uint64),
    "bool": st.booleans(),
    "numpy_bool": st.booleans().map(np.bool_),
    "str": st.text(st.characters(blacklist_characters=",\r\n"), max_size=12),
    "float": st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_subnormal=True)),
    "float64": st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()).map(np.float64),
    "float32": st.floats(width=32).map(np.float32),
}


def _utf8(text: str) -> bool:
    """Whether ``text`` has a UTF-8 form: it holds no lone surrogate."""
    return not any(0xD800 <= ord(char) <= 0xDFFF for char in text)


@settings(max_examples=200, deadline=None)
@given(kinds=st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=8), data=st.data())
def test_csv_row_format_writes_the_per_cell_format(tmp_path_factory, kinds, data):
    rows = [[data.draw(_CELLS[kind]) for kind in kinds] for _ in range(data.draw(st.integers(1, 4)))]
    header = [f"c{i}" for i in range(len(kinds))]
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    if not all(_utf8(cell) for row in rows for cell in row if isinstance(cell, str)):
        # A lone surrogate has no UTF-8 form: a typed error, and no file left behind.
        with pytest.raises(DataError, match="as UTF-8"):
            cli._write_csv(str(path), header, rows)
        assert not any(path.parent.iterdir())
        return
    cli._write_csv(str(path), header, rows)
    expected = [",".join(header)] + [",".join(format_cell(cell) for cell in row) for row in rows]
    assert path.read_bytes().decode("utf-8") == "\n".join(expected) + "\n"
