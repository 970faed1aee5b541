"""Property-based tests of invariants the estimator guarantees.

* One implementation: a B=1 batch gives, bit for bit, the matching slice of
  a B>1 batch, for every kernel the single-sample API calls and for the
  resampling recursion, at every position of the batch and in any
  sub-batch.  The recursion equals the one-step-at-a-time oracle to
  rounding, and the residual pools are centred by an einsum sum that is
  bitwise the mean.
* One positive-definiteness test: the batched Cholesky factor equals
  LAPACK's to rounding, gives a non-finite or zero sample the identity, and
  flags the same samples whatever the units of the variables.  Its batched
  inverse inverts it to rounding bounded by |L^{-1}| |L|, also near the
  pivot floor, and gives a failed sample's identity the identity.  Both
  give a stack of two halves, as the canonical step factors [S11; S00],
  bitwise each matrix's own call, failures included.
* Arbitrary vector signs: flipping any columns of the sweep's canonical
  vectors moves no bit of the rank fits, covariances or residuals, and
  ``fit_vecm`` gives beta one sign convention with Pi = alpha beta'.
* The doubling response kernel equals the step recursion up to rounding
  bounded by the responses of the absolute coefficients, and the Gram sweep
  equals the explicitly partialled one up to rounding bounded by the moment
  magnitude, with the same failure bits.
* One query-value path: query values at per-sample ranks equal, row by row
  and bit for bit, the values at each row's rank imposed on the whole batch,
  each rank fitted on its own rows, and the observed sample's table at
  ranks 0..K equals B=1 calls.
* One entry point: the prepared sample's sweep is, field for field and bit
  for bit, the sweep ``observed_sweep`` gives the same data.
* Equivariance: at a fixed rank the reduced-rank fit commutes with a
  relabelling or rescaling of the variables, so the squared canonical
  correlations and trace statistics do not move, and the reduced-form
  responses follow the transformation, Psi -> D Psi D^{-1}.
* Shared work on a level-1 batch: ``ma``/``ma_fixed`` and each
  ``bers_*``/``fdbb_*`` pair compute their common part once, read-only,
  ``ma`` sums only the weightings that are read, each shared part is freed
  once its last reader has run, and every method's interval set is, bit
  for bit, the one it gives alone on a fresh sample, whatever order the
  methods run in and whichever chunk buffer its batch was built in.
  ``run_methods`` streams every build through one chunk buffer; FDBB level
  two replays its level-1 chunks in chunk buffers of its own, and lavar
  reads the p + 1 Gram rows that the rank-K build wrote.  So no run makes
  an (n_boot, T, K) buffer and no sweep keeps paths; it frees each batch
  once the batch's readers have run and every buffer when it returns,
  also when a method or fan member fails.
* Chunked builds: a group's level-1 batches built 64 replications at a
  time sweep bitwise as the whole-batch build of ``tests/reference.py``
  (draws in passes, a window rebuild, one sweep of the stack), spoilt
  paths included, which are zeroed before any detrending.  FDBB level two,
  which replays level one's chunks, and lavar, which reads the rank-K
  build's p + 1 sweep, give the interval sets and sweeps of their
  whole-batch oracles, which read level one's kept paths.
  The in-place rebuild equals the window rebuild, and draws in 64-row
  chunks equal the draws in passes, from one pool or from each chunk's own
  pools, rejections of numpy's bounded draw included.
* One row format per CSV table writes the cells the per-cell format did.
* Adversarial data through ``cli.main`` (random walks, stationary,
  heavy-tailed and explosive series, columns scaled by 10^±150, collinear,
  duplicated and constant columns, data times 1e-300) exits 0, 3 or 4 with
  every method, and a bundle's bounds are finite and ordered, with WIMP
  inside the hull of the fan.
"""
import contextlib
import csv
import dataclasses
import functools
import gc
import io
import os
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
pytestmark = pytest.mark.bitwise
from hypothesis import given, settings, strategies as st  # noqa: E402

import reference  # noqa: E402
from reference import (  # noqa: E402
    format_cell, irf_stepwise, rebuild_levels, rebuild_levels_stepwise, regressor_blocks, sweep_of,
    sweep_partialled,
)
from wimpvar import _batch, bootstrap, cli  # noqa: E402
from wimpvar import BootstrapConfig, IntervalSet, IrfQuery, RankSelector, TimeSeriesData  # noqa: E402
from wimpvar import fit_vecm, irf_reduced, select_rank_ic, trace_statistics, vecm_to_var  # noqa: E402
from wimpvar.bootstrap import (  # noqa: E402
    METHODS, _attempt, _compile_queries, _prepare, _zeta_at_rank, run_methods,
)
from wimpvar.errors import DataError, EstimationError  # noqa: E402
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
    tilde = ys.copy()
    coef = _batch.detrend_batch(tilde, mode)
    z0, z1, z2 = regressor_blocks(tilde, p)
    sweep = sweep_of(tilde, p)
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
        out[f"resid{rank}"] = _batch.residuals_batch(tilde, pi, gammas, sweep.t_eff)
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
    # past one _CHUNK, so a sample may sit anywhere in the reused lag buffer
    n_batch=st.integers(2, 70),
    mode=MODES,
    p=st.integers(1, 4),
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
        return rebuild_levels(
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
    # any sub-batch, of any size, its rows taken from anywhere in any order
    rows = order[: data.draw(st.integers(1, n_batch))]
    assert np.array_equal(rebuild(rows), full[rows])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(1, 70),
    p=st.integers(1, 4),
    n_vars=st.integers(1, 4),
    n_steps=st.integers(0, 3 * _batch._BLOCK),
    shared_mats=st.booleans(),
    shared_init=st.booleans(),
)
def test_rebuilt_path_matches_the_stepwise_recursion(
    seed, n_batch, p, n_vars, n_steps, shared_mats, shared_init
):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((n_batch, p, n_vars, n_vars)) * (0.5 / p)
    init = rng.standard_normal((n_batch, p + 1, n_vars))
    errors = rng.standard_normal((n_batch, n_steps, n_vars))
    if shared_mats:
        mats = mats[0]
    if shared_init:
        init = init[0]
    paths = rebuild_levels(mats, errors, init)
    oracle = rebuild_levels_stepwise(mats, errors, init)
    # relative to each path's largest level
    scale = np.abs(oracle).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(paths - oracle) <= 1e-12 * scale)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_pools=st.integers(1, 70),
    n=st.integers(1, 900),
    n_vars=st.integers(1, 4),
    log_scale=st.floats(-6.0, 6.0),
    data=st.data(),
)
def test_pool_centring_is_bitwise_the_mean(seed, n_pools, n, n_vars, log_scale, data):
    # Each pool is centred alike wherever it sits in the batch.  For K >= 2
    # einsum's sum equals the mean's only because numpy runs both loops in
    # the same order, so the equality is checked, not assumed; at K = 1 the
    # mean sums the contiguous rows pairwise, and einsum in its own order.
    rng = np.random.default_rng(seed)
    resid = rng.standard_normal((n_pools, n, n_vars)) * 10.0**log_scale + rng.standard_normal(n_vars)
    means = bootstrap._pool_means(resid)
    start = data.draw(st.integers(0, n_pools - 1), label="start")
    stop = data.draw(st.integers(start + 1, n_pools), label="stop")
    assert np.array_equal(bootstrap._pool_means(resid[start:stop].copy()), means[start:stop])
    if n_vars >= 2:
        assert np.array_equal(means, resid.mean(axis=1, keepdims=True))
    else:
        scale = np.abs(resid).mean(axis=1, keepdims=True)
        assert np.all(np.abs(means - resid.mean(axis=1, keepdims=True)) <= 1e-12 * scale)


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
    bad=st.sampled_from([None, np.nan, np.inf, 0.0]),
    data=st.data(),
)
def test_a_stacked_factor_and_inverse_equal_each_matrix_alone(seed, n_batch, n, singular, bad, data):
    # The canonical step factors and inverts [S11; S00] as one (2B, n, n)
    # stack; every matrix of it, a failed one too, gets its own call's bits.
    top = _moment_stack(seed, n_batch, n, singular)
    bottom = _moment_stack(seed + 1, n_batch, n)
    if bad is not None:
        index = data.draw(st.integers(0, n_batch - 1))
        bottom[index, data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = bad
    stack = np.concatenate([top, bottom])
    factor, ok = _batch.cholesky_batch(stack)
    inv = _batch.tril_inverse_batch(factor)
    assert not ok[:n_batch].any() if singular else ok[:n_batch].all()
    for row in range(2 * n_batch):
        alone, ok_alone = _batch.cholesky_batch(stack[row : row + 1])
        assert alone.tobytes() == factor[row].tobytes() and ok_alone[0] == ok[row]
        assert _batch.tril_inverse_batch(alone).tobytes() == inv[row].tobytes()


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
    tilde = _paths(seed, n_batch, n_vars=n_vars)
    _batch.detrend_batch(tilde, mode)
    blocks = regressor_blocks(tilde, p, paper)
    fast = sweep_of(tilde, p, paper)
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
        part = sweep_of(tilde[rows], p, paper)
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
    tilde = _paths(seed, n_batch)
    _batch.detrend_batch(tilde, mode)
    sweep = sweep_of(tilde, p)
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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(1, 9),
    n_vars=st.integers(1, 4),
    p=st.integers(1, 4),
    mode=MODES,
    paper=st.booleans(),
    data=st.data(),
)
def test_residuals_of_the_fit_equal_the_sweep_derived_residuals(
    seed, n_batch, n_vars, p, mode, paper, data
):
    # residuals_batch reads the Gammas of the fit it is given.  At per-sample
    # ranks, each fitted on its own rows as FDBB's level one fits them, its
    # residuals are bitwise those whose Gammas come from the whole batch's
    # sweep, P20 - P21 Pi' (tests/reference.py).
    tilde = _paths(seed, n_batch, n_obs=40, n_vars=n_vars)
    _batch.detrend_batch(tilde, mode)
    sweep = sweep_of(tilde, p, paper)
    ranks = data.draw(st.lists(st.integers(0, n_vars), min_size=n_batch, max_size=n_batch))
    cq = _compile_queries([IrfQuery(1, 1)], n_vars)
    _, _, (pi, gammas) = _zeta_at_rank(sweep, np.array(ranks), cq)
    resid = _batch.residuals_batch(tilde, pi, gammas, sweep.t_eff)
    assert resid.shape == (n_batch, sweep.t_eff, n_vars)
    assert resid.tobytes() == reference.residuals_from_sweep(tilde, sweep, pi).tobytes()


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


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(1, 6),
    mode=MODES,
    p=st.integers(1, 3),
    paper=st.booleans(),
    data=st.data(),
)
def test_flipping_vector_signs_moves_no_bit_of_the_fits(seed, n_batch, mode, p, paper, data):
    # The sweep's vectors reach every fit through alpha beta' or alpha
    # alpha', in which a column's sign cancels exactly.
    tilde = _paths(seed, n_batch)
    _batch.detrend_batch(tilde, mode)
    sweep = sweep_of(tilde, p, paper)
    flips = data.draw(st.lists(st.booleans(), min_size=3 * n_batch, max_size=3 * n_batch))
    signs = np.where(np.array(flips).reshape(n_batch, 1, 3), -1.0, 1.0)
    flipped = dataclasses.replace(sweep, vectors=sweep.vectors * signs)
    for rank in range(4):
        pi, gammas = _batch.rank_fit_batch(sweep, rank)
        pi_f, gammas_f = _batch.rank_fit_batch(flipped, rank)
        assert pi_f.tobytes() == pi.tobytes() and gammas_f.tobytes() == gammas.tobytes()
        sigma = _batch.sigma_batch(sweep, rank)
        assert _batch.sigma_batch(flipped, rank).tobytes() == sigma.tobytes()
        resid = _batch.residuals_batch(tilde, pi, gammas, sweep.t_eff)
        flipped_resid = _batch.residuals_batch(tilde, pi_f, gammas_f, flipped.t_eff)
        assert flipped_resid.tobytes() == resid.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=MODES, p=st.integers(1, 3), paper=st.booleans())
def test_fit_vecm_keeps_the_sign_convention_of_beta(seed, mode, p, paper):
    # In each column of beta, the first coordinate above 1e-12 of the
    # column's largest magnitude is positive, whatever signs the
    # eigensolver gave the sweep's vectors.
    y = _paths(seed, 1)[0]
    for rank in range(4):
        fit = fit_vecm(y, p, rank, mode, paper)
        assert fit.beta.shape == (3, rank) and fit.alpha.shape == (3, rank)
        for column in fit.beta.T:
            scale = max(np.abs(column).max(), np.finfo(float).tiny)
            assert column[np.argmax(np.abs(column) > 1e-12 * scale)] > 0
        assert np.array_equal(fit.Pi, fit.alpha @ fit.beta.T)


# ---------------------------------------------------------------------------
# work shared on a level-1 batch

MEMO_SEEDS = (0, 11)  # seed 0: AIC, BIC and the reference rank share one batch


def _fresh(seed, n_boot=39):
    """A K=3, p=2 sample with structural queries, prepared anew."""
    cfg = BootstrapConfig(n_boot=n_boot, seed=seed)
    return _prepare(_paths(seed, 1, n_obs=70)[0], 2, _query_set("structural_cholesky"), cfg,
                    DetrendMode.CONSTANT)


@functools.lru_cache(maxsize=None)
def _alone(seed):
    """Every analyze method's result, each on its own fresh sample."""
    return {name: _attempt(METHODS[name].run, _fresh(seed), None) for name in cli._ANALYZE_EXTRAS}


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
    built, batches, zeta_sweeps = [], [], []
    build, build_all = bootstrap._level1_batch, bootstrap._level1_batches
    zeta = bootstrap._zeta_at_rank

    def building(prep, dgp_rank, *buffers):
        built.append(dgp_rank)
        return build(prep, dgp_rank, *buffers)

    def building_all(*args, **kwargs):
        batches.extend(build_all(*args, **kwargs))
        return batches[-len(args[0]):]

    def counting(sweep, *args, **kwargs):
        zeta_sweeps.append(sweep)
        return zeta(sweep, *args, **kwargs)

    monkeypatch.setattr(bootstrap, "_level1_batch", building)
    monkeypatch.setattr(bootstrap, "_level1_batches", building_all)
    monkeypatch.setattr(bootstrap, "_zeta_at_rank", counting)

    def level1_calls(names):
        built.clear()
        batches.clear()
        zeta_sweeps.clear()
        out = run_methods(_fresh(seed), names)
        assert all(isinstance(result, IntervalSet) for result in out.values()), out
        assert len(built) == 1 and len(batches) == 1  # the pair reads one batch
        return sum(sweep is batches[0].sweep for sweep in zeta_sweeps)

    assert level1_calls(("ma", "ma_fixed")) == 4  # ranks 0..K, K = 3
    assert level1_calls(("ma_fixed", "ma")) == 4
    for label in ("aic", "bic"):
        assert level1_calls((f"bers_{label}", f"fdbb_{label}")) == 1
        assert level1_calls((f"fdbb_{label}", f"bers_{label}")) == 1


@pytest.mark.parametrize("seed", MEMO_SEEDS)
def test_lavar_reads_the_rank_k_level1_batch_and_builds_no_paths(seed, monkeypatch):
    # lavar's bootstrap process is the rank-K fit, whose batch the ols fan
    # member reads too: adding lavar builds nothing and replays nothing; the
    # rank-K build writes lavar's Gram rows at p + 1 when lavar reads it.
    # Every draw builds level one.
    level1, builds, replays = [], [], []
    build_level1, drawer, replay = bootstrap._level1_batch, bootstrap._drawer, bootstrap._replay

    def building_level1(prep, dgp_rank, paths, grams):
        level1.append((dgp_rank, [q for _, q, _ in grams] == [prep.p, prep.p + 1]))
        return build_level1(prep, dgp_rank, paths, grams)

    def drawing(*args, **kwargs):
        builds.append(True)
        return drawer(*args, **kwargs)

    def replaying(prep, boot):
        replays.append(boot.dgp_rank)
        return replay(prep, boot)

    monkeypatch.setattr(bootstrap, "_level1_batch", building_level1)
    monkeypatch.setattr(bootstrap, "_drawer", drawing)
    monkeypatch.setattr(bootstrap, "_replay", replaying)

    def calls(names):
        level1.clear()
        builds.clear()
        replays.clear()
        out = run_methods(_fresh(seed), names)
        assert all(isinstance(result, IntervalSet) for result in out.values()), out
        assert replays == [] and len(builds) == len(level1)
        return list(level1)

    assert calls(("ols", "lavar")) == calls(("lavar",)) == [(3, True)]
    assert calls(("ols",)) == [(3, False)]


@pytest.mark.parametrize("seed", MEMO_SEEDS)
def test_a_rank_k_path_that_turns_non_finite_fails_its_lavar_replication(seed, monkeypatch):
    # The level-1 build zeroes a non-finite path before it is detrended and
    # flags it; lavar's VAR(p+1) sweep of the batch's Gram rows keeps the flag.
    bad, prep = 5, _fresh(seed)
    build, sweep_batch = bootstrap._level1_batch, _batch.sweep_batch
    rebuild = _batch.rebuild_levels_batch
    lavar_sweeps, rank_k = [], []

    def spoiling(sample, dgp_rank, *buffers):
        rank_k.append(dgp_rank == sample.n_vars)
        try:
            return build(sample, dgp_rank, *buffers)
        finally:
            rank_k.pop()

    def rebuilding(mats, errors, n_init):
        out = rebuild(mats, errors, n_init)
        if rank_k and rank_k[-1]:  # the rank-K build's first chunk holds row ``bad``
            out[bad, -1] = np.inf
            rank_k[-1] = False
        return out

    def sweeping(gram, p, t_eff):
        sweep = sweep_batch(gram, p, t_eff)
        if p == prep.p + 1 and len(gram) == prep.cfg.n_boot:  # lavar's bootstrap sweep
            lavar_sweeps.append(sweep)
        return sweep

    assert _alone(seed)["lavar"].n_failed == 0
    monkeypatch.setattr(bootstrap, "_level1_batch", spoiling)
    monkeypatch.setattr(_batch, "rebuild_levels_batch", rebuilding)
    monkeypatch.setattr(_batch, "sweep_batch", sweeping)
    result = bootstrap.lag_augmented_interval(prep)
    assert result.n_failed == 1
    (sweep,) = lavar_sweeps
    assert sweep.reason[bad] & _batch.NONFINITE
    assert not sweep.ok[bad] and np.delete(sweep.ok, bad).all()


def _arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    return [array for item in value for array in _arrays(item)]


def test_memo_arrays_are_read_only():
    prep = _fresh(MEMO_SEEDS[0])
    aic = RankSelector("aic")
    for rank, run in (
        (prep.select_rank(aic), lambda boot: bootstrap.bers_interval(prep, aic, boot=boot)),
        (prep.weights().reference_rank, lambda boot: bootstrap.ma_interval(prep, "fixed", boot=boot)),
    ):
        boot = prep.level1(rank)
        run(boot)
        arrays = _arrays(list(boot.memo.values()))
        assert len(arrays) >= 2
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


@pytest.mark.parametrize("seed", MEMO_SEEDS)
def test_ma_sums_only_the_weightings_its_batch_is_read_for(seed, monkeypatch):
    # ma alone, ma_fixed alone and the two together give the same interval
    # sets, bit for bit, in a run and in direct calls; a run sums only the
    # weightings its methods read, in one pass.
    held = []
    ma_sums = bootstrap._ma_sums

    def summing(prep, boot, name):
        out = ma_sums(prep, boot, name)
        held.append(sorted(key for key in boot.memo if key in (("ma",), ("ma_fixed",))))
        return out

    monkeypatch.setattr(bootstrap, "_ma_sums", summing)
    both = run_methods(_fresh(seed), ("ma", "ma_fixed"))
    # ma sums both weightings, and its own memo goes before ma_fixed runs
    assert held == [[("ma",), ("ma_fixed",)], [("ma_fixed",)]]
    for name in ("ma", "ma_fixed"):
        held.clear()
        alone = run_methods(_fresh(seed), (name,))[name]
        assert held == [[(name,)]]
        assert _same_result(alone, both[name]), name
        assert _same_result(_alone(seed)[name], both[name]), name


def test_a_batch_built_for_the_fan_member_sums_only_the_weighting_read():
    # prep.level1(r) builds a batch whose one reader is the fan member, so
    # ma reading it sums its own weighting alone.
    prep = _fresh(MEMO_SEEDS[0])
    boot = prep.level1(prep.weights().reference_rank)
    result = bootstrap.ma_interval(prep, boot=boot)
    assert list(boot.memo) == [("ma",)]
    assert boot.readers == (None,)
    assert _same_result(result, _alone(MEMO_SEEDS[0])["ma"])


def test_each_memo_is_freed_once_its_last_reader_has_run(monkeypatch):
    # Seed 0's AIC, BIC and reference ranks share one batch.  As each
    # method starts, the memos that are still alive are those a method yet
    # to run reads; the others were freed, not merely dropped from the dict.
    started, refs = [], {}

    def watching(constructor, label):
        def run(prep, *args, boot, **kwargs):
            alive = sorted(key for key, ref in refs.items() if ref() is not None)
            started.append((label(*args, **kwargs), alive))
            result = constructor(prep, *args, boot=boot, **kwargs)
            for key, value in boot.memo.items():
                refs.setdefault(key, weakref.ref(value[0]))
            return result
        return run

    by_selector = lambda prefix: lambda selector, *_: f"{prefix}_{selector.label}"  # noqa: E731
    for name, label in (
        ("bers_interval", by_selector("bers")),
        ("fdbb_interval", by_selector("fdbb")),
        ("ma_interval", lambda mode="endogenous": "ma" if mode == "endogenous" else "ma_fixed"),
    ):
        monkeypatch.setattr(bootstrap, name, watching(getattr(bootstrap, name), label))
    names = ("ma", "bers_aic", "ma_fixed", "fdbb_aic", "bers_bic")
    out = run_methods(_fresh(MEMO_SEEDS[0]), names)
    assert all(isinstance(result, IntervalSet) for result in out.values()), out
    aic = ("bers_aic", "fdbb_aic")
    assert started == [
        ("ma", []),
        ("bers_aic", [("ma_fixed",)]),
        ("ma_fixed", [aic, ("ma_fixed",)]),
        ("fdbb_aic", [aic]),
        ("bers_bic", []),
    ]
    assert all(ref() is None for ref in refs.values())


def test_a_group_runs_lavar_without_a_replay_or_a_chunk_buffer(monkeypatch):
    # A group of 3 runs lavar on the p + 1 sweep its rank-K build wrote: no
    # replay and no chunk buffer but the run's own, and each sample's
    # bootstrap sweep and interval set equal the whole-batch oracle's, bit
    # for bit (tests/reference.py).
    group = [_fresh(seed) for seed in (*MEMO_SEEDS, 5)]
    made, replays, swept = [], [], {}
    chunk_buffer, replay = bootstrap._chunk_buffer, bootstrap._replay
    lavar = bootstrap.lag_augmented_interval

    def making(prep):
        made.append(prep)
        return chunk_buffer(prep)

    def replaying(*args):
        replays.append(args)
        return replay(*args)

    def reading(prep, *, boot):
        swept[id(prep)] = boot.memo[("lavar",)][1]
        return lavar(prep, boot=boot)

    monkeypatch.setattr(bootstrap, "_chunk_buffer", making)
    monkeypatch.setattr(bootstrap, "_replay", replaying)
    monkeypatch.setattr(bootstrap, "lag_augmented_interval", reading)
    out = run_methods(group, ("lavar",))
    assert made == [group[0]] and replays == []
    for prep, results in zip(group, out):
        want, sweep = reference.lavar_whole(prep, reference.level1_whole([prep], prep.n_vars)[0])
        assert isinstance(want, IntervalSet) and _same_result(results["lavar"], want)
        got = swept[id(prep)]
        assert _holds_no_paths(got)
        for name in _SWEEP_FIELDS:
            assert getattr(got, name).tobytes() == getattr(sweep, name).tobytes(), name


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(2, 9),
    p=st.integers(1, 3),
    queries=QUERY_SETS,
    data=st.data(),
)
def test_each_selected_rank_is_fitted_on_its_own_rows(seed, n_batch, p, queries, data):
    # Per-sample ranks fit each distinct rank once, on its rows alone (Sigma
    # too when a query is structural); when every query is structural the
    # reduced-form responses are not handed to the gather.
    tilde = _paths(seed, n_batch)
    sweep = sweep_of(tilde, p)
    cq = _compile_queries(queries, 3)
    ranks = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n_batch, max_size=n_batch)))
    fits, gathers = [], []
    rank_fit, sigma, evaluate = (
        _batch.rank_fit_batch, _batch.sigma_batch, bootstrap._CompiledQueries.evaluate
    )

    def fitting(kernel, kind):
        def fit(part, rank):
            fits.append((kind, rank, len(part.eigenvalues)))
            return kernel(part, rank)
        return fit

    def gathering(self, psi, phi):
        gathers.append((psi is None, phi is None))
        return evaluate(self, psi, phi)

    with mock.patch.object(_batch, "rank_fit_batch", fitting(rank_fit, "fit")), \
            mock.patch.object(_batch, "sigma_batch", fitting(sigma, "sigma")), \
            mock.patch.object(bootstrap._CompiledQueries, "evaluate", gathering):
        _zeta_at_rank(sweep, ranks, cq)
    kinds = ("fit", "sigma") if cq.need_structural else ("fit",)
    distinct, counts = np.unique(ranks, return_counts=True)
    if len(distinct) == 1:
        counts = [n_batch]
    assert sorted(fits) == sorted(
        (kind, int(rank), int(count)) for kind in kinds for rank, count in zip(distinct, counts)
    )
    assert gathers == [(not cq.need_reduced, not cq.need_structural)]


# ---------------------------------------------------------------------------
# one chunk buffer, recycled across the level-1 batches of a run

_SWEEP_FIELDS = ("eigenvalues", "vectors", "S00", "S01", "P20", "P21", "ln_det_s00", "reason")


def _holds_no_paths(sweep) -> bool:
    """No field of ``sweep`` has a path's length: it holds moments only."""
    arrays = [value for value in vars(sweep).values() if isinstance(value, np.ndarray)]
    return "tilde" not in vars(sweep) and all(
        value.ndim < 2 or value.shape[1] < sweep.t_eff for value in arrays
    )


@functools.lru_cache(maxsize=None)
def _fresh_level1(seed, rank):
    """The bytes of each swept field of the level-1 batch at ``rank`` of a
    fresh sample, built in a fresh chunk buffer."""
    sweep = _fresh(seed).level1(rank).sweep
    return {name: getattr(sweep, name).tobytes() for name in _SWEEP_FIELDS}


@functools.lru_cache(maxsize=None)
def _fresh_fan(seed, rank):
    return _attempt(_fresh(seed).fan, rank)


# A step is a fixed-rank interval ("fan", r), a level-1 batch ("level1", r)
# or an analyze method by name.
_STEPS = st.one_of(
    st.tuples(st.sampled_from(("fan", "level1")), st.integers(0, 3)),
    st.sampled_from(cli._ANALYZE_EXTRAS),
)


@settings(max_examples=25, deadline=None)
@given(seed=st.sampled_from(MEMO_SEEDS), steps=st.lists(_STEPS, min_size=2, max_size=8))
def test_recycled_path_buffer_gives_fresh_sample_results_in_any_order(seed, steps):
    # Every step reads a batch built in the same chunk buffer as the steps
    # before it, and equals the same step on a fresh sample, bit for bit.
    # No batch keeps its paths.
    prep = _fresh(seed)
    chunk = bootstrap._chunk_buffer(prep)

    def batch(rank, reader=None):
        return bootstrap._level1_batches([prep], rank, chunk, [(reader,)])[0]

    for step in steps:
        if step in cli._ANALYZE_EXTRAS:
            rank = METHODS[step].rank(prep)
            boot = None if rank is None else batch(rank, step)
            assert _same_result(_attempt(METHODS[step].run, prep, boot), _alone(seed)[step]), step
            continue
        kind, rank = step
        if kind == "fan":
            got = _attempt(bootstrap.fixed_rank_interval, prep, rank, boot=batch(rank))
            assert _same_result(got, _fresh_fan(seed, rank)), step
            continue
        sweep = batch(rank).sweep
        assert _holds_no_paths(sweep)
        got = {name: getattr(sweep, name).tobytes() for name in _SWEEP_FIELDS}
        assert got == _fresh_level1(seed, rank), step


def test_successive_level1_batches_are_built_in_one_path_buffer(monkeypatch):
    # One run_methods call builds every rank's batches through one chunk
    # buffer, and FDBB level two replays its batch through a chunk buffer of
    # its own and draws over it; lavar reads the Gram rows the rank-K build
    # wrote.  With chunks of 64, no buffer has n_boot rows, and no sweep
    # holds paths.  Each batch is gone before the next rank's are built, and
    # every buffer is gone when the run returns.
    monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 0)
    prep = _fresh(MEMO_SEEDS[0], n_boot=199)
    built, ranks, made, batches, sweeps = [], [], [], [], []
    build, build_all = bootstrap._level1_batch, bootstrap._level1_batches
    chunk_buffer, sweep_grams = bootstrap._chunk_buffer, bootstrap._sweep_grams
    chunk_shape = (bootstrap._chunk_rows(prep), prep.n_obs, prep.n_vars)

    def making(sample):
        buffer = chunk_buffer(sample)
        assert buffer.shape == chunk_shape and len(buffer) < prep.cfg.n_boot
        made.append(weakref.ref(buffer))
        return buffer

    def building(sample, dgp_rank, paths, grams):
        built.append(paths.ctypes.data)
        return build(sample, dgp_rank, paths, grams)

    def building_all(preps, dgp_rank, paths, readers):
        assert all(ref() is None for ref in batches)  # the last rank's batches are freed
        ranks.append(dgp_rank)
        out = build_all(preps, dgp_rank, paths, readers)
        batches.extend(weakref.ref(boot) for boot in out)
        return out

    def sweeping(*args):
        sweep = sweep_grams(*args)
        sweeps.append(sweep)
        return sweep

    monkeypatch.setattr(bootstrap, "_chunk_buffer", making)
    monkeypatch.setattr(bootstrap, "_level1_batch", building)
    monkeypatch.setattr(bootstrap, "_level1_batches", building_all)
    monkeypatch.setattr(bootstrap, "_sweep_grams", sweeping)
    out = run_methods(prep, cli._ANALYZE_EXTRAS)
    assert all(isinstance(result, IntervalSet) for result in out.values()), out
    assert ranks == list(range(4)) and len(built) == 4 and len(set(built)) == 1
    # the run's chunk buffer, then one per FDBB, which level two shares
    assert len(made) == 1 + 2
    # four level-1 sweeps, two level-two sweeps and lavar's, at rank K
    assert len(sweeps) == 4 + 2 + 1 and all(_holds_no_paths(sweep) for sweep in sweeps)
    del sweeps[:]
    gc.collect()
    assert all(ref() is None for ref in batches + made)


@pytest.mark.parametrize("seed", MEMO_SEEDS)
def test_level_two_and_lavar_leave_the_held_paths_unchanged(seed, monkeypatch):
    # In a run of a group, FDBB level two and the lag-augmented bootstrap
    # replay the chunks of a level-1 batch that keeps no paths, and each
    # gives the bytes it gives alone.
    seeds = (seed, *(other for other in MEMO_SEEDS if other != seed))
    group = [_fresh(each) for each in seeds]
    checked = []

    def checking(constructor):
        def run(prep, *args, boot, **kwargs):
            assert _holds_no_paths(boot.sweep)
            result = constructor(prep, *args, boot=boot, **kwargs)
            checked.append(constructor.__name__)
            return result
        return run

    for name in ("fdbb_interval", "lag_augmented_interval"):
        monkeypatch.setattr(bootstrap, name, checking(getattr(bootstrap, name)))
    names = ("lavar", "fdbb_aic", "fdbb_bic")
    for each, results in zip(seeds, run_methods(group, names)):
        for name in names:
            assert _same_result(results[name], _alone(each)[name]), (each, name)
    assert sorted(set(checked)) == ["fdbb_interval", "lag_augmented_interval"]
    assert len(checked) == 3 * len(group)


def test_a_run_without_level_two_makes_no_scratch_buffer(monkeypatch):
    # Every buffer a run makes is a chunk buffer: the run's own and one for
    # each FDBB, whose level two is drawn over its replayed level one; lavar
    # reads the group's rank-K build and makes none.  A run makes its chunk
    # buffer only when it builds a batch.
    made = []
    chunk_buffer = bootstrap._chunk_buffer

    def making(prep):
        made.append(prep.cfg.seed)
        return chunk_buffer(prep)

    monkeypatch.setattr(bootstrap, "_chunk_buffer", making)
    group = [_fresh(seed) for seed in MEMO_SEEDS]
    out = run_methods(group, ("wimp", "lavar", "ma"))
    assert all(isinstance(result, IntervalSet) for results in out for result in results.values())
    assert made == [MEMO_SEEDS[0]]  # the group's buffer alone
    made.clear()
    run_methods(_fresh(MEMO_SEEDS[0]), ("fdbb_aic", "fdbb_bic"))
    assert len(made) == 1 + 2
    made.clear()
    points = group[0].point_zetas(0)
    bootstrap.register_method("a test", lambda prep: (points, points))
    try:
        assert run_methods(group[0], ("a test",))["a test"] == (points, points)
    finally:
        bootstrap._EXTRA_METHODS.pop("a test")
    assert made == []


def test_a_failed_fan_member_keeps_no_batch_or_buffer_alive(monkeypatch):
    # A failure is kept, in the fan and in the results, without the
    # traceback whose frames hold the run's locals: its batches and buffers.
    prep, buffers = _fresh(MEMO_SEEDS[0]), []
    build_all, fixed = bootstrap._level1_batches, bootstrap.fixed_rank_interval

    def building_all(preps, dgp_rank, paths, readers):
        buffers.append(weakref.ref(paths))
        return build_all(preps, dgp_rank, paths, readers)

    def failing(sample, rank, *, boot=None):
        if rank == 1:
            raise EstimationError("a forced failure")
        return fixed(sample, rank, boot=boot)

    monkeypatch.setattr(bootstrap, "_level1_batches", building_all)
    monkeypatch.setattr(bootstrap, "fixed_rank_interval", failing)
    out = run_methods(prep, ["wimp", "ols"])
    assert isinstance(out["wimp"], EstimationError) and isinstance(out["ols"], IntervalSet)
    assert out["wimp"] is prep._fan[1] and out["wimp"].__traceback__ is None
    gc.collect()
    assert buffers and all(ref() is None for ref in buffers)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_batch=st.integers(2, 140), mode=MODES, data=st.data())
def test_detrending_in_place_equals_each_sample_alone(seed, n_batch, mode, data):
    # The fit is formed _CHUNK samples at a time; across chunk edges each
    # sample is still detrended exactly as on its own.
    ys = _paths(seed, n_batch, n_obs=40)
    tilde = ys.copy()
    coef = _batch.detrend_batch(tilde, mode)
    index = data.draw(st.integers(0, n_batch - 1))
    alone = ys[index : index + 1].copy()
    assert np.array_equal(_batch.detrend_batch(alone, mode), coef[index : index + 1])
    assert np.array_equal(alone[0], tilde[index])


# ---------------------------------------------------------------------------
# streamed level-1 builds against the whole-batch build


def _long(seed):
    """A sample of analyze_long's shape (T=800, K=3, p=4, B=399), long enough
    that one (n_boot, T, K) path buffer outweighs what a streamed build
    holds at once."""
    cfg = BootstrapConfig(n_boot=399, seed=seed)
    return _prepare(_paths(seed, 1, n_obs=800)[0], 4, [IrfQuery(1, 2, 1)], cfg,
                    DetrendMode.CONSTANT)


@contextlib.contextmanager
def _spoilt_builds(rows, detrended):
    """Rows ``rows`` of the build order (replication r of the i-th sample built
    is row i n_boot + r) get an infinite last row right after their rebuild;
    ``detrended`` collects, per detrending call, whether all its paths were
    finite."""
    rebuild, detrend, seen = _batch.rebuild_levels_batch, _batch.detrend_batch, [0]

    def rebuilding(mats, errors, n_init):
        out = rebuild(mats, errors, n_init)
        for row in rows:
            if seen[0] <= row < seen[0] + len(out):
                out[row - seen[0], -1] = np.inf
        seen[0] += len(out)
        return out

    def detrending(y, mode):
        detrended.append(bool(np.isfinite(y).all()))
        return detrend(y, mode)

    with mock.patch.object(_batch, "rebuild_levels_batch", rebuilding), \
            mock.patch.object(_batch, "detrend_batch", detrending):
        yield


@pytest.mark.parametrize("n_boot", [39, 63, 64, 65, 128, 199])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_vars=st.integers(1, 4),
    p=st.integers(1, 4),
    rank=st.integers(0, 4),
    mode=MODES,
    paper=st.booleans(),
    size=st.sampled_from([1, 3]),
    spoil=st.booleans(),
    chunk_bytes=st.sampled_from([0, bootstrap._CHUNK_BYTES]),
)
def test_chunked_level1_builds_equal_the_whole_batch_build(
    n_boot, seed, n_vars, p, rank, mode, paper, size, spoil, chunk_bytes
):
    # A group's level-1 batches built a chunk at a time, 64 replications
    # (a zero budget) or as many as the budget allows (here all of them),
    # streamed through one chunk buffer, sweep bitwise as the whole-batch
    # build does: every replication drawn in passes, rebuilt through a
    # zero-padded window, then the stack zeroed where non-finite, detrended
    # and swept.  A spoilt path in the first chunk and one in the last
    # sample's tail chunk are zeroed before any detrending and flagged.
    rank = min(rank, n_vars)
    cfg = BootstrapConfig(n_boot=n_boot, seed=seed, paper_sample_convention=paper)
    samples = _paths(seed, size, n_obs=40, n_vars=n_vars)
    group = [
        _prepare(sample, p, [IrfQuery(1, n_vars, 1)], dataclasses.replace(cfg, seed=seed + i), mode)
        for i, sample in enumerate(samples)
    ]
    rows = (5, size * n_boot - 1) if spoil else ()
    detrended = []
    with np.errstate(all="ignore"), mock.patch.object(bootstrap, "_CHUNK_BYTES", chunk_bytes):
        chunk = bootstrap._chunk_rows(group[0])
        assert chunk == (min(n_boot, _batch._CHUNK) if chunk_bytes == 0 else n_boot)
        expected = reference.level1_whole(group, rank, spoil=rows)
        with _spoilt_builds(rows, detrended):
            boots = bootstrap._level1_batches(
                group, rank, bootstrap._chunk_buffer(group[0]), [(None,)] * size
            )
    assert len(detrended) == size * -(-n_boot // chunk) and all(detrended)
    for i, (boot, (_, want)) in enumerate(zip(boots, expected)):
        assert boot.dgp_rank == rank and (boot.sweep.p, boot.sweep.t_eff) == (want.p, want.t_eff)
        assert _holds_no_paths(boot.sweep)
        for name in _SWEEP_FIELDS:
            assert getattr(boot.sweep, name).tobytes() == getattr(want, name).tobytes(), (i, name)
    for row in rows:
        assert boots[row // n_boot].sweep.reason[row % n_boot] & _batch.NONFINITE


@contextlib.contextmanager
def _spoilt_ends(n_boot):
    """Right after its rebuild, before its paths are checked and detrended,
    every level-1 build or replay gets an infinite last row in row 5 of its
    first chunk, and every FDBB level two in the last row of its last
    chunk."""
    rebuild, level1_chunks, level_two = (
        _batch.rebuild_levels_batch, bootstrap._level1_chunks, bootstrap._level_two
    )
    state = {"first": False, "seen": 0}

    def chunks(*args):
        state["first"] = True
        yield from level1_chunks(*args)

    def second(*args):
        state["seen"] = 0
        yield from level_two(*args)

    def rebuilding(mats, errors, n_init):
        out = rebuild(mats, errors, n_init)
        if mats.ndim == 3 and state["first"]:  # level one: the DGP's shared matrices
            out[5, -1] = np.inf
            state["first"] = False
        elif mats.ndim == 4:  # level two: each replication's own fit
            state["seen"] += len(out)
            if state["seen"] == n_boot:
                out[-1, -1] = np.inf
        return out

    with mock.patch.object(bootstrap, "_level1_chunks", chunks), \
            mock.patch.object(bootstrap, "_level_two", second), \
            mock.patch.object(_batch, "rebuild_levels_batch", rebuilding):
        yield


@pytest.mark.parametrize("n_boot", [39, 63, 64, 65, 128, 199])
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_vars=st.integers(1, 4),
    p=st.integers(1, 4),
    mode=MODES,
    paper=st.booleans(),
    size=st.sampled_from([1, 3]),
    spoil=st.booleans(),
    chunk_bytes=st.sampled_from([0, bootstrap._CHUNK_BYTES]),
)
def test_replayed_level_two_and_lavar_equal_their_whole_batch_oracles(
    n_boot, seed, n_vars, p, mode, paper, size, spoil, chunk_bytes
):
    # In a run of a group, FDBB level two replays, a chunk at a time, the
    # level-1 batch it reads, and lavar reads the p + 1 sweep that the
    # group's rank-K build wrote; their interval sets and their bootstrap
    # sweeps equal, bit for bit, the oracles that read the batch's kept
    # paths and build everything whole (tests/reference.py).  A path spoilt
    # in level one's first chunk (build and replay alike) and one in level
    # two's last chunk are flagged and fail their replications.
    base = BootstrapConfig(
        n_boot=n_boot, seed=seed, paper_sample_convention=paper, max_failure_share=0.5
    )
    queries = [IrfQuery(1, n_vars, 1), IrfQuery(n_vars, 1, 3)]
    try:
        group = [
            _prepare(sample, p, queries, dataclasses.replace(base, seed=seed + i), mode)
            for i, sample in enumerate(_paths(seed, size, n_obs=40, n_vars=n_vars))
        ]
    except EstimationError:
        hypothesis.assume(False)
    names = ("fdbb_aic", "fdbb_bic", "lavar")
    current, swept = [], {}
    sweep_grams = bootstrap._sweep_grams

    def tagged(constructor):
        def run(prep, *args, boot, **kwargs):
            name = f"fdbb_{args[0].label}" if args else "lavar"
            if name == "lavar":  # its sweep at p + 1, which the group's build made
                swept[(id(prep), name)] = boot.memo[("lavar",)][1]
            current.append((id(prep), name))
            try:
                return constructor(prep, *args, boot=boot, **kwargs)
            finally:
                current.pop()
        return run

    def sweeping(*args):
        sweep = sweep_grams(*args)
        if current:  # FDBB's own sweep, of level two
            swept[current[-1]] = sweep
        return sweep

    spoilt = _spoilt_ends(n_boot) if spoil else contextlib.nullcontext()
    with np.errstate(all="ignore"), spoilt, \
            mock.patch.object(bootstrap, "_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(bootstrap, "_sweep_grams", sweeping), \
            mock.patch.object(bootstrap, "fdbb_interval", tagged(bootstrap.fdbb_interval)), \
            mock.patch.object(bootstrap, "lag_augmented_interval",
                              tagged(bootstrap.lag_augmented_interval)):
        out = run_methods(group, names)
    level1_rows, level2_rows = ((5,), (n_boot - 1,)) if spoil else ((), ())
    with np.errstate(all="ignore"):
        for prep, results in zip(group, out):
            for name in names:
                if name == "lavar":
                    level1 = reference.level1_whole([prep], n_vars, spoil=level1_rows)[0]
                    want, sweep = reference.lavar_whole(prep, level1)
                else:
                    selector = RankSelector(name[len("fdbb_"):])
                    rank = prep.select_rank(selector)
                    level1 = reference.level1_whole([prep], rank, spoil=level1_rows)[0]
                    want, sweep = reference.fdbb_whole(prep, selector, level1, level2_rows)
                if want is None:  # lavar refuses the observed sample
                    assert isinstance(results[name], DataError | EstimationError), name
                    continue
                assert _same_result(results[name], want), name
                got = swept[(id(prep), name)]
                assert _holds_no_paths(got)
                for field in _SWEEP_FIELDS:
                    assert getattr(got, field).tobytes() == getattr(sweep, field).tobytes(), field
                if spoil:
                    # lavar sweeps level one's spoilt path; FDBB's level-two
                    # sweep flags its own, and its level-one one fails too
                    flagged = level1_rows if name == "lavar" else level2_rows
                    assert all(got.reason[row] & _batch.NONFINITE for row in flagged), name
                    assert level1[1].reason[level1_rows[0]] & _batch.NONFINITE
                    failed = level1_rows + (() if name == "lavar" else level2_rows)
                    if isinstance(results[name], IntervalSet):
                        assert results[name].n_failed >= len(failed), name


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vars=st.integers(1, 5),
    p=st.integers(1, 4),
    n_batch=st.sampled_from([1, 2, 63, 64, 65, 128, 199]),
    length=st.sampled_from([2, 9, 37, 200]),
    extra_init=st.booleans(),
)
def test_rebuild_through_the_buffer_equals_the_window_rebuild(
    seed, n_vars, p, n_batch, length, extra_init
):
    # Whole chunks are multiplied in place, as strided views of the path
    # buffer, and the tail through a zero-padded window; every path's bytes
    # equal the rebuild that copies every chunk into the window.
    rng = np.random.default_rng(seed)
    n_obs = length if length > 30 else p + length
    mats = rng.standard_normal((p, n_vars, n_vars)) * (0.4 / (n_vars * p))
    mats[0] += 0.5 * np.eye(n_vars)
    errors = rng.standard_normal((n_batch, n_obs, n_vars))
    n_init = p + 1 if extra_init else p
    got = _batch.rebuild_levels_batch(mats, errors.copy(), n_init)
    assert got.tobytes() == reference.rebuild_levels_window(mats, errors.copy(), n_init).tobytes()


def _u32_used(stream) -> int:
    """32-bit words a Philox stream has handed out."""
    state = stream.bit_generator.state
    words = int(state["state"]["counter"][0]) * 4 - (4 - state["buffer_pos"])
    return 2 * words - state["has_uint32"]


@pytest.mark.parametrize("pool_size", [1024, 3_000_000])
def test_draws_in_chunks_equal_the_draws_in_passes(pool_size):
    # A build draws _CHUNK replications per call; the whole-batch oracle
    # draws _PASS_INDICES // n_draw.  Both continue one stream, also where
    # numpy's bounded draw rejects words: none at a power of two, and a
    # hundred or so over 399 x 795 draws from a pool of 3e6 rows.
    n_rows, n_draw = 399, 795
    step = reference._PASS_INDICES // n_draw
    passes, chunks = bootstrap._stream(9, 1, 3), bootstrap._stream(9, 1, 3)
    by_pass = np.concatenate([
        bootstrap._draw_index_matrix(passes, min(step, n_rows - lo), pool_size, n_draw)
        for lo in range(0, n_rows, step)
    ])
    by_chunk = np.concatenate([
        bootstrap._draw_index_matrix(chunks, min(_batch._CHUNK, n_rows - lo), pool_size, n_draw)
        for lo in range(0, n_rows, _batch._CHUNK)
    ])
    assert np.array_equal(by_chunk, by_pass)
    rejected = _u32_used(chunks) - n_rows * n_draw
    assert rejected == _u32_used(passes) - n_rows * n_draw
    assert rejected > 50 if pool_size == 3_000_000 else rejected == 0


@settings(max_examples=30, deadline=None)
@given(
    n_boot=st.sampled_from([39, 63, 64, 65, 128, 199]),
    n_draw=st.integers(1, 120),
    pool_size=st.integers(1, 400),
    own_pools=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_chunked_gathers_equal_the_gathers_in_passes(n_boot, n_draw, pool_size, own_pools, seed):
    # The drawer fills _CHUNK replications per call, from one shared pool or
    # from the call's own pools, one per replication (FDBB level two passes
    # each chunk's), with the paths the whole-batch passes gather.
    rng = np.random.default_rng(seed)
    resid = rng.standard_normal((n_boot if own_pools else 1, pool_size, 2))
    init = rng.standard_normal((3, 2))
    cfg = BootstrapConfig(n_boot=n_boot, seed=seed)
    expected = np.empty((n_boot, 3 + n_draw, 2))
    reference.draw_errors_in_passes(resid, cfg, 1, 2, init, expected)
    got = np.full_like(expected, np.nan)
    draw = bootstrap._drawer(cfg, 1, 2, init)
    for lo in range(0, n_boot, _batch._CHUNK):
        rows = slice(lo, lo + _batch._CHUNK)
        draw(got[rows], resid[rows] if own_pools else resid)
    assert got.tobytes() == expected.tobytes()


def test_only_runs_that_read_paths_make_a_path_buffer():
    # No run holds an (n_boot, T, K) buffer, whichever methods it runs: at
    # analyze_long's shape, a group of two adding lavar, FDBB or every extra
    # method to WIMP raises the traced peak by less than one such buffer,
    # where keeping one level-1 batch's paths would take one per sample.
    group = [_long(seed) for seed in (1, 2)]
    size = group[0].cfg.n_boot * group[0].n_obs * group[0].n_vars * 8

    def peak(names):
        for prep in group:
            prep._fan.clear()  # each run computes its fan anew
        gc.collect()
        tracemalloc.start()
        try:
            out = run_methods(group, names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(isinstance(one, IntervalSet) for results in out for one in results.values())
        return peak

    wimp = peak(["wimp"])
    assert wimp < size
    for extra in (["lavar"], ["fdbb_aic"], list(cli._ANALYZE_EXTRAS)):
        assert peak(["wimp", *extra]) - wimp < size, extra


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


# ---------------------------------------------------------------------------
# adversarial inputs through the command line


def _walk(rng, n_obs):
    return np.cumsum(rng.standard_normal((n_obs, 3)), axis=0)


def _autoregression(rho):
    def make(rng, n_obs):
        y = rng.standard_normal((n_obs, 3))
        for t in range(1, n_obs):
            y[t] += rho(rng) * y[t - 1]
        return y
    return make


def _with_column(column, value):
    def make(rng, n_obs):
        y = _walk(rng, n_obs)
        y[:, column] = value(y)
        return y
    return make


_FAMILIES = {
    "random_walk": _walk,
    "stationary": _autoregression(lambda rng: 0.5),
    "heavy_tailed": lambda rng, n_obs: np.cumsum(rng.standard_t(2.0, (n_obs, 3)), axis=0),
    "explosive": _autoregression(lambda rng: rng.uniform(1.02, 1.3)),
    "scale_1e150": lambda rng, n_obs: _walk(rng, n_obs) * 10.0 ** rng.choice([-150, 150], 3),
    "collinear": _with_column(2, lambda y: 2.0 * y[:, 0] - 0.5 * y[:, 1]),
    "duplicated": _with_column(2, lambda y: y[:, 0]),
    "constant": _with_column(1, lambda y: 3.0),
    "times_1e-300": lambda rng, n_obs: _walk(rng, n_obs) * 1e-300,
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_obs=st.integers(30, 80),
    p=st.integers(1, 2),
    mode=MODES,
)
def test_analyze_exits_with_a_typed_code_on_adversarial_data(
    tmp_path_factory, family, seed, n_obs, p, mode
):
    # Any data ends in a bundle (exit 0), a data error (3) or an estimation
    # failure (4), never a bare exception; a bundle's bounds are finite and
    # ordered, and WIMP lies inside the hull of the fan.
    base = tmp_path_factory.mktemp("adversarial")
    y = _FAMILIES[family](np.random.default_rng(seed), n_obs)
    data = str(base / "input.csv")
    cli.emit_csv_matrix(data, TimeSeriesData(y, ("y1", "y2", "y3")))
    for kind in ("reduced_form", "structural_cholesky"):
        out = str(base / kind)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([
                "analyze", "--input", data, "--out", out, "--B", "39", "--p", str(p),
                "--detrend", mode.value, "--kind", kind, "--h-max", "4", "--seed", str(seed),
                "--methods", ",".join(cli._ANALYZE_EXTRAS),
            ])
        assert code in (0, 3, 4), (family, kind, code)
        if code:
            continue
        with open(os.path.join(out, "intervals.csv"), newline="") as handle:
            rows = list(csv.DictReader(handle))
        lower = np.array([float(row["lower"]) for row in rows])
        upper = np.array([float(row["upper"]) for row in rows])
        assert np.isfinite(lower).all() and np.isfinite(upper).all() and (lower <= upper).all()
        fan, wimp = {}, {}
        for row, lo, hi in zip(rows, lower, upper):
            cell = (row["response"], row["shock"], row["horizon"])
            if row["method"] == "fixed_rank":
                fan.setdefault(cell, []).append((lo, hi))
            elif row["method"] == "wimp":
                wimp[cell] = (lo, hi)
        assert wimp.keys() == fan.keys()
        for cell, (lo, hi) in wimp.items():
            assert min(b[0] for b in fan[cell]) <= lo and hi <= max(b[1] for b in fan[cell]), cell
