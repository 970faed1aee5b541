import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from reference import evaluate_zeta, irf_structural, levels_ols, rebuild_levels
from wimpvar import (
    BootstrapConfig,
    ConfigError,
    DataError,
    EstimationError,
    ExperimentConfig,
    IntervalSet,
    IrfQuery,
    RankSelector,
    VarLevels,
    bers_interval,
    cholesky_factor,
    fdbb_interval,
    fit_vecm,
    fixed_rank_interval,
    hall_quantile,
    irf_reduced,
    lag_augmented_interval,
    ma_interval,
    make_dgp,
    plausibility_weights,
    prepare,
    simulate_path,
    trace_statistics,
    vecm_to_var,
    wimp_interval,
)
from wimpvar import _batch, bootstrap
from wimpvar.bootstrap import _census, _compile_queries, _dgp, _finalize
from wimpvar.errors import check_integer, check_weight_constants
from wimpvar.timeseries import DetrendMode


def _sim(seed, variant="dgp2", T=150):
    return simulate_path(make_dgp(variant, T), np.random.default_rng(seed))


def _queries(h=8):
    return tuple(
        IrfQuery(a=a, b=b, horizon=j)
        for a in (1, 2)
        for b in (1, 2)
        for j in range(1, h + 1)
    )


# --- Hall quantile machinery ----------------------------------------------------


def test_hall_quantile_constant_stats():
    stats = np.full(57, 3.25)
    for g in (0.01, 0.25, 0.5, 0.9):
        assert hall_quantile(stats, g) == 3.25


def test_hall_quantile_b399_index_ten():
    rng = np.random.default_rng(70)
    stats = rng.standard_normal(399)
    assert hall_quantile(stats, 0.025) == np.sort(stats)[9]
    assert hall_quantile(stats, 0.975) == np.sort(stats)[389]


def test_hall_quantile_hand_count():
    stats = np.arange(1.0, 101.0)
    assert hall_quantile(stats, 0.5) == 51.0


def test_hall_quantile_matches_ceiling_oracle():
    rng = np.random.default_rng(71)
    for _ in range(100):
        n = int(rng.integers(5, 300))
        stats = rng.standard_normal(n)
        g = float(rng.uniform(0.005, 0.995))
        idx = min(max(int(np.ceil((n + 1) * g)), 1), n)
        assert hall_quantile(stats, g) == np.sort(stats)[idx - 1]


def test_hall_quantile_rejects_empty_and_nan():
    with pytest.raises(ValueError):
        hall_quantile(np.array([]), 0.5)
    with pytest.raises(ValueError):
        hall_quantile(np.array([1.0, np.nan]), 0.5)


def test_hall_quantile_leaves_the_callers_array_alone():
    # The batch quantile sorts its input in place; the public one sorts a copy.
    rng = np.random.default_rng(72)
    stats = rng.standard_normal((15, 20))  # 2-D, so the flattened stats are a view
    before = stats.copy()
    assert hall_quantile(stats, 0.3) == np.sort(before.ravel())[90]
    assert np.array_equal(stats, before)
    frozen = rng.standard_normal(50)
    frozen.flags.writeable = False
    before = frozen.copy()
    assert hall_quantile(frozen, 0.3) == np.sort(before)[15]
    assert np.array_equal(frozen, before)


def _finisher_prep(cfg, n_queries):
    """The two fields of a prepared sample that ``_finalize`` reads."""
    queries = [IrfQuery(a=1, b=1, horizon=h) for h in range(n_queries)]
    return SimpleNamespace(cfg=cfg, cq=_compile_queries(queries, 1))


@pytest.mark.parametrize("failure", ["flag", "nan"])
def test_finalize_bounds_without_a_failed_row_equal_the_clean_batch(failure):
    # A clean batch takes no mask copy; masking one failed row out of an
    # otherwise clean batch must give the same bounds, bit for bit.
    rng = np.random.default_rng(73)
    clean = np.asfortranarray(rng.standard_normal((99, 6)))  # the gathers' layout
    points = rng.standard_normal(6)
    prep = _finisher_prep(BootstrapConfig(n_boot=100, max_failure_share=0.05), 6)
    kept = clean.copy()
    result = _finalize(prep, "a test", None, clean, np.ones(99, bool), points, "a test")
    assert result.n_failed == 0
    assert np.array_equal(clean, kept)
    row = np.full(6, np.nan) if failure == "nan" else rng.standard_normal(6)
    dirty = np.asfortranarray(np.insert(clean, 40, row, axis=0))
    ok = np.ones(100, bool)
    ok[40] = failure == "nan"
    result2 = _finalize(prep, "a test", None, dirty, ok, points, "a test")
    assert result2.n_failed == 1
    assert result2.lower.tobytes() == result.lower.tobytes()
    assert result2.upper.tobytes() == result.upper.tobytes()


# --- resampling -------------------------------------------------------------------


def _draws(resid, cfg, n_draw, init=None):
    """The innovations a build's drawer gathers into its chunks, 64 rows at
    a time, behind the initial rows ``init`` (one zero row by default),
    (n_boot, n_draw, K); with one pool per replication, each chunk passes
    its own."""
    init = np.zeros((1, resid.shape[-1])) if init is None else init
    paths = np.full((cfg.n_boot, len(init) + n_draw, resid.shape[-1]), np.nan)
    draw = bootstrap._drawer(cfg, 1, 0, init)
    for lo in range(0, cfg.n_boot, _batch._CHUNK):
        rows = slice(lo, lo + _batch._CHUNK)
        draw(paths[rows], resid[rows] if len(resid) > 1 else resid)
    assert np.array_equal(paths[:, : len(init)], np.broadcast_to(init, paths[:, : len(init)].shape))
    return paths[:, len(init) :]


def test_resample_single_row_gives_zero_rows():
    resid = np.array([[[2.0, -1.0]]])
    out = _draws(resid, BootstrapConfig(n_boot=39), 5, init=np.ones((3, 2)))
    assert np.array_equal(out, np.zeros((39, 5, 2)))


def test_resample_mean_law_of_large_numbers():
    rng = np.random.default_rng(72)
    resid = rng.standard_normal((50, 2)) + 3.0
    draws = _draws(resid[None], BootstrapConfig(n_boot=1000, seed=1), 100)
    draws = draws.reshape(-1, 2)  # 100,000 rows
    centered = resid - resid.mean(axis=0)
    se = centered.std(axis=0) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0)) < 4 * se)


@pytest.mark.bitwise
@pytest.mark.parametrize("n_pools", [1, 200])
def test_draw_gathers_the_builds_stream_across_passes(n_pools):
    # 200 replications of 795 draws take four chunks, the last of 8 rows;
    # row r gathers the r-th run of 795 indices of the build's stream from
    # its pool, shared or its own.
    resid = np.random.default_rng(70).standard_normal((n_pools, 40, 2))
    cfg = BootstrapConfig(n_boot=200, seed=4)
    centered = resid - resid.mean(axis=1, keepdims=True)
    stream = np.random.Generator(np.random.Philox(key=(4 << 64) | (1 << 48)))
    idx = stream.integers(0, 40, size=200 * 795).reshape(200, 795)
    expected = centered[np.arange(200) % n_pools][np.arange(200)[:, None], idx]
    init = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(_draws(resid, cfg, 795, init=init), expected)


def test_resample_deterministic_given_seed():
    resid = np.random.default_rng(73).standard_normal((1, 30, 3))
    a = _draws(resid, BootstrapConfig(n_boot=39, seed=99), 40)
    b = _draws(resid, BootstrapConfig(n_boot=39, seed=99), 40)
    assert np.array_equal(a, b)
    c = _draws(resid, BootstrapConfig(n_boot=39, seed=98), 40)
    assert not np.array_equal(a, c)


# --- sample rebuilding --------------------------------------------------------------


def _rebuild_one(fit, errors, init):
    """One path of the bootstrap recursion under a fit's Pi and Gammas."""
    gammas = np.reshape(fit.Gammas, (1, fit.p - 1, fit.n_vars, fit.n_vars))
    mats = _batch.var_matrices_batch(fit.Pi[None], gammas)[0]
    return rebuild_levels(mats, errors[None], init)[0]


def test_rebuild_zero_dynamics_constant_path():
    init = np.array([[1.0, 2.0], [3.0, 4.0]])
    mats = _batch.var_matrices_batch(np.zeros((1, 2, 2)), np.empty((1, 0, 2, 2)))[0]
    out = rebuild_levels(mats, np.zeros((1, 6, 2)), init)[0]
    assert out.shape == (8, 2)
    assert np.array_equal(out[:2], init)
    assert np.all(out[2:] == init[1])


def test_rebuild_regenerates_detrended_path():
    y = _sim(74, "dgp1", T=120)
    fit = fit_vecm(y, 2, 1, mode=DetrendMode.CONSTANT)
    from wimpvar import detrend

    tilde = detrend(y, DetrendMode.CONSTANT).tilde_values
    # residual rows cover times p+1..T; the recursion consumes rows p+2..T
    out = _rebuild_one(fit, fit.residuals[1:], tilde[: fit.p + 1])
    assert np.allclose(out, tilde, atol=1e-8)


def test_rebuild_matches_independent_scalar_loop():
    y = _sim(75, "dgp1", T=100)
    fit = fit_vecm(y, 1, 2)
    errors = np.random.default_rng(7).standard_normal((98, 3))
    out = _rebuild_one(fit, errors, y[:2])
    path = np.zeros((100, 3))
    path[:2] = y[:2]
    for t in range(2, 100):
        path[t] = path[t - 1] + fit.Pi @ path[t - 1] + errors[t - 2]
    assert np.allclose(out, path, atol=1e-10)


def _resweep(paths, prep):
    """The sweep of rebuilt ``paths`` at the sample's p, as a streamed build
    makes it: each non-finite path zeroed and flagged, the paths detrended
    in place, then swept from their Gram matrices."""
    p, t_eff = prep.p, prep.sweep.t_eff
    gram = bootstrap._gram_stack(len(paths), prep.n_vars, p)
    chunks = [(0, paths, bootstrap._detrend_finite(paths, prep.mode))]
    finite = bootstrap._grams(chunks, [(gram, p, t_eff)])
    return bootstrap._sweep_grams(gram, finite, p, t_eff)


def test_rebuild_rejects_explosive():
    # A strongly explosive Pi drives its path to infinity; the re-sweep flags
    # that sample as non-finite, so it counts as a failed replication, while
    # a stable path in the same batch is swept as usual.
    prep = prepare(_sim(76), 1, _queries(1), BootstrapConfig(n_boot=39))
    pi = np.stack([np.eye(3) * 99.0, np.zeros((3, 3))])
    mats = _batch.var_matrices_batch(pi, np.empty((2, 0, 3, 3)))
    errors = np.random.default_rng(8).standard_normal((2, 300, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        samples = rebuild_levels(mats, errors, np.ones((2, 3)))
    assert not np.isfinite(samples[0]).all() and np.isfinite(samples[1]).all()
    sweep = _resweep(samples, prep)
    assert sweep.reason[0] & _batch.NONFINITE
    assert not sweep.reason[1] & _batch.NONFINITE
    assert list(sweep.ok) == [False, True]


def test_rebuild_nan_innovation_stays_in_its_row():
    # One NaN innovation spoils its own path only: every other row of the
    # shared-coefficient batch is bitwise the clean run, and only the
    # spoilt sample is flagged as non-finite by the re-sweep.
    prep = prepare(_sim(77), 2, _queries(1), BootstrapConfig(n_boot=39))
    pi, gammas = _batch.rank_fit_batch(prep.sweep, 1)
    mats = _batch.var_matrices_batch(pi, gammas)[0]
    errors = np.random.default_rng(9).standard_normal((70, prep.n_obs - 3, 3))
    clean = rebuild_levels(mats, errors, prep.raw[:3])
    errors[66, 44, 1] = np.nan  # time 47, inside the block of times 43..50
    spoilt = rebuild_levels(mats, errors, prep.raw[:3])
    others = np.arange(70) != 66
    assert np.array_equal(spoilt[others], clean[others])
    assert np.array_equal(spoilt[66, :43], clean[66, :43])  # the blocks before it
    assert np.isnan(spoilt[66, 47]).any()
    sweep = _resweep(spoilt, prep)
    assert list(np.flatnonzero(sweep.reason & _batch.NONFINITE)) == [66]
    assert np.array_equal(sweep.reason[others], _resweep(clean, prep).reason[others])


# --- fixed-rank intervals --------------------------------------------------------------


def test_fixed_rank_interval_deterministic_and_ordered():
    y = _sim(76)
    cfg = BootstrapConfig(n_boot=79, gamma=0.1, seed=11)
    queries = _queries()
    one = fixed_rank_interval(prepare(y, 1, queries, cfg), 2)
    two = fixed_rank_interval(prepare(y, 1, queries, cfg), 2)
    assert one.n_failed == 0
    assert np.array_equal(one.lower, two.lower)
    assert np.array_equal(one.upper, two.upper)
    assert np.all(one.lower <= one.upper)
    other_cfg = BootstrapConfig(n_boot=79, gamma=0.1, seed=12)
    other = fixed_rank_interval(prepare(y, 1, queries, other_cfg), 2)
    assert np.any(one.lower != other.lower)


def test_fixed_rank_point_matches_single_sample_path():
    y = _sim(77)
    cfg = BootstrapConfig(n_boot=49, seed=3)
    query_r = IrfQuery(a=2, b=1, horizon=6)
    query_s = IrfQuery(a=2, b=1, horizon=6, kind="structural_cholesky")
    result = fixed_rank_interval(prepare(y, 1, [query_r, query_s], cfg), 2)
    fit = fit_vecm(y, 1, 2)
    psi = irf_reduced(vecm_to_var(fit), 6)
    phi = irf_structural(psi, cholesky_factor(fit.Sigma_u))
    assert result.point[0] == pytest.approx(evaluate_zeta(psi, query_r), abs=1e-12)
    assert result.point[1] == pytest.approx(evaluate_zeta(phi, query_s), abs=1e-12)
    assert result.lower[1] <= result.point[1] <= result.upper[1]


def test_fixed_rank_census_bookkeeping():
    y = _sim(78)
    cfg = BootstrapConfig(n_boot=59, seed=5)
    result = fixed_rank_interval(prepare(y, 1, _queries(4), cfg), 3)
    assert result.n_boot == 59
    assert result.n_success + result.n_failed == 59


def test_fixed_rank_nested_seed_family():
    # The first B replications of a larger build draw the same innovations.
    resid = np.random.default_rng(9).standard_normal((1, 123, 2))
    small = _draws(resid, BootstrapConfig(n_boot=50, seed=9), 80)
    large = _draws(resid, BootstrapConfig(n_boot=200, seed=9), 80)
    assert np.array_equal(large[:50], small)


def test_fixed_rank_stabilizes_with_more_replications():
    y = _sim(79)
    queries = [IrfQuery(a=1, b=1, horizon=5)]
    cfg_small = BootstrapConfig(n_boot=99, seed=21)
    cfg_large = BootstrapConfig(n_boot=396, seed=21)
    small = fixed_rank_interval(prepare(y, 1, queries, cfg_small), 2)
    large = fixed_rank_interval(prepare(y, 1, queries, cfg_large), 2)
    width_small = small.upper[0] - small.lower[0]
    width_large = large.upper[0] - large.lower[0]
    assert 0.5 < width_large / width_small < 2.0  # diagnostic, loose by design


def test_census_threshold():
    ok = np.ones(100, dtype=bool)
    cfg = BootstrapConfig(n_boot=100, seed=0)
    ok[:4] = False
    assert _census(ok, cfg, "test") == 4
    ok[4] = False
    with pytest.raises(EstimationError, match="5 of 100"):
        _census(ok, cfg, "test")


def test_zero_failure_share_accepts_clean_runs_only():
    cfg = BootstrapConfig(n_boot=99, seed=0, max_failure_share=0.0)
    ok = np.ones(99, dtype=bool)
    assert _census(ok, cfg, "test") == 0
    ok[7] = False
    with pytest.raises(EstimationError, match="1 of 99"):
        _census(ok, cfg, "test")


@pytest.mark.parametrize("share", [-0.5, 1.0, 1.5, float("nan")])
def test_failure_share_outside_unit_interval_rejected(share):
    with pytest.raises(ConfigError, match="max_failure_share"):
        BootstrapConfig(max_failure_share=share)


def test_zero_failure_share_runs_clean_interval():
    y = _sim(78)
    cfg = BootstrapConfig(n_boot=59, seed=5, max_failure_share=0.0)
    result = fixed_rank_interval(prepare(y, 1, _queries(2), cfg), 2)
    assert result.n_failed == 0


def test_degenerate_centered_stats_collapse_interval():
    # All-equal bootstrap statistics collapse the Hall interval onto the
    # point estimate.
    point = 1.7
    assert point - hall_quantile(np.zeros(99), 0.975) == point
    assert point - hall_quantile(np.zeros(99), 0.025) == point


# --- rank re-selection (BERS) ------------------------------------------------------------


def test_bers_with_constant_selector_equals_fixed_rank():
    y = _sim(80)
    cfg = BootstrapConfig(n_boot=69, seed=8)
    queries = _queries(5)
    fixed = fixed_rank_interval(prepare(y, 1, queries, cfg), 2)
    degenerate = bers_interval(prepare(y, 1, queries, cfg), RankSelector("fixed", rank=2))
    assert np.array_equal(degenerate.lower, fixed.lower)
    assert np.array_equal(degenerate.upper, fixed.upper)
    assert np.array_equal(degenerate.point, fixed.point)


def test_engine_rank_selection_matches_public_selectors():
    from wimpvar import select_rank_ic, select_rank_sequential

    y = _sim(95, "dgp1", T=180)
    cfg = BootstrapConfig(n_boot=49, seed=1)
    prep = prepare(y, 2, _queries(1), cfg, DetrendMode.CONSTANT)
    for criterion in ("aic", "bic"):
        assert prep.select_rank(RankSelector(criterion)) == select_rank_ic(
            y, 2, criterion, mode=DetrendMode.CONSTANT
        )
    assert prep.select_rank(RankSelector("sequential_trace", level=0.05)) == (
        select_rank_sequential(y, 2, 0.05, mode=DetrendMode.CONSTANT)
    )
    assert prep.select_rank(RankSelector("fixed", rank=1)) == 1


def test_bers_rank_census_sums_to_replications():
    y = _sim(81)
    cfg = BootstrapConfig(n_boot=59, seed=9)
    result = bers_interval(prepare(y, 1, _queries(4), cfg), RankSelector("bic"))
    assert sum(result.rank_counts.values()) == cfg.n_boot
    assert result.rank == 2  # strong cointegration: selector finds rank 2


@pytest.mark.parametrize("constructor", [bers_interval, fdbb_interval])
def test_rank_census_counts_kept_replications_by_rank_and_failed_ones_at_minus_one(
    constructor, monkeypatch
):
    # Every level's query values lose some replications to a false ok flag
    # and some to a non-finite value, some to both; FDBB fails a replication
    # that fails at either level.
    cfg = BootstrapConfig(n_boot=59, seed=9, max_failure_share=0.5)
    prep = prepare(_sim(81), 1, _queries(4), cfg)
    levels, zeta = [], bootstrap._zeta_at_rank

    def spoiling(sweep, rank, cq, *args):
        values, ok, fit = zeta(sweep, rank, cq, *args)
        shift = 2 * len(levels)
        ok[[3 + shift, 10 + shift]] = False
        values[[10 + shift, 21 + shift], 1] = np.nan
        levels.append((np.broadcast_to(rank, ok.shape), values.copy(), ok.copy()))
        return values, ok, fit

    monkeypatch.setattr(bootstrap, "_zeta_at_rank", spoiling)
    result = constructor(prep, RankSelector("aic"))
    assert len(levels) == (1 if constructor is bers_interval else 2)
    ranks = levels[0][0]
    kept = np.logical_and.reduce([ok & np.isfinite(values).all(axis=1) for _, values, ok in levels])
    assert result.n_failed == int((~kept).sum()) >= 3 * len(levels)
    assert result.rank_counts[-1] == result.n_failed
    assert sum(result.rank_counts.values()) == cfg.n_boot
    counts = {rank: n for rank, n in result.rank_counts.items() if rank >= 0}
    assert counts == {int(r): int((ranks[kept] == r).sum()) for r in np.unique(ranks[kept])}
    if constructor is fdbb_interval:  # the bagged point averages the kept level-one values
        assert result.point.tobytes() == levels[0][1][kept].mean(axis=0).tobytes()


def test_fdbb_with_every_replication_failed_raises_before_its_bagged_mean(monkeypatch):
    # The bagged point is the mean of the kept level-one values, taken
    # after the budget refused the run: no warning about an empty mean.
    prep = prepare(_sim(81), 1, _queries(2), BootstrapConfig(n_boot=39, seed=9))
    zeta = bootstrap._zeta_at_rank

    def failing(*args):
        values, ok, fit = zeta(*args)
        return values, np.zeros_like(ok), fit

    monkeypatch.setattr(bootstrap, "_zeta_at_rank", failing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match="39 of 39 .* double bootstrap"):
            fdbb_interval(prep, RankSelector("aic"))


def test_bers_full_k_mode_differs():
    y = _sim(82, "dgp1")
    cfg = BootstrapConfig(n_boot=59, seed=10)
    queries = [IrfQuery(a=1, b=1, horizon=6)]
    prep = prepare(y, 1, queries, cfg)
    est = bers_interval(prep, RankSelector("aic"), dgp_rank_mode="estimated")
    full = bers_interval(prep, RankSelector("aic"), dgp_rank_mode="full_K")
    assert est.point[0] == full.point[0]
    assert est.lower[0] != full.lower[0]


# --- model averaging ---------------------------------------------------------------------


def test_ma_point_is_weighted_average_of_rank_points():
    y = _sim(83)
    cfg = BootstrapConfig(n_boot=49, seed=12)
    query = IrfQuery(a=2, b=1, horizon=4)
    result = ma_interval(prepare(y, 1, [query], cfg))
    full = fit_vecm(y, 1, 3)
    weights = plausibility_weights(trace_statistics(full), full.t_eff)
    acc = 0.0
    for rank in range(4):
        fit = fit_vecm(y, 1, rank)
        acc += weights.normalized[rank] * evaluate_zeta(irf_reduced(vecm_to_var(fit), 4), query)
    assert result.point[0] == pytest.approx(acc, abs=1e-10)
    assert result.method == "ma"
    assert result.rank == weights.reference_rank


def test_ma_fixed_weights_variant_runs():
    y = _sim(84)
    cfg = BootstrapConfig(n_boot=49, seed=13)
    query = IrfQuery(a=1, b=1, horizon=3)
    prep = prepare(y, 1, [query], cfg)
    endo = ma_interval(prep, weights_mode="endogenous")
    fixed = ma_interval(prep, weights_mode="fixed")
    assert fixed.method == "ma_fixed"
    assert endo.point[0] == fixed.point[0]
    assert endo.lower[0] != fixed.lower[0]


def test_ma_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        prep = prepare(_sim(85), 1, [IrfQuery(a=1, b=1, horizon=1)], BootstrapConfig(n_boot=49))
        ma_interval(prep, weights_mode="bad")


# --- fast double bootstrap ------------------------------------------------------------------


def test_fdbb_cost_and_bookkeeping():
    y = _sim(86)
    cfg = BootstrapConfig(n_boot=59, seed=14)
    result = fdbb_interval(prepare(y, 1, _queries(4), cfg), RankSelector("aic"))
    assert sum(result.rank_counts.values()) == cfg.n_boot
    assert np.all(result.lower <= result.upper)


def test_fdbb_makes_one_irf_call_per_batch(monkeypatch):
    # the observed sample at every rank, level one and level two: one IRF
    # call each, however many distinct ranks the replications select
    from wimpvar import _batch

    calls, irf_batch = [], _batch.irf_batch

    def counted(mats, h_max):
        calls.append(mats.shape[0])
        return irf_batch(mats, h_max)

    monkeypatch.setattr(_batch, "irf_batch", counted)
    y = _sim(86)
    cfg = BootstrapConfig(n_boot=59, seed=14)
    result = fdbb_interval(prepare(y, 1, _queries(4), cfg), RankSelector("aic"))
    assert len([rank for rank in result.rank_counts if rank >= 0]) >= 2
    assert calls == [y.shape[1] + 1, cfg.n_boot, cfg.n_boot]


def test_fdbb_interval_centers_at_bagged_estimate():
    # The bagged point must differ from the plug-in estimate in general.
    y = _sim(87)
    cfg = BootstrapConfig(n_boot=79, seed=15)
    query = IrfQuery(a=2, b=1, horizon=8)
    result = fdbb_interval(prepare(y, 1, [query], cfg), RankSelector("bic"))
    fit = fit_vecm(y, 1, 2)
    plug_in = evaluate_zeta(irf_reduced(vecm_to_var(fit), 8), query)
    assert result.point[0] != plug_in
    # the bag shifts by the (large, downward) bootstrap bias of long-horizon
    # responses under near-unit roots, so allow a wide band
    assert abs(result.point[0] - plug_in) < 3.0


# --- lag augmentation -------------------------------------------------------------------------


def test_lag_augmented_short_horizon_coverage_on_stationary_var():
    # Stationary diagonal VAR(1) oracle run.  The variant is known to
    # undercover at short horizons even here: the bootstrap process comes
    # from the non-augmented fit while the statistics center on the
    # augmented one, and the mismatch between the two estimates is of the
    # same order as the sampling noise (effective centering variance
    # 1.75/T against interval width targeting 1/T predicts ~86% coverage).
    # Frozen oracle values: 0.870 at horizon 1, 0.820 at horizon 2.
    a_true = 0.5
    truth = {1: a_true, 2: a_true**2}
    queries = [IrfQuery(a=1, b=1, horizon=1), IrfQuery(a=1, b=1, horizon=2)]
    hits = np.zeros(2)
    n_rep = 200
    for seed in range(n_rep):
        rng = np.random.default_rng(1000 + seed)
        y = np.zeros((300, 2))
        for t in range(1, 300):
            y[t] = a_true * y[t - 1] + rng.standard_normal(2)
        cfg = BootstrapConfig(n_boot=99, seed=seed)
        result = lag_augmented_interval(prepare(y, 1, queries, cfg))
        for i, q in enumerate(queries):
            hits[i] += result.lower[i] <= truth[q.horizon] <= result.upper[i]
    rates = hits / n_rep
    assert rates[0] == pytest.approx(0.870, abs=0.06)
    assert rates[1] == pytest.approx(0.820, abs=0.06)
    assert np.all(rates >= 0.75)  # sane, if undercovering, at short horizons


def test_lag_augmented_point_uses_augmented_fit():
    y = _sim(88, "dgp1", T=120)
    queries = [
        IrfQuery(a=1, b=1, horizon=4),
        IrfQuery(a=2, b=1, horizon=3, kind="structural_cholesky"),
    ]
    # oracle: VAR(3) levels OLS over rows t = 4..T under either sample
    # convention, responses from the first two matrices only
    mats, _, sigma = levels_ols(y, 3)
    irf = irf_reduced(VarLevels(tuple(mats[:2])), 4)
    structural = irf_structural(irf, cholesky_factor(sigma))
    expected = [evaluate_zeta(irf, queries[0]), evaluate_zeta(structural, queries[1])]
    for paper in (False, True):
        cfg = BootstrapConfig(n_boot=49, seed=16, paper_sample_convention=paper)
        result = lag_augmented_interval(prepare(y, 2, queries, cfg))
        assert np.allclose(result.point, expected, rtol=1e-9, atol=0), paper


@pytest.mark.parametrize("p", [1, 2])
def test_lag_augmented_process_follows_the_sample_convention(p):
    # The bootstrap process is the levels VAR(p) fitted over the rows the
    # sample's sweep keeps, t = p+2..T under the alternative convention.
    y = _sim(87, "dgp1", T=120)
    cfg = BootstrapConfig(n_boot=49, seed=16, paper_sample_convention=True)
    prep = prepare(y, p, _queries(2), cfg, mode="constant")
    mats, resid = _dgp(prep, prep.n_vars)
    ols_mats, ols_resid, _ = levels_ols(prep.tilde[0], p, first=p + 1)
    assert resid.shape == (1, 120 - p - 1, 3)
    assert np.allclose(mats, ols_mats, rtol=0, atol=1e-8)
    assert np.allclose(resid[0], ols_resid, rtol=0, atol=1e-10 * np.abs(ols_resid).max())


# --- fan and combined interval ------------------------------------------------------------------


def test_per_rank_fan_and_wimp_containment():
    y = _sim(89)
    cfg = BootstrapConfig(n_boot=69, seed=17)
    queries = _queries(5)
    prep = prepare(y, 1, queries, cfg)
    combined = wimp_interval(prep)
    fan = np.stack([[prep.fan(r).lower, prep.fan(r).upper] for r in range(4)])
    ref = fan[prep.weights().reference_rank]
    assert combined.rank == prep.weights().reference_rank
    assert np.all(combined.lower <= ref[0])
    assert np.all(combined.upper >= ref[1])
    assert np.all(combined.lower >= fan[:, 0].min(axis=0))
    assert np.all(combined.upper <= fan[:, 1].max(axis=0))


def test_interval_set_arrays_align_with_entries():
    y = _sim(89)
    queries = _queries(2)
    result = fixed_rank_interval(prepare(y, 1, queries, BootstrapConfig(n_boot=49, seed=17)), 2)
    assert result.queries == queries
    for name in ("lower", "upper", "point"):
        values = getattr(result, name)
        assert values.shape == (len(queries),)
        assert not values.flags.writeable


def _interval_set(lower, upper, point=(0.0, 0.0)):
    return IntervalSet(
        method="m", gamma=0.05, rank=1, queries=_queries(1)[:2],
        lower=lower, upper=upper, point=point, n_boot=49, n_failed=0,
    )


def test_interval_set_rejects_out_of_order_bounds():
    _interval_set([0.0, 1.0], [0.0, 2.0])  # equal bounds are fine
    with pytest.raises(EstimationError, match=r"out of order: \[3.0, 2.0\]"):
        _interval_set([0.0, 3.0], [1.0, 2.0])


def test_interval_set_rejects_nan_bounds_and_non_finite_points():
    _interval_set([-np.inf, 0.0], [np.inf, 1.0])  # an infinite bound is an unbounded end
    with pytest.raises(EstimationError, match="NaN bound"):
        _interval_set([np.nan, 0.0], [1.0, 1.0])  # NaN > 1.0 is False: no order error
    with pytest.raises(EstimationError, match="NaN bound"):
        _interval_set([0.0, 0.0], [1.0, np.nan])
    for point in ((np.nan, 0.0), (0.0, -np.inf)):
        with pytest.raises(EstimationError, match="non-finite point"):
            _interval_set([0.0, 0.0], [1.0, 1.0], point)


def test_interval_set_rejects_misaligned_arrays():
    with pytest.raises(ConfigError, match="upper has shape"):
        _interval_set([0.0, 1.0], [1.0, 2.0, 3.0])


def test_run_methods_returns_each_result_or_typed_error():
    from wimpvar.bootstrap import run_methods

    y = _sim(92)
    cfg = BootstrapConfig(n_boot=49, seed=20)
    queries = _queries(2)
    prep = prepare(y, 1, queries, cfg)
    out = run_methods(prep, ("wimp", "ols", "lavar"))
    alone = prepare(y, 1, queries, cfg)
    combined = wimp_interval(alone)
    assert np.array_equal(out["wimp"].lower, combined.lower)
    assert np.array_equal(out["wimp"].upper, combined.upper)
    assert out["ols"].method == "ols"
    assert np.array_equal(out["ols"].lower, fixed_rank_interval(alone, 3).lower)
    # lag augmentation sweeps at p + 1, which needs K*(p+1) + 10
    # observations: a typed error naming lavar, its VAR(p + 1) and the
    # user's p, kept per method, while the other methods still run
    short = prepare(y[:15], 1, queries, cfg)
    out = run_methods(short, ("lavar", "ols"))
    assert isinstance(out["lavar"], DataError)
    assert str(out["lavar"]) == (
        "lavar fits a VAR(p + 1) = VAR(2) for p = 1: it needs at least K*(p+1) + 10 = 16"
        " observations, got 15"
    )
    assert out["ols"].method == "ols"
    with pytest.raises(ConfigError, match="known data-generating process"):
        run_methods(prep, ("true_rank",))  # the sample's DGP rank is unknown


def test_run_methods_rejects_unknown_names_and_a_bare_string():
    from wimpvar.bootstrap import run_methods

    prep = prepare(_sim(92), 1, _queries(1), BootstrapConfig(n_boot=49))
    with pytest.raises(ConfigError, match="^unknown methods: nope, 3$"):
        run_methods(prep, ["wimp", "nope", 3])
    with pytest.raises(ConfigError, match="string 'wimp'"):
        run_methods(prep, "wimp")
    assert prep._fan == {}  # refused before anything ran


def _integer_cases():
    y, queries, cfg = _sim(93), _queries(1), BootstrapConfig(n_boot=49)
    dgp = make_dgp("dgp1", 60)
    return {
        "n_boot=49.5": lambda: BootstrapConfig(n_boot=49.5),
        "n_boot=49.0": lambda: BootstrapConfig(n_boot=49.0),
        "seed=1.5": lambda: BootstrapConfig(seed=1.5),
        "seed=-0.5": lambda: BootstrapConfig(seed=-0.5),
        "experiment n_mc": lambda: ExperimentConfig(dgp=dgp, n_mc=2.5),
        "experiment h_max": lambda: ExperimentConfig(dgp=dgp, h_max=3.5),
        "experiment p": lambda: ExperimentConfig(dgp=dgp, p=1.5),
        "experiment seed": lambda: ExperimentConfig(dgp=dgp, seed=0.5),
        "query a": lambda: IrfQuery(a=1.5, b=1),
        "query b": lambda: IrfQuery(a=1, b=2.0),
        "query horizon": lambda: IrfQuery(a=1, b=1, horizon=0.5),
        "query h_max": lambda: IrfQuery(a=1, b=1, h_max=np.float64(4.0)),
        "prepare p": lambda: prepare(y, 1.5, queries, cfg),
        "fixed rank 1.5": lambda: fixed_rank_interval(prepare(y, 1, queries, cfg), 1.5),
        "fixed rank 1.0": lambda: fixed_rank_interval(prepare(y, 1, queries, cfg), 1.0),
        "fan rank 1.5": lambda: prepare(y, 1, queries, cfg).fan(1.5),
    }


@pytest.mark.parametrize("case", list(_integer_cases()))
def test_integer_settings_reject_non_integral_values(case):
    with pytest.raises(ConfigError, match="must be an integer"):
        _integer_cases()[case]()


def test_a_refused_fan_rank_leaves_the_fan_unchanged():
    prep = prepare(_sim(93), 1, _queries(1), BootstrapConfig(n_boot=49))
    for rank in (1.0, 1.5, -1, 4):
        with pytest.raises(ConfigError):
            prep.fan(rank)
    assert prep._fan == {}
    assert prep.fan(True) is prep.fan(np.int64(1)) is prep.fan(1)
    assert list(prep._fan) == [1] and fixed_rank_interval(prep, True).rank == 1


@pytest.mark.parametrize(
    "value, shown", [(np.float64(2.5), "2.5"), (np.float32(2.0), "2.0"), (2.5, "2.5"), ("2", "'2'")]
)
def test_integer_message_shows_a_plain_value(value, shown):
    with pytest.raises(ConfigError) as raised:
        check_integer("p", value)
    assert str(raised.value) == f"p must be an integer, got {shown}"


def test_integer_settings_accept_numpy_integers():
    y, queries = _sim(93), _queries(1)
    ExperimentConfig(
        dgp=make_dgp("dgp1", 60), n_mc=np.int64(2), h_max=np.int32(3), p=np.int64(1),
        seed=np.uint64(5),
    )
    IrfQuery(a=np.int64(1), b=np.int8(2), horizon=np.int16(3), h_max=np.uint8(4))
    cfg = BootstrapConfig(n_boot=np.int64(49), seed=np.uint64(3))
    plain = fixed_rank_interval(prepare(y, 1, queries, BootstrapConfig(n_boot=49, seed=3)), 2)
    numpy = fixed_rank_interval(prepare(y, np.int64(1), queries, cfg), 2)
    assert np.array_equal(plain.lower, numpy.lower)
    assert np.array_equal(plain.upper, numpy.upper)


BAD_WEIGHT_CONSTANTS = [(-1.0, 0.5), (0.0, 0.5), (float("nan"), 0.5), (1.0, 1.5), (1.0, 0.0)]


@pytest.mark.parametrize("c1, c2", BAD_WEIGHT_CONSTANTS)
def test_weight_constants_rejected_by_prepare(c1, c2):
    with pytest.raises(ConfigError, match="weight constants"):
        prepare(_sim(94), 1, _queries(1), BootstrapConfig(n_boot=39), c1=c1, c2=c2)


def test_weight_constants_message_shows_plain_numbers():
    with pytest.raises(ConfigError) as raised:
        check_weight_constants(np.float64(-1.0), np.float32(0.5))
    assert str(raised.value) == "weight constants need c1 > 0 and 0 < c2 < 1, got c1=-1.0, c2=0.5"
    with pytest.raises(ConfigError) as raised:
        prepare(_sim(94), 1, _queries(1), BootstrapConfig(n_boot=39), c1=np.float64(np.nan))
    assert str(raised.value).endswith("got c1=nan, c2=0.5")


@pytest.mark.parametrize("c1, c2", BAD_WEIGHT_CONSTANTS)
def test_weight_constants_rejected_by_experiment_config(c1, c2):
    with pytest.raises(ConfigError, match="weight constants"):
        ExperimentConfig(dgp=make_dgp("dgp1", 60), n_mc=2, methods=("wimp",), c1=c1, c2=c2)


def test_config_validation():
    with pytest.raises(ConfigError):
        BootstrapConfig(n_boot=10)
    with pytest.raises(ConfigError):
        BootstrapConfig(gamma=1.5)
    with pytest.raises(ConfigError):
        BootstrapConfig(seed=-1)
    with pytest.raises(TypeError):  # one resampling scheme, so no option to choose it
        BootstrapConfig(resampling="wild")
