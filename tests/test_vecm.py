import numpy as np
import pytest

from reference import companion_roots, evaluate_zeta, irf_structural, regressor_blocks
from wimpvar import (
    BootstrapConfig,
    ConfigError,
    EstimationError,
    IrfQuery,
    TimeSeriesData,
    VarLevels,
    _batch,
    bootstrap,
    cholesky_factor,
    companion_matrix,
    fit_vecm,
    irf_reduced,
    make_dgp,
    prepare,
    select_rank_ic,
    select_rank_sequential,
    simulate_path,
    trace_statistics,
    var_to_vecm,
    vecm_to_var,
)
from wimpvar.timeseries import DetrendMode, detrend
from wimpvar.vecm import observed_sweep, trace_stats_from_eigenvalues


def _sim(seed, variant="dgp1", T=200):
    return simulate_path(make_dgp(variant, T), np.random.default_rng(seed))


def _random_stable_var(rng, n_vars, p, radius=0.9):
    while True:
        mats = rng.standard_normal((p, n_vars, n_vars)) * 0.4
        var = VarLevels(tuple(mats))
        roots = companion_roots(var)
        if roots[0] < radius:
            return var


# --- fit_vecm ---------------------------------------------------------------


def test_rank_zero_equals_differenced_ols():
    rng = np.random.default_rng(10)
    y = np.cumsum(rng.standard_normal((150, 3)), axis=0)
    fit = fit_vecm(y, 3, 0)
    assert np.all(fit.Pi == 0)
    # oracle: plain OLS of the differences on the lagged differences
    (z0,), _, (z2,) = regressor_blocks(y[None], 3)
    coef, *_ = np.linalg.lstsq(z2, z0, rcond=None)
    for lag in range(2):
        oracle = coef[lag * 3 : (lag + 1) * 3].T
        assert np.allclose(fit.Gammas[lag], oracle, atol=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_rank_equals_unrestricted_ols(seed):
    rng = np.random.default_rng(seed)
    y = np.cumsum(rng.standard_normal((120, 3)), axis=0) + rng.standard_normal((120, 3))
    fit = fit_vecm(y, 2, 3)
    (z0,), (z1,), (z2,) = regressor_blocks(y[None], 2)
    design = np.hstack([z1, z2])
    coef, *_ = np.linalg.lstsq(design, z0, rcond=None)
    pi_ols = coef[:3].T
    gamma_ols = coef[3:6].T
    scale = max(np.linalg.norm(pi_ols), 1.0)
    assert np.linalg.norm(fit.Pi - pi_ols) / scale < 1e-8
    assert np.linalg.norm(fit.Gammas[0] - gamma_ols) / max(np.linalg.norm(gamma_ols), 1.0) < 1e-8
    resid_ols = z0 - design @ coef
    assert np.allclose(fit.residuals, resid_ols, atol=1e-8)


def test_large_sample_consistency_at_true_rank():
    # Strong-cointegration design, fitted at its true rank (2): the
    # long-run matrix is recovered.  (The estimator cannot be consistent at
    # a rank below the true one.)
    spec = make_dgp("dgp2", 10_000)
    y = simulate_path(spec, np.random.default_rng(123))
    fit = fit_vecm(y, 1, 2)
    assert np.linalg.norm(fit.Pi - spec.Pi) < 0.05


def test_pi_factorization_and_rank_bound():
    y = _sim(11)
    for rank in range(4):
        fit = fit_vecm(y, 2, rank)
        assert np.allclose(fit.Pi, fit.alpha @ fit.beta.T, atol=1e-10)
        svals = np.linalg.svd(fit.Pi, compute_uv=False)
        if rank == 0:
            assert np.all(fit.Pi == 0)
        else:
            assert np.all(svals[rank:] <= 1e-8 * max(svals[0], 1e-30))
        sym = (fit.Sigma_u + fit.Sigma_u.T) / 2
        assert np.allclose(fit.Sigma_u, sym, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(sym) > -1e-10)
        assert np.all(fit.eigenvalues >= 0) and np.all(fit.eigenvalues < 1)


def test_eigenvalues_identical_across_ranks():
    y = _sim(12)
    fits = [fit_vecm(y, 2, rank) for rank in range(4)]
    for fit in fits[1:]:
        assert np.allclose(fit.eigenvalues, fits[0].eigenvalues, atol=1e-10)


def test_beta_normalization():
    y = _sim(13)
    fit = fit_vecm(y, 1, 2)
    _, (z1,), _ = regressor_blocks(y[None], 1)
    s11 = z1.T @ z1 / fit.t_eff
    gram = fit.beta.T @ s11 @ fit.beta
    assert np.allclose(gram, np.eye(2), atol=1e-8)


def test_singular_moments_rejected():
    y = np.ones((40, 2)) * 3.0  # constant series: S11 singular
    with pytest.raises(EstimationError):
        fit_vecm(y, 1, 1)


def _walk():
    """A K=3 random walk, T=200."""
    return np.cumsum(np.random.default_rng(0).standard_normal((200, 3)), axis=0)


def _constant(y):
    y[:, 2] = 3.0


def _large_constant(y):
    # Detrending leaves rounding noise of the 1e12 level, which the sweep's
    # unit-invariant pivot test alone would read as a variable.
    y[:, 2] = 1e12


def _duplicate(y):
    y[:, 2] = y[:, 0]


def _combination(y):
    y[:, 2] = y[:, 0] + 2.0 * y[:, 1]


LAGGED = "singular lagged-difference moment matrix"


@pytest.mark.parametrize(
    "spoil, p, mode, phrase",
    [
        (_constant, 2, "none", LAGGED),
        (_constant, 1, "none", "singular S00 moment matrix"),
        (_constant, 1, "constant", "singular S11 moment matrix"),
        (_constant, 2, "constant_and_trend", LAGGED),
        (_large_constant, 1, "constant_and_trend", "singular S11 moment matrix"),
        (_large_constant, 2, "constant_and_trend", LAGGED),
        (_duplicate, 2, "none", LAGGED),
        (_duplicate, 1, "none", "singular S11 moment matrix"),
        (_combination, 2, "none", LAGGED),
        (_combination, 1, "none", "singular S11 moment matrix"),
    ],
)
def test_singular_moments_name_the_column_at_fault(spoil, p, mode, phrase):
    y = _walk()
    spoil(y)
    fault = "is constant or a linear combination of earlier columns"
    with pytest.raises(EstimationError) as raised:
        fit_vecm(y, p, 1, mode)
    assert str(raised.value) == f"{phrase}; column 3 {fault}"
    with pytest.raises(EstimationError) as raised:
        fit_vecm(TimeSeriesData(y, names=("gdp", "cons", "inv")), p, 1, mode)
    assert str(raised.value) == f"{phrase}; inv {fault}"


def _same_prepared(a, b) -> bool:
    """Bitwise equality of two prepared samples, field by field."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (_batch.BatchSweep, bootstrap._Prepared)):
        return vars(a).keys() == vars(b).keys() and _same_prepared(
            list(vars(a).values()), list(vars(b).values())
        )
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same_prepared(x, y) for x, y in zip(a, b))
    if isinstance(a, bootstrap._CompiledQueries):
        return a.queries == b.queries
    return a == b


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "spoil, p, mode",
    [(_constant, 2, "none"), (_constant, 1, "constant"), (_duplicate, 2, "none"),
     (_combination, 1, "none")],
)
def test_a_stack_names_its_singular_sample_and_prepares_the_others_as_alone(spoil, p, mode):
    # One sweep of a stack of three: the middle sample, with a constant or
    # collinear column, gets the error fit_vecm raises for it alone, naming
    # that column from its own detrended values (for S11 its lagged levels
    # too); its neighbours are prepared bitwise as _prepare prepares them.
    names = ("gdp", "cons", "inv")
    samples = np.stack([
        np.cumsum(np.random.default_rng(seed).standard_normal((200, 3)), axis=0)
        for seed in range(3)
    ])
    spoil(samples[1])
    queries = (IrfQuery(a=1, b=2, horizon=2), IrfQuery(a=3, b=1, kind="structural_cholesky"))
    cfgs = [BootstrapConfig(n_boot=39, seed=seed) for seed in range(3)]
    preps = bootstrap._prepare_many(samples, p, queries, cfgs, mode, names=names)
    with pytest.raises(EstimationError) as raised:
        fit_vecm(TimeSeriesData(samples[1], names=names), p, 1, mode)
    assert isinstance(preps[1], EstimationError)
    assert str(preps[1]) == str(raised.value)
    assert str(raised.value).endswith("; inv is constant or a linear combination of earlier columns")
    for i in (0, 2):
        alone = prepare(TimeSeriesData(samples[i], names=names), p, queries, cfgs[i], mode)
        assert _same_prepared(preps[i], alone), i
        assert _same_prepared(preps[i].tilde[0], detrend(samples[i], mode).tilde_values), i


# The sweep's pivot test against each spoiled walk: y3 in units 1e7 times
# smaller fits; y3 = y1 plus noise 1e-6 times as large passes in the lagged
# differences (a pivot share of 1.8e-12) but not in the lagged levels
# (4.9e-15), so S11 fails and the level check names the column; at noise
# 1e-8 the differences fail too.
NEAR_SINGULAR = {
    "rescaled": None,
    "near_collinear": "singular S11 moment matrix; column 3 is constant or a linear combination "
    "of earlier columns",
    "collinear": f"{LAGGED}; column 3 is constant or a linear combination of earlier columns",
}


@pytest.mark.parametrize("spoil", sorted(NEAR_SINGULAR))
def test_near_singular_moments_keep_their_message(spoil):
    y = _walk()
    if spoil == "rescaled":
        scaled = y.copy()
        scaled[:, 2] *= 1e7
        expected = fit_vecm(y, 2, 1).eigenvalues
        assert np.allclose(fit_vecm(scaled, 2, 1).eigenvalues, expected, rtol=1e-10, atol=0)
        return
    noise = 1e-6 if spoil == "near_collinear" else 1e-8
    y[:, 2] = y[:, 0] + noise * np.random.default_rng(1).standard_normal(200)
    with pytest.raises(EstimationError) as raised:
        fit_vecm(y, 2, 1)
    assert str(raised.value) == NEAR_SINGULAR[spoil]


ROUTES = {
    "prepare": lambda y, p, mode="none": prepare(
        y, p, (IrfQuery(a=1, b=2),), BootstrapConfig(n_boot=39), mode
    ),
    "select_rank_ic": lambda y, p, mode="none": select_rank_ic(y, p, "aic", mode),
    "select_rank_sequential": lambda y, p, mode="none": select_rank_sequential(y, p, 0.05, mode),
    "fit_vecm": lambda y, p, mode="none": fit_vecm(y, p, 1, mode),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_from_data_rejects_bad_settings_as_config_errors(route):
    y = _walk()
    with pytest.raises(ConfigError, match="p must be an integer"):
        ROUTES[route](y, 2.0)
    with pytest.raises(ConfigError, match="detrend mode must be one of"):
        ROUTES[route](y, 1, "linear")
    if route == "fit_vecm":
        with pytest.raises(ConfigError, match="rank must be an integer"):
            fit_vecm(y, 1, 1.0)


DATA_ROUTES = {
    **ROUTES,
    "observed_sweep": lambda y, p, mode="none": observed_sweep(y, p, mode),
    "detrend": lambda y, p, mode="none": detrend(y, mode),
}


@pytest.mark.parametrize("route", sorted(DATA_ROUTES))
@pytest.mark.parametrize("mode", list(DetrendMode))
@pytest.mark.parametrize("container", ["ndarray", "TimeSeriesData"])
def test_no_route_from_data_writes_to_the_callers_array(route, mode, container):
    # Detrending runs in place, on a copy: the caller's array keeps its
    # values and stays writeable, whether passed bare or wrapped.
    y = _walk()
    before = y.tobytes()
    data = y if container == "ndarray" else TimeSeriesData(y)
    DATA_ROUTES[route](data, 2, mode)
    assert y.tobytes() == before
    assert y.flags.writeable
    if container == "TimeSeriesData":
        assert not data.values.flags.writeable and data.values.tobytes() == before


@pytest.mark.parametrize(
    "route, fills",
    [("prepare", 1), ("select_rank_ic", 1), ("select_rank_sequential", 1), ("fit_vecm", 2)],
)
def test_every_route_fills_the_design_once_per_product(route, fills, monkeypatch):
    # The observed sample's design blocks are filled once for its sweep,
    # and once more for a fit's residuals.
    calls = []
    fill = _batch._lag_blocks

    def counting(tilde, p, t_eff):
        calls.append(tilde.shape)
        yield from fill(tilde, p, t_eff)

    monkeypatch.setattr(_batch, "_lag_blocks", counting)
    ROUTES[route](_walk(), 2)
    assert calls == [(1, 200, 3)] * fills


def test_insufficient_sample_rejected():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((12, 3))
    with pytest.raises(Exception, match="observations"):
        fit_vecm(y, 1, 1)


def test_perfect_fit_rejected():
    # Noise-free stable recursion: squared canonical correlations hit 1.
    mats = np.array([[[0.5, 0.1], [0.0, 0.4]]])
    y = np.zeros((60, 2))
    y[0] = [1.0, -1.0]
    for t in range(1, 60):
        y[t] = mats[0] @ y[t - 1]
    with pytest.raises(EstimationError):
        fit_vecm(y, 1, 1)


# --- trace statistics -------------------------------------------------------


def test_trace_stats_zero_eigenvalues():
    stats = trace_stats_from_eigenvalues(np.zeros(3), 100)
    assert np.array_equal(stats, np.zeros(4))


def test_trace_stats_hand_case():
    stats = trace_stats_from_eigenvalues(np.array([0.5, 0.2, 0.1]), 100)
    expected0 = -100 * (np.log(0.5) + np.log(0.8) + np.log(0.9))
    expected1 = -100 * (np.log(0.8) + np.log(0.9))
    expected2 = -100 * np.log(0.9)
    assert stats == pytest.approx([expected0, expected1, expected2, 0.0], abs=1e-9)
    assert stats[0] == pytest.approx(102.165, abs=1e-2)
    assert stats[1] == pytest.approx(32.850, abs=1e-2)
    assert stats[2] == pytest.approx(10.536, abs=1e-2)


def test_trace_stats_non_increasing_property():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        lam = np.sort(rng.uniform(0, 0.99, size=rng.integers(1, 6)))[::-1]
        stats = trace_stats_from_eigenvalues(lam, 250)
        assert np.all(np.diff(stats) <= 1e-9)
        assert stats[-1] == 0.0


def test_trace_statistics_from_fit():
    y = _sim(15)
    fit = fit_vecm(y, 1, 1)
    stats = trace_statistics(fit)
    assert stats.shape == (4,)
    assert stats[-1] == 0.0


# --- VECM <-> VAR conversion ------------------------------------------------


def test_vecm_to_var_random_walk():
    var = vecm_to_var((np.zeros((3, 3)), ()))
    assert np.allclose(var.A[0], np.eye(3))


def test_vecm_to_var_dgp1_levels_matrix():
    spec = make_dgp("dgp1", 100)
    var = vecm_to_var((spec.Pi, ()))
    assert np.allclose(var.A[0], np.eye(3) + spec.Pi)
    assert np.allclose(np.diag(var.A[0]), [1.0, 0.95, 0.98])
    assert np.allclose(var.A[0], np.tril(var.A[0]))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_vecm_var_roundtrip(p):
    rng = np.random.default_rng(p)
    pi = rng.standard_normal((3, 3)) * 0.1
    gammas = tuple(rng.standard_normal((3, 3)) * 0.2 for _ in range(p - 1))
    var = vecm_to_var((pi, gammas))
    pi_back, gammas_back = var_to_vecm(var)
    assert np.allclose(pi_back, pi, atol=1e-12)
    for got, want in zip(gammas_back, gammas):
        assert np.allclose(got, want, atol=1e-12)


# --- companion roots ---------------------------------------------------------


def test_companion_roots_dgp_constants():
    dgp1 = make_dgp("dgp1", 100)
    roots = companion_roots(vecm_to_var((dgp1.Pi, ())))
    assert np.allclose(roots, [1.0, 0.98, 0.95], atol=1e-10)
    dgp2 = make_dgp("dgp2", 100)
    roots = companion_roots(vecm_to_var((dgp2.Pi, ())))
    assert np.allclose(roots, [1.0, 0.0, 0.0], atol=1e-10)


def test_companion_roots_scalar_scaling():
    var = VarLevels((0.5 * np.eye(2),))
    assert np.allclose(companion_roots(var), [0.5, 0.5])


def test_companion_matrix_shape():
    rng = np.random.default_rng(16)
    var = VarLevels(tuple(rng.standard_normal((2, 2)) for _ in range(3)))
    comp = companion_matrix(var)
    assert comp.shape == (6, 6)
    assert np.allclose(comp[2:4, 0:2], np.eye(2))


def test_fitted_rank_restriction_forces_unit_roots():
    # A rank-r long-run matrix leaves at least K - r exact unit roots in
    # the implied companion matrix, whatever the data.
    y = _sim(17)
    for rank in range(4):
        fit = fit_vecm(y, 2, rank)
        roots = companion_roots(vecm_to_var(fit))
        assert np.sum(roots >= 1 - 1e-6) >= 3 - rank


# --- impulse responses -------------------------------------------------------


def test_irf_random_walk_identity():
    var = VarLevels((np.eye(3),))
    irf = irf_reduced(var, 10)
    for j in range(11):
        assert np.allclose(irf.values[j], np.eye(3))


def test_irf_dgp2_matrix_power_oracle():
    spec = make_dgp("dgp2", 100)
    growth = spec.companion
    irf = irf_reduced(VarLevels((growth,)), 8)
    power = np.eye(3)
    for j in range(9):
        assert np.allclose(irf.values[j], power, atol=1e-12)
        power = growth @ power
    expected = np.array([[1.0, 0, 0], [2.0, 0, 0], [-1.0, 0, 0]])
    for j in range(2, 9):
        assert np.allclose(irf.values[j], expected, atol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_irf_matches_path_difference_oracle(p):
    # Noise-free simulation oracle: the path started with a unit impulse in
    # shock b minus the zero path equals column b of every response matrix.
    rng = np.random.default_rng(30 + p)
    var = _random_stable_var(rng, 3, p)
    h_max = 20
    irf = irf_reduced(var, h_max)
    for b in range(3):
        path = np.zeros((h_max + 1, 3))
        path[0, b] = 1.0
        for t in range(1, h_max + 1):
            acc = np.zeros(3)
            for i in range(1, min(t, p) + 1):
                acc += var.A[i - 1] @ path[t - i]
            path[t] = acc
        assert np.allclose(irf.values[:, :, b], path, atol=1e-10)


# --- Cholesky and structural responses ---------------------------------------


def test_cholesky_identity():
    assert np.allclose(cholesky_factor(np.eye(3)), np.eye(3))


def test_cholesky_hand_case():
    sigma = np.array([[4.0, 2.0], [2.0, 2.0]])
    assert np.allclose(cholesky_factor(sigma), [[2.0, 0.0], [1.0, 1.0]])


def test_cholesky_reconstruction_oracle():
    rng = np.random.default_rng(18)
    root = rng.standard_normal((4, 4))
    sigma = root @ root.T + 4 * np.eye(4)
    chol = cholesky_factor(sigma)
    assert np.allclose(chol @ chol.T, sigma, atol=1e-10)
    assert np.all(np.diag(chol) > 0)
    assert np.allclose(chol, np.tril(chol))


def test_cholesky_rejects_non_pd():
    with pytest.raises(EstimationError):
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_structural_identity_factor():
    var = VarLevels((np.eye(2) * 0.5,))
    psi = irf_reduced(var, 5)
    phi = irf_structural(psi, np.eye(2))
    assert np.allclose(phi.values, psi.values)
    assert phi.kind == "structural_cholesky"


def test_structural_impact_equals_factor():
    rng = np.random.default_rng(19)
    var = _random_stable_var(rng, 3, 1)
    chol = np.tril(rng.standard_normal((3, 3))) + 3 * np.eye(3)
    phi = irf_structural(irf_reduced(var, 4), chol)
    assert np.allclose(phi.values[0], chol)


def test_structural_matches_dense_multiply_oracle():
    rng = np.random.default_rng(20)
    var = _random_stable_var(rng, 3, 2)
    psi = irf_reduced(var, 6)
    chol = np.tril(rng.standard_normal((3, 3))) + 2 * np.eye(3)
    phi = irf_structural(psi, chol)
    for j in range(7):
        oracle = np.array(
            [[sum(psi.values[j, a, k] * chol[k, b] for k in range(3)) for b in range(3)] for a in range(3)]
        )
        assert np.allclose(phi.values[j], oracle, atol=1e-12)


# --- zeta evaluation ----------------------------------------------------------


def test_evaluate_element_identity_at_zero():
    irf = irf_reduced(VarLevels((np.eye(3) * 0.5,)), 3)
    assert evaluate_zeta(irf, IrfQuery(a=2, b=2, horizon=0)) == 1.0
    assert evaluate_zeta(irf, IrfQuery(a=1, b=2, horizon=0)) == 0.0


def test_evaluate_max_on_monotone_decay():
    irf = irf_reduced(VarLevels((np.eye(2) * 0.5,)), 10)
    q = IrfQuery(a=1, b=1, h_max=10, functional="max_over_horizons")
    assert evaluate_zeta(irf, q) == 1.0  # horizon zero dominates a decay


def test_evaluate_matches_exhaustive_scan_oracle():
    rng = np.random.default_rng(21)
    var = _random_stable_var(rng, 3, 2)
    irf = irf_reduced(var, 12)
    for a in range(1, 4):
        for b in range(1, 4):
            q = IrfQuery(a=a, b=b, h_max=12, functional="max_over_horizons")
            oracle = max(irf.values[j, a - 1, b - 1] for j in range(13))
            assert evaluate_zeta(irf, q) == pytest.approx(oracle, abs=0)


def test_evaluate_rejects_out_of_range():
    irf = irf_reduced(VarLevels((np.eye(2) * 0.5,)), 3)
    with pytest.raises(ConfigError):
        evaluate_zeta(irf, IrfQuery(a=3, b=1, horizon=1))
    with pytest.raises(ConfigError):
        evaluate_zeta(irf, IrfQuery(a=1, b=1, horizon=9))
    with pytest.raises(ConfigError):
        evaluate_zeta(irf, IrfQuery(a=1, b=1, horizon=1, kind="structural_cholesky"))


# --- cross-check against an established implementation ------------------------


@pytest.mark.parametrize("p", [2, 3, 4])
def test_eigenvalues_match_statsmodels(p):
    sm = pytest.importorskip("statsmodels.tsa.vector_ar.vecm")
    y = _sim(22, T=300)
    fit = fit_vecm(y, p, 1)
    res = sm.coint_johansen(y, det_order=-1, k_ar_diff=p - 1)
    assert np.allclose(fit.eigenvalues, np.sort(res.eig)[::-1], atol=1e-8)


def test_paper_sample_convention_effective_size():
    y = _sim(23)
    fit_minimal = fit_vecm(y, 2, 1)
    fit_paper = fit_vecm(y, 2, 1, paper_convention=True)
    assert fit_minimal.t_eff == y.shape[0] - 2
    assert fit_paper.t_eff == y.shape[0] - 3
