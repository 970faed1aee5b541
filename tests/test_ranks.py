import numpy as np
import pytest

from wimpvar import (
    ConfigError,
    make_dgp,
    plausibility_weights,
    fit_vecm,
    relative_plausibility,
    select_rank_ic,
    select_rank_sequential,
    simulate_path,
    trace_statistics,
)
from wimpvar.ranks import (
    RankSelector,
    TRACE_CRIT_LEVELS,
    TRACE_CRIT_VALUES,
    ic_param_count,
    ic_values_from_eigenvalues,
    trace_critical_value,
)
from wimpvar.vecm import johansen_fit_from, observed_sweep


def _sim(seed, variant="dgp2", T=200):
    return simulate_path(make_dgp(variant, T), np.random.default_rng(seed))


# --- information criteria -----------------------------------------------------


def test_ic_binary_case_equals_direct_comparison():
    # K = 1: the criterion reduces to comparing the two fitted models head on.
    rng = np.random.default_rng(40)
    for trial in range(10):
        y = np.cumsum(rng.standard_normal(80))[:, None] + rng.standard_normal((80, 1))
        sweep = observed_sweep(y, 1)
        fit0 = johansen_fit_from(sweep, 0)
        fit1 = johansen_fit_from(sweep, 1)
        for criterion, c_t in (("aic", 2.0), ("bic", np.log(sweep.t_eff))):
            ic0 = np.log(np.linalg.det(np.atleast_2d(fit0.Sigma_u)))
            ic1 = (
                np.log(np.linalg.det(np.atleast_2d(fit1.Sigma_u)))
                + c_t * ic_param_count(1, 1, 1) / sweep.t_eff
            )
            oracle = 0 if ic0 <= ic1 else 1
            assert select_rank_ic(y, 1, criterion) == oracle


def test_ic_values_match_per_rank_refits():
    # The determinant identity behind the vectorized criterion must agree
    # with explicitly refitting every rank.
    y = _sim(41, "dgp1")
    sweep = observed_sweep(y, 2)
    for criterion, c_t in (("aic", 2.0), ("bic", np.log(sweep.t_eff))):
        values = ic_values_from_eigenvalues(
            sweep.eigenvalues[0], sweep.ln_det_s00[0], sweep.t_eff, sweep.p, criterion
        )
        for rank in range(4):
            fit = johansen_fit_from(sweep, rank)
            direct = (
                np.log(np.linalg.det(fit.Sigma_u))
                + c_t * ic_param_count(rank, 3, 2) / sweep.t_eff
            )
            assert values[rank] == pytest.approx(direct, abs=1e-9)


def test_ic_param_count_full_rank():
    # pi(K) must count all free short/long-run parameters.
    assert ic_param_count(3, 3, 2) == 9 + 9
    assert ic_param_count(3, 3, 1) == 9
    assert ic_param_count(0, 3, 4) == 27


def test_bic_finds_true_rank_under_strong_cointegration():
    hits = 0
    for seed in range(200):
        if select_rank_ic(_sim(seed), 1, "bic") == 2:
            hits += 1
    assert hits >= 180  # the true rank of the strong design is 2


def test_selection_is_deterministic():
    y = _sim(42)
    first = select_rank_ic(y, 1, "aic")
    assert all(select_rank_ic(y, 1, "aic") == first for _ in range(3))


# --- sequential trace test ------------------------------------------------------


def test_sequential_nothing_rejects():
    # With all statistics at zero nothing rejects, so the rank is 0; build
    # that case synthetically through a white-noise-ish stationary sample
    # where the statistics are tiny... the direct zero case is covered by
    # the critical-value lookup below.
    assert trace_critical_value(1, 0.05) > 0.0


def test_sequential_selects_zero_when_stats_below_critical():
    rng = np.random.default_rng(43)
    y = np.cumsum(rng.standard_normal((400, 3)), axis=0)  # pure random walk
    picked = [
        select_rank_sequential(
            np.cumsum(np.random.default_rng(s).standard_normal((400, 3)), axis=0), 1, 0.05
        )
        for s in range(40)
    ]
    assert sum(r == 0 for r in picked) >= 30  # rejects only ~ at the test level


def test_sequential_selects_full_rank_for_stationary_data():
    picked = [
        select_rank_sequential(np.random.default_rng(s).standard_normal((300, 3)), 1, 0.05)
        for s in range(20)
    ]
    assert sum(r == 3 for r in picked) >= 18


def test_sequential_modal_rank_on_strong_cointegration():
    counts = {}
    for seed in range(200):
        r = select_rank_sequential(_sim(seed), 1, 0.05)
        counts[r] = counts.get(r, 0) + 1
    assert set(counts) <= {2, 3}
    assert counts.get(2, 0) > counts.get(3, 0)
    # over-selection of rank 3 happens at roughly the test level
    assert counts.get(3, 0) <= 30


def test_sequential_rejects_large_dimension():
    rng = np.random.default_rng(44)
    y = rng.standard_normal((400, 13))
    with pytest.raises(ConfigError, match="information criterion"):
        select_rank_sequential(y, 1, 0.05)
    with pytest.raises(ConfigError):
        trace_critical_value(13, 0.05)


def test_critical_value_table_shape_and_monotonicity():
    assert TRACE_CRIT_VALUES.shape == (12, 3)
    assert np.all(np.diff(TRACE_CRIT_VALUES, axis=0) > 0)  # grows with dimension
    assert np.all(np.diff(TRACE_CRIT_VALUES, axis=1) > 0)  # grows with confidence
    assert TRACE_CRIT_LEVELS == (0.10, 0.05, 0.01)


def test_selector_validation():
    with pytest.raises(ConfigError):
        RankSelector("unknown")
    with pytest.raises(ConfigError):
        RankSelector("sequential_trace", level=0.2)
    with pytest.raises(ConfigError):
        RankSelector("fixed")
    assert RankSelector("fixed", rank=2).label == "fixed2"
    assert RankSelector("sequential_trace", level=0.05).label == "trace5"


# --- plausibility weights -------------------------------------------------------


def test_weights_zero_stats_point_mass_at_zero():
    w = plausibility_weights(np.zeros(4), 100)
    assert np.allclose(w.normalized, [1.0, 0, 0, 0])
    assert w.reference_rank == 0


def test_weights_worked_example():
    # a = 1 * 100**-0.5 = 0.1; scalar-exponential oracle computed in place.
    stats = np.array([500.0, 40.0, 10.0, 0.0])
    w = plausibility_weights(stats, 100, c1=1.0, c2=0.5)
    shrink = 0.1
    expected = np.array(
        [
            np.exp(-shrink * 500),
            np.exp(-shrink * 40) - np.exp(-shrink * 500),
            np.exp(-shrink * 10) - np.exp(-shrink * 40),
            1 - np.exp(-shrink * 10),
        ]
    )
    assert np.allclose(w.raw, expected, rtol=1e-12)
    assert w.raw.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(
        w.normalized, [1.93e-22, 0.01832, 0.34956, 0.63212], rtol=2e-3
    )
    assert w.reference_rank == 3


def test_weights_telescoping_identity_random_sweep():
    rng = np.random.default_rng(45)
    for _ in range(10_000):
        k = rng.integers(1, 6)
        stats = np.sort(rng.uniform(0, 400, size=k))[::-1]
        stats = np.concatenate([stats, [0.0]])
        t_eff = int(rng.integers(30, 500))
        w = plausibility_weights(stats, t_eff, c1=float(rng.uniform(0.1, 3)), c2=float(rng.uniform(0.1, 0.9)))
        assert abs(w.raw.sum() - 1.0) < 1e-12
        assert np.all(w.raw >= 0)
        assert np.allclose(w.raw, w.normalized, atol=1e-12)
        assert w.normalized[w.reference_rank] >= 1.0 / stats.size - 1e-12


def test_weights_reject_bad_inputs():
    with pytest.raises(ValueError):
        plausibility_weights(np.array([1.0, 5.0, 0.0]), 100)  # increasing
    with pytest.raises(ValueError):
        plausibility_weights(np.array([5.0, 1.0, 0.5]), 100)  # J[K] != 0
    with pytest.raises(ValueError):
        plausibility_weights(np.array([5.0, 0.0]), 100, c1=-1.0)
    with pytest.raises(ValueError):
        plausibility_weights(np.array([5.0, 0.0]), 100, c2=1.5)
    with pytest.raises(ValueError):
        plausibility_weights(np.array([np.inf, 0.0]), 100)


def test_weights_oracle_limit_on_strong_cointegration():
    # As the sample grows the weight mass concentrates on the true rank (2).
    def average_weight(T, n_rep):
        acc = 0.0
        for seed in range(n_rep):
            fit = fit_vecm(_sim(seed, T=T), 1, 2)
            acc += plausibility_weights(trace_statistics(fit), fit.t_eff).normalized[2]
        return acc / n_rep

    at_200 = average_weight(200, 200)
    at_2000 = average_weight(2000, 50)
    assert at_200 >= 0.5
    assert at_2000 > at_200


def test_relative_plausibility_basic():
    w = plausibility_weights(np.array([500.0, 40.0, 10.0, 0.0]), 100)
    assert relative_plausibility(w, 3, 3) == 1.0
    assert relative_plausibility(w, 2, 3) == pytest.approx(0.34956 / 0.63212, rel=1e-3)
    for r in range(4):
        assert relative_plausibility(w, r, w.reference_rank) <= 1.0


def test_relative_plausibility_division_and_zero_rules():
    w = plausibility_weights(np.array([0.0, 0.0]), 100)  # point mass at rank 0
    assert w.normalized[1] == 0.0
    assert relative_plausibility(w, 1, 0) == 0.0
    assert relative_plausibility(w, 0, 1) == np.inf
    assert relative_plausibility(w, 1, 1) == 1.0


def test_reference_rank_tie_breaks_to_smaller():
    # exp(-a J0) ~ 0.5 makes ranks 0 and 1 (near-)equally weighted in a
    # two-rank system; under an exact float tie the smaller rank wins.
    t_eff, c1, c2 = 100, 1.0, 0.5
    shrink = c1 * t_eff ** (-c2)
    stats = np.array([np.log(2.0) / shrink, 0.0])
    w = plausibility_weights(stats, t_eff, c1, c2)
    assert abs(w.normalized[0] - w.normalized[1]) < 1e-15
    if w.normalized[0] == w.normalized[1]:
        assert w.reference_rank == 0
    else:
        assert w.reference_rank == int(np.argmax(w.normalized))


def test_weights_scaled_to_zero_give_point_mass():
    stats = np.array([120.0, 30.0, 5.0, 0.0])
    w = plausibility_weights(stats * 0.0, 150)
    assert np.allclose(w.normalized, [1.0, 0, 0, 0])
