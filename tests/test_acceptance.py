"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  The two reduced-scale coverage experiments (300
replications x 199 bootstrap draws, fixed seed) are computed once per
session and shared across criteria.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import numpy as np
import pytest

from reference import companion_roots, regressor_blocks
from wimpvar import (
    ExperimentConfig,
    PlausibilityWeights,
    VarLevels,
    irf_reduced,
    make_dgp,
    plausibility_weights,
    run_experiment,
    trace_statistics,
    wimp_combine,
)
from wimpvar.cli import _write_csv
from wimpvar.vecm import johansen_fit_from, observed_sweep

SEED = 20250808
SCALE = dict(n_mc=300, n_boot=199, gamma=0.05, h_max=60)

DGP2_METHODS = ("ols", "true_rank", "wimp", "lavar")
DGP1_METHODS = (
    "ols", "true_rank", "aic", "bic", "bers_aic", "bers_bic",
    "ma", "fdbb_aic", "fdbb_bic", "wimp", "lavar",
)


def _passed(name, detail=""):
    print(f"\n[PASS] {name}" + (f" - {detail}" if detail else ""))


@pytest.fixture(scope="session")
def dgp2_table():
    cfg = ExperimentConfig(dgp=make_dgp("dgp2", 200), methods=DGP2_METHODS, seed=SEED, **SCALE)
    return run_experiment(cfg, workers=1)


@pytest.fixture(scope="session")
def dgp1_table():
    cfg = ExperimentConfig(dgp=make_dgp("dgp1", 100), methods=DGP1_METHODS, seed=SEED, **SCALE)
    return run_experiment(cfg, workers=1)


def _coverage_csv(path, table):
    _write_csv(
        str(path),
        ["method", "response", "shock", "horizon", "coverage", "mean_width",
         "n_covered", "n_success", "n_fail"],
        table.coverage_rows(),
    )


# --- criterion 1 -----------------------------------------------------------------


def test_criterion_01_dgp_constants():
    moduli1 = companion_roots(VarLevels((make_dgp("dgp1", 100).companion,)))
    moduli2 = companion_roots(VarLevels((make_dgp("dgp2", 100).companion,)))
    assert np.allclose(moduli1, [1.0, 0.98, 0.95], atol=1e-10)
    assert np.allclose(moduli2, [1.0, 0.0, 0.0], atol=1e-10)
    _passed("criterion 1 (DGP constants)", f"moduli {moduli1.round(12)} / {moduli2.round(12)}")


# --- criterion 2 -----------------------------------------------------------------


def test_criterion_02_estimator_oracle():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for trial in range(50):
        n_vars = int(rng.integers(2, 4))
        p = int(rng.integers(1, 3))
        n_obs = int(rng.integers(80, 140))
        y = np.cumsum(rng.standard_normal((n_obs, n_vars)), axis=0)
        y += rng.standard_normal((n_obs, n_vars))
        sweep = observed_sweep(y, p)
        (z0,), (z1,), (z2,) = regressor_blocks(y[None], p)

        full = johansen_fit_from(sweep, n_vars)
        design = np.hstack([z1, z2])
        coef, *_ = np.linalg.lstsq(design, z0, rcond=None)
        pi_ols = coef[:n_vars].T
        err = np.linalg.norm(full.Pi - pi_ols) / max(np.linalg.norm(pi_ols), 1.0)
        worst = max(worst, err)
        assert err < 1e-8
        for lag in range(p - 1):
            block = coef[n_vars + lag * n_vars : n_vars + (lag + 1) * n_vars].T
            rel = np.linalg.norm(full.Gammas[lag] - block) / max(np.linalg.norm(block), 1.0)
            assert rel < 1e-8

        zero = johansen_fit_from(sweep, 0)
        assert np.all(zero.Pi == 0)
        if z2.shape[1]:
            coef0, *_ = np.linalg.lstsq(z2, z0, rcond=None)
            for lag in range(p - 1):
                block = coef0[lag * n_vars : (lag + 1) * n_vars].T
                assert np.allclose(zero.Gammas[lag], block, atol=1e-8)

        assert trace_statistics(full)[-1] == 0.0
    _passed("criterion 2 (estimator oracle)", f"worst full-rank deviation {worst:.2e}")


# --- criterion 3 -----------------------------------------------------------------


def test_criterion_03_weight_identities():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(10_000):
        k = int(rng.integers(1, 7))
        stats = np.concatenate([np.sort(rng.uniform(0, 600, size=k))[::-1], [0.0]])
        w = plausibility_weights(
            stats, int(rng.integers(30, 1000)),
            c1=float(rng.uniform(0.05, 4.0)), c2=float(rng.uniform(0.05, 0.95)),
        )
        assert abs(w.raw.sum() - 1.0) < 1e-12
        assert np.all(w.raw >= 0.0)

    point_mass = plausibility_weights(np.zeros(4), 100)
    assert np.allclose(point_mass.normalized, [1.0, 0, 0, 0])
    assert point_mass.reference_rank == 0

    worked = plausibility_weights(np.array([500.0, 40.0, 10.0, 0.0]), 100, c1=1.0, c2=0.5)
    expected = np.array([1.93e-22, 0.01832, 0.34956, 0.63212])
    assert np.all(np.abs(worked.normalized - expected) < 1e-4)
    _passed("criterion 3 (weight identities)", f"worked case {worked.normalized.round(5)}")


# --- criterion 4 -----------------------------------------------------------------


def _direct_weights(normalized):
    normalized = np.asarray(normalized, dtype=float)
    return PlausibilityWeights(
        raw=normalized,
        normalized=normalized,
        c1=1.0,
        c2=0.5,
        trace_stats=np.zeros(normalized.size),
        t_eff=100,
        reference_rank=int(np.argmax(normalized)),
    )


def test_criterion_04_wimp_structure():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(10_000):
        k = int(rng.integers(1, 5))
        raw = rng.uniform(1e-6, 1.0, size=k + 1)
        weights = _direct_weights(raw / raw.sum())
        lowers = rng.standard_normal(k + 1) * 2
        uppers = lowers + rng.uniform(0.0, 3.0, size=k + 1)
        out = wimp_combine(lowers, uppers, weights, 0.05)
        ref = weights.reference_rank
        assert out.lower <= lowers[ref] and out.upper >= uppers[ref]
        assert out.lower >= lowers.min() and out.upper <= uppers.max()

    mass = _direct_weights([0.0, 1.0, 0.0])
    lowers = np.array([-9.0, -0.3123456789123456, -5.0])
    uppers = np.array([9.0, 0.9876543210987654, 5.0])
    out = wimp_combine(lowers, uppers, mass, 0.05)
    assert out.lower == lowers[1] and out.upper == uppers[1]

    half = _direct_weights([2 / 3, 1 / 3])
    worked = wimp_combine([-1.0, -3.0], [1.0, 0.5], half, 0.05)
    assert worked.contributions[1].relative_plausibility == 0.5
    assert worked.lower == -2.0 and worked.upper == 1.0
    _passed("criterion 4 (combined-interval structure)", "worked case [-2, 1] exact")


# --- criteria 5-8: the shared coverage experiments --------------------------------


def test_criterion_05_dgp2_coverage(dgp2_table):
    wimp_median = dgp2_table.median_coverage("wimp")
    true_median = dgp2_table.median_coverage("true_rank")
    ols_min_tail = dgp2_table.min_coverage("ols")[39:]

    wimp_avg = wimp_median.mean()
    assert 0.88 <= wimp_avg <= 0.97
    assert ols_min_tail.min() <= 0.80
    assert wimp_avg >= true_median.mean() - 0.01
    _passed(
        "criterion 5 (strong-cointegration coverage)",
        f"wimp avg median {wimp_avg:.3f}, true-rank {true_median.mean():.3f}, "
        f"ols min tail {ols_min_tail.min():.3f}",
    )


def test_criterion_06_dgp1_coverage(dgp1_table):
    wimp_median = dgp1_table.median_coverage("wimp")[29:]
    gaps = {}
    for rival in ("ols", "aic", "bic", "bers_aic", "bers_bic"):
        diff = wimp_median - dgp1_table.median_coverage(rival)[29:]
        gaps[rival] = diff.min()
        assert np.all(diff >= 0.0), f"wimp loses to {rival} at some horizon >= 30"
    floor = min(
        dgp1_table.min_coverage(r).min() for r in ("ols", "aic", "bic", "bers_aic", "bers_bic")
    )
    assert floor < 0.60
    _passed(
        "criterion 6 (weak-cointegration coverage)",
        "min gaps " + ", ".join(f"{k}:{v:.3f}" for k, v in gaps.items()) + f"; worst rival min {floor:.3f}",
    )


def test_criterion_07_width_sanity(dgp2_table, dgp1_table):
    wimp2 = dgp2_table.mean_width_by_horizon("wimp")
    true2 = dgp2_table.mean_width_by_horizon("true_rank")
    ratio2 = wimp2 / true2
    assert np.all(ratio2 <= 1.25)

    lavar1 = dgp1_table.mean_width_by_horizon("lavar")
    wimp1 = dgp1_table.mean_width_by_horizon("wimp")
    lavar2 = dgp2_table.mean_width_by_horizon("lavar")
    assert lavar1[29] >= 2.0 * wimp1[29]
    assert lavar2[29] >= 2.0 * wimp2[29]
    _passed(
        "criterion 7 (width sanity)",
        f"wimp/true-rank max {ratio2.max():.3f}; lag-augmented/wimp at h=30: "
        f"{lavar1[29] / wimp1[29]:.0f}x (weak), {lavar2[29] / wimp2[29]:.0f}x (strong)",
    )


def test_criterion_08_determinism_across_workers(dgp2_table, tmp_path):
    cfg = ExperimentConfig(dgp=make_dgp("dgp2", 200), methods=DGP2_METHODS, seed=SEED, **SCALE)
    pooled = run_experiment(cfg, workers=8)
    _coverage_csv(tmp_path / "w1.csv", dgp2_table)
    _coverage_csv(tmp_path / "w8.csv", pooled)
    bytes1 = (tmp_path / "w1.csv").read_bytes()
    bytes8 = (tmp_path / "w8.csv").read_bytes()
    assert bytes1 == bytes8
    _passed("criterion 8 (worker-count determinism)", f"{len(bytes1)} identical bytes")


# --- criterion 9 -----------------------------------------------------------------


def test_criterion_09_irf_path_difference_oracle():
    rng = np.random.default_rng(SEED + 3)
    checked = 0
    worst = 0.0
    while checked < 100:
        p = int(rng.integers(1, 4))
        n_vars = int(rng.integers(2, 4))
        mats = rng.standard_normal((p, n_vars, n_vars)) * 0.35
        var = VarLevels(tuple(mats))
        if companion_roots(var)[0] >= 0.95:
            continue
        checked += 1
        irf = irf_reduced(var, 60)
        for b in range(n_vars):
            path = np.zeros((61, n_vars))
            path[0, b] = 1.0
            for t in range(1, 61):
                acc = np.zeros(n_vars)
                for i in range(1, min(t, p) + 1):
                    acc += var.A[i - 1] @ path[t - i]
                path[t] = acc
            worst = max(worst, np.abs(irf.values[:, :, b] - path).max())
            assert np.allclose(irf.values[:, :, b], path, atol=1e-10)
    _passed("criterion 9 (response-path oracle)", f"100 systems, worst deviation {worst:.2e}")


# --- supplementary checks mirroring the simulation-study narrative ------------------
# These verify the qualitative method comparisons reported for the weak- and
# strong-cointegration designs at the reduced scale; measured values are
# recorded in the assertions' tolerances.


def test_supplementary_true_rank_close_but_below_nominal(dgp2_table):
    avg = dgp2_table.median_coverage("true_rank").mean()
    assert 0.85 <= avg <= 0.96


def test_supplementary_bagging_beats_pretest_and_levels(dgp1_table):
    fdbb = dgp1_table.median_coverage("fdbb_aic").mean()
    assert fdbb > dgp1_table.median_coverage("ols").mean()
    assert fdbb > dgp1_table.median_coverage("aic").mean()


def test_supplementary_rank_reselection_near_pretest(dgp1_table):
    bers = dgp1_table.median_coverage("bers_aic").mean()
    aic = dgp1_table.median_coverage("aic").mean()
    wimp = dgp1_table.median_coverage("wimp").mean()
    # endogenizing the selection shifts coverage only modestly (measured
    # +0.06 here) and does not reach the combined interval's level
    assert abs(bers - aic) <= 0.10
    assert bers < wimp


def test_supplementary_averaging_between_pretest_and_combined(dgp1_table):
    ma = dgp1_table.median_coverage("ma").mean()
    assert ma >= dgp1_table.median_coverage("aic").mean() - 0.02
    assert ma <= dgp1_table.median_coverage("wimp").mean() + 0.02


def test_supplementary_levels_specification_fails_at_long_horizons(dgp1_table):
    assert dgp1_table.min_coverage("ols")[29:].min() < 0.60


def test_supplementary_lag_augmentation_undercovers_short_horizons(dgp1_table):
    lavar = dgp1_table.median_coverage("lavar")[:3]
    ols = dgp1_table.median_coverage("ols")[:3]
    assert np.all(lavar < ols)
