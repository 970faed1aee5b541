import numpy as np
import pytest

from reference import companion_roots
from wimpvar import (
    ConfigError,
    DgpSpec,
    EstimationError,
    ExperimentConfig,
    VarLevels,
    irf_reduced,
    make_dgp,
    run_experiment,
    simulate_path,
    true_irf,
)
from wimpvar.bootstrap import _EXTRA_METHODS, register_method
from wimpvar.montecarlo import _bounds_from


def test_make_dgp_matrices():
    dgp1 = make_dgp("dgp1", 100)
    expected1 = np.array([[0, 0, 0], [0.10, -0.05, 0], [0.02, -0.02, -0.02]])
    assert np.allclose(dgp1.Pi, expected1, atol=1e-15)
    dgp2 = make_dgp("dgp2", 100)
    expected2 = np.array([[0, 0, 0], [2.0, -1.0, 0], [1.0, -1.0, -1.0]])
    assert np.allclose(dgp2.Pi, expected2, atol=1e-15)
    assert dgp1.true_rank == dgp2.true_rank == 2


def test_make_dgp_companion_moduli():
    moduli1 = companion_roots(VarLevels((make_dgp("dgp1", 50).companion,)))
    assert np.allclose(moduli1, [1.0, 0.98, 0.95], atol=1e-10)
    moduli2 = companion_roots(VarLevels((make_dgp("dgp2", 50).companion,)))
    assert np.allclose(moduli2, [1.0, 0.0, 0.0], atol=1e-10)


def test_make_dgp_zero_adjustment_is_random_walk():
    spec = DgpSpec("custom", 0.0, 0.0, 50)
    assert np.all(spec.Pi == 0)
    assert spec.true_rank == 0


def test_make_dgp_unknown_variant():
    with pytest.raises(ConfigError):
        make_dgp("dgp3", 100)


def test_simulate_zero_noise_is_zero_path():
    spec = make_dgp("dgp1", 40)
    path = simulate_path(spec, None, innovations=np.zeros((40, 3)))
    assert np.all(path == 0)


def test_simulate_fixed_seed_reproducible():
    spec = make_dgp("dgp2", 60)
    a = simulate_path(spec, np.random.default_rng(5))
    b = simulate_path(spec, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_simulate_innovation_moments_recovered():
    spec = make_dgp("dgp2", 100_000)
    path = simulate_path(spec, np.random.default_rng(6))
    prev = np.vstack([np.zeros(3), path[:-1]])
    innov = path - prev @ spec.companion.T
    cov = innov.T @ innov / len(innov)
    assert np.allclose(cov, np.eye(3), atol=0.02)
    assert np.all(np.abs(innov.mean(axis=0)) < 0.02)


def test_true_irf_values():
    spec = make_dgp("dgp2", 50)
    irf = true_irf(spec, 6)
    assert np.allclose(irf.values[0], np.eye(3))
    expected = np.array([[1.0, 0, 0], [2.0, 0, 0], [-1.0, 0, 0]])
    for j in range(2, 7):
        assert np.allclose(irf.values[j], expected, atol=1e-12)


def test_true_irf_matches_iterated_multiply_oracle():
    spec = make_dgp("dgp1", 50)
    irf = true_irf(spec, 60)
    power = np.eye(3)
    for j in range(61):
        assert np.allclose(irf.values[j], power, atol=1e-12)
        power = spec.companion @ power


def test_true_irf_cross_module_consistency():
    for variant in ("dgp1", "dgp2"):
        spec = make_dgp(variant, 50)
        mine = true_irf(spec, 25)
        other = irf_reduced(VarLevels((spec.companion,)), 25)
        assert np.allclose(mine.values, other.values, atol=1e-12)


def _tiny_config(methods, n_mc=8, seed=33):
    return ExperimentConfig(
        dgp=make_dgp("dgp2", 80),
        n_mc=n_mc,
        n_boot=49,
        gamma=0.1,
        h_max=6,
        methods=methods,
        seed=seed,
    )


def test_experiment_bookkeeping_and_ranges():
    cfg = _tiny_config(("ols", "true_rank", "aic", "wimp", "bers_bic", "ma", "fdbb_bic", "lavar"))
    table = run_experiment(cfg)
    for method in cfg.methods:
        rates = table.coverage(method)
        assert rates.shape == (3, 3, 6)
        assert np.all((rates >= 0) & (rates <= 1))
        assert table.n_failed(method) + int(table.success[table._m(method)]) == cfg.n_mc
        assert np.all(table.mean_width(method) >= 0)
    med = table.median_coverage("wimp")
    low = table.min_coverage("wimp")
    assert np.all(low <= med)
    rows = table.coverage_rows()
    assert len(rows) == len(cfg.methods) * 9 * 6
    srows = table.summary_rows()
    assert len(srows) == len(cfg.methods) * 6


def test_experiment_deterministic_across_worker_counts():
    cfg = _tiny_config(("ols", "wimp"), n_mc=6)
    seq = run_experiment(cfg, workers=1)
    par = run_experiment(cfg, workers=2)
    again = run_experiment(cfg, workers=1)
    assert np.array_equal(seq.covered, par.covered)
    assert np.array_equal(seq.width_sum, par.width_sum)
    assert np.array_equal(seq.success, par.success)
    assert np.array_equal(seq.covered, again.covered)
    assert np.array_equal(seq.width_sum, again.width_sum)


def test_experiment_methods_independent_of_method_set():
    # Adding another method must not change a method's results (streams are
    # keyed independently of the requested set).
    alone = run_experiment(_tiny_config(("ols",), n_mc=5))
    joint = run_experiment(_tiny_config(("ols", "bers_aic", "wimp"), n_mc=5))
    m_a = alone.methods.index("ols")
    m_j = joint.methods.index("ols")
    assert np.array_equal(alone.covered[m_a], joint.covered[m_j])
    assert np.array_equal(alone.width_sum[m_a], joint.width_sum[m_j])


def test_stub_methods_oracle_and_degenerate():
    n_queries = 9 * 6

    def stub_oracle(ctx):
        return (np.full(n_queries, -np.inf), np.full(n_queries, np.inf))

    def stub_degenerate(ctx):
        point = np.full(n_queries, 1e6)
        return (point, point)

    register_method("stub_oracle", stub_oracle)
    register_method("stub_degenerate", stub_degenerate)
    try:
        cfg = _tiny_config(("stub_oracle", "stub_degenerate"), n_mc=4)
        table = run_experiment(cfg)
        assert np.all(table.coverage("stub_oracle") == 1.0)
        assert np.all(np.isinf(table.mean_width("stub_oracle")))
        assert np.all(table.coverage("stub_degenerate") == 0.0)
        assert np.all(table.mean_width("stub_degenerate") == 0.0)
    finally:
        _EXTRA_METHODS.clear()


def test_stub_constant_interval_constant_width():
    def stub_unit(ctx):
        n = 9 * 6
        return (np.zeros(n), np.ones(n))

    register_method("stub_unit", stub_unit)
    try:
        table = run_experiment(_tiny_config(("stub_unit",), n_mc=3))
        widths = table.mean_width_by_horizon("stub_unit")
        assert np.allclose(widths, 1.0)
    finally:
        _EXTRA_METHODS.clear()


def test_runner_pair_of_wrong_length_is_a_config_error():
    register_method("stub_short", lambda prep: (np.zeros(3), np.ones(3)))
    try:
        with pytest.raises(ConfigError, match="stub_short"):
            run_experiment(_tiny_config(("stub_short",), n_mc=2))
        with pytest.raises(ConfigError, match="stub_triple"):
            _bounds_from("stub_triple", (np.zeros(2), np.ones(2), np.ones(2)), 2)
    finally:
        _EXTRA_METHODS.clear()


def test_runner_bounds_out_of_order_fail_the_replication():
    n_queries = 9 * 6
    register_method("stub_reversed", lambda prep: (np.ones(n_queries), np.zeros(n_queries)))
    try:
        table = run_experiment(_tiny_config(("ols", "stub_reversed"), n_mc=3))
        assert table.n_failed("stub_reversed") == 3
        assert table.n_failed("ols") == 0
        with pytest.raises(EstimationError, match="stub_reversed"):
            _bounds_from("stub_reversed", (np.ones(2), np.zeros(2)), 2)
    finally:
        _EXTRA_METHODS.clear()


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(dgp=make_dgp("dgp1", 100), methods=("nope",))
    with pytest.raises(ConfigError):
        ExperimentConfig(dgp=make_dgp("dgp1", 100), n_mc=0)
    # bootstrap-level settings are rejected at configuration time, not
    # silently recorded as failed replications
    with pytest.raises(ConfigError):
        ExperimentConfig(dgp=make_dgp("dgp1", 100), n_boot=5)
    with pytest.raises(ConfigError):
        ExperimentConfig(dgp=make_dgp("dgp1", 100), gamma=2.0)
    # a sample shorter than the estimator's K*p + 10 minimum fails every
    # replication, so it is refused up front
    with pytest.raises(ConfigError, match="K\\*p \\+ 10"):
        ExperimentConfig(dgp=make_dgp("dgp1", 5))
    with pytest.raises(ConfigError):
        ExperimentConfig(dgp=make_dgp("dgp1", 15), p=2)
    assert ExperimentConfig(dgp=make_dgp("dgp1", 13)).dgp.T == 13
