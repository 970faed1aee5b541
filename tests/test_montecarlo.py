import pickle

import numpy as np
import pytest

from reference import companion_roots, rebuild_levels_stepwise
from wimpvar import (
    ConfigError,
    DgpSpec,
    EstimationError,
    ExperimentConfig,
    IntervalSet,
    VarLevels,
    irf_reduced,
    make_dgp,
    run_experiment,
    simulate_path,
    true_irf,
)
from wimpvar import _batch, bootstrap, montecarlo
from wimpvar.bootstrap import _EXTRA_METHODS, _zeta_at_rank, register_method
from wimpvar.montecarlo import _bounds_from, _run_chunk


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
    spec = DgpSpec(np.eye(3)[None], 50)
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


def test_make_dgp_is_a_var1_held_as_data():
    spec = make_dgp("dgp1", 100)
    assert spec.mats.shape == (1, 3, 3) and spec.n_vars == 3 and spec.T == 100
    assert np.array_equal(spec.companion, spec.mats[0])
    assert not spec.mats.flags.writeable


def test_dgp_spec_keeps_a_copy_of_its_matrices():
    mats = np.eye(2)[None].copy()
    spec = DgpSpec(mats, 30)
    mats[0, 0, 0] = 5.0
    assert spec.mats[0, 0, 0] == 1.0


def test_an_unpickled_dgp_spec_is_rebuilt_read_only():
    # A run_experiment pool worker receives its design pickled.
    spec = make_dgp("dgp1", 100)
    copy = pickle.loads(pickle.dumps(spec))
    assert not copy.mats.flags.writeable
    assert np.array_equal(copy.mats, spec.mats) and copy.T == spec.T


@pytest.mark.parametrize(
    "mats",
    [np.eye(3), np.zeros((1, 2, 3)), np.zeros((0, 3, 3)), np.zeros((1, 0, 0))],
    ids=["two_axes", "not_square", "no_lags", "no_variables"],
)
def test_dgp_spec_refuses_matrices_not_of_shape_p_k_k(mats):
    with pytest.raises(ConfigError, match="mats"):
        DgpSpec(mats, 50)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dgp_spec_refuses_non_finite_matrices(bad):
    mats = np.eye(3)[None].copy()
    mats[0, 1, 2] = bad
    with pytest.raises(ConfigError, match="finite"):
        DgpSpec(mats, 50)


def test_dgp_spec_refuses_a_non_integer_sample_length():
    with pytest.raises(ConfigError, match="T must be an integer"):
        make_dgp("dgp1", 50.5)


def test_dgp_spec_refuses_an_empty_sample():
    with pytest.raises(ConfigError, match="T must be at least 1"):
        make_dgp("dgp1", 0)


def test_true_irf_refuses_a_negative_horizon():
    with pytest.raises(ConfigError, match="h_max"):
        true_irf(make_dgp("dgp1", 50), -1)


def _k4_var2_design(T: int) -> DgpSpec:
    """K = 4, p = 2, rank 2: Delta y_t = alpha beta' y_{t-1} + G Delta y_{t-1} + e_t
    with alpha = -0.2 [e1, e3], beta = [e1 - e2, e3 - e4] and G = 0.2 I."""
    eye = np.eye(4)
    alpha = -0.2 * eye[:, [0, 2]]
    beta = np.stack([eye[0] - eye[1], eye[2] - eye[3]], axis=1)
    gamma = 0.2 * eye
    return DgpSpec(np.stack([eye + alpha @ beta.T + gamma, -gamma]), T)


@pytest.mark.bitwise
def test_a_k4_var2_design_runs_with_its_own_true_rank_on_any_worker_count():
    spec = _k4_var2_design(60)
    assert spec.true_rank == 2
    cfg = ExperimentConfig(
        dgp=spec, n_mc=20, n_boot=49, gamma=0.1, h_max=4, p=2,
        methods=("ols", "true_rank", "wimp"), seed=5,
    )  # a second, partial chunk
    seq = run_experiment(cfg, workers=1)
    par = run_experiment(cfg, workers=2)
    assert seq.covered.shape == seq.width_sum.shape == (3, 4, 4, 4)
    assert seq.n_vars == 4 and len(seq.coverage_rows()) == 3 * 16 * 4
    assert seq.success.tolist() == [cfg.n_mc] * 3
    _assert_bitwise(*[(table.covered, table.width_sum, table.success) for table in (par, seq)])


@pytest.mark.parametrize("design", ["dgp1", "dgp2", "k4_var2"])
def test_true_irf_is_the_path_difference_of_a_unit_shock(design):
    # Criterion 09's oracle on the design's own simulator: the path with a
    # unit shock in b at t = 0 minus the path without it is column b of the
    # true responses.
    spec = _k4_var2_design(41) if design == "k4_var2" else make_dgp(design, 41)
    shocks = np.random.default_rng(8).standard_normal((spec.T, spec.n_vars))
    base = simulate_path(spec, None, innovations=shocks)
    irf = true_irf(spec, spec.T - 1)
    for b in range(spec.n_vars):
        bumped = shocks.copy()
        bumped[0, b] += 1.0
        difference = simulate_path(spec, None, innovations=bumped) - base
        assert np.abs(irf.values[:, :, b] - difference).max() <= 1e-12


@pytest.mark.parametrize("design", ["dgp1", "k4_var2"])
def test_simulate_path_is_the_stepwise_recursion_from_zero_rows(design):
    spec = _k4_var2_design(80) if design == "k4_var2" else make_dgp(design, 80)
    p, n_vars = spec.mats.shape[:2]
    path = simulate_path(spec, np.random.default_rng(9))
    shocks = np.random.default_rng(9).standard_normal((spec.T, n_vars))
    want = rebuild_levels_stepwise(spec.mats, shocks[None], np.zeros((p, n_vars)))[0, p:]
    assert np.abs(path - want).max() <= 1e-12 * np.abs(want).max()


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
    cfg = _tiny_config(("ols", "wimp"), n_mc=21)  # a second, partial chunk
    seq = run_experiment(cfg, workers=1)
    par = run_experiment(cfg, workers=2)
    again = run_experiment(cfg, workers=1)
    assert np.array_equal(seq.covered, par.covered)
    assert np.array_equal(seq.width_sum, par.width_sum)
    assert np.array_equal(seq.success, par.success)
    assert np.array_equal(seq.covered, again.covered)
    assert np.array_equal(seq.width_sum, again.width_sum)


ALL_METHODS = (
    "ols", "true_rank", "aic", "bic", "bers_aic", "bers_bic", "ma", "fdbb_aic", "fdbb_bic",
    "wimp", "lavar",
)


def _level1_range(prep):
    """A registered extra that reads a level-1 batch itself: the range of
    the replications' query values at rank 1."""
    values, _, _ = _zeta_at_rank(prep.level1(1).sweep, 1, prep.cq)
    return values.min(axis=0), values.max(axis=0)


@pytest.fixture
def extra_method():
    register_method("level1_range", _level1_range)
    yield "level1_range"
    _EXTRA_METHODS.clear()


def _chunk_config(variant, methods, seed=41):
    return ExperimentConfig(
        dgp=make_dgp(variant, 60), n_mc=32, n_boot=39, gamma=0.1, h_max=4,
        methods=methods, seed=seed,
    )


def _solo_sums(cfg, reps):
    """The sums of single-replication chunks, added in replication order
    as a chunk adds its replications."""
    parts = [_run_chunk(cfg, [rep]) for rep in reps]
    sums = [np.zeros_like(array) for array in parts[0]]
    for part in parts:
        for total, array in zip(sums, part):
            total += array
    return sums


def _assert_bitwise(chunk, solo):
    for got, want in zip(chunk, solo):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# n = 7 ends in a partial group, n = 16 is one whole chunk of full groups.
@pytest.mark.bitwise
@pytest.mark.parametrize("variant", ["dgp1", "dgp2"])
@pytest.mark.parametrize("n_reps", [7, 16])
def test_a_chunk_equals_its_replications_run_alone(variant, n_reps, extra_method):
    # Stacked preparation and stacked sweeps treat every replication alone:
    # the chunk's sums are bitwise those of one-replication chunks.
    cfg = _chunk_config(variant, (*ALL_METHODS, extra_method))
    reps = list(range(3, 3 + n_reps))
    chunk = _run_chunk(cfg, reps)
    assert chunk[2].tolist() == [n_reps] * len(cfg.methods)  # no replication failed
    _assert_bitwise(chunk, _solo_sums(cfg, reps))


@pytest.mark.bitwise
def test_a_rejected_observed_sample_fails_every_method_and_spares_its_group(
    monkeypatch, extra_method
):
    cfg = _chunk_config("dgp1", (*ALL_METHODS, extra_method))
    # The bad replication is prepared in one stack with the others, and
    # reps 0, 2, 3 and 4 then run as one group.
    reps, bad = list(range(6)), 1
    target = simulate_path(cfg.dgp, bootstrap._stream(cfg.seed, 7, 901, bad))
    original = montecarlo.simulate_path

    def with_a_constant_column(spec, rng):
        path = original(spec, rng)
        if np.array_equal(path, target):
            path[:, 1] = 5.0  # its differences vanish: the observed sweep rejects it
        return path

    monkeypatch.setattr(montecarlo, "simulate_path", with_a_constant_column)
    alone = _run_chunk(cfg, [bad])
    assert not alone[0].any() and not alone[1].any() and not alone[2].any()
    good = [rep for rep in reps if rep != bad]
    chunk = _run_chunk(cfg, reps)
    assert chunk[2].tolist() == [len(good)] * len(cfg.methods)
    _assert_bitwise(chunk, _solo_sums(cfg, good))


def test_a_chunk_sweeps_its_observed_samples_once_and_stacks_its_level1_batches(monkeypatch):
    # One 16-replication chunk, all 11 methods: the observed samples are
    # swept once at p, and each rank's level-1 batches once per group of
    # replications, from the Gram matrices their chunked builds wrote.
    # The rank-K build of a group also sweeps lavar's p+1 Gram rows of its
    # batches as one stack, and the group's observed samples at p+1 as
    # another; FDBB level two sweeps per replication and selector.  Every
    # sweep, observed or bootstrap, gets only Gram matrices of the width of
    # its lag order, over T - p rows at p and T - p - 1 at p + 1.
    inside, sweeps = [], []
    sweep_batch = _batch.sweep_batch
    level1_batches = bootstrap._level1_batches
    cfg = _chunk_config("dgp1", ALL_METHODS)
    n_reps, p, n_boot, group = 16, cfg.p, cfg.n_boot, montecarlo._GROUP

    def counting(gram, p, t_eff):
        width = cfg.dgp.n_vars * (p + 1)
        assert gram.ndim == 3 and gram.shape[1:] == (width, width)
        assert t_eff == cfg.dgp.T - p  # at lavar's lag order, T - cfg.p - 1
        sweeps.append((bool(inside), len(gram), p))
        return sweep_batch(gram, p, t_eff)

    def building(*args, **kwargs):
        inside.append(True)
        try:
            return level1_batches(*args, **kwargs)
        finally:
            inside.pop()

    def refused(*args, **kwargs):
        raise AssertionError("_run_chunk prepares its samples as one stack")

    monkeypatch.setattr(_batch, "sweep_batch", counting)
    monkeypatch.setattr(bootstrap, "_level1_batches", building)
    monkeypatch.setattr(bootstrap, "_prepare", refused)
    assert _run_chunk(cfg, range(n_reps))[2].tolist() == [n_reps] * len(ALL_METHODS)
    groups = -(-n_reps // group)
    assert n_reps % group == 0  # every group is whole
    assert [sweep for sweep in sweeps if sweep[1] == n_reps] == [(False, n_reps, p)]
    level1 = [sweep for sweep in sweeps if sweep[0] and sweep[2] == p]
    assert 0 < len(level1) <= (cfg.dgp.n_vars + 1) * groups
    assert all(size % n_boot == 0 and size <= group * n_boot for _, size, _ in level1)
    lavar = [sweep for sweep in sweeps if sweep[0] and sweep[2] == p + 1]
    assert sorted(lavar) == [(True, group, p + 1)] * groups + [(True, group * n_boot, p + 1)] * groups
    assert sweeps.count((False, n_boot, p)) == 2 * n_reps
    assert len(sweeps) == 1 + len(level1) + len(lavar) + 2 * n_reps


def test_experiment_methods_independent_of_method_set():
    # Adding another method must not change a method's results (streams are
    # keyed independently of the requested set).
    for method, methods in (("ols", ("ols", "bers_aic", "wimp")), ("lavar", ("ols", "lavar", "wimp"))):
        alone = run_experiment(_tiny_config((method,), n_mc=5))
        joint = run_experiment(_tiny_config(methods, n_mc=5))
        m_a = alone.methods.index(method)
        m_j = joint.methods.index(method)
        assert np.array_equal(alone.covered[m_a], joint.covered[m_j]), method
        assert np.array_equal(alone.width_sum[m_a], joint.width_sum[m_j]), method


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


def test_runner_nan_bound_fails_the_replication():
    n_queries = 9 * 6
    lower, upper = np.zeros(n_queries), np.full(n_queries, 2.0)
    lower[0] = np.nan

    def stub_nan_set(prep):
        return IntervalSet(
            method="stub_nan_set", gamma=0.05, rank=None, queries=prep.queries,
            lower=lower, upper=upper, point=np.ones(n_queries), n_boot=39, n_failed=0,
        )

    register_method("stub_nan", lambda prep: (lower, upper))
    register_method("stub_nan_set", stub_nan_set)
    try:
        table = run_experiment(_tiny_config(("ols", "stub_nan", "stub_nan_set"), n_mc=3))
        assert table.n_failed("stub_nan") == table.n_failed("stub_nan_set") == 3
        assert table.n_failed("ols") == 0
        with pytest.raises(EstimationError, match="stub_nan"):
            _bounds_from("stub_nan", (lower[:2], upper[:2]), 2)
    finally:
        _EXTRA_METHODS.clear()


def test_repeated_method_names_are_run_and_listed_once():
    cfg = ExperimentConfig(
        dgp=make_dgp("dgp1", 60), n_mc=1, n_boot=39, h_max=2, methods=("ols", "ols"), seed=3
    )
    assert cfg.methods == ("ols",)
    table = run_experiment(cfg, workers=1)
    assert table.methods == ("ols",)
    assert len(table.coverage_rows()) == 3 * 3 * 2  # (a, b) pairs at K = 3, horizons 1..2


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(dgp=make_dgp("dgp1", 100), methods=("nope",))
    with pytest.raises(ConfigError, match="string 'wimp'"):
        ExperimentConfig(dgp=make_dgp("dgp1", 100), methods="wimp")
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
