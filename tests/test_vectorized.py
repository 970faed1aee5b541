"""Vectorized kernels against their loop references.

The bootstrap draw is checked against numpy's own Philox generator for the
build's key, the compiled query gather against the scalar ``evaluate_zeta``
of the tests' reference module.  A contiguous run of element queries reads
a view of the response stack, and the Hall step gives the same bits on C-
and F-ordered replication stacks.  For a fixed centre, the shifted order
statistics of a plain copy equal the sort of the centred copy, bit for bit.
"""
from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import reference  # noqa: E402
from reference import evaluate_zeta  # noqa: E402
from wimpvar import BootstrapConfig, IrfArray, IrfQuery  # noqa: E402
from wimpvar import _batch, bootstrap  # noqa: E402
from wimpvar.bootstrap import (  # noqa: E402
    _compile_queries,
    _draw_index_matrix,
    _finalize,
    _stream,
)
from wimpvar.vecm import REDUCED_FORM, STRUCTURAL_CHOLESKY  # noqa: E402

U64 = st.integers(0, 2**64 - 1)
U16 = st.integers(0, 2**16 - 1)
# Pools just above 2**31 make numpy reject about half of all 32-bit words;
# pools above 2**32 take its 64-bit path.
POOLS = st.one_of(
    st.integers(1, 2**32),
    st.integers(2**31 - 2, 2**31 + 3),
    st.sampled_from([1, 2, 3, 98, 795, 2**32 - 1, 2**32, 2**32 + 1, 2**40]),
)


def _reference(seed, level, code, n_rows, pool_size, n_draw):
    """Rows of the build's stream, drawn in one flat call of numpy's generator."""
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | (level << 48) | (code << 32)))
    return rng.integers(0, pool_size, size=n_rows * n_draw).reshape(n_rows, n_draw)


@settings(max_examples=150, deadline=None)
@given(
    seed=U64,
    level=U16,
    code=U16,
    splits=st.lists(st.integers(0, 6), max_size=4),
    pool_size=POOLS,
    n_draw=st.integers(0, 41),
)
def test_draw_matches_the_builds_generator(seed, level, code, splits, pool_size, n_draw):
    # Passes of any sizes continue the build's stream: together they equal
    # one flat call of numpy's generator under the build's key.
    stream = _stream(seed, level, code)
    parts = [_draw_index_matrix(stream, n_rows, pool_size, n_draw) for n_rows in splits]
    got = np.concatenate(parts) if parts else np.empty((0, n_draw), dtype=np.int64)
    assert all(part.dtype == np.int64 for part in parts)
    assert np.array_equal(got, _reference(seed, level, code, sum(splits), pool_size, n_draw))


def test_draw_half_rejecting_pool_matches_numpy():
    # (2**32 - n) % n = 2**31 - 1: numpy rejects about half the words.
    pool = 2**31 + 1
    stream = _stream(3, 1, 2)
    got = np.concatenate([_draw_index_matrix(stream, n, pool, 19) for n in (7, 1, 17)])
    assert np.array_equal(got, _reference(3, 1, 2, 25, pool, 19))


def _draws(resid, cfg, level, code, init, n_obs, step):
    """Every replication of a build drawn ``step`` rows per call of its
    drawer, (n_boot, n_obs, K); with one pool per replication, each call
    passes its own."""
    paths = np.full((cfg.n_boot, n_obs, resid.shape[-1]), np.nan)
    draw = bootstrap._drawer(cfg, level, code, init)
    for lo in range(0, cfg.n_boot, step):
        rows = slice(lo, lo + step)
        draw(paths[rows], resid[rows] if len(resid) > 1 else resid)
    return paths


def test_draw_large_grid_spans_several_passes():
    # 399 replications of 795 draws take seven calls of the drawer, 64 rows
    # each and a tail of 15, as a streamed build makes them; rows must not
    # shift across the call boundaries.
    assert -(-399 // _batch._CHUNK) == 7
    # Pool row i holds i, so the gathered paths read back as the indices
    # (exact in floats once the pool's mean, 397, is added back).
    resid = np.arange(795.0)[None, :, None]
    cfg = BootstrapConfig(n_boot=399, seed=2**64 - 1)
    paths = _draws(resid, cfg, 1, 3, np.zeros((1, 1)), 1 + 795, _batch._CHUNK)
    expected = _reference(2**64 - 1, 1, 3, 399, 795, 795)
    assert np.array_equal(paths[:, 1:, 0] + 397, expected)


@settings(max_examples=40, deadline=None)
@given(
    n_boot=st.integers(39, 90),
    n_small=st.integers(39, 90),
    n_draw=st.integers(1, 60),
    pool_size=st.integers(1, 300),
    level=U16,
    code=U16,
    own_pools=st.booleans(),
)
def test_draw_pass_boundaries_never_enter_the_draws(
    n_boot, n_small, n_draw, pool_size, level, code, own_pools
):
    # One row per call of the drawer and all rows in one call draw the same
    # paths, and a smaller build draws the leading rows of a larger one.
    n_small = min(n_small, n_boot)
    n_pools = n_boot if own_pools else 1
    resid = np.random.default_rng(n_draw).standard_normal((n_pools, pool_size, 2))
    init = np.ones((2, 2))

    def draws(n, step):
        cfg = BootstrapConfig(n_boot=n, seed=11)
        return _draws(resid[:n] if n_pools > 1 else resid, cfg, level, code, init, 2 + n_draw, step)

    one_row = draws(n_boot, 1)
    assert np.array_equal(draws(n_boot, n_boot), one_row)
    assert np.array_equal(draws(n_small, n_boot), one_row[:n_small])
    assert np.array_equal(draws(n_small, 1), one_row[:n_small])


def test_draw_rejects_an_empty_pool():
    with pytest.raises(ValueError, match="pool size"):
        _draw_index_matrix(_stream(0, 1, 1), 4, 0, 8)


@pytest.mark.parametrize(
    "fields",
    [(0, 2**16, 0, 0), (0, 0, 2**16, 0), (0, 0, 0, 2**32), (2**64, 0, 0, 0),
     (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)],
)
def test_stream_refuses_key_fields_out_of_range(fields):
    # Unchecked, code 2**16 at level 0 would be the key of level 1, code 0.
    with pytest.raises(ValueError, match="stream key fields"):
        _stream(*fields)


def test_stream_key_fields_fill_their_widths():
    top = _stream(2**64 - 1, 2**16 - 1, 2**16 - 1, 2**32 - 1)
    expected = np.random.Philox(key=2**128 - 1).random_raw(4)
    assert np.array_equal(top.bit_generator.random_raw(4), expected)


# --- compiled queries -------------------------------------------------------------


@st.composite
def _query_sets(draw):
    n_vars = draw(st.integers(1, 4))
    h_top = draw(st.integers(0, 6))
    query = st.builds(
        IrfQuery,
        a=st.integers(1, n_vars),
        b=st.integers(1, n_vars),
        horizon=st.integers(0, h_top),
        h_max=st.integers(0, h_top),
        functional=st.sampled_from(["element", "max_over_horizons"]),
        kind=st.sampled_from([REDUCED_FORM, STRUCTURAL_CHOLESKY]),
    )
    return n_vars, draw(st.lists(query, min_size=1, max_size=25))


@settings(max_examples=150, deadline=None)
@given(spec=_query_sets(), n_batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_compiled_queries_match_evaluate_zeta(spec, n_batch, seed):
    n_vars, queries = spec
    cq = _compile_queries(queries, n_vars)
    rng = np.random.default_rng(seed)
    shape = (n_batch, cq.h_need + 1, n_vars, n_vars)
    psi = rng.standard_normal(shape)
    phi = rng.standard_normal(shape) if cq.need_structural else None
    got = cq.evaluate(psi, phi)
    assert got.shape == (n_batch, len(queries))
    for b in range(n_batch):
        stacks = {REDUCED_FORM: psi[b]}
        if phi is not None:
            stacks[STRUCTURAL_CHOLESKY] = phi[b]
        for pos, query in enumerate(queries):
            irf = IrfArray(stacks[query.kind], query.kind)
            assert got[b, pos] == evaluate_zeta(irf, query)


@st.composite
def _runs(draw):
    """A (K, kind, queries, flat indices) ascending contiguous run of element
    queries over the (h, a, b) layout of a response stack."""
    n_vars = draw(st.integers(1, 4))
    cells = [
        (h, a, b)
        for h in range(draw(st.integers(0, 6)) + 1)
        for a in range(1, n_vars + 1)
        for b in range(1, n_vars + 1)
    ]
    start = draw(st.integers(0, len(cells) - 1))
    stop = draw(st.integers(start + 1, len(cells)))
    kind = draw(st.sampled_from([REDUCED_FORM, STRUCTURAL_CHOLESKY]))
    queries = [IrfQuery(a=a, b=b, horizon=h, kind=kind) for h, a, b in cells[start:stop]]
    return n_vars, kind, queries, np.arange(start, stop)


def _stacks(cq, n_vars, n_batch, seed):
    rng = np.random.default_rng(seed)
    shape = (n_batch, cq.h_need + 1, n_vars, n_vars)
    return {REDUCED_FORM: rng.standard_normal(shape), STRUCTURAL_CHOLESKY: rng.standard_normal(shape)}


@settings(max_examples=100, deadline=None)
@given(run=_runs(), n_batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_a_contiguous_run_of_element_queries_reads_a_view(run, n_batch, seed):
    n_vars, kind, queries, indices = run
    cq = _compile_queries(queries, n_vars)
    stacks = _stacks(cq, n_vars, n_batch, seed)
    got = cq.evaluate(stacks[REDUCED_FORM], stacks[STRUCTURAL_CHOLESKY] if cq.need_structural else None)
    assert np.shares_memory(got, stacks[kind])
    gathered = stacks[kind].reshape(n_batch, -1)[:, indices]
    assert got.shape == gathered.shape and got.tobytes() == gathered.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    run=_runs(),
    change=st.sampled_from(["permute", "gap", "max", "other_kind"]),
    n_batch=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_a_permuted_gapped_or_max_query_set_still_gathers(run, change, n_batch, seed, data):
    n_vars, kind, queries, _ = run
    hypothesis.assume(len(queries) >= (3 if change == "gap" else 2))
    if change == "permute":
        queries = data.draw(st.permutations(queries))
        hypothesis.assume(queries != sorted(queries, key=lambda q: (q.horizon, q.a, q.b)))
    elif change == "gap":
        del queries[data.draw(st.integers(1, len(queries) - 2))]
    elif change == "max":
        queries.append(IrfQuery(a=1, b=1, h_max=2, functional="max_over_horizons", kind=kind))
    else:
        other = STRUCTURAL_CHOLESKY if kind == REDUCED_FORM else REDUCED_FORM
        queries[-1] = IrfQuery(a=queries[-1].a, b=queries[-1].b, horizon=queries[-1].horizon, kind=other)
    cq = _compile_queries(queries, n_vars)
    stacks = _stacks(cq, n_vars, n_batch, seed)
    got = cq.evaluate(stacks[REDUCED_FORM], stacks[STRUCTURAL_CHOLESKY] if cq.need_structural else None)
    assert not any(np.shares_memory(got, stack) for stack in stacks.values())
    for b in range(n_batch):
        for pos, query in enumerate(queries):
            assert got[b, pos] == evaluate_zeta(IrfArray(stacks[query.kind][b], query.kind), query)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_boot=st.integers(39, 120),
    n_queries=st.integers(1, 30),
    n_failed=st.integers(0, 3),
    as_nan=st.booleans(),
    gamma=st.sampled_from([0.05, 0.1, 0.32]),
)
def test_finalize_gives_c_and_f_ordered_stacks_the_same_bits(
    seed, n_boot, n_queries, n_failed, as_nan, gamma
):
    # A run of element queries hands _finalize a C-ordered view, a gather an
    # F-ordered array; the bounds and the census do not depend on which.
    rng = np.random.default_rng(seed)
    zeta = rng.standard_normal((n_boot, n_queries)) * rng.uniform(0.1, 10.0, n_queries)
    ok = np.ones(n_boot, dtype=bool)
    failed = rng.choice(n_boot, n_failed, replace=False)
    if as_nan:
        zeta[failed, rng.integers(0, n_queries, n_failed)] = np.nan
    else:
        ok[failed] = False
    points = rng.standard_normal(n_queries)
    cfg = BootstrapConfig(n_boot=n_boot, gamma=gamma, max_failure_share=0.5)
    queries = [IrfQuery(a=1, b=1, horizon=h) for h in range(n_queries)]
    prep = SimpleNamespace(cfg=cfg, cq=_compile_queries(queries, 1))
    c = _finalize(prep, "a test", None, np.ascontiguousarray(zeta), ok, points, "a test")
    f = _finalize(prep, "a test", None, np.asfortranarray(zeta), ok, points, "a test")
    assert c.n_failed == f.n_failed == n_failed
    assert c.lower.tobytes() == f.lower.tobytes() and c.upper.tobytes() == f.upper.tobytes()


# Values with ties (a small pool), both zeros and magnitudes from 1e-300 to 1e300
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(-300, 299)),
)


@pytest.mark.bitwise
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_boot=st.sampled_from([39, 40, 199, 399]),
    gamma=st.sampled_from([0.05, 0.1, 0.32]),
    n_queries=st.integers(1, 5),
    pool=st.lists(_VALUES, min_size=1, max_size=12),
    points=st.lists(_VALUES, min_size=5, max_size=5),
    n_failed=st.integers(0, 3),
    as_nan=st.booleans(),
)
def test_shifted_order_statistics_equal_the_centred_sort(
    seed, n_boot, gamma, n_queries, pool, points, n_failed, as_nan
):
    # For a fixed centre the finisher sorts a plain copy of the statistics
    # and shifts its two order statistics by the points: fl(x - c) is
    # monotone in x, so the bounds are bitwise those of sorting the centred
    # copy (tests/reference.py), ties, both zeros and failed rows included.
    rng = np.random.default_rng(seed)
    stats = np.array(pool)[rng.integers(0, len(pool), (n_boot, n_queries))]
    points = np.array(points[:n_queries])
    ok = np.ones(n_boot, dtype=bool)
    failed = rng.choice(n_boot, n_failed, replace=False)
    if as_nan:
        stats[failed, rng.integers(0, n_queries, n_failed)] = np.nan
    else:
        ok[failed] = False
    kept = np.delete(stats, failed, axis=0)
    lower, upper = reference.hall_bounds_centred(kept, points, gamma)
    got = bootstrap._hall_bounds(np.array(kept, order="F"), points, gamma, points)
    assert got[0].tobytes() == lower.tobytes() and got[1].tobytes() == upper.tobytes()
    cfg = BootstrapConfig(n_boot=n_boot, gamma=gamma, max_failure_share=0.5)
    queries = [IrfQuery(a=1, b=1, horizon=h) for h in range(n_queries)]
    prep = SimpleNamespace(cfg=cfg, cq=_compile_queries(queries, 1))
    result = _finalize(prep, "a test", None, stats, ok, points, "a test")
    assert result.n_failed == n_failed
    assert result.lower.tobytes() == lower.tobytes() and result.upper.tobytes() == upper.tobytes()
