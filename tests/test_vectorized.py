"""Vectorized kernels against their loop references.

The counter-grid draw is checked against numpy's own Philox generator, the
compiled query gather against the scalar ``evaluate_zeta`` of the tests'
reference module.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from reference import evaluate_zeta  # noqa: E402
from wimpvar import IrfArray, IrfQuery  # noqa: E402
from wimpvar.bootstrap import _DRAW_CELLS, _compile_queries, _draw_index_matrix, _philox4x64  # noqa: E402
from wimpvar.vecm import REDUCED_FORM, STRUCTURAL_CHOLESKY  # noqa: E402

U64 = st.integers(0, 2**64 - 1)
# Pools just above 2**31 reject about half of all words, so nearly every row
# takes the reference-generator fallback.
POOLS = st.one_of(
    st.integers(1, 2**32),
    st.integers(2**31 - 2, 2**31 + 3),
    st.sampled_from([1, 2, 3, 98, 795, 2**32 - 1, 2**32]),
)


def _reference_loop(seed, level, code, n_boot, pool_size, n_draw):
    """One generator per replication: the draw as first written."""
    idx = np.empty((n_boot, n_draw), dtype=np.int64)
    for rep in range(n_boot):
        key = (seed << 64) | (level << 48) | (code << 32) | rep
        rng = np.random.Generator(np.random.Philox(key=key))
        idx[rep] = rng.integers(0, pool_size, size=n_draw)
    return idx


@settings(max_examples=150, deadline=None)
@given(
    seed=U64,
    level=st.integers(0, 2**16 - 1),
    code=st.integers(0, 2**16 - 1),
    n_boot=st.integers(0, 12),
    pool_size=POOLS,
    n_draw=st.integers(0, 41),
)
def test_draw_matches_per_replication_generators(seed, level, code, n_boot, pool_size, n_draw):
    got = _draw_index_matrix(seed, level, code, range(n_boot), pool_size, n_draw)
    assert got.dtype == np.int64
    assert np.array_equal(got, _reference_loop(seed, level, code, n_boot, pool_size, n_draw))


@settings(max_examples=100, deadline=None)
@given(key0=U64, key1=U64, n_blocks=st.integers(1, 5))
def test_philox_blocks_match_random_raw(key0, key1, n_blocks):
    blocks = _philox4x64(
        np.array([[key0]], dtype=np.uint64),
        np.array([key1], dtype=np.uint64),
        np.arange(1, n_blocks + 1, dtype=np.uint64),
    )
    words = np.stack([np.broadcast_to(x, (1, n_blocks)) for x in blocks], axis=-1).ravel()
    raw = np.random.Philox(key=(key1 << 64) | key0).random_raw(4 * n_blocks)
    assert np.array_equal(words, raw)


def test_draw_fallback_rows_match_reference():
    # (2**32 - n) % n = 2**31 - 1: about half the words are rejected.
    pool = 2**31 + 1
    assert np.array_equal(
        _draw_index_matrix(3, 1, 2, range(25), pool, 19), _reference_loop(3, 1, 2, 25, pool, 19)
    )


def test_draw_large_grid_spans_several_passes():
    # 399 x 100 blocks are drawn in passes of _DRAW_CELLS cells, 81 rows;
    # rows must not shift, and one call over the whole grid agrees.
    step = _DRAW_CELLS // 100
    passes = [
        _draw_index_matrix(2**64 - 1, 1, 3, range(lo, min(lo + step, 399)), 795, 795)
        for lo in range(0, 399, step)
    ]
    expected = _reference_loop(2**64 - 1, 1, 3, 399, 795, 795)
    assert len(passes) == 5
    assert np.array_equal(np.concatenate(passes), expected)
    assert np.array_equal(_draw_index_matrix(2**64 - 1, 1, 3, range(399), 795, 795), expected)


@pytest.mark.parametrize("pool_size", [0, 2**32 + 1])
def test_draw_rejects_pool_outside_32_bits(pool_size):
    with pytest.raises(ValueError, match="pool size"):
        _draw_index_matrix(0, 1, 1, range(4), pool_size, 8)


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
