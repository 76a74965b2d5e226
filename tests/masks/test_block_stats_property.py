"""Tile-scan block counts equal a full BSR build (hypothesis).

Pricing reads ``AttentionProblem.block_stats``, which sums one 16x16 tile
scan instead of building a BSR view per candidate grid.  These tests pin
it to ``BlockSparseMask.from_dense`` on every field and on the metadata
size, over ragged square and rectangular masks and the paper patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rng import RngStream
from repro.masks.bsr import BlockSparseMask
from repro.masks.patterns import causal_mask, make_pattern
from repro.mha.problem import AttentionProblem

GRIDS = [(bm, bn) for bm in (16, 32, 64, 128) for bn in (16, 32, 64, 128)]


def _problem(mask: np.ndarray) -> AttentionProblem:
    seq, kv = mask.shape
    return AttentionProblem(
        batch=1, heads=1, seq_len=seq, head_size=16, mask=mask, kv_seq_len=kv,
    )


def _assert_stats_match(mask: np.ndarray) -> None:
    problem = _problem(mask)
    for bm, bn in GRIDS:
        bsr = BlockSparseMask.from_dense(mask, bm, bn)
        stats = problem.block_stats(bm, bn)
        assert stats == bsr.stats, (mask.shape, bm, bn)
        assert stats.n_valid == bsr.n_valid
        assert stats.n_total == bsr.n_total
        assert stats.n_block_rows == bsr.n_block_rows
        assert stats.metadata_bytes() == bsr.metadata_bytes()


@st.composite
def masks(draw):
    seq = draw(st.integers(min_value=1, max_value=300))
    kv = draw(st.one_of(st.just(seq), st.integers(min_value=1, max_value=300)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    kind = draw(st.sampled_from(["uniform", "blocky", "banded"]))
    if kind == "uniform":
        return rng.random((seq, kv)) < draw(st.floats(min_value=0.0, max_value=1.0))
    if kind == "blocky":
        # Runs of whole tiles and repeated tile contents: FULL blocks and
        # deduplicated PART masks at every grid.
        h, w = (int(x) for x in rng.integers(1, 40, size=2))
        cells = rng.random((seq // h + 1, kv // w + 1)) < 0.5
        return np.kron(cells, np.ones((h, w), dtype=bool))[:seq, :kv]
    i, j = np.ogrid[:seq, :kv]
    reach = int(rng.integers(0, 64))
    return (np.abs(i - j) <= reach) & (j <= i + int(rng.integers(0, 8)))


@settings(max_examples=60, deadline=None)
@given(mask=masks())
def test_tile_scan_matches_from_dense(mask):
    _assert_stats_match(mask)


@pytest.mark.parametrize("seq_len", [2049, 4160])
@pytest.mark.parametrize("pattern", ["sliding_window", "dilated", "longformer", "bigbird"])
def test_paper_patterns_match_from_dense(pattern, seq_len):
    mask = make_pattern(pattern, seq_len, rng=RngStream(7).fork(pattern))
    _assert_stats_match(mask & causal_mask(seq_len))


def test_off_tile_grid_falls_back_to_bsr():
    """A block side that is not a multiple of 16 (a baseline block clipped
    to a short sequence) still equals the BSR view."""
    mask = causal_mask(20)
    problem = _problem(mask)
    assert problem.block_stats(20, 20) == BlockSparseMask.from_dense(mask, 20, 20).stats

