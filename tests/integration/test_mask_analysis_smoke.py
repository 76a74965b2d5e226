"""Planning prices masks from one tile scan, never from a BSR build.

The selector weighs 16 candidate block grids; each used to rebuild a full
BSR view of the mask.  A 2048-token bigbird prefill planned through
``UnifiedMHA.plan`` must now scan the mask once at 16x16 and build no BSR
at all, in both selector modes.
"""

import pytest

from repro.core.rng import RngStream
from repro.gpu.specs import A100
from repro.masks import bsr as bsr_mod
from repro.mha.module import UnifiedMHA
from repro.mha.problem import AttentionProblem


@pytest.fixture
def mask_work(monkeypatch):
    """Counts of BSR builds and tile scans while the test runs."""
    counts = {"from_dense": 0, "tile_scan": 0}
    from_dense = bsr_mod.BlockSparseMask.from_dense.__func__
    tile_scan = bsr_mod.TileScan.of.__func__

    def counting_from_dense(cls, *args, **kwargs):
        counts["from_dense"] += 1
        return from_dense(cls, *args, **kwargs)

    def counting_tile_scan(cls, *args, **kwargs):
        counts["tile_scan"] += 1
        return tile_scan(cls, *args, **kwargs)

    monkeypatch.setattr(
        bsr_mod.BlockSparseMask, "from_dense", classmethod(counting_from_dense)
    )
    monkeypatch.setattr(bsr_mod.TileScan, "of", classmethod(counting_tile_scan))
    return counts


@pytest.mark.parametrize("mode", ["model", "paper"])
def test_bigbird_prefill_plans_from_one_tile_scan(mask_work, mode):
    problem = AttentionProblem.build(
        "bigbird", batch=1, heads=12, seq_len=2048, head_size=64,
        rng=RngStream(3),
    )
    plan = UnifiedMHA(A100, mode=mode).plan(problem)
    assert plan.estimated_s > 0
    assert mask_work == {"from_dense": 0, "tile_scan": 1}
