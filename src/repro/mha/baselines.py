"""Baseline attention strategies (paper §5.1.2).

Each class reproduces the *strategy* of one comparison method — what it
fuses, which masks it understands, what it materializes — priced on the
same simulated device as STOF's kernels (strategy-vs-strategy on identical
hardware, like the paper's same-GPU comparisons).

* :class:`NaiveAttention` — PyTorch Native: five detached kernels with a
  materialized score matrix and additive-mask fallback.
* :class:`FlashAttention2Attention` — one fused dense kernel; skips blocks
  only for the masks it natively understands (causal, sliding window);
  everything else computes densely with an in-kernel additive mask.
* :class:`FlexAttention` — block-mask skipping at a fixed coarse 128x128
  granularity with ``score_mod``-style element masking for partial blocks;
  fixed (untunable) launch parameters and a generic (non-hand-tuned) SMEM
  layout.
* :class:`FlashMaskAttention` — column-range representation: supports masks
  whose columns have at most two attended runs; rejects discrete-column
  masks (dilated, Bigbird) exactly as the paper describes.
* :class:`ByteTransformerAttention` — hand-written fused kernel holding
  score rows on-chip; unsupported beyond sequence length 1,024.
* :class:`MCFuserAttention` — loop-scheduled fused GEMM chain: dense, no
  bank-conflict handling, spills the score matrix at long sequence lengths
  and needs a large tuning workspace (the source of its OOMs).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.core.errors import ConfigError
from repro.core.fp16 import FP16_BYTES
from repro.gpu.bank import bank_conflict_factor
from repro.gpu.cost import KernelCost, LaunchConfig
from repro.gpu.specs import GPUSpec
from repro.masks.bsr import BlockKind
from repro.mha.blockwise import required_smem_elems
from repro.mha.kernel import AttentionKernel, Launch
from repro.mha.problem import AttentionProblem
from repro.mha.reference import reference_attention, solve_reference
from repro.ops.elementwise import MaskAdd, Scale
from repro.ops.gemm import BatchedGemm
from repro.ops.normalization import Softmax

#: Sequence length ceiling of ByteTransformer's hand-written kernels.
BYTETRANSFORMER_MAX_SEQ = 1024

#: MCFuser's resident tuning workspace, as a multiple of the dense score
#: matrix (double-buffered candidate outputs plus layout-transposed operand
#: copies) — the source of its OOMs at large input scales.
MCFUSER_WORKSPACE_MULTIPLIER = 12.0


def _run_reference(problem: AttentionProblem) -> np.ndarray:
    if problem.q is None:
        raise ConfigError("problem has no tensors; build with with_tensors=True")
    return solve_reference(problem)


class NaiveAttention(AttentionKernel):
    """PyTorch Native: detached BatchedGemm / Scale / MaskAdd / Softmax /
    BatchedGemm kernels with the score matrix written to global memory
    between every step."""

    name = "pytorch-native"

    def plan(self, problem, spec, params=None) -> list[Launch]:
        b, h, s, d = problem.qkv_shape
        kv = problem.kv_seq_len
        q_shape = (b * h, s, d)
        kt_shape = (b * h, d, kv)
        s_shape = (b * h, s, kv)
        bgemm = BatchedGemm("qk^T")
        launches = [
            bgemm.cost([q_shape, kt_shape], spec, bgemm.default_params([q_shape, kt_shape], spec))
        ]
        scale = Scale(problem.scale)
        launches.append(scale.cost([s_shape], spec, scale.default_params([s_shape], spec)))
        mask = MaskAdd()
        m_shape = (s, kv)
        launches.append(
            mask.cost([s_shape, m_shape], spec, mask.default_params([s_shape, m_shape], spec))
        )
        soft = Softmax()
        launches.append(soft.cost([s_shape], spec, soft.default_params([s_shape], spec)))
        pv = BatchedGemm("pv")
        v_shape = (b * h, kv, d)
        launches.append(
            pv.cost([s_shape, v_shape], spec, pv.default_params([s_shape, v_shape], spec))
        )
        return launches

    def run(self, problem, params=None) -> np.ndarray:
        if problem.q is None:
            raise ConfigError("problem has no tensors; build with with_tensors=True")
        b, h, s, d = problem.qkv_shape
        kv = problem.kv_seq_len
        q = problem.q.reshape(b * h, s, d)
        k = problem.k.reshape(b * h, kv, d)
        v = problem.v.reshape(b * h, kv, d)
        scores = BatchedGemm().compute(q, np.swapaxes(k, -1, -2))
        scores = Scale(problem.scale).compute(scores)
        scores = MaskAdd().compute(scores, problem.mask)
        probs = Softmax().compute(scores)
        out = BatchedGemm().compute(probs, v)
        return out.reshape(problem.qkv_shape)

    def workspace_bytes(self, problem: AttentionProblem) -> int:
        """The materialized score + probability matrices."""
        return 2 * problem.scores_bytes


class _FusedDenseBase(AttentionKernel):
    """Shared cost scaffolding for fused attention baselines.

    Subclasses choose the block geometry, which blocks are visited, whether
    element masks are loaded, the SMEM conflict factor, and per-score SIMT
    overhead.
    """

    block_m: int = 128
    block_n: int = 64
    num_warps: int = 4
    padding: int = 8
    simt_per_score: float = 12.0
    pipelined: bool = True

    def _visited_blocks(self, problem: AttentionProblem) -> tuple[int, int]:
        """(visited blocks, blocks needing an element-mask load)."""
        stats = problem.block_stats(self._bm(problem), self._bn(problem))
        return stats.n_total, stats.n_total  # dense visit, dense mask load

    def _bm(self, problem):
        return min(self.block_m, max(16, problem.seq_len))

    def _bn(self, problem):
        return min(self.block_n, max(16, problem.kv_seq_len))

    def _extra_dram(self, problem: AttentionProblem) -> float:
        return 0.0

    def plan(self, problem, spec, params=None) -> list[Launch]:
        self.check_supported(problem)
        bm, bn = self._bm(problem), self._bn(problem)
        n_rows = problem.block_stats(bm, bn).n_block_rows
        n_bh = problem.n_bh
        d = problem.head_size
        visited, masked = self._visited_blocks(problem)

        q_bytes = problem.qkv_bytes
        kv_block_bytes = bn * d * FP16_BYTES
        kv_load_total = n_bh * visited * kv_block_bytes * 2.0
        kv_resident = 2.0 * problem.kv_bytes
        kv_first = min(kv_load_total, kv_resident)
        kv_reread = kv_load_total - kv_first
        if kv_resident <= spec.l2_bytes:
            dram_read = q_bytes + kv_first
            l2_read = kv_reread
        else:
            dram_read = q_bytes + kv_load_total
            l2_read = 0.0

        mask_bytes_first = problem.seq_len * problem.kv_seq_len * 1.0
        mask_visits = n_bh * masked * bm * bn * 1.0
        if masked > 0:
            dram_read += min(mask_visits, mask_bytes_first)
            l2_read += max(0.0, mask_visits - mask_bytes_first)

        dram_read += self._extra_dram(problem)

        scores_staged = n_bh * visited * bm * bn * FP16_BYTES
        smem_traffic = 2.0 * (kv_load_total + q_bytes + scores_staged)
        conflict = bank_conflict_factor(d + self.padding)

        smem_bytes = required_smem_elems(bm, bn, d, self.padding) * FP16_BYTES
        cost = KernelCost(
            name=self.name,
            bytes_dram_read=dram_read,
            bytes_dram_written=problem.qkv_bytes + self._extra_writes(problem),
            bytes_l2_read=l2_read,
            bytes_smem=smem_traffic,
            bank_conflict_factor=float(conflict),
            flops_tensor=n_bh * visited * 4.0 * bm * bn * d,
            flops_simt=n_bh * visited * self.simt_per_score * bm * bn,
            sync_rounds=visited / max(1, n_rows),
            launches=1,
        )
        config = LaunchConfig(
            grid_blocks=n_bh * n_rows,
            warps_per_block=self.num_warps,
            smem_per_block=smem_bytes,
            pipelined=self.pipelined,
        )
        return [(cost, config)]

    def _extra_writes(self, problem: AttentionProblem) -> float:
        return 0.0

    def run(self, problem, params=None) -> np.ndarray:
        self.check_supported(problem)
        return _run_reference(problem)


class FlashAttention2Attention(_FusedDenseBase):
    """FlashAttention2: fused and IO-aware, but mask-oblivious beyond its
    native causal / sliding-window fast paths.

    For the native patterns it skips fully-masked blocks *and* needs no
    element-mask loads (the pattern is positional).  Any other mask runs
    dense with an additive mask streamed in.
    """

    name = "flashattention2"
    block_m = 128
    block_n = 64
    num_warps = 4
    padding = 16   # hand-tuned swizzle: conflict-free
    simt_per_score = 12.0

    NATIVE_PATTERNS = ("causal", "sliding_window")

    def _visited_blocks(self, problem):
        stats = problem.block_stats(self._bm(problem), self._bn(problem))
        if problem.pattern in self.NATIVE_PATTERNS:
            return stats.n_valid, 0   # positional mask: no mask bytes at all
        return stats.n_total, stats.n_total


class FlexAttention(_FusedDenseBase):
    """FlexAttention: arbitrary masks via a coarse block mask + score_mod.

    Skips empty blocks — but only at its fixed 128x128 block-mask
    granularity, so sparse-but-fine structure (dilated diagonals, thin
    bands) is mostly invisible to it.  ``score_mod`` is a generic callback:
    partial blocks pay element-mask loads plus extra per-score work, and
    the Triton template's generic layout is not bank-conflict-free.
    """

    name = "flexattention"
    block_m = 128
    block_n = 128
    num_warps = 4
    padding = 0
    simt_per_score = 16.0   # score_mod callback overhead

    def _visited_blocks(self, problem):
        stats = problem.block_stats(self._bm(problem), self._bn(problem))
        return stats.n_valid, stats.n_part

    def plan(self, problem, spec, params=None):
        launches = super().plan(problem, spec, params)
        # Generic layout: moderate (not worst-case) bank conflicts.
        cost, config = launches[0]
        cost.bank_conflict_factor = min(4.0, cost.bank_conflict_factor)
        return [(cost, config)]


class FlashMaskAttention(_FusedDenseBase):
    """FlashMask: column-wise range representation.

    Each column stores the bounds of at most two skipped regions, so masks
    whose columns have more than two attended runs are unrepresentable —
    the paper's motivating limitation (§3.1).
    """

    name = "flashmask"
    block_m = 128
    block_n = 128
    num_warps = 4
    padding = 16
    simt_per_score = 12.0

    MAX_COLUMN_RUNS = 2

    def supports(self, problem):
        from repro.masks.ranges import ColumnRangeMask

        ok, reason = ColumnRangeMask.supports(problem.mask)
        if not ok:
            return (
                False,
                f"column-wise ranges cannot represent this mask: {reason} "
                f"(pattern {problem.pattern!r})",
            )
        return True, ""

    def _visited_blocks(self, problem):
        stats = problem.block_stats(self._bm(problem), self._bn(problem))
        return stats.n_valid, 0   # ranges are positional: no mask bytes


class ByteTransformerAttention(_FusedDenseBase):
    """ByteTransformer: hand-written fused kernels, short sequences only.

    Holds score rows in SMEM/registers (grouped GEMM for the longer end of
    its range): dense compute, additive mask, but no score-matrix spill.
    The SMEM footprint grows with sequence length, collapsing occupancy
    as it approaches its 1,024 ceiling.
    """

    name = "bytetransformer"
    block_m = 64
    block_n = 64
    num_warps = 8
    padding = 16
    simt_per_score = 10.0   # heavily hand-optimized epilogues

    def supports(self, problem):
        if problem.seq_len > BYTETRANSFORMER_MAX_SEQ:
            return (
                False,
                f"hand-written kernels support seq_len <= {BYTETRANSFORMER_MAX_SEQ}, "
                f"got {problem.seq_len}",
            )
        return True, ""

    def plan(self, problem, spec, params=None):
        launches = super().plan(problem, spec, params)
        cost, config = launches[0]
        # Score rows for the whole sequence are resident per block.
        row_scores = self.block_m * problem.seq_len * FP16_BYTES
        config = LaunchConfig(
            grid_blocks=config.grid_blocks,
            warps_per_block=config.warps_per_block,
            smem_per_block=min(
                spec.smem_carveout_per_sm,
                config.smem_per_block + row_scores,
            ),
            pipelined=config.pipelined,
        )
        return [(cost, config)]


class MCFuserAttention(_FusedDenseBase):
    """MCFuser: loop-scheduled fusion of the attention GEMM chain.

    Dense (no sparse-mask support: additive fallback), no bank-conflict
    handling ("does not consider hardware details"), and for long sequences
    the intermediate tile no longer fits on-chip, spilling the score matrix
    through global memory.  Its auto-tuner additionally keeps a large
    workspace resident — the OOMs in Figs. 10-12.
    """

    name = "mcfuser"
    block_m = 64
    block_n = 64
    num_warps = 4
    padding = 0     # unpadded: real bank conflicts
    simt_per_score = 12.0
    pipelined = False  # loop-structured schedule, no async-copy overlap

    SPILL_SEQ = 512

    def _extra_dram(self, problem):
        if problem.seq_len > self.SPILL_SEQ:
            return 2.0 * problem.scores_bytes  # write + re-read of spilled S
        return 0.0

    def _extra_writes(self, problem):
        if problem.seq_len > self.SPILL_SEQ:
            return float(problem.scores_bytes)
        return 0.0

    def workspace_bytes(self, problem: AttentionProblem) -> float:
        """Resident tuning workspace (checked against device memory)."""
        return MCFUSER_WORKSPACE_MULTIPLIER * problem.scores_bytes

