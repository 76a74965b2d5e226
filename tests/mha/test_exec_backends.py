"""Differential tests: the codegen execution backend vs the loop oracle.

Both backends compute the same masked softmax-attention in fp32 and round
to fp16; they differ only in traversal order (per-plan generated
straight-line modules with a one-shot last-axis softmax vs the original
per-row/per-block online softmax).
Reassociating the fp32 reductions can move a result by ~1 fp32 ulp, which
after fp16 rounding is at most 1–2 fp16 ulp — exactly the noise floor
``fp16_allclose`` encodes, so that is the agreement criterion here (and
padded/masked lanes contribute exact zeros, never noise).

The matrix covers every registry pattern, ragged tails that force edge
padding in the BSR tiles, rectangular decode shapes, fully-masked rows
(defined as zero output), packed var-len batches, degenerate masks (empty,
single block, full dense, single element) and banded masks.
"""

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.core.fp16 import fp16_allclose
from repro.gpu.specs import A100
from repro.mha.blockwise import BlockWiseKernel
from repro.mha.kernel import EXEC_BACKENDS
from repro.mha.module import UnifiedMHA
from repro.mha.problem import AttentionProblem
from repro.mha.reference import solve_reference
from repro.mha.rowwise import RowWiseKernel
from repro.mha.varlen import VarLenBatch, packed_varlen_problem

HEADS = 2
HEAD_SIZE = 16

#: Every pattern the registry knows (structured + random + compounds).
PATTERNS = [
    "causal",
    "sliding_window",
    "dilated",
    "global",
    "random",
    "longformer",
    "bigbird",
]

KERNELS = [RowWiseKernel, BlockWiseKernel]
KERNEL_IDS = [cls.__name__ for cls in KERNELS]


def _run_all(cls, prob, params=None):
    """Run one problem through every backend of one kernel class."""
    kernels = {b: cls(exec_backend=b) for b in EXEC_BACKENDS}
    p = dict(kernels["codegen"].default_params(prob, A100))
    if params:
        p.update(params)
    return {b: kern.run(prob, p) for b, kern in kernels.items()}


def _assert_pair(cls, prob, params=None, extra=""):
    outs = _run_all(cls, prob, params)
    out_loop = outs["loop"]
    for backend, out in outs.items():
        assert out.shape == out_loop.shape, f"{backend} shape {extra}"
        assert out.dtype == out_loop.dtype, f"{backend} dtype {extra}"
        assert np.isfinite(out.astype(np.float32)).all(), (
            f"{backend} NaN/inf {extra}"
        )
        assert fp16_allclose(out, out_loop), (
            f"{cls.__name__} {backend} vs loop {extra}"
        )
    return outs["codegen"]


def test_exec_backends_registry():
    assert EXEC_BACKENDS == ("codegen", "loop")
    assert RowWiseKernel().exec_backend == "codegen"
    assert BlockWiseKernel().exec_backend == "codegen"


@pytest.mark.parametrize("cls", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("seq", [64, 70])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_backends_agree_on_registry_patterns(pattern, seq, cls, rng):
    """Codegen ≡ loop ≡ dense reference on every pattern family.

    ``seq=70`` is deliberately not a multiple of any block size, so the
    block-wise kernel exercises its edge-padded tiles and the row-wise
    kernel its ragged final rows.
    """
    prob = AttentionProblem.build(
        pattern,
        2,
        HEADS,
        seq,
        HEAD_SIZE,
        rng=rng.fork(f"backends-{pattern}-{seq}"),
        with_tensors=True,
    )
    out = _assert_pair(cls, prob, extra=f"on {pattern} seq={seq}")
    assert fp16_allclose(out, solve_reference(prob)), f"{pattern} seq={seq}"


@pytest.mark.parametrize("cls", KERNELS, ids=KERNEL_IDS)
def test_backends_agree_on_small_blocks_ragged_tail(cls, rng):
    """Force 32-wide blocks on seq 70: two full tiles plus a 6-wide tail."""
    prob = AttentionProblem.build(
        "bigbird",
        1,
        HEADS,
        70,
        HEAD_SIZE,
        rng=rng.fork("ragged32"),
        with_tensors=True,
    )
    params = {"block_m": 32, "block_n": 32} if cls is BlockWiseKernel else None
    out = _assert_pair(cls, prob, params=params, extra="ragged tail b=32")
    assert fp16_allclose(out, solve_reference(prob))


@pytest.mark.parametrize("cls", KERNELS, ids=KERNEL_IDS)
def test_backends_agree_on_rectangular_decode(cls, rng):
    """A (17, 33) decode-style problem with a random rectangular mask."""
    r = rng.fork("rect-backends")
    q_len, kv_len = 17, 33
    mask = r.fork("m").random((q_len, kv_len)) < 0.4
    mask[0, 0] = True
    prob = AttentionProblem(
        1, HEADS, q_len, HEAD_SIZE, mask, kv_seq_len=kv_len, pattern="custom"
    )
    d = r.fork("qkv")
    prob.q = (d.standard_normal(prob.qkv_shape) * 0.5).astype(np.float16)
    prob.k = (d.standard_normal(prob.kv_shape) * 0.5).astype(np.float16)
    prob.v = (d.standard_normal(prob.kv_shape) * 0.5).astype(np.float16)
    out = _assert_pair(cls, prob, extra="rect 17x33")
    assert fp16_allclose(out, solve_reference(prob))


@pytest.mark.parametrize("cls", KERNELS, ids=KERNEL_IDS)
def test_fully_masked_rows_produce_zeros(cls, rng):
    """Rows with no attended key are defined as zero output, not NaN.

    The generated softmax must not poison them (max over an empty set is
    -inf; ``exp(-inf - -inf)`` would be NaN without the finite-max guard).
    """
    r = rng.fork("masked-rows")
    seq = 64
    mask = r.fork("m").random((seq, seq)) < 0.3
    mask[0, 0] = True
    dead = [3, 17, 40, 41, 42, 63]
    mask[dead, :] = False
    prob = AttentionProblem(1, HEADS, seq, HEAD_SIZE, mask, pattern="custom")
    d = r.fork("qkv")
    prob.q = (d.standard_normal(prob.qkv_shape) * 0.5).astype(np.float16)
    prob.k = (d.standard_normal(prob.kv_shape) * 0.5).astype(np.float16)
    prob.v = (d.standard_normal(prob.kv_shape) * 0.5).astype(np.float16)
    outs = _run_all(cls, prob)
    out_loop = outs["loop"]
    live = [i for i in range(seq) if i not in dead]
    for backend, out in outs.items():
        assert np.isfinite(out.astype(np.float32)).all(), backend
        assert fp16_allclose(out, out_loop), backend
        assert not out[:, :, dead, :].any(), (
            f"{backend}: fully-masked rows must be zero"
        )
        assert out[:, :, live, :].any(), backend


@pytest.mark.parametrize("cls", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("pattern", ["causal", "random"])
def test_backends_agree_on_packed_varlen(cls, pattern, rng):
    """Packed block-diagonal masks: ragged per-sequence tiles back to back."""
    batch = VarLenBatch(
        (33, 64, 64, 7), heads=HEADS, head_size=HEAD_SIZE, pattern=pattern
    )
    prob = packed_varlen_problem(
        batch, rng=rng.fork(f"varlen-{pattern}"), with_tensors=True
    )
    out = _assert_pair(cls, prob, extra=f"varlen {pattern}")
    assert fp16_allclose(out, solve_reference(prob))


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError, match="exec_backend"):
        RowWiseKernel(exec_backend="simd")
    with pytest.raises(ConfigError, match="exec_backend"):
        BlockWiseKernel(exec_backend="")
    with pytest.raises(ConfigError, match="exec_backend"):
        UnifiedMHA(A100, exec_backend="turbo")


@pytest.mark.parametrize("pattern", ["sliding_window", "bigbird"])
def test_unified_mha_backend_switch(pattern, rng):
    """The facade threads exec_backend down to whichever kernel it selects
    (codegen by default), and both facades agree with each other and the
    reference."""
    prob = AttentionProblem.build(
        pattern,
        2,
        HEADS,
        96,
        HEAD_SIZE,
        rng=rng.fork(f"facade-{pattern}"),
        with_tensors=True,
    )
    fast = UnifiedMHA(A100)
    slow = UnifiedMHA(A100, exec_backend="loop")
    assert fast._row.exec_backend == "codegen"
    assert fast._block.exec_backend == "codegen"
    assert slow._row.exec_backend == "loop"
    assert slow._block.exec_backend == "loop"
    out_fast = fast.run(prob)
    out_slow = slow.run(prob)
    assert fp16_allclose(out_fast, out_slow), pattern
    assert fp16_allclose(out_fast, solve_reference(prob)), pattern


def _custom_problem(mask, r):
    q_len, kv_len = mask.shape
    prob = AttentionProblem(
        1, HEADS, q_len, HEAD_SIZE, mask, kv_seq_len=kv_len, pattern="custom"
    )
    d = r.fork("qkv")
    prob.q = (d.standard_normal(prob.qkv_shape) * 0.5).astype(np.float16)
    prob.k = (d.standard_normal(prob.kv_shape) * 0.5).astype(np.float16)
    prob.v = (d.standard_normal(prob.kv_shape) * 0.5).astype(np.float16)
    return prob


def _degenerate_mask(case, seq):
    mask = np.zeros((seq, seq), dtype=bool)
    if case == "empty":
        pass  # no row attends anywhere: output is defined as all zeros
    elif case == "single_block":
        mask[:16, 16:32] = True  # one valid tile in the whole block grid
    elif case == "full_dense":
        mask[:] = True  # dense lowering / no-bias fast path
    elif case == "single_element":
        mask[seq // 2, seq // 3] = True
    return mask


@pytest.mark.parametrize("cls", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize(
    "case", ["empty", "single_block", "full_dense", "single_element"]
)
def test_backends_agree_on_degenerate_masks(case, cls, rng):
    """The structure extremes every specializer must survive.

    ``empty`` exercises the zero-valid-blocks early return, ``single_block``
    a one-tile plan, ``full_dense`` the no-bias dense lowering, and
    ``single_element`` a plan whose only tile is almost entirely masked.
    """
    seq = 64
    mask = _degenerate_mask(case, seq)
    prob = _custom_problem(mask, rng.fork(f"degenerate-{case}"))
    outs = _run_all(cls, prob)
    out_loop = outs["loop"]
    for backend, out in outs.items():
        assert np.isfinite(out.astype(np.float32)).all(), f"{backend} {case}"
        assert fp16_allclose(out, out_loop), f"{backend} {case}"
    if case == "empty":
        assert not outs["codegen"].any()
    assert fp16_allclose(out_loop, solve_reference(prob)), case


@pytest.mark.parametrize("cls", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("band", [8, 48])
def test_codegen_banded_fast_path_agrees(band, cls, rng):
    """Banded masks (the strided-einsum / retile fast path) stay exact.

    ``band=8`` retiles far below the requested block size; ``band=48``
    straddles tile boundaries so every group carries a bias slab.
    """
    prob = AttentionProblem.build(
        "sliding_window",
        1,
        HEADS,
        128,
        HEAD_SIZE,
        rng=rng.fork(f"banded-{band}"),
        with_tensors=True,
        band_width=band,
    )
    out = _assert_pair(cls, prob, extra=f"banded band={band}")
    assert fp16_allclose(out, solve_reference(prob))


def test_plan_is_backend_independent(rng):
    """exec_backend changes how run() computes values, never what plan()
    prices — the analytical model sees one kernel, not two."""
    prob = AttentionProblem.build(
        "longformer", 1, HEADS, 128, HEAD_SIZE,
        rng=rng.fork("plan-indep"), with_tensors=True,
    )
    for cls in KERNELS:
        gen, loop = cls(), cls(exec_backend="loop")
        p = gen.default_params(prob, A100)
        launches_v = gen.plan(prob, A100, p)
        launches_l = loop.plan(prob, A100, p)
        assert len(launches_v) == len(launches_l)
        for (cv, gv), (cl, gl) in zip(launches_v, launches_l):
            assert cv == cl and gv == gl
