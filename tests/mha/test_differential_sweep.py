"""Differential sweep: every attention kernel against the dense reference.

One grid, every implementation: the STOF kernels (row-wise, block-wise,
under the codegen backend and the loop oracle, and the Eq.1/Eq.2 selector
behind ``UnifiedMHA``) plus every baseline the
figure benchmarks compare (``benchmarks/mha_methods.py``) run the same
concrete problems and must agree with ``repro.mha.reference`` at the FP16
noise floor — across mask families, sequence lengths, batch sizes, and
the rectangular decode shapes of the KV-cache/serving regime.

Kernels that *declare* a problem unsupported (``supports()``) are skipped
for that cell, but the sweep asserts the expected coverage: the core
kernels run everywhere, and FlashMask runs exactly where its two-run
column-range format can represent the mask.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

# benchmarks/ is not a package; mha_methods does `from harness import ...`.
BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCHMARKS_DIR) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS_DIR))

from mha_methods import MHA_METHODS  # noqa: E402

from repro.core.fp16 import fp16_allclose
from repro.core.rng import RngStream
from repro.gpu.specs import A100
from repro.mha.baselines import FlashMaskAttention
from repro.mha.blockwise import BlockWiseKernel
from repro.mha.module import UnifiedMHA
from repro.mha.problem import AttentionProblem
from repro.mha.reference import solve_reference
from repro.mha.rowwise import RowWiseKernel

HEADS = 2
HEAD_SIZE = 16

#: (pattern, overrides) — the paper's mask families at test scale.
MASKS = [
    ("causal", {}),
    ("sliding_window", {"band_width": 16}),
    ("dilated", {}),
    ("bigbird", {}),
    ("longformer", {}),
]
SEQS = [64, 128, 512]
BATCHES = [1, 4]

#: (query_len, kv_len) decode/var-len shapes: single-token decode against a
#: long cache, a small speculative chunk, and a ragged tail.
DECODE_SHAPES = [(1, 128), (4, 96), (17, 33)]


def sweep_kernels():
    """Every distinct kernel: STOF's own (codegen and the loop oracle) plus
    each figure baseline."""
    kernels = {
        "rowwise-codegen": RowWiseKernel(exec_backend="codegen"),
        "blockwise-codegen": BlockWiseKernel(exec_backend="codegen"),
        "rowwise-loop": RowWiseKernel(exec_backend="loop"),
        "blockwise-loop": BlockWiseKernel(exec_backend="loop"),
        "flashmask": FlashMaskAttention(),
    }
    for label, cls, _dispatch in MHA_METHODS:
        kernel = cls()
        kernels.setdefault(kernel.name, kernel)
    return kernels


#: Kernels that must run on every square cell of the sweep (flashmask is
#: representability-gated, bytetransformer seq-gated — both checked apart).
CORE = {
    "rowwise-loop",
    "blockwise-loop",
    "rowwise-codegen",
    "blockwise-codegen",
    "pytorch-native",
    "flashattention2",
    "flexattention",
    "mcfuser",
}


def test_sweep_covers_every_benchmark_method():
    """Every kernel class the figure benchmarks price is in the sweep."""
    classes = {type(k) for k in sweep_kernels().values()}
    for _label, cls, _dispatch in MHA_METHODS:
        assert cls in classes, cls


def _check_all(prob, extra_msg=""):
    """Run every supporting kernel + the selector; return who ran."""
    ref = solve_reference(prob)
    ran = set()
    for name, kern in sweep_kernels().items():
        ok, _reason = kern.supports(prob)
        if not ok:
            continue
        out = kern.run(prob, kern.default_params(prob, A100))
        assert fp16_allclose(out, ref), f"{name} diverges {extra_msg}"
        ran.add(name)
    out = UnifiedMHA(A100).run(prob)
    assert fp16_allclose(out, ref), f"selector diverges {extra_msg}"
    return ran


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("seq", SEQS)
@pytest.mark.parametrize("pattern,overrides", MASKS, ids=[m[0] for m in MASKS])
def test_square_differential(pattern, overrides, seq, batch, rng):
    prob = AttentionProblem.build(
        pattern,
        batch,
        HEADS,
        seq,
        HEAD_SIZE,
        rng=rng.fork(f"sweep-{pattern}-{seq}-{batch}"),
        with_tensors=True,
        **overrides,
    )
    ran = _check_all(prob, f"on {pattern} seq={seq} batch={batch}")
    assert CORE <= ran, CORE - ran
    # bytetransformer's ceiling is 1024 — every sweep size is in range.
    assert "bytetransformer" in ran
    # FlashMask's two-run column-range format always represents causal and
    # banded masks; dilated columns have many attended runs and never fit.
    if pattern in ("causal", "sliding_window"):
        assert "flashmask" in ran
    if pattern == "dilated":
        assert "flashmask" not in ran


@pytest.mark.parametrize("q_len,kv_len", DECODE_SHAPES)
@pytest.mark.parametrize("masking", ["banded", "random"])
def test_rectangular_differential(q_len, kv_len, masking, rng):
    r = rng.fork(f"rect-{q_len}-{kv_len}-{masking}")
    if masking == "banded":
        # Decode-style: query i sees cache prefix + its sliding window tail.
        mask = np.zeros((q_len, kv_len), bool)
        for i in range(q_len):
            hi = kv_len - q_len + i + 1
            mask[i, max(0, hi - 32) : hi] = True
    else:
        mask = r.fork("m").random((q_len, kv_len)) < 0.4
        mask[0, 0] = True   # keep at least one attended entry
    prob = AttentionProblem(
        1, HEADS, q_len, HEAD_SIZE, mask, kv_seq_len=kv_len, pattern="custom"
    )
    d = r.fork("qkv")
    prob.q = (d.standard_normal(prob.qkv_shape) * 0.5).astype(np.float16)
    prob.k = (d.standard_normal(prob.kv_shape) * 0.5).astype(np.float16)
    prob.v = (d.standard_normal(prob.kv_shape) * 0.5).astype(np.float16)
    ran = _check_all(prob, f"on rect {q_len}x{kv_len} {masking}")
    assert CORE <= ran, CORE - ran


def test_skip_reasons_are_explanatory(rng):
    """supports() returns an actionable reason, not a bare False."""
    prob = AttentionProblem.build(
        "dilated", 1, HEADS, 64, HEAD_SIZE, rng=rng.fork("why"), with_tensors=True
    )
    ok, reason = FlashMaskAttention().supports(prob)
    assert not ok and "dilated" in reason
