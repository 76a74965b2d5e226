"""Blockwise plan-to-code specializer.

Emits one straight-line Python/NumPy module per (mask, geometry, block
parameters, ``n_bh`` guard family): Q/K/V are staged as padded tile views,
and for every ``BlockSparseMask.concat_groups()`` bucket the member block
rows' valid K/V tiles are concatenated along the key axis, so each bucket
is one batched score matmul, one additive-bias add and a plain last-axis
softmax (each block row's segment *is* the last axis).  The traversal is
unrolled at emission time, with bucket membership, tile columns, strides,
and chunk sizes baked in as literals.  Dead branches are eliminated by
*proof from the mask*:

* groups whose bias slab is absent (or all zero) skip the ``s += bias`` add,
* the fully-masked-row guards (``isfinite`` max fixup, ``where=`` divide)
  are emitted only for groups the slab proves contain an all ``-inf`` row,
* banded/uniform groups lower to a single strided einsum — zero-copy
  ``as_strided`` K/V views feeding one batched matmul, no gather, no
  batch-chunking loop,
* the chunk loop of gathered groups collapses to straight-line code when
  one chunk covers the whole ``batch*heads`` axis.

Outputs agree with ``BlockWiseKernel``'s loop oracle at the FP16 noise
floor (summation order differs; differentially tested, no tolerance
widening).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.codegen.emit import IndentedBuffer
from repro.codegen.templates import (
    GeneratedSource,
    emit_counters,
    module_header,
    register_template,
)
from repro.masks.bsr import BlockSparseMask
from repro.mha.kernel import GATHER_CHUNK_ELEMS

if TYPE_CHECKING:  # annotation-only: the plan layer never runs at emit time
    from repro.plan.symbolic import GuardRecorder

#: Bump when the emitted code changes shape: stale cached modules (disk and
#: in-memory) are invalidated through the plan key, never silently reused.
BLOCKWISE_TEMPLATE_VERSION = 2

#: Dense lowering: when the mask is near-dense at block granularity, the
#: group-wise traversal degenerates into many small batched GEMMs plus tile
#: gathers, while one dense masked softmax-matmul runs a single large GEMM
#: at far better BLAS efficiency.  Lower to dense when the total block count
#: is within this factor of the (padded) valid block count — i.e. the dense
#: FLOP overhead stays below the measured small-GEMM/gather penalty — and
#: the per-batch-row score tile still fits in cache.
DENSE_LOWER_FACTOR = 2.5
DENSE_LOWER_MAX_ELEMS = 1 << 18

#: Fully banded masks already lower to zero-gather strided einsums, so the
#: dense rewrite only pays off when it adds almost no redundant FLOPs.
#: Measured crossover on the wallclock grid: the banded sparse lowering
#: beats dense by ~25% at 1.6x block overhead, while at 1.0-1.25x the two
#: are within noise and dense saves the strided-view setup.
BANDED_DENSE_FACTOR = 1.25


def _banded_layout(cols: np.ndarray) -> tuple[int, int] | None:
    """(start, step) when a group's tile columns admit a strided view.

    Legal when every row's tile columns are consecutive and the first
    column advances by one uniform non-negative step per row — the
    banded/uniform-pattern case.  Each ``(cap*b, d)`` slice of the view is
    then a plain contiguous slice of K/V: no copy, no gather.
    """
    n_g, cap = cols.shape
    if cap > 1 and not (np.diff(cols, axis=1) == 1).all():
        return None
    step = 0
    if n_g > 1:
        steps = np.diff(cols[:, 0])
        if not (steps == steps[0]).all() or steps[0] < 0:
            return None
        step = int(steps[0])
    return int(cols[0, 0]), step


#: Smallest tile edge the retile scan will consider.  Below 16 the
#: per-tile GEMMs are too skinny for BLAS and group bookkeeping dominates.
MIN_RETILE_BLOCK = 16


def _all_banded(bsr: BlockSparseMask) -> bool:
    return all(
        _banded_layout(bsr.load_col_idx[idx].astype(np.int64)) is not None
        for _, idx, _ in bsr.concat_groups()
    )


def _padded_elems(bsr: BlockSparseMask) -> int:
    groups = bsr.concat_groups()
    tiles = sum(idx.shape[0] * idx.shape[1] for _, idx, _ in groups)
    return tiles * bsr.block_m * bsr.block_n


def _retile_banded(bsr: BlockSparseMask, mask: np.ndarray) -> BlockSparseMask:
    """Re-tile a fully banded mask at a finer granularity when that shrinks it.

    The kernel's block size is chosen by the analytical cost model, where
    big tiles amortize per-block work on the device.  The banded
    lowering has *no* gather — K/V feed the einsum through zero-copy
    strided views — so the only cost that scales with tile size is band
    over-coverage: a 64-wide tile row covers a ~45-wide band with ~40%
    padding that a 16-wide tiling avoids.  Scan power-of-two refinements
    and keep the one with the fewest padded score elements, provided every
    group stays banded (scattered groups would reintroduce gathers, which
    small tiles make strictly worse).  Measured on the wallclock grid this
    is 25-45% off the banded patterns' runtime at seq 128-512.
    """
    if bsr.n_valid == 0 or not _all_banded(bsr):
        return bsr
    best, best_cost = bsr, _padded_elems(bsr)
    for f in (2, 4):
        bm, bn = bsr.block_m // f, bsr.block_n // f
        if min(bm, bn) < MIN_RETILE_BLOCK:
            continue
        cand = BlockSparseMask.from_dense(mask, bm, bn)
        if cand.n_valid and _all_banded(cand):
            cost = _padded_elems(cand)
            if cost < best_cost:
                best, best_cost = cand, cost
    return best


def _dense_lowering(bsr: BlockSparseMask, mask: np.ndarray | None) -> bool:
    """Whether this mask should lower to one dense masked softmax.

    Padded tile count (what the group-wise traversal actually computes,
    including bucket padding) within ``DENSE_LOWER_FACTOR`` of the full
    block grid, and a score matrix small enough that the dense GEMM stays
    cache-friendly.  Measured on the wallclock grid: dense wins 2-4x at
    seq<=256 for every pattern and keeps winning for high-density masks
    (bigbird) at 512, while low-density large-seq masks (where the factor
    gate fails) stay on the sparse traversal.
    """
    if mask is None or bsr.n_valid == 0:
        return False
    if bsr.seq_len * bsr.kv_len > DENSE_LOWER_MAX_ELEMS:
        return False
    groups = bsr.concat_groups()
    padded = sum(idx.shape[0] * idx.shape[1] for _, idx, _ in groups)
    total = bsr.n_block_rows * bsr.n_block_cols
    if total > DENSE_LOWER_FACTOR * padded:
        return False
    all_banded = all(
        _banded_layout(bsr.load_col_idx[idx].astype(np.int64)) is not None
        for _, idx, _ in groups
    )
    if all_banded and total > BANDED_DENSE_FACTOR * padded:
        return False
    return True


def specialize_blockwise(
    bsr: BlockSparseMask,
    sym: "GuardRecorder",
    digest: str = "",
    pattern: str = "custom",
    mask: np.ndarray | None = None,
) -> GeneratedSource:
    """Render the specialized module for one BSR mask view.

    ``mask`` (the element-level boolean mask) enables the dense lowering:
    near-dense block structures collapse to a single masked softmax GEMM
    instead of the group-wise tile traversal.  Without it, only the sparse
    lowering is available.

    ``sym`` (a :class:`repro.plan.symbolic.GuardRecorder` binding
    ``n_bh``) answers every n_bh-dependent emission decision and records
    its guard, so one emitted module is shared across the whole n_bh
    region that takes the same branches (the emitted text reads ``n_bh``
    from ``q.shape[0]`` at run time; nothing n_bh-derived is baked in
    beyond those decisions).
    """
    if mask is not None:
        bsr = _retile_banded(bsr, mask)
    if _dense_lowering(bsr, mask):
        return _specialize_dense(bsr, mask, digest, pattern, sym)
    bm, bn = bsr.block_m, bsr.block_n
    seq, kv = bsr.seq_len, bsr.kv_len
    nbr, nbc = bsr.n_block_rows, bsr.n_block_cols
    groups = bsr.concat_groups()

    buf = IndentedBuffer()
    consts: list[np.ndarray] = []
    counters: list[tuple] = []

    def const(arr: np.ndarray) -> str:
        consts.append(arr)
        return f"consts[{len(consts) - 1}]"

    buf.writelines(
        module_header(
            "blockwise",
            BLOCKWISE_TEMPLATE_VERSION,
            digest,
            {
                "pattern": pattern,
                "seq": seq,
                "kv": kv,
                "block": f"({bm},{bn})",
                "n_bh": "sym",
                "valid_blocks": bsr.n_valid,
                "groups": len(groups),
            },
        )
    )
    buf.writeline("import numpy as np")
    any_banded = any(
        _banded_layout(bsr.load_col_idx[idx].astype(np.int64)) is not None
        for _, idx, _ in groups
    )
    if any_banded:
        buf.writeline("from numpy.lib.stride_tricks import as_strided")
    buf.writeline()
    buf.writeline()
    buf.writeline("def run(q, k, v, consts):")
    with buf.indent():
        buf.writeline("n_bh = q.shape[0]")
        buf.writeline("d = q.shape[2]")
        if bsr.n_valid == 0:
            buf.writeline(f"return np.zeros((n_bh, {seq}, d), dtype=np.float16)")
            emit_counters(buf, counters)
            return GeneratedSource(
                "blockwise", BLOCKWISE_TEMPLATE_VERSION, buf.getvalue(), consts
            )

        _emit_tiles(buf, "q", "qb", seq, nbr, bm)
        _emit_tiles(buf, "k", "kb", kv, nbc, bn)
        _emit_tiles(buf, "v", "vb", kv, nbc, bn)
        buf.writeline(
            f"out = np.zeros((n_bh, {nbr * bm}, d), dtype=np.float16)"
        )
        buf.writeline(f"outb = out.reshape(n_bh, {nbr}, {bm}, d)")
        if any_banded:
            buf.writeline(f"flatk = kb.reshape(n_bh, {nbc * bn}, d)")
            buf.writeline(f"flatv = vb.reshape(n_bh, {nbc * bn}, d)")
            buf.writeline("ks0, ks1, ks2 = flatk.strides")
            buf.writeline("vs0, vs1, vs2 = flatv.strides")

        for gi, (rows_g, idx, slab) in enumerate(groups):
            _emit_group(buf, const, counters, bsr, gi, rows_g, idx, slab, sym)

        buf.writeline(f"return out[:, :{seq}]")
    emit_counters(buf, counters)
    return GeneratedSource(
        "blockwise", BLOCKWISE_TEMPLATE_VERSION, buf.getvalue(), consts
    )


def _specialize_dense(
    bsr: BlockSparseMask,
    mask: np.ndarray,
    digest: str,
    pattern: str,
    sym: "GuardRecorder",
) -> GeneratedSource:
    """Dense lowering: one masked softmax over the full score matrix.

    No tiling, no gathers, no group loop — the mask participates only as
    an additive ``0/-inf`` bias constant (omitted entirely when the mask
    is all-true), so the whole kernel is two large GEMMs around an
    in-place softmax.  Fully-masked rows need no extra zeroing: their
    scores are uniformly ``-inf``, so after the max fixup every ``exp``
    is 0, the context GEMM writes zeros, and the guarded divide skips.
    """
    seq, kv = bsr.seq_len, bsr.kv_len
    buf = IndentedBuffer()
    consts: list[np.ndarray] = []
    biased = not bool(mask.all())
    dead = bool((~mask.any(axis=1)).any())

    buf.writelines(
        module_header(
            "blockwise",
            BLOCKWISE_TEMPLATE_VERSION,
            digest,
            {
                "pattern": pattern,
                "seq": seq,
                "kv": kv,
                "n_bh": "sym",
                "lowering": "dense",
                "density": f"{mask.mean():.3f}",
            },
        )
    )
    buf.writeline("import numpy as np")
    buf.writeline()
    buf.writeline()
    buf.writeline("def run(q, k, v, consts):")
    with buf.indent():
        buf.writeline("n_bh = q.shape[0]")
        buf.writeline("d = q.shape[2]")
        if biased:
            bias_ref = (
                "consts["
                + str(len(consts))
                + "]"
            )
            consts.append(
                np.where(mask, np.float32(0.0), np.float32(-np.inf)).astype(
                    np.float32
                )
            )
        where = ", where=l > 0.0" if dead else ""
        alloc = "zeros" if dead else "empty"
        g_chunk = max(1, int(GATHER_CHUNK_ELEMS // max(1, seq * kv)))
        buf.writeline(f"out = np.{alloc}((n_bh, {seq}, d), dtype=np.float16)")
        if sym.le("n_bh", g_chunk):
            buf.writeline("s = q @ k.swapaxes(-1, -2)")
            if biased:
                buf.writeline(f"s += {bias_ref}")
            _emit_dense_softmax(buf, dead)
            buf.writeline("o = s @ v")
            buf.writeline(f"np.divide(o, l, out=out{where})")
        else:
            buf.writeline(f"for g0 in range(0, n_bh, {g_chunk}):")
            with buf.indent():
                buf.writeline(f"gs = slice(g0, g0 + {g_chunk})")
                buf.writeline("s = q[gs] @ k[gs].swapaxes(-1, -2)")
                if biased:
                    buf.writeline(f"s += {bias_ref}")
                _emit_dense_softmax(buf, dead)
                buf.writeline("o = s @ v[gs]")
                buf.writeline(f"np.divide(o, l, out=out[gs]{where})")
        buf.writeline("return out")
    emit_counters(
        buf,
        [
            ("mha.path", "path", "dense", "count", 1),
            ("mha.chunks", "path", "dense", "chunks", g_chunk),
        ],
    )
    return GeneratedSource(
        "blockwise", BLOCKWISE_TEMPLATE_VERSION, buf.getvalue(), consts
    )


def _emit_dense_softmax(buf: IndentedBuffer, dead: bool) -> None:
    buf.writeline("m_ref = s.max(axis=-1, keepdims=True)")
    if dead:
        buf.writeline(
            "m_ref = np.where(np.isfinite(m_ref), m_ref, np.float32(0.0))"
        )
    buf.writeline("np.subtract(s, m_ref, out=s)")
    buf.writeline("np.exp(s, out=s)")
    buf.writeline("l = s.sum(axis=-1, keepdims=True)")


def _emit_tiles(
    buf: IndentedBuffer, src: str, dst: str, length: int, n_tiles: int, b: int
) -> None:
    """Stage one operand as a tile view (padding emitted only when ragged)."""
    if length == n_tiles * b:
        buf.writeline(f"{dst} = {src}.reshape(n_bh, {n_tiles}, {b}, d)")
    else:
        buf.writeline(
            f"{dst}_p = np.zeros((n_bh, {n_tiles * b}, d), dtype={src}.dtype)"
        )
        buf.writeline(f"{dst}_p[:, :{length}] = {src}")
        buf.writeline(f"{dst} = {dst}_p.reshape(n_bh, {n_tiles}, {b}, d)")


def _emit_group(
    buf: IndentedBuffer,
    const,
    counters: list[tuple],
    bsr: BlockSparseMask,
    gi: int,
    rows_g: np.ndarray,
    idx: np.ndarray,
    slab: np.ndarray | None,
    sym: "GuardRecorder",
) -> None:
    bm, bn = bsr.block_m, bsr.block_n
    n_g, cap = idx.shape
    cols = bsr.load_col_idx[idx].astype(np.int64)
    banded = _banded_layout(cols)
    contig = int(rows_g[-1]) - int(rows_g[0]) + 1 == n_g
    a, b_hi = int(rows_g[0]), int(rows_g[-1]) + 1
    # A fully-masked query row is exactly a slab row that is all -inf; only
    # those groups need the NaN guards (isfinite max fixup, where= divide).
    dead = slab is not None and bool(np.isinf(slab).all(axis=-1).any())
    bias_ref = const(slab) if slab is not None else None

    kind = f"banded start={banded[0]} step={banded[1]}" if banded else "gathered"
    buf.writeline(
        f"# group {gi}: {n_g} block rows, cap {cap}, {kind}"
        + (", masked-row guards" if dead else "")
    )
    rows_ref = f"{a}:{b_hi}" if contig else None
    if not contig:
        rows_ref_arr = const(rows_g.astype(np.int64))

    if banded is not None:
        counters.append(("mha.path", "path", "banded", "count", 1))
        counters.append(("mha.chunks", "path", "banded", "count", 1))
        start, step = banded
        shape = f"(n_bh, {n_g}, {cap * bn}, d)"
        buf.writeline(
            f"kg = as_strided(flatk[:, {start * bn}:], shape={shape}, "
            f"strides=(ks0, {step * bn} * ks1, ks1, ks2), writeable=False)"
        )
        buf.writeline(
            f"vg = as_strided(flatv[:, {start * bn}:], shape={shape}, "
            f"strides=(vs0, {step * bn} * vs1, vs1, vs2), writeable=False)"
        )
        qg = f"qb[:, {rows_ref}]" if contig else f"qb[:, {rows_ref_arr}]"
        buf.writeline(f"qg = {qg}")
        _emit_softmax_matmul(
            buf, bias_ref, dead, contig,
            out_ref=(f"outb[:, {rows_ref}]" if contig else None),
            scatter_ref=(None if contig else f"outb[:, {rows_ref_arr}]"),
        )
        return

    # Gathered group: per-chunk tile gathers bounded by GATHER_CHUNK_ELEMS.
    cg = const(cols)
    g_chunk = max(1, int(GATHER_CHUNK_ELEMS // max(1, n_g * bm * cap * bn)))
    counters.append(("mha.path", "path", "gather", "count", 1))
    counters.append(("mha.chunks", "path", "gather", "chunks", g_chunk))
    counters.append(
        ("mha.gather_bytes", "cap", int(cap), "kv_bytes", n_g * int(cap) * bn)
    )
    if sym.le("n_bh", g_chunk):
        buf.writeline(f"kg = kb[:, {cg}].reshape(n_bh, {n_g}, {cap * bn}, d)")
        buf.writeline(f"vg = vb[:, {cg}].reshape(n_bh, {n_g}, {cap * bn}, d)")
        qg = f"qb[:, {rows_ref}]" if contig else f"qb[:, {rows_ref_arr}]"
        buf.writeline(f"qg = {qg}")
        _emit_softmax_matmul(
            buf, bias_ref, dead, contig,
            out_ref=(f"outb[:, {rows_ref}]" if contig else None),
            scatter_ref=(None if contig else f"outb[:, {rows_ref_arr}]"),
        )
        return

    buf.writeline(f"for g0 in range(0, n_bh, {g_chunk}):")
    with buf.indent():
        buf.writeline(f"gs = slice(g0, min(g0 + {g_chunk}, n_bh))")
        buf.writeline("g = gs.stop - gs.start")
        buf.writeline(f"kg = kb[gs][:, {cg}].reshape(g, {n_g}, {cap * bn}, d)")
        buf.writeline(f"vg = vb[gs][:, {cg}].reshape(g, {n_g}, {cap * bn}, d)")
        qg = f"qb[gs, {rows_ref}]" if contig else f"qb[gs, {rows_ref_arr}]"
        buf.writeline(f"qg = {qg}")
        _emit_softmax_matmul(
            buf, bias_ref, dead, contig,
            out_ref=(f"outb[gs, {rows_ref}]" if contig else None),
            scatter_ref=(None if contig else f"outb[gs, {rows_ref_arr}]"),
        )


def _emit_softmax_matmul(
    buf: IndentedBuffer,
    bias_ref: str | None,
    dead: bool,
    contig: bool,
    out_ref: str | None,
    scatter_ref: str | None,
) -> None:
    """The shared score → softmax → context tail of every group.

    The final divide writes straight into the FP16 output (one rounding,
    same as the backend-level ``to_fp16`` downcast it replaces) — the
    generated module returns FP16 and the kernel's cast becomes a no-op.
    """
    buf.writeline("s = qg @ kg.swapaxes(-1, -2)")
    if bias_ref is not None:
        buf.writeline(f"s += {bias_ref}")
    buf.writeline("m_ref = s.max(axis=-1, keepdims=True)")
    if dead:
        buf.writeline(
            "m_ref = np.where(np.isfinite(m_ref), m_ref, np.float32(0.0))"
        )
    buf.writeline("np.subtract(s, m_ref, out=s)")
    buf.writeline("np.exp(s, out=s)")
    buf.writeline("l = s.sum(axis=-1, keepdims=True)")
    where = ", where=l > 0.0" if dead else ""
    buf.writeline("o = s @ vg")
    if contig:
        buf.writeline(f"np.divide(o, l, out={out_ref}{where})")
    else:
        buf.writeline(f"np.divide(o, l, out=o{where})")
        buf.writeline(f"{scatter_ref} = o")


register_template("blockwise", BLOCKWISE_TEMPLATE_VERSION, specialize_blockwise)
