"""Rowwise plan-to-code specializer.

Emits one module per (mask, geometry, ``n_bh`` guard family): non-empty
rows are grouped ``ROW_GROUP`` at a time, each group is split into a
dense-range slice or power-of-two length gather buckets, and all of it is
decided at emission time from the element CSR, leaving straight-line NumPy
with literal slice bounds, baked bias constants, and pre-gathered
index/padding tables.  Dead branches go away: the bias add is skipped for
full-dense row ranges, padding-lane masking is skipped for exact buckets,
and chunk loops collapse when one chunk covers the axis.

Outputs agree with ``RowWiseKernel``'s loop oracle at the FP16 noise floor
(summation order differs by padded/masked lanes only).
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
from repro.mha.kernel import GATHER_CHUNK_ELEMS

if TYPE_CHECKING:  # annotation-only: the plan layer never runs at emit time
    from repro.plan.symbolic import GuardRecorder

#: Bump when the emitted code changes shape (see blockwise counterpart).
ROWWISE_TEMPLATE_VERSION = 2

#: Row grouping: consecutive non-empty rows are processed ``ROW_GROUP`` at a
#: time; a group takes the no-gather contiguous-slice path when its attended
#: columns span at most ``DENSE_RANGE_FACTOR`` times the longest row's nnz
#: (or the head size, for tiny rows) — the host-side mirror of the kernel's
#: coalesced-vs-scattered load split.  The factor is large because a
#: dense-range column costs a few streamed-BLAS/exp nanoseconds while a
#: gathered lane costs two ``head_size``-vector fancy gathers (~an order of
#: magnitude more) — measured crossover is near 16.
ROW_GROUP = 64
DENSE_RANGE_FACTOR = 16


def specialize_rowwise(
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    mask: np.ndarray,
    head_size: int,
    sym: "GuardRecorder",
    digest: str = "",
    pattern: str = "custom",
) -> GeneratedSource:
    """Render the specialized module for one element-CSR mask.

    ``sym`` (a :class:`repro.plan.symbolic.GuardRecorder` binding ``n_bh``)
    answers every emission decision that reads the batch*heads extent and
    accumulates the guards under which this exact module re-emits, so the
    caller caches it once per guard family instead of once per concrete
    ``n_bh``.  The emitted text itself reads ``n_bh`` from ``q.shape[0]``
    at run time.
    """
    seq, kv = mask.shape
    d = head_size
    lengths = np.diff(row_ptr)
    nonempty = np.flatnonzero(lengths)

    buf = IndentedBuffer()
    consts: list[np.ndarray] = []
    counters: list[tuple] = []

    def const(arr: np.ndarray) -> str:
        consts.append(arr)
        return f"consts[{len(consts) - 1}]"

    buf.writelines(
        module_header(
            "rowwise",
            ROWWISE_TEMPLATE_VERSION,
            digest,
            {
                "pattern": pattern,
                "seq": seq,
                "kv": kv,
                "n_bh": "sym",
                "nnz": int(row_ptr[-1]),
                "nonempty_rows": int(nonempty.size),
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
        buf.writeline(f"out = np.zeros((n_bh, {seq}, d), dtype=np.float16)")
        if nonempty.size == 0:
            buf.writeline("return out")
            emit_counters(buf, counters)
            return GeneratedSource(
                "rowwise", ROWWISE_TEMPLATE_VERSION, buf.getvalue(), consts
            )

        lens = lengths[nonempty].astype(np.int64)
        starts = row_ptr[nonempty].astype(np.int64)
        first = col_idx[starts].astype(np.int64)
        last = col_idx[starts + lens - 1].astype(np.int64) + 1

        scattered: list[np.ndarray] = []
        for a in range(0, len(nonempty), ROW_GROUP):
            b = min(a + ROW_GROUP, len(nonempty))
            lo, hi = int(first[a:b].min()), int(last[a:b].max())
            longest = int(lens[a:b].max())
            if hi - lo > DENSE_RANGE_FACTOR * max(longest, d):
                scattered.append(np.arange(a, b))
                continue
            _emit_dense_group(
                buf, const, counters, mask, nonempty[a:b], a // ROW_GROUP,
                lo, hi, sym,
            )

        for sel in scattered:
            counters.append(("mha.path", "path", "gather", "count", 1))
            _emit_gather_buckets(
                buf, const, counters, row_ptr, col_idx, nonempty[sel],
                lens[sel], d, sym,
            )

        buf.writeline("return out")
    emit_counters(buf, counters)
    return GeneratedSource(
        "rowwise", ROWWISE_TEMPLATE_VERSION, buf.getvalue(), consts
    )


def _rows_expr(const, rows_g: np.ndarray) -> tuple[str, bool]:
    """A literal slice when the rows are consecutive, else a baked array."""
    r0, r1 = int(rows_g[0]), int(rows_g[-1]) + 1
    if r1 - r0 == len(rows_g):
        return f"{r0}:{r1}", True
    return const(rows_g.astype(np.int64)), False


def _emit_dense_group(
    buf: IndentedBuffer,
    const,
    counters: list[tuple],
    mask: np.ndarray,
    rows_g: np.ndarray,
    gi: int,
    lo: int,
    hi: int,
    sym: "GuardRecorder",
) -> None:
    """Contiguous-slice path: one dense masked softmax-matmul per group."""
    bias = np.where(
        mask[rows_g, lo:hi], np.float32(0.0), np.float32(-np.inf)
    ).astype(np.float32)
    biased = bool(np.isinf(bias).any())
    bias_ref = const(bias) if biased else None
    rows_ref, contig = _rows_expr(const, rows_g)
    g_chunk = max(1, int(GATHER_CHUNK_ELEMS // max(1, len(rows_g) * (hi - lo))))
    counters.append(("mha.path", "path", "dense_range", "count", 1))
    counters.append(("mha.chunks", "path", "dense_range", "chunks", g_chunk))

    buf.writeline(
        f"# group {gi}: {len(rows_g)} rows, dense range [{lo}:{hi})"
        + ("" if biased else ", full-dense (no bias)")
    )

    def body(gs: str) -> None:
        qg = f"q[{gs}, {rows_ref}]" if contig else f"q[{gs}][:, {rows_ref}]"
        buf.writeline(f"s = {qg} @ k[{gs}, {lo}:{hi}].swapaxes(-1, -2)")
        if bias_ref is not None:
            buf.writeline(f"s += {bias_ref}")
        buf.writeline("smax = s.max(axis=-1, keepdims=True)")
        buf.writeline("np.subtract(s, smax, out=s)")
        buf.writeline("np.exp(s, out=s)")
        buf.writeline("l = s.sum(axis=-1, keepdims=True)")
        buf.writeline(f"o = s @ v[{gs}, {lo}:{hi}]")
        if contig:
            # The divide writes straight into the FP16 output view — one
            # rounding, same as the backend-level downcast it replaces.
            buf.writeline(f"np.divide(o, l, out=out[{gs}, {rows_ref}])")
        else:
            buf.writeline("np.divide(o, l, out=o)")
            buf.writeline(f"out[{gs}, {rows_ref}] = o")

    if sym.le("n_bh", g_chunk):
        body(":")
    else:
        buf.writeline(f"for g0 in range(0, n_bh, {g_chunk}):")
        with buf.indent():
            buf.writeline(f"gs = slice(g0, g0 + {g_chunk})")
            body("gs")


def _emit_gather_buckets(
    buf: IndentedBuffer,
    const,
    counters: list[tuple],
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    rows: np.ndarray,
    lens: np.ndarray,
    d: int,
    sym: "GuardRecorder",
) -> None:
    """Padded-gather fallback: pow2 length buckets, indices baked as consts."""
    caps = np.int64(1) << np.ceil(np.log2(lens)).astype(np.int64)
    for cap in np.unique(caps):
        in_bucket = caps == cap
        rows_b = rows[in_bucket]
        lens_b = lens[in_bucket]
        lanes = np.arange(cap)
        pos = row_ptr[rows_b].astype(np.int64)[:, None] + np.minimum(
            lanes[None, :], lens_b[:, None] - 1
        )
        idx = col_idx[pos].astype(np.int64)
        pad = lanes[None, :] >= lens_b[:, None]
        padded = bool(pad.any())
        n_b = len(rows_b)
        # The baked chunk size is the one n_bh-derived *constant* in the
        # module; the recorder pins the exact n_bh region over which this
        # value (and thus the emitted text) is unchanged.
        row_chunk = sym.floordiv("n_bh", GATHER_CHUNK_ELEMS, int(cap) * d)
        counters.append(("mha.gather_bytes", "cap", int(cap), "kv_bytes", n_b * int(cap)))
        counters.append(("mha.bucket_rows", "cap", int(cap), "count", n_b))
        counters.append(("mha.chunks", "path", "gather", "count", -(-n_b // row_chunk)))

        idx_ref = const(idx)
        pad_ref = const(pad) if padded else None
        rows_ref = const(rows_b.astype(np.int64))
        buf.writeline(
            f"# bucket cap {int(cap)}: {n_b} scattered rows"
            + ("" if padded else ", exact (no padding lanes)")
        )

        def body(rs: str | None) -> None:
            sub = f"[{rs}]" if rs else ""
            buf.writeline(f"rows_c = {rows_ref}{sub}")
            buf.writeline(f"kg = k[:, {idx_ref}{sub}]")
            buf.writeline(f"vg = v[:, {idx_ref}{sub}]")
            buf.writeline(
                "scores = (q[:, rows_c, None, :] @ kg.swapaxes(-1, -2))[:, :, 0, :]"
            )
            if pad_ref is not None:
                buf.writeline(f"scores[:, {pad_ref}{sub}] = -np.inf")
            buf.writeline("smax = scores.max(axis=-1, keepdims=True)")
            buf.writeline("ex = np.exp(scores - smax)")
            buf.writeline("probs = ex / ex.sum(axis=-1, keepdims=True)")
            buf.writeline("out[:, rows_c] = (probs[:, :, None, :] @ vg)[:, :, 0, :]")

        if row_chunk >= n_b:
            body(None)
        else:
            buf.writeline(f"for r0 in range(0, {n_b}, {row_chunk}):")
            with buf.indent():
                buf.writeline(f"rs = slice(r0, r0 + {row_chunk})")
                body("rs")


register_template("rowwise", ROWWISE_TEMPLATE_VERSION, specialize_rowwise)
