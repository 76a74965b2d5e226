"""Block-compressed sparse row (BSR) mask storage (paper §4.2, Fig. 6).

The mask matrix is tiled into ``(BLOCK_M, BLOCK_N)`` blocks.  Each block is
classified as:

* ``FULL``  — every element attended: the kernel does a dense tile with no
  mask load at all,
* ``PART``  — mixed: the kernel loads the block's element mask and applies
  it after the score GEMM,
* empty     — no element attended: the block (and the matching K/V tiles)
  is *skipped entirely*.

Storage follows the paper exactly:

* ``full_row_ptr`` / ``full_col_idx`` — CSR over FULL blocks.
* ``part_row_ptr`` / ``part_col_idx`` — CSR over PART blocks; each PART
  block also carries an index into ``part_mask``, a stack of *deduplicated*
  dense block masks ("we store the identical block masks only once and then
  broadcast them to the indices").
* ``load_row_ptr`` / ``load_col_idx`` — the merged CSR over all valid
  (FULL ∪ PART) blocks, column-sorted per row; this is what the block-wise
  kernel iterates.  ``load_kind``/``load_mask_idx`` run parallel to
  ``load_col_idx`` so one pass yields everything the kernel needs.

On top of the CSR view, ``from_dense`` eagerly builds a *flat COO* view for
the vectorized execution backend: ``load_block_row`` records each valid
block's block-row (so one gather fetches every Q/K/V tile at once), and the
``seg_*`` arrays describe the non-empty block-row segments of the flat block
axis (``seg_starts`` feeds ``np.{maximum,add}.reduceat`` for the segmented
online softmax, ``seg_id`` broadcasts per-segment statistics back to blocks,
``seg_block_rows`` scatters segment results into output rows).
``part_bias`` is the deduplicated PART-mask stack as an additive FP32 bias
(``0`` attended / ``-inf`` masked), ready to add onto score tiles.

Pricing needs none of those arrays, only their sizes: :class:`BlockStats`
holds the block counts at one grid, and :class:`TileScan` derives them for
every grid whose block sides are multiples of 16 from a single 16x16 pass
over the mask, so the selector's candidate grids never rescan it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.errors import ConfigError


#: Side of the finest grid :class:`TileScan` records; coarser grids sum it.
TILE = 16

#: Set bits per byte value (portable popcount for numpy < 2.0).
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int32)


class BlockKind(enum.IntEnum):
    """Kind tag stored per valid block in the merged load arrays."""

    FULL = 0
    PART = 1


@dataclass
class BlockSparseMask:
    """BSR representation of an attention mask.

    Build with :meth:`from_dense`; reconstruct with :meth:`to_dense` (an
    exact round trip — property-tested).  All index arrays are ``int32``
    (matching what a GPU kernel would consume); block masks are stored as a
    single boolean stack ``part_mask`` of shape ``(n_unique, BLOCK_M,
    BLOCK_N)``.
    """

    seq_len: int
    kv_len: int
    block_m: int
    block_n: int

    full_row_ptr: np.ndarray
    full_col_idx: np.ndarray
    part_row_ptr: np.ndarray
    part_col_idx: np.ndarray
    part_mask_idx: np.ndarray   # parallel to part_col_idx -> row of part_mask
    part_mask: np.ndarray       # (n_unique, block_m, block_n) bool

    load_row_ptr: np.ndarray
    load_col_idx: np.ndarray
    load_kind: np.ndarray       # parallel to load_col_idx, BlockKind values
    load_mask_idx: np.ndarray   # parallel; -1 for FULL blocks

    # Flat COO view (vectorized execution backend; built by from_dense).
    load_block_row: np.ndarray  # parallel to load_col_idx: block-row index
    seg_starts: np.ndarray      # flat offsets of each non-empty block row
    seg_block_rows: np.ndarray  # block-row index of each segment
    seg_id: np.ndarray          # parallel to load_col_idx: segment index
    part_bias: np.ndarray       # (n_unique, block_m, block_n) fp32 0/-inf

    _load_bias_cache: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    _concat_groups_cache: list | None = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------ construction

    @classmethod
    def from_dense(
        cls, mask: np.ndarray, block_m: int, block_n: int
    ) -> "BlockSparseMask":
        """Tile a dense boolean mask into BSR form.

        The sequence length need not divide the block size: edge blocks are
        padded with ``False`` (padding never counts toward "full").

        >>> import numpy as np
        >>> m = np.eye(4, dtype=bool)
        >>> bsr = BlockSparseMask.from_dense(m, 2, 2)
        >>> bsr.n_full, bsr.n_part
        (0, 2)
        >>> bool((bsr.to_dense() == m).all())
        True
        """
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise ConfigError(f"mask must be 2-D, got shape {mask.shape}")
        if mask.dtype != bool:
            mask = mask.astype(bool)
        if block_m < 1 or block_n < 1:
            raise ConfigError(f"block sizes must be >= 1, got ({block_m}, {block_n})")

        # Rectangular masks (query length != key length, e.g. KV-cache
        # decode steps) are supported; ``seq_len``/``kv_len`` track the two
        # extents separately.
        seq_len, kv_len = mask.shape
        n_rows = -(-seq_len // block_m)
        n_cols = -(-kv_len // block_n)

        padded = np.zeros((n_rows * block_m, n_cols * block_n), dtype=bool)
        padded[:seq_len, :kv_len] = mask
        blocks = padded.reshape(n_rows, block_m, n_cols, block_n).transpose(0, 2, 1, 3)
        counts = blocks.sum(axis=(2, 3))

        # "full" means every *in-bounds* element is attended; edge blocks are
        # full when their un-padded region is saturated.
        in_bounds = np.zeros_like(padded)
        in_bounds[:seq_len, :kv_len] = True
        bounds_blocks = in_bounds.reshape(
            n_rows, block_m, n_cols, block_n
        ).transpose(0, 2, 1, 3)
        capacity = bounds_blocks.sum(axis=(2, 3))

        is_valid = counts > 0
        is_full = is_valid & (counts == capacity)
        is_part = is_valid & ~is_full

        full_row_ptr, full_col_idx = _csr_from_grid(is_full)
        part_row_ptr, part_col_idx = _csr_from_grid(is_part)

        # Deduplicate part-block masks by content (vectorized: unique over
        # the flattened block rows, row-major order matches the CSR order).
        p_rows, p_cols = np.nonzero(is_part)
        if len(p_rows):
            part_blocks = blocks[p_rows, p_cols].reshape(len(p_rows), -1)
            # Bit-pack each block and compare as opaque fixed-size records:
            # memcmp-based unique is far faster than axis=0 unique on bools.
            packed = np.packbits(part_blocks, axis=1)
            packed = np.ascontiguousarray(packed)
            keys = packed.view(f"V{packed.shape[1]}").ravel()
            _, first_idx, inverse = np.unique(
                keys, return_index=True, return_inverse=True
            )
            # Re-number unique blocks by first appearance so ordering is
            # deterministic and independent of np.unique's sort.
            order = np.argsort(first_idx, kind="stable")
            renumber = np.empty_like(order)
            renumber[order] = np.arange(len(order))
            part_mask_idx = renumber[inverse].astype(np.int32)
            part_mask = part_blocks[np.sort(first_idx)].reshape(
                -1, block_m, block_n
            )
        else:
            part_mask_idx = np.zeros(0, dtype=np.int32)
            part_mask = np.zeros((0, block_m, block_n), dtype=bool)

        # Merged load arrays: FULL and PART interleaved in column order
        # (vectorized lexsort over (row, col)).
        f_rows, f_cols = np.nonzero(is_full)
        all_rows = np.concatenate([f_rows, p_rows]).astype(np.int64)
        all_cols = np.concatenate([f_cols, p_cols]).astype(np.int32)
        all_kinds = np.concatenate(
            [
                np.full(len(f_rows), int(BlockKind.FULL), dtype=np.int8),
                np.full(len(p_rows), int(BlockKind.PART), dtype=np.int8),
            ]
        )
        all_midx = np.concatenate(
            [np.full(len(f_rows), -1, dtype=np.int32), part_mask_idx]
        )
        order = np.lexsort((all_cols, all_rows))
        load_cols = all_cols[order]
        load_kinds = all_kinds[order]
        load_midx = all_midx[order]
        row_counts = np.bincount(all_rows, minlength=n_rows)
        load_row_ptr = np.zeros(n_rows + 1, dtype=np.int32)
        np.cumsum(row_counts, out=load_row_ptr[1:])

        # Flat COO view: per-block block-row indices plus the non-empty
        # row segments of the flat block axis (blocks are (row, col)-sorted,
        # so each block row occupies one contiguous flat segment).
        load_rows = all_rows[order].astype(np.int32)
        seg_block_rows = np.flatnonzero(row_counts > 0).astype(np.int32)
        seg_starts = load_row_ptr[seg_block_rows]
        seg_id = np.repeat(
            np.arange(len(seg_block_rows), dtype=np.int32),
            row_counts[seg_block_rows],
        )
        part_bias = np.where(
            part_mask, np.float32(0.0), np.float32(-np.inf)
        ).astype(np.float32)

        return cls(
            seq_len=seq_len,
            kv_len=kv_len,
            block_m=block_m,
            block_n=block_n,
            full_row_ptr=full_row_ptr,
            full_col_idx=full_col_idx,
            part_row_ptr=part_row_ptr,
            part_col_idx=part_col_idx,
            part_mask_idx=part_mask_idx,
            part_mask=part_mask,
            load_row_ptr=load_row_ptr,
            load_col_idx=np.asarray(load_cols, dtype=np.int32),
            load_kind=np.asarray(load_kinds, dtype=np.int8),
            load_mask_idx=np.asarray(load_midx, dtype=np.int32),
            load_block_row=load_rows,
            seg_starts=seg_starts,
            seg_block_rows=seg_block_rows,
            seg_id=seg_id,
            part_bias=part_bias,
        )

    # ------------------------------------------------------------- round trip

    def to_dense(self) -> np.ndarray:
        """Reconstruct the exact dense boolean mask (vectorized scatter)."""
        blocks = np.zeros(
            (self.n_block_rows, self.n_block_cols, self.block_m, self.block_n),
            dtype=bool,
        )
        full = self.load_kind == int(BlockKind.FULL)
        blocks[self.load_block_row[full], self.load_col_idx[full]] = True
        part = ~full
        blocks[self.load_block_row[part], self.load_col_idx[part]] = (
            self.part_mask[self.load_mask_idx[part]]
        )
        out = blocks.transpose(0, 2, 1, 3).reshape(
            self.n_block_rows * self.block_m, self.n_block_cols * self.block_n
        )
        # FULL edge blocks legitimately cover padded region; clip handled by
        # slicing.  Padding inside part blocks was stored as False.
        return out[: self.seq_len, : self.kv_len]

    # --------------------------------------------------------------- queries

    @property
    def n_full(self) -> int:
        return int(len(self.full_col_idx))

    @property
    def n_part(self) -> int:
        return int(len(self.part_col_idx))

    @property
    def n_unique_part_masks(self) -> int:
        return int(self.part_mask.shape[0])

    @cached_property
    def stats(self) -> "BlockStats":
        """The block counts pricing reads (see :class:`BlockStats`)."""
        return BlockStats(
            seq_len=self.seq_len,
            kv_len=self.kv_len,
            block_m=self.block_m,
            block_n=self.block_n,
            n_full=self.n_full,
            n_part=self.n_part,
            n_unique_part_masks=self.n_unique_part_masks,
        )

    @property
    def n_block_rows(self) -> int:
        return self.stats.n_block_rows

    @property
    def n_block_cols(self) -> int:
        return self.stats.n_block_cols

    @property
    def n_valid(self) -> int:
        return self.stats.n_valid

    @property
    def n_total(self) -> int:
        return self.stats.n_total

    @property
    def valid_ratio(self) -> float:
        return self.stats.valid_ratio

    def metadata_bytes(self) -> int:
        return self.stats.metadata_bytes()

    def row_valid_counts(self) -> np.ndarray:
        """Number of valid blocks per block row (kernel work distribution)."""
        return np.diff(self.load_row_ptr)

    def blocks_in_row(self, block_row: int) -> list[tuple[int, BlockKind, int]]:
        """Iterate the valid blocks of one block row as (col, kind, mask_idx)."""
        if not (0 <= block_row < self.n_block_rows):
            raise ConfigError(
                f"block_row {block_row} out of range [0, {self.n_block_rows})"
            )
        s, e = self.load_row_ptr[block_row], self.load_row_ptr[block_row + 1]
        return [
            (
                int(self.load_col_idx[k]),
                BlockKind(int(self.load_kind[k])),
                int(self.load_mask_idx[k]),
            )
            for k in range(s, e)
        ]

    def load_bias(self) -> np.ndarray:
        """Per-valid-block additive score bias, ``(n_valid, block_m, block_n)``.

        ``0`` where attended, ``-inf`` where masked: PART blocks expand their
        deduplicated ``part_bias`` row, FULL blocks are all-zero except for
        the out-of-bounds key columns of a ragged edge block (PART padding is
        already ``False`` in the stored masks).  Cached after first build —
        it is a pure function of the mask.
        """
        if self._load_bias_cache is None:
            bias = np.zeros(
                (self.n_valid, self.block_m, self.block_n), dtype=np.float32
            )
            part = self.load_kind == int(BlockKind.PART)
            if part.any():
                bias[part] = self.part_bias[self.load_mask_idx[part]]
            pad_cols = self.n_block_cols * self.block_n - self.kv_len
            if pad_cols > 0:
                edge = (self.load_col_idx == self.n_block_cols - 1) & ~part
                bias[edge, :, self.block_n - pad_cols :] = -np.inf
            self._load_bias_cache = bias
        return self._load_bias_cache

    def concat_groups(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
        """Length-bucketed concatenated views of the flat block axis (cached).

        Non-empty block rows are grouped by their valid-block count; within a
        group, every row's blocks concatenate along the key axis, so each
        group's score tile is one ``(block_m, cap*block_n)`` slab and the
        segmented softmax over ``seg_starts`` becomes a plain last-axis
        softmax (the segment is the axis).  Counts are exact when the mask
        has few distinct per-row block counts (banded masks — zero padded
        compute); masks with many distinct counts (causal) round up to
        power-of-two buckets, where padded slots repeat the row's last block
        under an all ``-inf`` bias and contribute ``exp(-inf) = 0``.

        Returns ``(block_rows, block_idx, bias)`` per bucket: ``block_rows``
        ``(n_g,)`` block-row of each member, ``block_idx`` ``(n_g, cap)``
        flat indices into the valid-block axis, and ``bias``
        ``(n_g, block_m, cap*block_n)`` additive FP32 score bias — ``None``
        when the whole slab is zero (all-FULL rows, no padding).
        """
        if self._concat_groups_cache is None:
            groups: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]] = []
            lens = np.diff(self.load_row_ptr)[self.seg_block_rows].astype(np.int64)
            if lens.size:
                if len(np.unique(lens)) <= 16:
                    caps = lens                      # exact: no padded slots
                else:
                    caps = np.int64(1) << np.ceil(np.log2(lens)).astype(np.int64)
                bias_all = self.load_bias()
                for cap in np.unique(caps):
                    sel = caps == cap
                    rows_g = self.seg_block_rows[sel]
                    lens_g = lens[sel]
                    lanes = np.arange(cap)
                    idx = self.seg_starts[sel].astype(np.int64)[:, None] + np.minimum(
                        lanes[None, :], lens_g[:, None] - 1
                    )
                    slab = bias_all[idx]        # (n_g, cap, bm, bn) tile gather
                    slab[lanes[None, :] >= lens_g[:, None]] = -np.inf
                    slab = slab.transpose(0, 2, 1, 3).reshape(
                        len(rows_g), self.block_m, int(cap) * self.block_n
                    )
                    groups.append(
                        (rows_g, idx.astype(np.int32), slab if slab.any() else None)
                    )
            self._concat_groups_cache = groups
        return self._concat_groups_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockSparseMask(seq={self.seq_len}, block=({self.block_m},"
            f"{self.block_n}), full={self.n_full}, part={self.n_part}, "
            f"valid={self.n_valid}/{self.n_total})"
        )


@dataclass(frozen=True)
class BlockStats:
    """Block counts of a mask at one ``(block_m, block_n)`` grid.

    Everything the cost model reads of a BSR view — FULL, PART and
    deduplicated PART-mask counts plus the geometry — without its index
    arrays.  Equal to ``BlockSparseMask.from_dense(mask, bm, bn).stats``
    field for field; :meth:`TileScan.stats` derives it without the build.
    """

    seq_len: int
    kv_len: int
    block_m: int
    block_n: int
    n_full: int
    n_part: int
    n_unique_part_masks: int

    @property
    def n_block_rows(self) -> int:
        return -(-self.seq_len // self.block_m)

    @property
    def n_block_cols(self) -> int:
        return -(-self.kv_len // self.block_n)

    @property
    def n_valid(self) -> int:
        return self.n_full + self.n_part

    @property
    def n_total(self) -> int:
        return self.n_block_rows * self.n_block_cols

    @property
    def valid_ratio(self) -> float:
        """Fraction of blocks that must be computed (Eq. 1's first term)."""
        return self.n_valid / self.n_total if self.n_total else 0.0

    def metadata_bytes(self) -> int:
        """Device bytes occupied by the BSR index arrays and mask stack.

        Three ``int32`` row pointers (full, part, load); ``int32`` column
        indices for FULL and PART blocks plus a PART mask index; the merged
        load arrays (``int32`` column, ``int8`` kind, ``int32`` mask index)
        per valid block; and the deduplicated PART masks at 1 byte/element.
        The flat-COO / segment arrays are host-side machinery of the
        vectorized functional backend and deliberately not counted: a real
        device kernel consumes only the CSR views priced here.
        """
        return (
            3 * 4 * (self.n_block_rows + 1)
            + 4 * self.n_full
            + (4 + 4) * self.n_part
            + (4 + 1 + 4) * self.n_valid
            + self.n_unique_part_masks * self.block_m * self.block_n
        )


@dataclass(frozen=True, eq=False)
class TileScan:
    """One 16x16 pass over a mask, from which any coarser grid follows.

    ``counts[r, c]`` is the attended element count of tile ``(r, c)`` and
    ``ids[r, c]`` a content id: two tiles share an id iff their elements
    (``False``-padded past the mask's edge) are equal, and ``0`` is the
    empty tile.  For block sides that are multiples of 16, a coarse
    block's count is the sum of its tiles' counts (compared against its
    clipped edge capacity for FULL), and two coarse blocks hold equal masks
    iff their rows of sub-tile ids are equal — so :meth:`stats` is exact.
    """

    seq_len: int
    kv_len: int
    counts: np.ndarray   # (tile rows, tile cols) int32
    ids: np.ndarray      # (tile rows, tile cols) int64, 0 = empty

    @classmethod
    def of(cls, mask: np.ndarray) -> "TileScan":
        """Scan a 2-D boolean mask once: bit-pack, popcount, dedupe tiles."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ConfigError(f"mask must be 2-D, got shape {mask.shape}")
        seq_len, kv_len = mask.shape
        n_rows, n_cols = -(-seq_len // TILE), -(-kv_len // TILE)
        row_bytes = TILE // 8
        # Pack along keys first (trailing bits are zero), then pad the small
        # packed array, so the L^2 mask itself is never copied.
        packed = np.packbits(mask, axis=1)
        padded = np.zeros((n_rows * TILE, n_cols * row_bytes), dtype=np.uint8)
        padded[:seq_len, : packed.shape[1]] = packed
        tiles = np.ascontiguousarray(
            padded.reshape(n_rows, TILE, n_cols, row_bytes).transpose(0, 2, 1, 3)
        ).reshape(n_rows * n_cols, TILE * row_bytes)
        counts = _POPCOUNT[tiles].sum(axis=1, dtype=np.int32)

        ids = np.zeros(n_rows * n_cols, dtype=np.int64)
        live = np.flatnonzero(counts)
        if len(live):
            keys = tiles[live].view(f"V{TILE * row_bytes}").ravel()
            _, inverse = np.unique(keys, return_inverse=True)
            ids[live] = inverse.ravel() + 1
        return cls(
            seq_len=seq_len,
            kv_len=kv_len,
            counts=counts.reshape(n_rows, n_cols),
            ids=ids.reshape(n_rows, n_cols),
        )

    def stats(self, block_m: int, block_n: int) -> BlockStats:
        """Exact :class:`BlockStats` at a grid of multiples of 16."""
        if block_m % TILE or block_n % TILE or min(block_m, block_n) < TILE:
            raise ConfigError(
                f"tile-scan grids need multiples of {TILE}, got ({block_m}, {block_n})"
            )
        fm, fn = block_m // TILE, block_n // TILE
        n_rows = -(-self.seq_len // block_m)
        n_cols = -(-self.kv_len // block_n)

        def coarse(grid: np.ndarray) -> np.ndarray:
            out = np.zeros((n_rows * fm, n_cols * fn), dtype=grid.dtype)
            out[: grid.shape[0], : grid.shape[1]] = grid
            return out.reshape(n_rows, fm, n_cols, fn).transpose(0, 2, 1, 3)

        counts = coarse(self.counts).sum(axis=(2, 3))
        rows_in = np.minimum(block_m, self.seq_len - block_m * np.arange(n_rows))
        cols_in = np.minimum(block_n, self.kv_len - block_n * np.arange(n_cols))
        capacity = rows_in[:, None] * cols_in[None, :]
        is_full = counts == capacity      # capacity >= 1, so counts > 0
        is_part = (counts > 0) & ~is_full

        sub_ids = coarse(self.ids)[is_part].reshape(-1, fm * fn)
        n_unique = len(np.unique(sub_ids, axis=0)) if len(sub_ids) else 0
        return BlockStats(
            seq_len=self.seq_len,
            kv_len=self.kv_len,
            block_m=block_m,
            block_n=block_n,
            n_full=int(is_full.sum()),
            n_part=int(is_part.sum()),
            n_unique_part_masks=n_unique,
        )


def _csr_from_grid(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR (row_ptr, col_idx) over the True cells of a 2-D boolean grid."""
    n_rows = grid.shape[0]
    rows, cols = np.nonzero(grid)  # row-major order: already row-sorted
    row_ptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=row_ptr[1:])
    return row_ptr, cols.astype(np.int32)
