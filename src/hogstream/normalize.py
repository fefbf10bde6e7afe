"""Block assembly and two-pass L2-hys normalization in fixed point.

Blocks are 2x2 cells with 50% overlap: cell grid (R, C) yields block grid
(R-1, C-1). A block's 36-value feature is the concatenation
[cell(i,j), cell(i+1,j), cell(i,j+1), cell(i+1,j+1)], 9 bins each.

The normalizer never divides: 1/sqrt comes from the classic bit-pattern seed
0x5F3759DF with a single Newton-Raphson refinement, evaluated on the IEEE754
single-precision image of the operand. Pass one scales by
1/sqrt(sum(h^2) + eps2), quantizes to the post-norm feature format, clips at
the quantized 0.2 constant, pass two renormalizes the clipped vector the same
way. eps2 is one raw LSB of whichever accumulator feeds the sqrt, so all-zero
blocks normalize to all-zero features instead of dividing by zero.

Squares and their sums are exact: the squared-histogram accumulator carries
twice the histogram fraction, and the squared clipped features are summed at
twice the feature fraction, so the only roundings in this stage are the two
inverse-sqrt quantizations and the two per-entry product truncations.

The packet path carries plain tuples of raw ints: block_stream emits one
(block_row, block_col, cells, block_sq_sum) per block and normalize_block
one (block_row, block_col, values), each laid out in its docstring. Each
stage that takes such tuples from a caller checks them: block_stream
rejects a cell without 9 bins, normalize_block a group without four such
cells or whose sum is not a non-negative integer within prepare_first_norm,
and svm.score_windows a block without 36 integer values. Every format comes
from the PrecisionProfile. Each square, cell energy (computed once per cell)
and block energy saturates once. The packet path saturates whole lists: a
cell's nine squares and a block's 36 norm1 and 36 norm2 products are one
requantize_raws call each, and each cell and block energy is one
saturate_raw call.
The array path has the same two parts: cell_energy_grid squares and sums each
cell, and block_features forms and normalizes the blocks over cells whose
energies are given, so a band of cell rows can reuse the energies of the row
above it (detector.block_bands).
block_cells is the one definition of the block layout over a grid; the
float oracle shares it, as it shares the window sum.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Iterable, Iterator

import numpy as np

from .fixedpoint import (
    DEFAULT_PROFILE,
    INV_SQRT1, INV_SQRT2, NORM1, NORM2, PREPARE_NORM,
    PrecisionProfile,
    SaturationStats,
    fx_quantize,
    quantize_array,
    requantize_array,
    requantize_raws,
    saturate_array,
    saturate_raw,
)
from .gradient import N_BINS
from .stream import GeometryError

INV_SQRT_MAGIC = 0x5F3759DF
BLOCK_VALUES = 4 * N_BINS
CLIP_THRESHOLD = 0.2
_F32, _U32 = struct.Struct("<f"), struct.Struct("<I")


def fast_inv_sqrt(x: float) -> float:
    """Approximate 1/sqrt(x) with the bit-pattern seed and one Newton step.

    The operand is rounded to IEEE754 single precision; the seed is the
    pattern 0x5F3759DF - (pattern(x) >> 1); one refinement
    y = y0 * (1.5 - 0.5 * x * y0^2) brings the relative error within 0.18%
    for x in [2**-10, 2**10]. x must be a real whose single-precision image
    is positive and finite, as in fast_inv_sqrt_field, else ValueError.
    """
    try:
        image = _F32.pack(x)
    except OverflowError:   # beyond float32's range: its image would be inf
        image = _F32.pack(math.inf)
    (xf,), (pattern,) = _F32.unpack(image), _U32.unpack(image)
    if not 0 < xf < math.inf:
        raise ValueError(f"fast_inv_sqrt needs a positive finite float32 operand, got {x}")
    (y0,) = _F32.unpack(_U32.pack(INV_SQRT_MAGIC - (pattern >> 1)))
    return y0 * (1.5 - 0.5 * xf * y0 * y0)


def fast_inv_sqrt_field(x: np.ndarray) -> np.ndarray:
    """Array form of fast_inv_sqrt (float64 in, float64 out), bit-identical."""
    # past float32's range the image is inf, as in fast_inv_sqrt, with no warning
    with np.errstate(over="ignore"):
        xf = np.asarray(x, dtype=np.float64).astype(np.float32)
    if xf.size and (not np.all(xf > 0) or np.any(np.isinf(xf))):
        raise ValueError("fast_inv_sqrt needs positive finite operands")
    seed = (np.int32(INV_SQRT_MAGIC) - (xf.view(np.int32) >> 1)).astype(np.int32)
    y0 = seed.view(np.float32).astype(np.float64)
    return y0 * (1.5 - 0.5 * xf.astype(np.float64) * y0 * y0)


def _cell_sq_sum(
    bins: tuple[int, ...], profile: PrecisionProfile, stats: SaturationStats | None
) -> int:
    """A cell's squared-bin sum in prepare_first_norm: each square and the
    total saturate once."""
    fmt = profile.prepare_first_norm
    total = sum(requantize_raws([b * b for b in bins],
                                2 * profile.histogram_value.fraction, fmt, stats,
                                PREPARE_NORM))
    return saturate_raw(total, fmt, stats, PREPARE_NORM)


def block_stream(
    cells: Iterable[tuple[int, int, tuple[int, ...]]],
    cell_cols: int,
    profile: PrecisionProfile = DEFAULT_PROFILE,
    stats: SaturationStats | None = None,
) -> Iterator[tuple[int, int, tuple[tuple[int, ...], ...], int]]:
    """Group raster-order (cell_row, cell_col, bins) cells into overlapping
    2x2 blocks, each emitted as (block_row, block_col, cells, block_sq_sum):
    the bins of cells (i,j), (i+1,j), (i,j+1), (i+1,j+1), and their
    squared-bin sum in prepare_first_norm.

    Block (i, j) is emitted when cell (i+1, j+1) arrives, so blocks stream out
    in raster order one cell row behind the input. A cell without 9 bins
    raises ValueError; a cell out of raster order or that arrives twice, or a
    cell grid smaller than 2x2, raises a geometry error.
    """
    if cell_cols < 1:
        raise GeometryError(f"cell_cols must be positive, got {cell_cols}")
    prev: list[tuple[tuple[int, ...], int] | None] = [None] * cell_cols
    cur: list[tuple[tuple[int, ...], int] | None] = [None] * cell_cols
    rows_seen = 0
    for r, c, bins in cells:
        if len(bins) != N_BINS:
            raise ValueError(f"cell ({r},{c}) has {len(bins)} bins, expected {N_BINS}")
        if not 0 <= c < cell_cols:
            raise GeometryError(f"cell_col {c} outside grid of {cell_cols} columns")
        if not max(rows_seen - 1, 0) <= r <= rows_seen:
            raise GeometryError(f"cell row {r} arrived out of raster order")
        if r == rows_seen:
            if rows_seen:
                prev, cur = cur, [None] * cell_cols
            rows_seen += 1
        if cur[c] is not None:
            raise GeometryError(f"cell ({r},{c}) arrived twice")
        entry = (bins, _cell_sq_sum(bins, profile, stats))
        cur[c] = entry
        if r >= 1 and c >= 1:
            tl, bl, tr, br = prev[c - 1], cur[c - 1], prev[c], entry
            if tl is None or bl is None or tr is None:
                raise GeometryError(f"cell ({r},{c}) arrived before its block neighbors")
            yield (r - 1, c - 1, (tl[0], bl[0], tr[0], br[0]),
                   saturate_raw(tl[1] + bl[1] + tr[1] + br[1],
                                profile.prepare_first_norm, stats, PREPARE_NORM))
    if rows_seen < 2 or cell_cols < 2:
        raise GeometryError(
            f"cell grid {rows_seen}x{cell_cols} is too small to form a block"
        )


@functools.cache
def _block_constants(profile: PrecisionProfile) -> tuple:
    """normalize_block's and block_features' constants, formed once per
    profile: the block energy's format, the first inverse sqrt's format and
    the fraction of its products, the feature format and its quantized 0.2
    clip, the scale of the squared clipped features, then the same for the
    second pass, and the output format."""
    f1_fmt, n1_fmt, n2_fmt = (profile.feature_after_first_norm, profile.first_inv_sqrt,
                              profile.second_inv_sqrt)
    return (profile.prepare_first_norm,
            n1_fmt, profile.histogram_value.fraction + n1_fmt.fraction,
            f1_fmt, fx_quantize(CLIP_THRESHOLD, f1_fmt).raw, 1 << (2 * f1_fmt.fraction),
            n2_fmt, f1_fmt.fraction + n2_fmt.fraction, profile.final_feature)


def normalize_block(
    group: tuple[int, int, tuple[tuple[int, ...], ...], int],
    profile: PrecisionProfile = DEFAULT_PROFILE,
    stats: SaturationStats | None = None,
) -> tuple[int, int, tuple[int, ...]]:
    """Two-pass fixed-point L2-hys normalization of one block_stream block;
    returns (block_row, block_col, values), 36 raws in final_feature.

    The group must hold four cells of 9 bins and a block_sq_sum that is a
    non-negative integer within prepare_first_norm, else ValueError names
    the block. The sum is taken as block_stream gives it, not checked against
    the cells: recomputing it would double the energy work of the packet path.
    """
    (prep_fmt, n1_fmt, n1_fraction, f1_fmt, clip_raw, sq_scale,
     n2_fmt, n2_fraction, out_fmt) = _block_constants(profile)
    block_row, block_col, cells, block_sq_sum = group
    if (tuple(map(len, cells)) != (N_BINS,) * 4 or not isinstance(block_sq_sum, int)
            or not 0 <= block_sq_sum <= prep_fmt.max_raw):
        raise ValueError(f"block ({block_row},{block_col}) needs 4 cells of {N_BINS} bins and "
                         f"a non-negative integer block_sq_sum within {prep_fmt}, got cells "
                         f"of {tuple(map(len, cells))} bins and sum {block_sq_sum!r}")

    # eps2 = one raw LSB of the squared-sum accumulator
    x1 = (block_sq_sum + 1) / prep_fmt.scale
    n1 = fx_quantize(fast_inv_sqrt(x1), n1_fmt, stats, INV_SQRT1).raw

    f_l2 = requantize_raws([b * n1 for bins in cells for b in bins],
                           n1_fraction, f1_fmt, stats, NORM1)
    f_th = [v if v < clip_raw else clip_raw for v in f_l2]

    # squared clipped features summed exactly at twice the feature fraction
    s2 = sum(v * v for v in f_th) + 1   # + one raw LSB
    n2 = fx_quantize(fast_inv_sqrt(s2 / sq_scale), n2_fmt, stats, INV_SQRT2).raw

    values = tuple(requantize_raws([v * n2 for v in f_th], n2_fraction, out_fmt, stats, NORM2))
    return block_row, block_col, values


# ---------------------------------------------------------------------------
# array path: a cell part and a block part, so a band of cell rows can run
# its own cells and take the cell row above it from the band before


def block_cells(grid: np.ndarray) -> np.ndarray:
    """The cells of every block of a (R, C, K) grid of any dtype as one (R-1,
    C-1, 4K) array, [cell(i,j), cell(i+1,j), cell(i,j+1), cell(i+1,j+1)]; a
    grid smaller than 2x2 cannot form a block and raises GeometryError."""
    rows, cols = grid.shape[:2]
    if rows < 2 or cols < 2:
        raise GeometryError(f"cell grid {rows}x{cols} is too small to form a block")
    return np.concatenate((grid[:-1, :-1], grid[1:, :-1], grid[:-1, 1:], grid[1:, 1:]), axis=2)


def cell_energy_grid(hist_grid: np.ndarray, profile: PrecisionProfile = DEFAULT_PROFILE,
                     stats: SaturationStats | None = None) -> np.ndarray:
    """Squared-bin sum of every cell, each square and sum saturated once into
    prepare_first_norm; int64, (rows, cols)."""
    h = hist_grid.astype(np.int64, copy=False)
    sq = requantize_array(h * h, 2 * profile.histogram_value.fraction,
                          profile.prepare_first_norm, stats, PREPARE_NORM)
    return saturate_array(sq.sum(axis=2), profile.prepare_first_norm, stats, PREPARE_NORM)


def block_features(hist_grid: np.ndarray, cell_energy: np.ndarray,
                   profile: PrecisionProfile = DEFAULT_PROFILE,
                   stats: SaturationStats | None = None) -> np.ndarray:
    """Normalized features of the blocks of a cell grid whose cell energies
    are given (see cell_energy_grid); int64, (R-1, C-1, 36)."""
    (prep_fmt, n1_fmt, n1_fraction, f1_fmt, clip_raw, sq_scale,
     n2_fmt, n2_fraction, out_fmt) = _block_constants(profile)

    e = cell_energy
    block_sq = saturate_array(e[:-1, :-1] + e[1:, :-1] + e[:-1, 1:] + e[1:, 1:],
                              prep_fmt, stats, PREPARE_NORM)
    x1 = (block_sq + 1) / prep_fmt.scale
    n1 = quantize_array(fast_inv_sqrt_field(x1), n1_fmt, stats, INV_SQRT1)

    # both products are formed in place in the fresh block cells, and no
    # name holds a block-sized array past its last use, so a band's blocks
    # peak at three block-sized arrays
    f_l2 = block_cells(hist_grid.astype(np.int64, copy=False))
    f_l2 *= n1[:, :, None]
    f_l2 = requantize_array(f_l2, n1_fraction, f1_fmt, stats, NORM1)
    f_th = np.minimum(f_l2, clip_raw, out=f_l2)

    s2 = np.einsum("ijk,ijk->ij", f_th, f_th) + 1
    n2 = quantize_array(fast_inv_sqrt_field(s2 / sq_scale), n2_fmt, stats, INV_SQRT2)

    f_th *= n2[:, :, None]
    return requantize_array(f_th, n2_fraction, out_fmt, stats, NORM2)
