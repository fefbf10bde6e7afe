"""Streaming per-cell orientation histograms with the uniform split rule.

Every pixel's magnitude is halved once (arithmetic shift of the raw value)
and the same halved amount goes to both bins of its orientation pair. Cells
are 8x8 pixels; one accumulator per cell column is enough because pixels
arrive in raster order. A cell's histogram is emitted as soon as its
bottom-right pixel has been consumed, so a row of cells streams out
left-to-right while the 8th pixel row is still being eaten.

Magnitudes arrive as raws at MAGNITUDE_FRACTION fractional bits; bins are raws
in the histogram format, whose fraction is never smaller: widening the halved
contribution into it is exact, so the only truncation is the halving shift.

The array path forms the same sums in another order. A pixel's pair is
always (bin_lo, bin_lo + 1 mod 9), so one scatter over the rows of cells it
is given, at each pixel's (cell, bin_lo) slot of pixel_slots, sums the
halves, and bin k is the sum at k plus the sum at k - 1. Integer sums are
order-free, so both paths agree bit for bit. detector.cell_bands calls it
once per band of cell rows; the whole grid is just one band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fixedpoint import (DEFAULT_PROFILE, MAGNITUDE_FRACTION, FxFormat, SaturationStats,
                         requantize_raws, saturate_array)
from .gradient import N_BINS, BinnedGradient
from .stream import CELL, VALID_PPC, GeometryError, StreamProtocolError

# the other bin of a pair: _NEXT_BIN[bin_lo] == (bin_lo + 1) % N_BINS
_NEXT_BIN = tuple((k + 1) % N_BINS for k in range(N_BINS))


@dataclass(frozen=True)
class CellHistogram:
    """9 accumulated bin raws (histogram_value format) for one 8x8 cell."""

    cell_row: int
    cell_col: int
    bins: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bins) != N_BINS:
            raise ValueError(f"expected {N_BINS} bins, got {len(self.bins)}")


def accumulate_cells(
    packets: Iterable[Sequence[BinnedGradient]],
    width: int,
    fmt: FxFormat = DEFAULT_PROFILE.histogram_value,
    stats: SaturationStats | None = None,
) -> Iterator[CellHistogram]:
    """Consume raster-order binned-gradient packets, emit completed cells.

    Both bins of a pixel's pair, bin_lo and bin_lo + 1 mod 9, receive
    magnitude >> 1 (raw 5 gives raw 2 each). No contribution is negative, so
    each bin saturates once, on emission, in one requantize_raws call per cell.

    The frame height is implied by the stream length and must be a multiple
    of 8, as must the width; a lane count outside VALID_PPC, a packet that
    straddles a row boundary or a stream that ends mid-cell is a protocol error.
    """
    if width % CELL or width <= 0:
        raise GeometryError(f"width must be a positive multiple of {CELL}, got {width}")
    n_cols = width // CELL
    widen = fmt.fraction - MAGNITUDE_FRACTION
    acc = [[0] * N_BINS for _ in range(n_cols)]
    x = 0
    y = 0
    for pkt in packets:
        ppc = len(pkt)
        if ppc not in VALID_PPC:
            raise StreamProtocolError(f"packet of {ppc} lanes not in {VALID_PPC}")
        if x % ppc:
            raise StreamProtocolError(f"packet of {ppc} lanes misaligned at x={x}")
        last_row = y % CELL == CELL - 1
        for px, bg in enumerate(pkt, x):
            col = px // CELL
            half = (bg.magnitude >> 1) << widen
            bins = acc[col]
            lo = bg.bin_lo
            bins[lo] += half
            bins[_NEXT_BIN[lo]] += half
            if last_row and px % CELL == CELL - 1:
                yield CellHistogram(
                    cell_row=y // CELL,
                    cell_col=col,
                    bins=tuple(requantize_raws(bins, fmt.fraction, fmt, stats, "histogram")),
                )
                acc[col] = [0] * N_BINS
        x += ppc
        if x == width:
            x = 0
            y += 1
        elif x > width:
            raise StreamProtocolError("packet crossed a row boundary")
    if x != 0 or y % CELL != 0:
        raise StreamProtocolError(f"stream ended mid-cell at x={x}, y={y}")


# ---------------------------------------------------------------------------
# array path


def pixel_slots(bin_lo: np.ndarray) -> np.ndarray:
    """Flat index of each pixel's lower bin in the (rows, cols, N_BINS) grid
    of whole rows of cells: a row part plus a column part, formed per band."""
    h, w = bin_lo.shape
    slot = np.arange(h)[:, None] // CELL * (w // CELL * N_BINS) + np.arange(w) // CELL * N_BINS
    slot += bin_lo
    return slot


def cell_histogram_grid(
    mag_raw: np.ndarray,
    bin_lo: np.ndarray,
    fmt: FxFormat = DEFAULT_PROFILE.histogram_value,
    stats: SaturationStats | None = None,
) -> np.ndarray:
    """Per-cell histograms of whole rows of cells; int64 raws, (rows, cols, 9).

    Bit-identical to accumulate_cells, saturation counts included. Every
    pixel's pair is (bin_lo, bin_lo + 1 mod 9), so one scatter of the halves
    onto (cell, bin_lo) gives S, and bin k holds S[k] + S[k - 1].
    """
    h, w = mag_raw.shape
    if h % CELL or w % CELL:
        raise GeometryError(f"frame {w}x{h} is not a multiple of {CELL}")
    # bincount sums in float64; exact, since magnitude_approx_raw <= 2805
    # under any profile, so a cell sum of halves is below 64 * 1403 < 2**17
    s = np.bincount(pixel_slots(bin_lo).ravel(), weights=(mag_raw >> 1).ravel(),
                    minlength=h * w // (CELL * CELL) * N_BINS)
    lo_sums = s.astype(np.int64).reshape(h // CELL, w // CELL, N_BINS)
    # summing the halves and then widening equals widening each half and then
    # summing: the left shift is a multiplication, exact in int64
    grid = (lo_sums + np.roll(lo_sums, 1, axis=2)) << (fmt.fraction - MAGNITUDE_FRACTION)
    return saturate_array(grid, fmt, stats, "histogram")
