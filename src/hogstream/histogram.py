"""Streaming per-cell orientation histograms with the uniform split rule.

Every pixel's magnitude is halved once (arithmetic shift of the raw value)
and the same halved amount goes to both bins of its orientation pair. Cells
are 8x8 pixels; one accumulator per cell column is enough because pixels
arrive in raster order. A cell's histogram is emitted as soon as its
bottom-right pixel has been consumed, so a row of cells streams out
left-to-right while the 8th pixel row is still being eaten.

Magnitudes arrive as raws at MAGNITUDE_FRACTION fractional bits, in the
plain (magnitude, bin_lo) lanes of gradient.binned_stream; accumulate_cells
checks each lane, since its packets may come from a caller, and emits each
cell as a plain (cell_row, cell_col, bins) tuple. Bins are raws in the
histogram format, whose fraction is never smaller: widening the halved
contribution into it is exact, so the only truncation is the halving shift.

The array path forms the same sums in another order. A pixel's pair is
always (bin_lo, bin_lo + 1 mod 9), so one scatter over the rows of cells it
is given, at each pixel's (cell, bin_lo) slot of pixel_slots, sums the
halves, and bin k is the sum at k plus the sum at k - 1. Integer sums are
order-free, so both paths agree bit for bit. The detector's pixel stage
calls it once per band of cell rows; the whole grid is just one band.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .fixedpoint import (DEFAULT_PROFILE, HISTOGRAM, MAGNITUDE_FRACTION, FxFormat,
                         SaturationStats, requantize_raws, saturate_array)
from .gradient import N_BINS
from .stream import CELL, VALID_PPC, GeometryError, StreamProtocolError

# the other bin of a pair: _NEXT_BIN[bin_lo] == (bin_lo + 1) % N_BINS
_NEXT_BIN = tuple((k + 1) % N_BINS for k in range(N_BINS))


def _lane_error(px: int, y: int, m: object, lo: object) -> ValueError:
    return ValueError(f"lane at ({px},{y}) needs an integer magnitude >= 0 and an integer "
                      f"bin_lo in 0..{N_BINS - 1}, got ({m!r}, {lo!r})")


def accumulate_cells(
    packets: Iterable[Sequence[tuple[int, int]]],
    width: int,
    fmt: FxFormat = DEFAULT_PROFILE.histogram_value,
    stats: SaturationStats | None = None,
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Consume raster-order packets of (magnitude, bin_lo) lanes (see
    binned_stream), emit each completed cell as (cell_row, cell_col, bins).

    Both bins of a pixel's pair, bin_lo and bin_lo + 1 mod 9, receive
    magnitude >> 1 (raw 5 gives raw 2 each). A lane whose magnitude is not
    a non-negative integer or whose bin_lo is not an integer in 0..8 raises
    ValueError naming it, so no contribution
    is negative and each bin saturates once, on emission, in one
    requantize_raws call per cell.

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
        col = x // CELL   # ppc divides CELL and x, so the packet lies in one cell
        bins = acc[col]
        for px, (m, lo) in enumerate(pkt, x):
            # a lane that is not two ints raises TypeError below: converting
            # it only then keeps type checks out of the loop
            try:
                if m < 0 or not 0 <= lo < N_BINS:
                    raise _lane_error(px, y, m, lo)
                half = (m >> 1) << widen
                bins[lo] += half
                bins[_NEXT_BIN[lo]] += half
            except TypeError:
                raise _lane_error(px, y, m, lo) from None
        x += ppc
        if y % CELL == CELL - 1 and x % CELL == 0:
            yield (y // CELL, col,
                   tuple(requantize_raws(bins, fmt.fraction, fmt, stats, HISTOGRAM)))
            acc[col] = [0] * N_BINS
        if x == width:
            x = 0
            y += 1
        elif x > width:
            raise StreamProtocolError("packet crossed a row boundary")
    if x != 0 or y % CELL != 0:
        raise StreamProtocolError(f"stream ended mid-cell at x={x}, y={y}")


# ---------------------------------------------------------------------------
# array path


def pixel_slots(bin_lo: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Flat index of each pixel's lower bin in the (rows, cols, N_BINS) grid
    of whole rows of cells: a row part plus a column part, formed per band,
    written to ``out``, an intp array of bin_lo's shape, if one is given."""
    h, w = bin_lo.shape
    slot = np.add(np.arange(h)[:, None] // CELL * (w // CELL * N_BINS),
                  np.arange(w) // CELL * N_BINS, out=out)
    slot += bin_lo
    return slot


def cell_histogram_grid(
    mag_raw: np.ndarray,
    bin_lo: np.ndarray,
    fmt: FxFormat = DEFAULT_PROFILE.histogram_value,
    stats: SaturationStats | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Per-cell histograms of whole rows of cells; int64 raws, (rows, cols, 9).

    Bit-identical to accumulate_cells, saturation counts included. Every
    pixel's pair is (bin_lo, bin_lo + 1 mod 9), so one scatter of the halves
    onto (cell, bin_lo) gives S, and bin k holds S[k] + S[k - 1]. The slots
    and the halves are formed in ``scratch``, an intp and a float64 array of
    the pixels' shape, if it is given.
    """
    h, w = mag_raw.shape
    if h % CELL or w % CELL:
        raise GeometryError(f"frame {w}x{h} is not a multiple of {CELL}")
    slots, halves = (None, None) if scratch is None else scratch
    # bincount sums in float64; exact, since magnitude_approx_raw <= 2805
    # under any profile, so a cell sum of halves is below 64 * 1403 < 2**17
    s = np.bincount(pixel_slots(bin_lo, slots).ravel(),
                    weights=np.right_shift(mag_raw, 1, out=halves).ravel(),
                    minlength=h * w // (CELL * CELL) * N_BINS)
    lo_sums = s.astype(np.int64).reshape(h // CELL, w // CELL, N_BINS)
    # summing the halves and then widening equals widening each half and then
    # summing: the left shift is a multiplication, exact in int64
    grid = (lo_sums + np.roll(lo_sums, 1, axis=2)) << (fmt.fraction - MAGNITUDE_FRACTION)
    return saturate_array(grid, fmt, stats, HISTOGRAM)
