"""Per-pixel gradients, shift-add magnitude, adjacent-bin orientation lookup.

Gradients come from the 1-D central difference masks [-1, 0, 1] applied
horizontally and vertically. The Euclidean magnitude is replaced by the
shift-add approximation max(0.875a + 0.5b, a) with a = max(|gx|,|gy|),
b = min(|gx|,|gy|); at 3 fractional bits the shifts are exact for integer
inputs, so the only error is the approximation itself (within [-3.2%, +0.9%]
of the true magnitude, zero on axis-aligned gradients).

Orientation is never computed as an angle. The unsigned orientation in
[0, 180) is classified directly into its pair of adjacent histogram bins by
comparing gy against gx * tan(boundary) with integer constants. Bin centers
sit at 10 + 20k degrees (k = 0..8); the pair for theta in [c_k, c_{k+1}) is
(k, k+1), wrapping to (8, 0) below 10 and at or above 170 degrees. The second
bin is therefore always the first plus one, mod 9, so the packet path and
the array path carry only the first bin, bin_lo.

The scalar ops magnitude_approx_raw and orient_bin_pair define this
arithmetic. The packet path (binned_stream) calls both per pixel and clamps
the magnitude inline, against a bound it reads once per stream; each lane it
emits is a plain (magnitude, bin_lo) tuple, and bin_lo in 0..8 holds by the
pair tables. histogram.accumulate_cells checks both fields of lanes that come
from a caller. The array path (binned_field) makes one gather per pixel, at
an index gradient_index forms straight from the pixels, so no gradient image
is stored, as in the datapath. It gathers from a table over every gradient of
8-bit pixels, [-255, 255]^2, that packs the saturated magnitude, a clipped
bit and bin_lo into one int32 per magnitude format, built on first use from
_pixel_table: both functions' steps and branches in numpy, which the tests
check on every gradient against the scalar ops. The float oracle gathers
from its own table through the same index.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator

import numpy as np

from .fixedpoint import DEFAULT_PROFILE, MAGNITUDE, FxFormat, SaturationStats

# Bin indices are plain ints 0..8. The hardware's 4-bit bin-number field is
# unsigned: 8 exceeds the signed 4-bit maximum.
N_BINS = 9
# |gx|, |gy| bound of central differences over 8-bit pixels
GRADIENT_MAX = 255
BIN_STEP_DEG = 20.0
FIRST_CENTER_DEG = 10.0

# Boundary tangents tan(10), tan(30), tan(50), tan(70) at 16 fractional bits,
# floored. Floored constants make ">= boundary" and "> boundary" both equal to
# the strict integer comparison (gy << 16) > gx * T, and 16 bits are enough
# that no gradient ratio with |gx|,|gy| <= 255 falls inside the rounding gap
# (verified exhaustively against atan2 in the tests).
TAN_FRACTION_BITS = 16
TAN_BOUNDARIES = tuple(
    math.floor(math.tan(math.radians(FIRST_CENTER_DEG + BIN_STEP_DEG * k))
               * (1 << TAN_FRACTION_BITS))
    for k in range(4)
)
_T0, _T1, _T2, _T3 = TAN_BOUNDARIES

# pair tables indexed by how many boundaries (gy/gx) strictly exceeds
_Q1_PAIRS = ((8, 0), (0, 1), (1, 2), (2, 3), (3, 4))
_Q2_PAIRS = ((8, 0), (7, 8), (6, 7), (5, 6), (4, 5))


def magnitude_approx_raw(gx: int, gy: int) -> int:
    """Shift-add magnitude, returned as the raw integer at 3 fractional bits.

    Computed exactly as the datapath does: at 3 fractional bits,
    0.875a = a - (a >> 3) and 0.5b = b >> 1 are exact for integer gradients,
    so this equals max(0.875a + 0.5b, a) with no rounding error. No width
    limit is applied here; binned_stream and binned_field saturate it into
    the magnitude format.
    """
    a = gx if gx >= 0 else -gx
    b = gy if gy >= 0 else -gy
    if a < b:
        a, b = b, a
    ra = a << 3
    rb = b << 3
    m = ra - (ra >> 3) + (rb >> 1)
    return m if m > ra else ra


def orient_bin_pair(gx: int, gy: int) -> tuple[int, int]:
    """Adjacent-bin pair of the unsigned orientation of (gx, gy).

    Equivalent, bit for bit, to computing theta = atan2(gy, gx) mod 180 and
    locating it among the bin centers; zero gradient returns (0, 1) (its
    contribution is zero, so the choice is unobservable).
    """
    if gy < 0:
        gx, gy = -gx, -gy          # unsigned orientation: (gx,gy) ~ (-gx,-gy)
    elif gy == 0:
        return (8, 0) if gx else (0, 1)   # theta = 0, or the zero gradient
    if gx == 0:
        return (4, 5)              # theta = 90
    if gx > 0:
        a, pairs = gx, _Q1_PAIRS
    else:
        a, pairs = -gx, _Q2_PAIRS  # theta in (90, 180): classify 180 - theta
    # the boundaries increase, so the ones gy/gx exceeds are a prefix
    lhs = gy << TAN_FRACTION_BITS
    if lhs > a * _T1:
        return pairs[4 if lhs > a * _T3 else 3 if lhs > a * _T2 else 2]
    return pairs[1 if lhs > a * _T0 else 0]


def binned_stream(
    contexts: Iterable[tuple[tuple[tuple[int, ...], ...], ...]],
    fmt: FxFormat = DEFAULT_PROFILE.gradient_magnitude,
    stats: SaturationStats | None = None,
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Map a context stream (see context_stream) to packets of one
    (magnitude, bin_lo) tuple per lane: the magnitude raw in ``fmt``, and the
    lower bin of the pixel's pair, whose other bin is (bin_lo + 1) % N_BINS.

    Gradients are central differences of each 3x3 context, (gx, gy) =
    (right - left, bottom - top). The magnitude bound is read once.
    Magnitudes are never negative, so only the upper bound can clip; each
    packet records its clipped lanes at once.
    """
    top = fmt.max_raw
    magnitude, orient = magnitude_approx_raw, orient_bin_pair
    for lanes in contexts:
        out = []
        clipped = 0
        for (_, up, _), (left, _, right), (_, down, _) in lanes:
            gx = right - left
            gy = down - up
            m = magnitude(gx, gy)
            # inline: requantize_raws per packet made a 256x256 ppc-4 frame 19-40% slower
            if m > top:
                m = top
                clipped += 1
            out.append((m, orient(gx, gy)[0]))
        if clipped and stats is not None:
            stats.record(MAGNITUDE, clipped)
        yield tuple(out)


# ---------------------------------------------------------------------------
# array path, gathered from a table of the scalar ops above evaluated in numpy


def gradient_index(pixels: np.ndarray, y0: int = 0, y1: int | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Flat intp index into _pixel_table of each pixel of rows y0..y1 (the
    whole frame by default): (gx + G) * (2G + 1) + gy + G, G = GRADIENT_MAX,
    linear in the four neighbours, so formed from them with no gradient array.
    It is formed in int32 (its largest value is (2G + 1)**2 - 1 = 261,120)
    and widened to intp, the index np.take keeps as it is, in the last add,
    which writes to ``out``, an intp array of the rows' shape, if one is
    given.

    A band reads a one-row halo above and below it from the frame; edges are
    replicated only at the frame's own borders, so any split into bands gives
    the same values. Pixels that are not uint8 raise ValueError: from uint8
    pixels every index lies in the table.
    """
    if pixels.dtype != np.uint8:
        raise ValueError(f"pixels must be uint8, got {pixels.dtype}")
    h = pixels.shape[0]
    y1 = h if y1 is None else y1
    halo = (int(y0 == 0), int(y1 == h))   # rows the frame itself cannot supply
    p = np.pad(pixels[max(y0 - 1, 0) : y1 + 1], (halo, (1, 1)), mode="edge")
    n = 2 * GRADIENT_MAX + 1
    idx = np.subtract(p[1:-1, 2:], p[1:-1, :-2], dtype=np.int32)
    idx *= n
    idx += p[2:, 1:-1]
    idx -= p[:-2, 1:-1]
    return np.add(idx, GRADIENT_MAX * n + GRADIENT_MAX, out=out, dtype=np.intp)


# gx rows of the table evaluated at a time: a chunk's int64 temporaries take 0.13 MB;
# 64 rows raised a 1080p process's peak RSS by 0.8 MiB, the whole grid by 5.8 MiB
_TABLE_CHUNK = 32


def _pixel_table() -> tuple[np.ndarray, np.ndarray]:
    """magnitude_approx_raw and the bin_lo of orient_bin_pair at every gradient.

    Flat views of two (2G+1, 2G+1) tables indexed [gx + G, gy + G], G =
    GRADIENT_MAX: both ops' steps and branches in numpy, _TABLE_CHUNK gx rows
    at a time, which the tests check on every gradient against the scalar ops.
    Built for each _packed_table, which is cached, so only the packed table
    stays in memory.
    """
    g = GRADIENT_MAX
    n = 2 * g + 1
    mag, lo = np.empty((n, n), dtype=np.int32), np.empty((n, n), dtype=np.uint8)
    q1, q2 = (np.array([p[0] for p in pairs]) for pairs in (_Q1_PAIRS, _Q2_PAIRS))
    gy = np.arange(-g, g + 1, dtype=np.int32)
    lhs = abs(gy) << TAN_FRACTION_BITS
    for x0 in range(0, n, _TABLE_CHUNK):
        gx = gy[x0 : x0 + _TABLE_CHUNK, None]   # both axes run over -G..G
        a = abs(gx)   # |gx| is also the a of orient_bin_pair, which may negate gx
        ra, rb = np.maximum(a, abs(gy)) << 3, np.minimum(a, abs(gy)) << 3
        mag[x0 : x0 + len(gx)] = np.maximum(ra - (ra >> 3) + (rb >> 1), ra)
        x = np.where(gy < 0, -gx, gx)   # (gx, gy) ~ (-gx, -gy): gy >= 0 from here
        count = sum(lhs > a * t for t in TAN_BOUNDARIES)   # the boundaries gy/gx exceeds
        lo[x0 : x0 + len(gx)] = np.where(gy == 0, np.where(gx != 0, 8, 0),   # theta 0, or zero
                                         np.where(x == 0, 4,                   # theta 90
                                                  np.where(x > 0, q1[count], q2[count])))
    return mag.ravel(), lo.ravel()


# the packed entry's fields: bin_lo in bits 0..3, the clipped bit 4, the
# saturated magnitude from bit 5 up
_LO_MASK = 15
_CLIPPED = 1 << 4
_MAG_SHIFT = 5


@functools.cache
def _packed_table(fmt: FxFormat) -> tuple[np.ndarray, int]:
    """_pixel_table packed into one int32 per gradient for a magnitude
    format, (min(m, top) << 5) | ((m > top) << 4) | bin_lo with top the
    format's max_raw, and the least clipped entry, (top << 5) | 16:
    magnitudes are never negative, so only top can clip, and an entry is
    clipped exactly when it is at least that.

    top is clamped to the table's largest magnitude first: a wider format
    clips nothing either way, and its max_raw shifted would not fit int32.
    """
    mag, lo = _pixel_table()
    top = min(fmt.max_raw, int(mag.max()))
    packed = np.minimum(mag, top)
    packed <<= _MAG_SHIFT
    np.bitwise_or(packed, _CLIPPED, out=packed, where=mag > top)
    packed |= lo
    packed.flags.writeable = False   # shared by every caller through the cache
    return packed, (top << _MAG_SHIFT) | _CLIPPED


def binned_field(
    idx: np.ndarray,
    fmt: FxFormat = DEFAULT_PROFILE.gradient_magnitude,
    stats: SaturationStats | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of binned_stream at gradient_index's indices: (saturated
    magnitude raws int32, bin_lo uint8), written to ``out``, two arrays of
    those dtypes and idx's shape, if it is given. Every pixel is one gather
    from _packed_table, checked on every entry against the scalar ops, and
    the clipped pixels are one count.
    """
    table, clipped_from = _packed_table(fmt)
    entry, lo = (None, None) if out is None else out
    entry = np.take(table, idx, out=entry)
    if stats is not None:
        stats.record(MAGNITUDE, np.count_nonzero(entry >= clipped_from))
    lo = np.bitwise_and(entry, _LO_MASK, out=lo, dtype=np.uint8, casting="unsafe")
    entry >>= _MAG_SHIFT
    return entry, lo
