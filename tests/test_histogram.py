"""Cell histogram accumulation: split rule, emission order, mass conservation."""

import re

import numpy as np
import pytest

from hogstream.fixedpoint import DEFAULT_PROFILE, FxFormat, SaturationStats, dump_raws
from hogstream.gradient import (
    binned_field,
    binned_stream,
    gradient_index,
    orient_bin_pair,
)
from hogstream.histogram import (
    accumulate_cells,
    cell_histogram_grid,
)
from hogstream.stream import (
    VALID_PPC,
    Frame,
    GeometryError,
    StreamProtocolError,
    context_stream,
    pack_frame,
)
from reference import magnitude_approx

MAG_FMT = DEFAULT_PROFILE.gradient_magnitude
HIST_FMT = DEFAULT_PROFILE.histogram_value


def binned_packets(frame, ppc):
    return binned_stream(context_stream(pack_frame(frame, ppc), width=frame.width))


def test_split_truncates_once():
    # one pixel of raw 5 (0.625) in an otherwise flat cell: both bins receive
    # raw 2 (0.25), widened exactly from 3 to 4 fractional bits
    zero = (0, 0)
    pkts = [[(5, 0)] + [zero] * 7] + [[zero] * 8 for _ in range(7)]
    ((_, _, bins),) = accumulate_cells(pkts, width=8)
    assert bins[0] == bins[1] == 2 << 1


def test_accumulate_cells_checks_each_lane():
    # a lane's bin_lo must be in 0..8 (9 would index past the bins and -1
    # would wrap to bin 8), its magnitude must not be negative, and both
    # must be integers (a float once raised TypeError from >> or the index)
    for lane in ((0, 9), (0, -1), (-16, 0), (5.0, 0), (4, 1.0), (None, 0)):
        pkts = [[lane] + [(0, 0)] * 7] + [[(0, 0)] * 8 for _ in range(7)]
        with pytest.raises(ValueError, match=re.escape(f"got {lane}")):
            list(accumulate_cells(pkts, width=8))
    (c,) = accumulate_cells([[(0, 8)] * 8 for _ in range(8)], width=8)
    assert c == (0, 0, (0,) * 9)


def test_single_cell_constant_gradient():
    # 64 identical pixels with magnitude raw 8 (1.0) and pair (0,1):
    # each bin gets 64 * ((8>>1) widened to fraction 4) = 64*8 = 512 raw (32.0)
    bg = (8, 0)
    pkts = [[bg] * 8 for _ in range(8)]
    cells = list(accumulate_cells(pkts, width=8))
    assert len(cells) == 1
    cell_row, cell_col, bins = cells[0]
    assert (cell_row, cell_col) == (0, 0)
    raws = list(bins)
    assert raws == [512, 512, 0, 0, 0, 0, 0, 0, 0]
    assert bins[0] / HIST_FMT.scale == 32.0


def test_wrap_pair_hits_bins_8_and_0():
    bg = (16, 8)
    pkts = [[bg] * 8 for _ in range(8)]
    ((_, _, bins),) = accumulate_cells(pkts, width=8)
    raws = list(bins)
    assert raws[8] == raws[0] == 64 * 16 and sum(raws) == raws[0] + raws[8]


def test_emission_order_raster():
    rng = np.random.default_rng(31)
    f = Frame.from_array(rng.integers(0, 256, size=(16, 24), dtype=np.uint8))
    coords = [(r, c) for r, c, _ in accumulate_cells(binned_packets(f, 4), f.width)]
    assert coords == [(r, c) for r in range(2) for c in range(3)]


def naive_cell_grid(px):
    """Independent double-loop reference built from the scalar ops."""
    h, w = px.shape
    p = np.pad(px.astype(int), 1, mode="edge")
    grid = [[[0] * 9 for _ in range(w // 8)] for _ in range(h // 8)]
    for y in range(h):
        for x in range(w):
            gx = int(p[y + 1, x + 2]) - int(p[y + 1, x])
            gy = int(p[y + 2, x + 1]) - int(p[y, x + 1])
            lo, hi = orient_bin_pair(gx, gy)
            half = (magnitude_approx(gx, gy) >> 1) << 1  # widen 3 -> 4 frac bits
            grid[y // 8][x // 8][lo] += half
            grid[y // 8][x // 8][hi] += half
    return grid


def test_matches_naive_reference_all_ppc():
    rng = np.random.default_rng(32)
    for w, h in [(8, 8), (24, 16), (64, 32)]:
        px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        want = naive_cell_grid(px)
        f = Frame.from_array(px)
        for ppc in VALID_PPC:
            got = {}
            for cell_row, cell_col, bins in accumulate_cells(binned_packets(f, ppc), f.width):
                got[(cell_row, cell_col)] = list(bins)
            for r in range(h // 8):
                for col in range(w // 8):
                    assert got[(r, col)] == want[r][col], (w, h, ppc, r, col)


def test_grid_matches_stream():
    rng = np.random.default_rng(33)
    px = rng.integers(0, 256, size=(24, 40), dtype=np.uint8)
    mag, lo = binned_field(gradient_index(px))
    grid = cell_histogram_grid(mag, lo)
    f = Frame.from_array(px)
    for cell_row, cell_col, bins in accumulate_cells(binned_packets(f, 8), f.width):
        assert grid[cell_row, cell_col].tolist() == list(bins)


@pytest.mark.parametrize("fmt", [HIST_FMT, FxFormat(14, 4)], ids=["default", "narrow"])
def test_grid_matches_stream_across_bands(fmt):
    # 21 cell rows, more than one band of run_pipeline, in one scatter;
    # the narrow format saturates, and both paths must count the same events
    rng = np.random.default_rng(35)
    px = rng.integers(0, 256, size=(168, 48), dtype=np.uint8)
    mag, lo = binned_field(gradient_index(px))
    grid_stats, stream_stats = SaturationStats(), SaturationStats()
    grid = cell_histogram_grid(mag, lo, fmt, grid_stats)
    f = Frame.from_array(px)
    want = np.zeros_like(grid)
    for cell_row, cell_col, bins in accumulate_cells(binned_packets(f, 4), f.width, fmt,
                                                     stream_stats):
        want[cell_row, cell_col] = bins
    assert grid.shape == (21, 6, 9)
    assert np.array_equal(grid, want)
    assert grid_stats.counts == stream_stats.counts
    assert (grid_stats["histogram"] > 0) == (fmt != HIST_FMT)


def test_mass_conservation():
    # sum over bins == sum over pixels of 2*(mag>>1), per cell
    rng = np.random.default_rng(34)
    px = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    mag, lo = binned_field(gradient_index(px))
    grid = cell_histogram_grid(mag, lo)
    # each pixel deposits (m >> 1) widened by one fraction bit into BOTH bins
    expect = ((mag.astype(np.int64) >> 1) << 2).reshape(2, 8, 2, 8).sum(axis=(1, 3))
    assert np.array_equal(grid.sum(axis=2), expect)


def test_histogram_never_saturates_at_default_widths():
    # worst case: every pixel at the magnitude ceiling
    bg = (MAG_FMT.max_raw, 3)
    pkts = [[bg] * 8 for _ in range(8)]
    stats = SaturationStats()
    ((_, _, bins),) = accumulate_cells(pkts, width=8, stats=stats)
    assert bins[3] == 64 * ((MAG_FMT.max_raw >> 1) << 1) == 65408
    assert bins[3] <= HIST_FMT.max_raw
    assert sum(stats.counts.values()) == 0


def test_protocol_errors():
    with pytest.raises(GeometryError):
        list(accumulate_cells([], width=12))

    bg = (0, 0)
    with pytest.raises(StreamProtocolError):
        list(accumulate_cells([[bg] * 3], width=8))  # 3 lanes misaligned

    # lane counts that divide the width but are no pixels-per-clock setting
    for lanes in (3, 12):
        pkts = [[bg] * lanes for _ in range(8 * 24 // lanes)]
        with pytest.raises(StreamProtocolError, match="not in"):
            list(accumulate_cells(pkts, width=24))

    pkts = [[bg] * 8 for _ in range(7)]
    with pytest.raises(StreamProtocolError):
        list(accumulate_cells(pkts, width=8))  # ends mid-cell

    pkts = [[bg] * 8, [bg] * 4]
    with pytest.raises(StreamProtocolError):
        list(accumulate_cells(pkts, width=8))  # ends mid-row


def test_dump_cells_layout():
    grid = np.arange(18, dtype=np.int64).reshape(1, 2, 9)
    blob = dump_raws(grid)
    assert len(blob) == 18 * 4
    assert blob[:8] == b"\x00\x00\x00\x00\x01\x00\x00\x00"
    assert np.array_equal(np.frombuffer(blob, dtype="<i4"), np.arange(18))
