"""Fast inverse sqrt, block grouping, two-pass fixed-point normalization."""

import math
import re

import numpy as np
import pytest

from hogstream.fixedpoint import DEFAULT_PROFILE, dump_raws
from hogstream.gradient import binned_field, gradient_index
from hogstream.histogram import cell_histogram_grid
from hogstream.normalize import (
    BLOCK_VALUES,
    CLIP_THRESHOLD,
    block_features,
    block_stream,
    cell_energy_grid,
    fast_inv_sqrt,
    fast_inv_sqrt_field,
    _cell_sq_sum,
    normalize_block,
)
from hogstream.stream import Frame, GeometryError
from reference import oracle_block_normalize, reference_run

HIST_FMT = DEFAULT_PROFILE.histogram_value
OUT_FMT = DEFAULT_PROFILE.final_feature


def cell(raws, r=0, c=0):
    return (r, c, tuple(raws))


def grid_cells(grid_raws):
    """Raster stream of (cell_row, cell_col, bins) cells for a (R, C, 9) raw array."""
    rows, cols, _ = grid_raws.shape
    for r in range(rows):
        for c in range(cols):
            yield cell([int(v) for v in grid_raws[r, c]], r, c)


def test_fast_inv_sqrt_frozen_values():
    assert fast_inv_sqrt(4.0) == 0.49915357479239103
    assert fast_inv_sqrt(1.0) == 0.9983071495847821
    assert abs(fast_inv_sqrt(0.15625) * math.sqrt(0.15625) - 1.0) < 0.0018


def test_fast_inv_sqrt_error_band():
    # |relative error| <= 0.18% across the working range (dense sweep in acceptance)
    xs = np.logspace(-10, 10, 20001, base=2.0)
    ys = fast_inv_sqrt_field(xs)
    rel = np.abs(ys * np.sqrt(xs) - 1.0)
    assert float(rel.max()) <= 0.0018


def test_fast_inv_sqrt_domain():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            fast_inv_sqrt(bad)
    with pytest.raises(ValueError):
        fast_inv_sqrt_field(np.array([1.0, 0.0]))


def test_fast_inv_sqrt_field_matches_scalar():
    rng = np.random.default_rng(41)
    xs = np.concatenate([
        rng.uniform(2.0**-10, 2.0**10, size=500),
        np.array([2.0**-10, 1.0, 4.0, 2.0**10]),
    ])
    ys = fast_inv_sqrt_field(xs)
    for x, y in zip(xs, ys):
        assert fast_inv_sqrt(float(x)) == y


def test_fast_inv_sqrt_agrees_with_its_array_form_at_float32_edges():
    # both forms take the operand's float32 image: one below the smallest
    # subnormal rounds to 0 and one past float32's max to inf, and the scalar
    # form once returned 1.98e19 for the first and raised OverflowError for
    # the second; the array form once warned of its cast to inf before it
    # raised, so under -W error its caller got a RuntimeWarning
    f32 = np.finfo(np.float32)
    rejected = []
    for x in (1e-50, float(f32.smallest_subnormal), 1.0, float(f32.max), 3.5e38, 1e39):
        try:
            want = fast_inv_sqrt_field(np.array([x]))
        except ValueError:
            rejected.append(x)
            with pytest.raises(ValueError):
                fast_inv_sqrt(x)
            continue
        assert np.array([fast_inv_sqrt(x)]).tobytes() == want.tobytes(), x
    assert rejected == [1e-50, 3.5e38, 1e39]


def one_hot_grid(hot_raw=1600):
    g = np.zeros((2, 2, 9), dtype=np.int64)
    g[0, 0, 0] = hot_raw
    return g


def test_block_stream_grouping():
    rng = np.random.default_rng(42)
    raws = rng.integers(0, 4000, size=(3, 3, 9))
    blocks = list(block_stream(grid_cells(raws), cell_cols=3))
    assert [(b[0], b[1]) for b in blocks] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    _, _, cells, _ = blocks[2]  # block (1,0): cells (1,0),(2,0),(1,1),(2,1)
    got = [list(bins) for bins in cells]
    assert got == [raws[1, 0].tolist(), raws[2, 0].tolist(),
                   raws[1, 1].tolist(), raws[2, 1].tolist()]


def test_block_sq_sum_exact():
    rng = np.random.default_rng(43)
    raws = rng.integers(0, 65408, size=(2, 2, 9))
    ((_, _, cells, block_sq_sum),) = block_stream(grid_cells(raws), cell_cols=2)
    # squares at twice the histogram fraction are exact in the (42,8) accumulator
    expect = int((raws.astype(object) ** 2).sum())
    assert block_sq_sum == expect
    assert sum(_cell_sq_sum(bins, DEFAULT_PROFILE, None) for bins in cells) == expect


def test_block_stream_geometry_errors():
    raws = np.zeros((1, 3, 9), dtype=np.int64)
    with pytest.raises(GeometryError):
        list(block_stream(grid_cells(raws), cell_cols=3))  # one row
    raws = np.zeros((3, 1, 9), dtype=np.int64)
    with pytest.raises(GeometryError):
        list(block_stream(grid_cells(raws), cell_cols=1))  # one column
    cells = [cell([0] * 9, 1, 0)]
    with pytest.raises(GeometryError):
        list(block_stream(iter(cells), cell_cols=2))  # starts at row 1
    cells = [cell([0] * 9, r, c) for r in (-1, 0) for c in range(2)]
    with pytest.raises(GeometryError, match="cell row -1 arrived out of raster order"):
        list(block_stream(iter(cells), cell_cols=2))  # starts at row -1
    cells = [cell([0] * 9, 0, 5)]
    with pytest.raises(GeometryError):
        list(block_stream(iter(cells), cell_cols=2))  # column outside grid
    # a cell that arrives twice, before or after its block was emitted
    for order, twice in (([(0, 0), (0, 1), (0, 1), (1, 0), (1, 1)], "(0,1)"),
                         ([(0, 0), (0, 1), (1, 0), (1, 1), (1, 1)], "(1,1)")):
        cells = [cell([0] * 9, r, c) for r, c in order]
        with pytest.raises(GeometryError, match=re.escape(f"cell {twice} arrived twice")):
            list(block_stream(iter(cells), cell_cols=2))
    # the whole-grid paths share one too-small check
    for rows, cols in ((1, 3), (3, 1)):
        with pytest.raises(GeometryError, match="too small to form a block"):
            g = np.zeros((rows, cols, 9), dtype=np.int64)
            block_features(g, cell_energy_grid(g))
        frame = Frame.from_array(np.zeros((rows * 8, cols * 8), dtype=np.uint8))
        with pytest.raises(GeometryError, match="too small to form a block"):
            reference_run(frame)


def test_normalize_one_hot_block():
    # a single active bin ends up clipped and renormalized to (just under) 1.0
    (b,) = block_stream(grid_cells(one_hot_grid()), cell_cols=2)
    _, _, values = normalize_block(b)
    raws = list(values)
    assert raws[0] == 511
    assert raws[1:] == [0] * 35


def test_normalize_equal_block():
    # 36 equal entries: ideal value 1/6 -> raw floor(512/6) = 85
    g = np.full((2, 2, 9), 64, dtype=np.int64)
    (b,) = block_stream(grid_cells(g), cell_cols=2)
    _, _, values = normalize_block(b)
    assert list(values) == [85] * 36


def test_normalize_zero_block():
    g = np.zeros((2, 2, 9), dtype=np.int64)
    (b,) = block_stream(grid_cells(g), cell_cols=2)
    _, _, values = normalize_block(b)
    assert list(values) == [0] * 36


def test_normalize_clip_engages():
    # one dominant entry plus a spread floor: the dominant entry is clipped,
    # so after renormalization no entry exceeds the clipped share
    g = np.full((2, 2, 9), 40, dtype=np.int64)
    g[0, 0, 0] = 60000
    (b,) = block_stream(grid_cells(g), cell_cols=2)
    _, _, values = normalize_block(b)
    vals = [v / OUT_FMT.scale for v in values]
    assert max(vals) == vals[0]
    assert vals[0] <= 1.0
    ref = oracle_block_normalize(g.reshape(4, 9)[[0, 2, 1, 3]])
    assert abs(vals[0] - ref[0]) < 2.0**-6


def test_feature_layout_order():
    # values[0:9] top-left, [9:18] bottom-left, [18:27] top-right, [27:36] bottom-right
    g = np.zeros((2, 2, 9), dtype=np.int64)
    g[0, 0, :] = 1000   # top-left cell
    g[1, 0, :] = 2000   # bottom-left
    g[0, 1, :] = 3000   # top-right
    g[1, 1, :] = 4000   # bottom-right
    (b,) = block_stream(grid_cells(g), cell_cols=2)
    _, _, values = normalize_block(b)
    v = list(values)
    assert len(set(v[0:9])) == 1 and len(set(v[9:18])) == 1
    assert v[0] < v[9] < v[18] < v[27]
    # the array path lays the same grid out the same way
    assert block_features(g, cell_energy_grid(g))[0, 0].tolist() == v
    # and so does the oracle: cells of a 16x16 frame of distinct contrast
    rng = np.random.default_rng(45)
    amp = np.repeat(np.repeat([[10, 40], [20, 80]], 8, axis=0), 8, axis=1)
    ref = reference_run(Frame.from_array(rng.integers(0, amp + 1, size=(16, 16))))
    h = ref.hist_grid
    want = oracle_block_normalize(np.stack([h[0, 0], h[1, 0], h[0, 1], h[1, 1]]))
    assert np.allclose(ref.block_grid[0, 0], want, rtol=1e-12, atol=0)


def test_block_stream_checks_the_bin_count():
    with pytest.raises(ValueError, match=re.escape("cell (0,0) has 8 bins")):
        list(block_stream(iter([cell([0] * 8)]), cell_cols=2))


def test_normalize_block_checks_its_group():
    # a 3-cell group once returned 27 values, and a negative sum failed
    # inside fast_inv_sqrt with its own message; block_stream saturates every
    # sum into prepare_first_norm, so a larger one comes only from a caller,
    # and 2**200 once raised OverflowError there and 10**40 returned zeros
    ((r, c, cells, sq),) = block_stream(grid_cells(one_hot_grid()), cell_cols=2)
    top = DEFAULT_PROFILE.prepare_first_norm.max_raw
    for bad in ((r, c, cells[:3], sq), (r, c, (*cells[:3], cells[3][:8]), sq),
                (r, c, cells, -5), (r, c, cells, float(sq)), (r, c, cells, top + 1),
                (r, c, cells, 10**40), (r, c, cells, 2**200)):
        with pytest.raises(ValueError, match=re.escape("block (0,0) needs 4 cells of 9 bins")):
            normalize_block(bad)
    for ok in (sq, top):
        assert len(normalize_block((r, c, cells, ok))[2]) == BLOCK_VALUES


def test_grid_matches_stream_path():
    rng = np.random.default_rng(44)
    px = rng.integers(0, 256, size=(32, 40), dtype=np.uint8)
    mag, lo = binned_field(gradient_index(px))
    hist = cell_histogram_grid(mag, lo)
    grid = block_features(hist, cell_energy_grid(hist))
    assert grid.shape == (3, 4, BLOCK_VALUES)
    for blk in block_stream(grid_cells(hist), cell_cols=hist.shape[1]):
        block_row, block_col, values = normalize_block(blk)
        assert grid[block_row, block_col].tolist() == list(values)


def test_grid_matches_stream_on_synthetic_raws():
    rng = np.random.default_rng(45)
    raws = rng.integers(0, 65408, size=(4, 3, 9))
    grid = block_features(raws, cell_energy_grid(raws))
    for blk in block_stream(grid_cells(raws), cell_cols=3):
        block_row, block_col, values = normalize_block(blk)
        assert grid[block_row, block_col].tolist() == list(values)


def test_block_features_leaves_its_arguments_unchanged():
    # both products are formed in place, in the block cells it builds
    rng = np.random.default_rng(47)
    raws = rng.integers(0, 65408, size=(5, 4, 9))
    energy = cell_energy_grid(raws)
    raws_before, energy_before = raws.copy(), energy.copy()
    block_features(raws, energy)
    assert np.array_equal(raws, raws_before)
    assert np.array_equal(energy, energy_before)


def test_fixed_tracks_oracle_normalize():
    # same histograms through both normalizers: max gap well under one part in 64
    rng = np.random.default_rng(46)
    px = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
    mag, lo = binned_field(gradient_index(px))
    hist = cell_histogram_grid(mag, lo)
    fixed = block_features(hist, cell_energy_grid(hist)) / OUT_FMT.scale
    hist_f = hist.astype(np.float64) / HIST_FMT.scale
    worst = 0.0
    for r in range(fixed.shape[0]):
        for c in range(fixed.shape[1]):
            four = np.stack([hist_f[r, c], hist_f[r + 1, c],
                             hist_f[r, c + 1], hist_f[r + 1, c + 1]])
            ref = oracle_block_normalize(four)
            worst = max(worst, float(np.abs(fixed[r, c] - ref).max()))
    assert worst < 2.0**-6


def test_clip_constant_quantized():
    from hogstream.fixedpoint import fx_quantize

    assert fx_quantize(CLIP_THRESHOLD, DEFAULT_PROFILE.feature_after_first_norm).raw == 102


def test_dump_blocks_layout():
    grid = np.arange(72, dtype=np.int64).reshape(1, 2, 36)
    blob = dump_raws(grid)
    assert len(blob) == 72 * 4
    assert np.array_equal(np.frombuffer(blob, dtype="<i4"), np.arange(72))
