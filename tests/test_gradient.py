"""Central differences, shift-add magnitude, adjacent-bin orientation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hogstream import gradient
from hogstream.fixedpoint import DEFAULT_PROFILE, FxFormat, SaturationStats, saturate_raw
from hogstream.gradient import (
    TAN_BOUNDARIES,
    binned_field,
    binned_stream,
    gradient_index,
    magnitude_approx_raw,
    orient_bin_pair,
)
from hogstream.stream import Frame, context_stream, pack_frame
from reference import gradient_field, magnitude_approx, table_index

MAG_FMT = DEFAULT_PROFILE.gradient_magnitude


def test_tan_boundaries_frozen():
    # floor(tan(10/30/50/70 deg) * 2^16), independently derived
    expect = tuple(
        math.floor(math.tan(math.radians(d)) * 65536) for d in (10, 30, 50, 70)
    )
    assert TAN_BOUNDARIES == expect == (11555, 37837, 78102, 180058)


def test_magnitude_examples():
    # (3,4): a=4,b=3 -> max(3.5 + 1.5, 4) = 5.0, exact for this 3-4-5 triple
    assert magnitude_approx_raw(3, 4) == 40
    assert magnitude_approx(3, 4) / MAG_FMT.scale == 5.0
    # (1,1): 0.875 + 0.5 = 1.375
    assert magnitude_approx(1, 1) / MAG_FMT.scale == 1.375
    # axis-aligned: the max() arm keeps it exact
    assert magnitude_approx(1, 0) / MAG_FMT.scale == 1.0
    assert magnitude_approx(0, 7) / MAG_FMT.scale == 7.0
    assert magnitude_approx(0, 0) / MAG_FMT.scale == 0.0
    # sign-independent
    assert magnitude_approx_raw(-3, 4) == magnitude_approx_raw(3, -4) == 40


def test_magnitude_axis_exact():
    for v in range(128):
        assert magnitude_approx(v, 0) / MAG_FMT.scale == float(v)
        assert magnitude_approx(0, v) / MAG_FMT.scale == float(v)


def test_magnitude_error_band_sample():
    # relative error of the approximation stays in [-3.2%, +0.9%]
    # (full exhaustive sweep lives in the acceptance tests)
    for gx in range(0, 256, 7):
        for gy in range(1, 256, 5):
            approx = magnitude_approx_raw(gx, gy) / 8.0
            true = math.hypot(gx, gy)
            rel = (approx - true) / true
            assert -0.032 <= rel <= 0.009, (gx, gy, rel)


def test_magnitude_over_the_whole_signed_domain():
    # every gradient of 8-bit pixels against an independent form, max(7a + 4b,
    # 8a) with a = max(|gx|,|gy|) and b = min(|gx|,|gy|); the table's
    # exhaustive tests are built from magnitude_approx_raw itself
    g = np.arange(-255, 256)
    a = np.maximum(np.abs(g)[:, None], np.abs(g)[None, :])
    b = np.minimum(np.abs(g)[:, None], np.abs(g)[None, :])
    got = [[magnitude_approx_raw(gx, gy) for gy in g.tolist()] for gx in g.tolist()]
    assert np.array_equal(np.array(got), np.maximum(7 * a + 4 * b, 8 * a))


def test_magnitude_saturates_and_counts():
    stats = SaturationStats()
    m = magnitude_approx(255, 255, stats=stats)
    assert m / MAG_FMT.scale == MAG_FMT.max_raw / MAG_FMT.scale == 127.875
    assert stats["magnitude"] == 1


def test_orient_examples():
    assert orient_bin_pair(1, 0) == (8, 0)     # 0 degrees
    assert orient_bin_pair(1, 1) == (1, 2)     # 45
    assert orient_bin_pair(0, 1) == (4, 5)     # 90
    assert orient_bin_pair(-1, 1) == (6, 7)    # 135
    assert orient_bin_pair(1, 2) == (2, 3)     # 63.4
    assert orient_bin_pair(-1, 0) == (8, 0)    # 180 == 0
    assert orient_bin_pair(0, -1) == (4, 5)    # -90 == 90
    assert orient_bin_pair(0, 0) == (0, 1)     # zero gradient: unobservable


def test_orient_interval_midpoints():
    # the pair (k, k+1) covers [10 + 20k, 10 + 20(k+1)); probe each midpoint
    for k in range(9):
        theta = math.radians((20.0 * (k + 1)) % 180.0)
        gx = round(math.cos(theta) * 10000)
        gy = round(math.sin(theta) * 10000)
        lo, hi = orient_bin_pair(gx, gy)
        assert (lo, hi) == (k, (k + 1) % 9), (k, gx, gy)


def oracle_pair(gx, gy):
    if gx == 0 and gy == 0:
        return (0, 1)
    theta = math.degrees(math.atan2(gy, gx)) % 180.0
    lo = math.floor((theta - 10.0) / 20.0) % 9
    return (lo, (lo + 1) % 9)


@given(st.integers(-255, 255), st.integers(-255, 255))
@settings(max_examples=500)
def test_orient_matches_atan2(gx, gy):
    assert orient_bin_pair(gx, gy) == oracle_pair(gx, gy)


@given(st.integers(-255, 255), st.integers(-255, 255))
@settings(max_examples=200)
def test_orient_point_symmetry(gx, gy):
    assert orient_bin_pair(gx, gy) == orient_bin_pair(-gx, -gy)


def test_field_matches_scalar():
    rng = np.random.default_rng(21)
    px = rng.integers(0, 256, size=(16, 24), dtype=np.uint8)
    stats = SaturationStats()
    mag, lo = binned_field(gradient_index(px), stats=stats)
    f = Frame.from_array(px)
    i = 0
    for pkt in binned_stream(context_stream(pack_frame(f, 8), width=f.width)):
        for magnitude, bin_lo in pkt:
            y, x = divmod(i, f.width)
            assert magnitude == mag[y, x]
            assert bin_lo == int(lo[y, x])
            i += 1
    assert i == f.width * f.height


def test_field_special_cases():
    # constant frame: all gradients zero -> pair (0,1), magnitude 0
    px = np.full((8, 8), 77, dtype=np.uint8)
    gx, gy = gradient_field(px)
    assert not gx.any() and not gy.any()
    mag, lo = binned_field(gradient_index(px))
    assert (lo == 0).all()
    assert not mag.any()


def test_field_axis_rows():
    # vertical stripes: gy = 0 everywhere -> pair (8,0) except flat columns
    px = np.tile(np.array([0, 255] * 4, dtype=np.uint8), (8, 1))
    gx, gy = gradient_field(px)
    assert not gy.any()
    _, lo = binned_field(gradient_index(px))
    assert set(lo[gx != 0].tolist()) == {8}
    assert set(lo[gx == 0].tolist()) == {0}


def test_field_matches_scalar_exhaustively():
    # every gradient of 8-bit pixels, both signs: guards every branch of the
    # table's numpy form
    g = np.arange(-255, 256)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    stats = SaturationStats()
    # the table index of gradient (gx, gy) is (gx + 255) * 511 + gy + 255
    mag, lo = binned_field(np.arange(511 * 511).reshape(511, 511), stats=stats)
    assert (mag.dtype, lo.dtype) == (np.int32, np.uint8)
    scalar_stats = SaturationStats()
    for x, y, m, l in zip(gx.ravel().tolist(), gy.ravel().tolist(), mag.ravel().tolist(),
                          lo.ravel().tolist()):
        assert m == magnitude_approx(x, y, stats=scalar_stats), (x, y)
        assert (l, (l + 1) % 9) == orient_bin_pair(x, y), (x, y)
    assert stats["magnitude"] == scalar_stats["magnitude"] > 0


@pytest.fixture(scope="module")
def every_gradient():
    """Every gradient of 8-bit pixels as (gx, gy) lists in table-index order,
    (gx + 255) * 511 + gy + 255, with the scalar ops' magnitude and pair."""
    g = range(-255, 256)
    gx, gy = [x for x in g for _ in g], [y for _ in g for y in g]
    return (gx, gy, [magnitude_approx_raw(x, y) for x, y in zip(gx, gy)],
            [orient_bin_pair(x, y) for x, y in zip(gx, gy)])


# the narrowest width a profile admits, widths around the largest magnitude
# (2805: width 12 clips it, 13 holds it), and the widest, whose max_raw
# shifted into the packed entry would overflow int32
@pytest.mark.parametrize("width", [4, 9, 11, 12, 13, 64])
def test_packed_gather_matches_scalar_ops_exhaustively(every_gradient, width):
    fmt = FxFormat(width, 3)
    gx, gy, mags, pairs = every_gradient
    stats, scalar_stats = SaturationStats(), SaturationStats()
    mag, lo = binned_field(np.arange(511 * 511), fmt, stats)
    assert (mag.dtype, lo.dtype) == (np.int32, np.uint8)
    assert mag.tolist() == [saturate_raw(m, fmt, scalar_stats, "magnitude") for m in mags]
    assert [(b, (b + 1) % 9) for b in lo.tolist()] == pairs
    assert stats.counts == scalar_stats.counts


def test_packed_table_builds_without_calling_the_scalar_ops(monkeypatch):
    # the table is the scalar ops' numpy form, checked against them above, so a
    # cold start makes none of the 196k scalar calls a loop over it made
    def scalar_op(gx, gy):
        raise AssertionError("a scalar op was called to build the table")

    monkeypatch.setattr(gradient, "magnitude_approx_raw", scalar_op)
    monkeypatch.setattr(gradient, "orient_bin_pair", scalar_op)
    fmt = FxFormat(10, 3)
    gradient._packed_table.cache_clear()
    try:
        packed, clipped_from = gradient._packed_table(fmt)
    finally:
        gradient._packed_table.cache_clear()   # no entry outlives the patch
    assert packed.shape == (511 * 511,) and clipped_from == (fmt.max_raw << 5) | 16


def test_packed_gather_does_not_count_a_magnitude_at_the_top():
    # (29, 13) has magnitude 255 exactly, the max_raw of width 9: it fits
    assert magnitude_approx_raw(29, 13) == FxFormat(9, 3).max_raw == 255
    stats = SaturationStats()
    idx = np.array([(29 + 255) * 511 + 13 + 255, (30 + 255) * 511 + 13 + 255])
    mag, _ = binned_field(idx, FxFormat(9, 3), stats)
    assert mag.tolist() == [255, 255]
    assert stats.counts == {"magnitude": 1}   # only (30, 13), magnitude 262


# the first, an interior and the last band of a 33-cell-row frame
@pytest.mark.parametrize("y0, y1", [(0, 128), (128, 256), (256, 264)])
def test_gradient_index_is_the_table_index_of_the_gradients(y0, y1):
    px = np.random.default_rng(22).integers(0, 256, size=(264, 40), dtype=np.uint8)
    idx = gradient_index(px, y0, y1)
    assert idx.dtype == np.intp and idx.shape == (y1 - y0, 40)
    assert np.array_equal(idx, table_index(*gradient_field(px, y0, y1)))


def test_gradient_index_reaches_the_table_edges():
    # a 0/255 checkerboard of 2x2 squares: both gradients reach -255 and +255
    y, x = np.indices((16, 24))
    px = ((y // 2 + x // 2) % 2 * 255).astype(np.uint8)
    gx, gy = gradient_field(px)
    assert {gx.min(), gx.max(), gy.min(), gy.max()} == {-255, 255}
    assert np.array_equal(gradient_index(px), table_index(gx, gy))


def test_gradient_index_rejects_pixels_that_are_not_uint8():
    # from uint8 pixels every index lies in the table; wider ones could leave it
    px = np.zeros((8, 8), dtype=np.int16)
    with pytest.raises(ValueError, match="pixels must be uint8, got int16"):
        gradient_index(px)
