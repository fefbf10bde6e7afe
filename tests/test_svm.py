"""Window scoring: exact accumulation, anchor alignment, model file IO."""

import re
import tracemalloc

import numpy as np
import pytest

from hogstream.fixedpoint import (DEFAULT_PROFILE, SCORE_TERMS, FxFormat, PrecisionProfile,
                                 SaturationStats)
from hogstream.normalize import BLOCK_VALUES
from hogstream.stream import GeometryError
from hogstream.svm import (
    FLOAT_MAGIC,
    QUANT_MAGIC,
    WINDOW_BLOCK_COLS,
    WINDOW_BLOCK_ROWS,
    WINDOW_BLOCKS,
    WINDOW_FEATURES,
    ModelFormatError,
    ScoreAccumulator,
    SvmModel,
    anchor_grid,
    load_float_model,
    load_model,
    save_float_model,
    save_model,
    score_windows,
    sniff_model_format,
    window_sums,
)
from reference import score_grid

COEFF_FMT = DEFAULT_PROFILE.svm_coefficient
BIAS_FMT = DEFAULT_PROFILE.svm_bias
FEAT_FMT = DEFAULT_PROFILE.final_feature


def random_model(rng, bias=None):
    w = rng.integers(-COEFF_FMT.max_raw, COEFF_FMT.max_raw + 1,
                     size=(WINDOW_BLOCK_ROWS, WINDOW_BLOCK_COLS, BLOCK_VALUES))
    b = int(rng.integers(-(1 << 25), 1 << 25)) if bias is None else bias
    return SvmModel(weights_raw=w, bias_raw=b)


def random_blocks(rng, br, bc):
    # genuine feature domain: non-negative, up to the (10,9) ceiling
    return rng.integers(0, FEAT_FMT.max_raw + 1, size=(br, bc, BLOCK_VALUES))


def naive_scores(block_raw, model):
    """Independent per-window big-int dot; returns python ints (no saturation)."""
    br, bc, _ = block_raw.shape
    ar = br - (WINDOW_BLOCK_ROWS - 1)
    ac = bc - (WINDOW_BLOCK_COLS - 1)
    out = [[0] * ac for _ in range(ar)]
    for r in range(ar):
        for c in range(ac):
            total = int(model.bias_raw)
            for i in range(WINDOW_BLOCK_ROWS):
                for j in range(WINDOW_BLOCK_COLS):
                    f = block_raw[r + i, c + j]
                    w = model.weights_raw[i, j]
                    total += int(np.dot(f.astype(object), w.astype(object)))
            out[r][c] = total
    return out


def test_constants():
    assert WINDOW_BLOCKS == 105
    assert WINDOW_FEATURES == 3780


def test_model_validation():
    rng = np.random.default_rng(50)
    with pytest.raises(ValueError):
        SvmModel(weights_raw=np.zeros((15, 7, 35)), bias_raw=0)
    w = np.zeros((15, 7, 36), dtype=np.int64)
    w[0, 0, 0] = 1024  # |coefficient| must stay below 1.0
    with pytest.raises(ValueError):
        SvmModel(weights_raw=w, bias_raw=0)
    with pytest.raises(ValueError):
        SvmModel(weights_raw=np.zeros((15, 7, 36)), bias_raw=1 << 40)
    m = random_model(rng)
    assert m.coeff_fmt == COEFF_FMT


def test_model_rejects_non_integral_raws_before_the_cast():
    # a cast to int64 would turn every 0.7 into 0 and keep the bias a float
    with pytest.raises(ValueError, match="finite integers"):
        SvmModel(weights_raw=np.full((15, 7, 36), 0.7), bias_raw=0)
    for bad in (np.nan, np.inf, 2.0 ** 63):
        w = np.zeros((15, 7, 36))
        w[4, 5, 6] = bad
        with pytest.raises(ValueError):
            SvmModel(weights_raw=w, bias_raw=0)
    for bias in (0.5, float("nan"), float("inf"), "3"):
        with pytest.raises(ValueError, match="not an integer"):
            SvmModel(weights_raw=np.zeros((15, 7, 36), dtype=np.int64), bias_raw=bias)
    m = SvmModel(weights_raw=np.full((15, 7, 36), -3.0), bias_raw=np.float64(-7.0))
    assert m.weights_raw.dtype == np.int64 and int(m.weights_raw.min()) == -3
    assert type(m.bias_raw) is int and m.bias_raw == -7
    with pytest.raises(ValueError, match="does not fit"):
        SvmModel(weights_raw=np.zeros((15, 7, 36)), bias_raw=2.0 ** 40)


@pytest.mark.parametrize("bad", [np.iinfo(np.int64).min, -1024])
def test_model_validation_needs_no_abs(bad):
    # |INT64_MIN| wraps to a negative number, so an abs() check would pass it
    w = np.zeros((15, 7, 36), dtype=np.int64)
    w[3, 2, 1] = bad
    with pytest.raises(ValueError, match="rescaled"):
        SvmModel(weights_raw=w, bias_raw=0)
    w[3, 2, 1] = -COEFF_FMT.max_raw
    SvmModel(weights_raw=w, bias_raw=BIAS_FMT.min_raw)


@pytest.mark.parametrize("bad", [10**30, 2**63, -2**63, 1024, -1024])
def test_load_model_rejects_wide_coefficients(tmp_path, bad):
    # a float64 round trip of 10**30 or +-2**63 casts to INT64_MIN; the raw
    # must be range-checked as a Python int, with the line named
    p = tmp_path / "m.txt"
    save_model(random_model(np.random.default_rng(57)), p)
    lines = p.read_text().splitlines()
    lines[9] = f"0 0 7 {bad}"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match=f"line 10: raw {bad} outside"):
        load_model(p)


@pytest.mark.parametrize("bias", [BIAS_FMT.max_raw + 1, BIAS_FMT.min_raw - 1, 10**30])
def test_load_model_rejects_wide_bias(tmp_path, bias):
    p = tmp_path / "m.txt"
    save_model(random_model(np.random.default_rng(58)), p)
    lines = p.read_text().splitlines()
    lines[1] = f"bias {bias}"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match="bad bias value"):
        load_model(p)
    lines[1] = f"bias {BIAS_FMT.min_raw}"
    p.write_text("\n".join(lines) + "\n")
    assert load_model(p).bias_raw == BIAS_FMT.min_raw


def test_zero_weights_score_is_bias():
    m = SvmModel(weights_raw=np.zeros((15, 7, 36), dtype=np.int64), bias_raw=12345)
    blocks = np.full((15, 7, 36), 300, dtype=np.int64)
    sm = score_grid(blocks, m)
    assert sm.scores_raw.shape == (1, 1)
    assert int(sm.scores_raw[0, 0]) == 12345


def test_one_hot_weight_alignment():
    # weight 1 LSB at block (2,3) index 5: each anchor reads block (r+2, c+3)
    w = np.zeros((15, 7, 36), dtype=np.int64)
    w[2, 3, 5] = 1
    m = SvmModel(weights_raw=w, bias_raw=0)
    rng = np.random.default_rng(51)
    blocks = random_blocks(rng, 17, 9)
    sm = score_grid(blocks, m)
    assert sm.scores_raw.shape == (3, 3)
    for r in range(3):
        for c in range(3):
            assert int(sm.scores_raw[r, c]) == int(blocks[r + 2, c + 3, 5])


def test_matches_naive_dot():
    rng = np.random.default_rng(52)
    for br, bc in [(15, 7), (16, 8), (18, 11)]:
        blocks = random_blocks(rng, br, bc)
        m = random_model(rng)
        stats = SaturationStats()
        sm = score_grid(blocks, m, stats)
        want = naive_scores(blocks, m)
        assert sm.scores_raw.tolist() == want
        assert stats["svm"] == 0


def test_negative_features_accumulate_exactly():
    rng = np.random.default_rng(53)
    blocks = rng.integers(FEAT_FMT.min_raw, FEAT_FMT.max_raw + 1, size=(15, 7, 36))
    m = random_model(rng)
    sm = score_grid(blocks, m)
    assert sm.scores_raw.tolist() == naive_scores(blocks, m)

    # extreme raws: every feature at a format edge, weights +-1023 and the bias
    # at either edge, so some totals leave the (33,19) format and saturate once
    edges = np.array([FEAT_FMT.min_raw, FEAT_FMT.max_raw])
    random_edges = edges[rng.integers(0, 2, size=(16, 8, 36))]
    random_signs = COEFF_FMT.max_raw * rng.choice([-1, 1], size=(15, 7, 36))
    aligned = np.full((15, 7, 36), FEAT_FMT.min_raw)     # every product +523776
    cases = [(random_edges, random_signs), (aligned, np.full((15, 7, 36), -COEFF_FMT.max_raw))]
    for blocks, w in cases:
        for bias in (BIAS_FMT.min_raw, BIAS_FMT.max_raw):
            m = SvmModel(weights_raw=w, bias_raw=bias)
            stats = SaturationStats()
            exact = np.array(naive_scores(blocks, m))
            want = np.clip(exact, BIAS_FMT.min_raw, BIAS_FMT.max_raw)
            assert np.array_equal(score_grid(blocks, m, stats).scores_raw, want)
            assert stats["svm"] == np.count_nonzero(exact != want)
    assert stats["svm"] == 1   # the aligned window overshoots the top edge


def test_score_grid_rejects_raws_outside_feature_format():
    # the float64 matmul is exact only for raws that fit the feature format
    rng = np.random.default_rng(58)
    m = random_model(rng)
    for bad in (FEAT_FMT.max_raw + 1, FEAT_FMT.min_raw - 1):
        blocks = random_blocks(rng, 15, 8)
        blocks[3, 4, 5] = bad
        with pytest.raises(ValueError):
            score_grid(blocks, m)
        feats = [(r, c, tuple(int(v) for v in blocks[r, c]))
                 for r in range(15) for c in range(8)]
        with pytest.raises(ValueError):
            score_windows(feats, m, block_rows=15, block_cols=8)


def test_score_grid_rejects_formats_float64_cannot_hold_exactly():
    # formats whose worst-case score reaches 2**53, where float64 rounds the
    # sum; a PrecisionProfile of them is rejected at construction
    feat, coeff, bias = FxFormat(30, 20), FxFormat(30, 20), FxFormat(64, 40)
    rng = np.random.default_rng(59)
    w = rng.integers(-coeff.max_raw, coeff.max_raw + 1, size=(15, 7, 36))
    m = SvmModel(weights_raw=w, bias_raw=0, coeff_fmt=coeff, bias_fmt=bias)
    blocks = rng.integers(feat.min_raw, feat.max_raw + 1, size=(15, 7, 36))
    with pytest.raises(ValueError, match="2\\*\\*53"):
        score_grid(blocks, m, feature_fmt=feat)
    feats = [(r, c, tuple(int(v) for v in blocks[r, c]))
             for r in range(15) for c in range(7)]
    with pytest.raises(ValueError, match="2\\*\\*53"):
        score_windows(feats, m, block_rows=15, block_cols=7, feature_fmt=feat)

    # the widest feature format still accepted next to (21,10) coefficients and
    # a (40,19) bias: 3780 * 2**21 * (2**20 - 1) + 2**39 < 2**53; one more
    # feature bit reaches it
    feat, coeff, bias = FxFormat(22, 9), FxFormat(21, 10), FxFormat(40, 19)
    w = coeff.max_raw * rng.choice([-1, 1], size=(15, 7, 36))
    for b in (bias.min_raw, bias.max_raw):
        m = SvmModel(weights_raw=w, bias_raw=b, coeff_fmt=coeff, bias_fmt=bias)
        blocks = rng.integers(feat.min_raw, feat.max_raw + 1, size=(16, 8, 36))
        want = np.clip(np.array(naive_scores(blocks, m)), bias.min_raw, bias.max_raw)
        assert np.array_equal(score_grid(blocks, m, feature_fmt=feat).scores_raw, want)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            score_grid(blocks, m, feature_fmt=FxFormat(23, 9))


def test_fractions_that_miss_the_accumulator_are_a_format_error():
    # feature and coefficient fractions (11 + 10) that do not sum to the bias
    # fraction (19): a ValueError, not a GeometryError
    m = random_model(np.random.default_rng(60))
    with pytest.raises(ValueError, match="fractions must sum") as err:
        ScoreAccumulator(m, 15, 7, FxFormat(12, 11))
    assert not isinstance(err.value, GeometryError)


@pytest.mark.parametrize("formats, match", [
    # the fraction-sum rule broken: 11 + 10 is not 19
    (dict(final_feature=FxFormat(12, 11)), "fractions must sum"),
    # fractions that sum (20 + 20 = 40), but a worst case past 2**53
    (dict(final_feature=FxFormat(30, 20), svm_coefficient=FxFormat(30, 20),
          svm_bias=FxFormat(64, 40)), "2\\*\\*53"),
    # one feature bit past the widest exact format next to (21,10) and (40,19)
    (dict(final_feature=FxFormat(23, 9), svm_coefficient=FxFormat(21, 10),
          svm_bias=FxFormat(40, 19)), "2\\*\\*53"),
], ids=["fraction_sum", "wide", "one_bit_past"])
def test_profile_rejects_score_formats_float64_cannot_hold(formats, match):
    # each of these profiles once constructed and failed only inside
    # ScoreAccumulator, on the first frame run under it
    with pytest.raises(ValueError, match=match):
        PrecisionProfile(**formats)
    PrecisionProfile(final_feature=FxFormat(22, 9), svm_coefficient=FxFormat(21, 10),
                     svm_bias=FxFormat(40, 19))


def test_score_terms_are_the_window_features():
    assert SCORE_TERMS == WINDOW_FEATURES


def test_empty_anchor_grid():
    rng = np.random.default_rng(54)
    with pytest.raises(GeometryError, match="smaller than one"):
        score_grid(random_blocks(rng, 14, 7), random_model(rng))


def test_score_accumulator_checks_where_a_band_lands():
    # each of these once passed silently: a band 9 blocks wide was scored as
    # if 8 wide, a row0 past the grid added nothing, and the same rows added
    # twice doubled every score (7560 instead of 3780)
    m = SvmModel(weights_raw=np.ones((15, 7, 36), dtype=np.int64), bias_raw=0)
    ones = np.ones((15, 8, 36), dtype=np.int64)
    acc = ScoreAccumulator(m, 15, 8)
    with pytest.raises(GeometryError, match="9 blocks wide"):
        acc.add(np.ones((15, 9, 36), dtype=np.int64), 0)
    with pytest.raises(GeometryError, match=r"rows 15\.\.15 arrived after 0 of 15"):
        acc.add(ones[:1], 15)
    with pytest.raises(GeometryError, match=r"rows 3\.\.5 arrived after 0 of 15"):
        acc.add(ones[:3], 3)   # a gap
    acc.add(ones[:3], 0)
    with pytest.raises(GeometryError, match="scores asked after 3 of 15 block rows"):
        acc.scores()
    with pytest.raises(GeometryError, match=r"rows 0\.\.2 arrived after 3 of 15"):
        acc.add(ones[:3], 0)   # a repeat
    with pytest.raises(GeometryError, match=r"rows 3\.\.15 arrived after 3 of 15"):
        acc.add(np.ones((13, 8, 36), dtype=np.int64), 3)   # runs past the grid
    acc.add(ones[3:], 3)
    assert acc.scores().scores_raw.tolist() == [[3780, 3780]]
    with pytest.raises(GeometryError, match=r"rows 15\.\.15 arrived after 15 of 15"):
        acc.add(ones[:1], 15)


def test_window_sums_rejects_dots_that_do_not_fit_the_anchors():
    # a 15x8 block grid has 1x2 anchors; dots one column too narrow once added
    # a (1, 1) last slice broadcast over both anchors, and one too wide summed
    # only their left part, both silently
    sums = anchor_grid(15, 8, 0)
    for shape in [(105, 15, 7), (105, 15, 9), (104, 15, 8), (105, 15)]:
        with pytest.raises(GeometryError, match=re.escape(f"dots of shape {shape}")):
            window_sums(np.ones(shape), sums)
    assert sums.tolist() == [[0.0, 0.0]]
    assert window_sums(np.ones((105, 15, 8)), sums).tolist() == [[105.0, 105.0]]


def test_window_sums_rejects_rows_outside_the_totals():
    # a 15x8 block grid has 1x2 anchors and 15 block rows: 17 rows at 0 once
    # summed as if 15, 3 rows at 40 added nothing and row0 -2 added 7, silently
    sums = anchor_grid(15, 8, 0)
    for n, row0 in [(17, 0), (3, 40), (3, -2)]:
        with pytest.raises(GeometryError, match=rf"block rows {row0}\.\.{row0 + n - 1} do not lie"):
            window_sums(np.ones((105, n, 8)), sums, row0)
    assert sums.tolist() == [[0.0, 0.0]]
    assert window_sums(np.ones((105, 3, 8)), sums, 12).tolist() == [[21.0, 21.0]]


def slice_sums(dots, sums, row0):
    """window_sums' terms added one (r, c) slice at a time, r then c."""
    ar, ac = sums.shape
    n = dots.shape[1]
    for r in range(WINDOW_BLOCK_ROWS):
        for c in range(WINDOW_BLOCK_COLS):
            for a in range(max(row0 - r, 0), min(row0 + n - r, ar)):
                sums[a] += dots[r * WINDOW_BLOCK_COLS + c, a + r - row0, c : c + ac]
    return sums


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_window_sums_match_slice_sums_at_every_band_offset(dtype):
    # 18x10 blocks: 4x4 anchors. Splits into bands of 1, 4, 8, 15 and 18
    # rows, the last band of each shorter, and every tail band: each band's
    # sums and each split's totals equal the slice-by-slice reference exactly
    rng = np.random.default_rng(61)
    rows, cols = 18, 10
    dots = rng.integers(-(1 << 23), 1 << 23, size=(WINDOW_BLOCKS, rows, cols)).astype(dtype)
    whole = slice_sums(dots, anchor_grid(rows, cols, 7), 0)
    for n in (1, 4, 8, 15, rows):
        banded = anchor_grid(rows, cols, 7)
        for row0 in range(0, rows, n):
            band = dots[:, row0 : row0 + n]
            assert np.array_equal(window_sums(band, anchor_grid(rows, cols, 7), row0),
                                  slice_sums(band, anchor_grid(rows, cols, 7), row0))
            window_sums(band, banded, row0)
        assert np.array_equal(banded, whole)
    for row0 in range(rows):
        band = dots[:, row0:]
        assert np.array_equal(window_sums(band, anchor_grid(rows, cols, 0), row0),
                              slice_sums(band, anchor_grid(rows, cols, 0), row0))


def edge_model(l1, sign):
    """A model whose block (0, 0) has coefficient raws of L1 norm ``l1``, all
    of ``sign``, and every other block random +-300."""
    w = np.random.default_rng(62).integers(-300, 301, size=(15, 7, 36))
    top, rest = divmod(l1, COEFF_FMT.max_raw)
    w[0, 0] = 0
    w[0, 0, :top] = sign * COEFF_FMT.max_raw
    if rest:
        w[0, 0, top] = sign * rest
    assert int(np.abs(w).sum(axis=2).max()) == l1
    return SvmModel(weights_raw=w, bias_raw=12345)


@pytest.mark.parametrize("l1, sign, dtype", [
    # 32,767 x 512 = 2**24 - 512: every partial sum of a dot below 2**24
    (32767, -1, np.float32),
    (32768, -1, np.float64),
    # 36 x 1023, the widest block: its worst-case partial sums are odd
    # multiples of 1023 x 511 above 2**24, which float32 would round
    (36 * COEFF_FMT.max_raw, 1, np.float64),
], ids=["below_2_24", "at_2_24", "widest"])
def test_block_dot_dtype_follows_the_model_bound(l1, sign, dtype):
    m = edge_model(l1, sign)
    assert ScoreAccumulator(m, 15, 7).wmat.dtype == dtype
    # worst-case blocks: every raw at the format's edge, signed like its
    # coefficient, so block (0, 0)'s dot reaches l1 x 512 (x 511 if positive)
    blocks = np.where(m.weights_raw < 0, FEAT_FMT.min_raw, FEAT_FMT.max_raw)
    exact = m.bias_raw + sum(w * f for w, f in zip(m.weights_raw.ravel().tolist(),
                                                   blocks.ravel().tolist()))
    assert score_grid(blocks, m).scores_raw.tolist() == [[exact]]
    # and in a grid, where each block also meets other coefficients
    grid = np.tile(blocks, (2, 2, 1))[:17, :9]
    assert score_grid(grid, m).scores_raw.tolist() == naive_scores(grid, m)


def test_block_dots_of_a_workload_model_are_float32():
    # +-300 raws, as the benchmark's models draw: a row's L1 norm stays near
    # 36 x 150, far below 2**24 / 512
    m = SvmModel(weights_raw=np.random.default_rng(63).integers(-300, 301, size=(15, 7, 36)),
                 bias_raw=0)
    assert ScoreAccumulator(m, 15, 7).wmat.dtype == np.float32


def test_score_windows_stream():
    rng = np.random.default_rng(55)
    blocks = random_blocks(rng, 15, 8)
    m = random_model(rng)
    feats = [
        (r, c, tuple(int(v) for v in blocks[r, c]))
        for r in range(15)
        for c in range(8)
    ]
    sm = score_windows(feats, m, block_rows=15, block_cols=8)
    assert sm.scores_raw.tolist() == score_grid(blocks, m).scores_raw.tolist()

    with pytest.raises(GeometryError):
        score_windows(feats[:-1], m, block_rows=15, block_cols=8)  # missing block
    with pytest.raises(GeometryError):
        score_windows(feats, m, block_rows=14, block_cols=8)  # block outside grid


def test_score_windows_rejects_a_block_that_arrives_twice():
    # a second copy of one block would silently replace the first
    rng = np.random.default_rng(57)
    blocks = random_blocks(rng, 15, 7)
    feats = [(r, c, tuple(int(v) for v in blocks[r, c]))
             for r in range(15) for c in range(7)]
    again = (3, 2, (0,) * BLOCK_VALUES)
    with pytest.raises(GeometryError, match=r"block \(3,2\) arrived twice"):
        score_windows(feats + [again], random_model(rng), block_rows=15, block_cols=7)


def test_score_windows_rejects_a_block_out_of_raster_order():
    # blocks are added row by row as each row completes, so a column-major
    # stream cannot be scored; nor can one that stops short
    rng = np.random.default_rng(61)
    blocks = random_blocks(rng, 15, 7)
    m = random_model(rng)
    column_major = [(r, c, tuple(int(v) for v in blocks[r, c]))
                    for c in range(7) for r in range(15)]
    with pytest.raises(GeometryError, match=r"block \(1,0\) arrived out of raster order"):
        score_windows(column_major, m, block_rows=15, block_cols=7)
    raster = sorted(column_major, key=lambda bf: bf[:2])
    with pytest.raises(GeometryError, match=r"ended before block \(14,6\)"):
        score_windows(raster[:-1], m, block_rows=15, block_cols=7)


def test_score_windows_checks_each_block_carries_36_integers():
    # the int64 row would floor a float, so 0.9 everywhere would score 0
    rng = np.random.default_rng(64)
    blocks = random_blocks(rng, 15, 7)
    m = random_model(rng)
    feats = [(r, c, tuple(int(v) for v in blocks[r, c])) for r in range(15) for c in range(7)]
    for bad in ((0,) * 35, (0.9,) * BLOCK_VALUES, (0,) * 35 + (0.5,)):
        stream = feats[:9] + [(1, 2, bad)] + feats[10:]
        with pytest.raises(ValueError, match=r"block \(1,2\) must carry 36 integer raws"):
            score_windows(stream, m, block_rows=15, block_cols=7)
    # Python and numpy integers of any width int64 holds are raws
    want = score_windows(feats, m, block_rows=15, block_cols=7).scores_raw
    as_numpy = [(r, c, tuple(blocks[r, c].astype(np.int16))) for r in range(15) for c in range(7)]
    assert np.array_equal(score_windows(as_numpy, m, 15, 7).scores_raw, want)
    as_arrays = [(r, c, blocks[r, c]) for r in range(15) for c in range(7)]
    assert np.array_equal(score_windows(as_arrays, m, 15, 7).scores_raw, want)


def test_score_windows_checks_the_grid_before_pulling_a_block():
    rng = np.random.default_rng(62)
    blocks = random_blocks(rng, 14, 7)
    pulled = []

    def stream():
        for r in range(14):
            for c in range(7):
                pulled.append((r, c))
                yield (r, c, tuple(int(v) for v in blocks[r, c]))

    with pytest.raises(GeometryError, match="smaller than one"):
        score_windows(stream(), random_model(rng), block_rows=14, block_cols=7)
    assert pulled == []


def test_score_windows_holds_one_block_row():
    # a 1080p block grid: the whole grid as int64 raws would be 9 MiB, and
    # its blocks as records several times that
    rows, cols = 134, 239
    rng = np.random.default_rng(63)
    pool = [tuple(int(v) for v in b) for b in random_blocks(rng, 1, 11)[0]]
    m = random_model(rng)
    stream = ((r, c, pool[(r + c) % len(pool)])
              for r in range(rows) for c in range(cols))
    tracemalloc.start()
    try:
        sm = score_windows(stream, m, rows, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sm.scores_raw.shape == (rows - 14, cols - 6)
    assert peak <= 4 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_quantized_model_roundtrip(tmp_path):
    rng = np.random.default_rng(56)
    m = random_model(rng)
    p = tmp_path / "model.txt"
    save_model(m, p)
    assert sniff_model_format(p) == QUANT_MAGIC
    m2 = load_model(p)
    assert np.array_equal(m2.weights_raw, m.weights_raw)
    assert m2.bias_raw == m.bias_raw


def test_float_model_roundtrip(tmp_path):
    rng = np.random.default_rng(57)
    w = rng.standard_normal(WINDOW_FEATURES)
    b = float(rng.standard_normal())
    p = tmp_path / "model.float"
    save_float_model(w, b, p)
    assert sniff_model_format(p) == FLOAT_MAGIC
    w2, b2 = load_float_model(p)
    assert np.array_equal(w2, w)  # repr round-trips float64 exactly
    assert b2 == b


def test_load_accepts_shuffled_rows(tmp_path):
    rng = np.random.default_rng(58)
    m = random_model(rng)
    p = tmp_path / "model.txt"
    save_model(m, p)
    lines = p.read_text().splitlines()
    body = lines[2:]
    rng.shuffle(body)
    p.write_text("\n".join(lines[:2] + body) + "\n")
    m2 = load_model(p)
    assert np.array_equal(m2.weights_raw, m.weights_raw)


def test_model_format_errors(tmp_path):
    p = tmp_path / "m.txt"

    p.write_text("WRONG\nbias 0\n")
    with pytest.raises(ModelFormatError):
        load_model(p)
    with pytest.raises(ModelFormatError):
        sniff_model_format(p)

    p.write_text(QUANT_MAGIC + "\nnot-bias 0\n")
    with pytest.raises(ModelFormatError):
        load_model(p)

    p.write_text(QUANT_MAGIC + "\nbias zero\n")
    with pytest.raises(ModelFormatError):
        load_model(p)

    # one coefficient missing
    rng = np.random.default_rng(59)
    m = random_model(rng)
    save_model(m, p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ModelFormatError, match="missing"):
        load_model(p)

    # duplicate row
    p.write_text("\n".join(lines + [lines[-1]]) + "\n")
    with pytest.raises(ModelFormatError, match="duplicate"):
        load_model(p)

    # out-of-range index
    p.write_text("\n".join(lines[:2] + ["15 0 0 1"] + lines[3:]) + "\n")
    with pytest.raises(ModelFormatError, match="out of range"):
        load_model(p)

    # coefficient magnitude exceeds the format
    p.write_text("\n".join(lines[:2] + ["0 0 0 2048"] + lines[3:]) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(p)
