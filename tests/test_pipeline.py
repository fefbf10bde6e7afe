"""Whole-chain equivalence: packet-level streaming ops vs the vectorized path.

Every stage has its own equivalence test; this one runs the full streaming
composition (pack -> context -> binned gradients -> cell histograms -> blocks
-> normalize -> window scores) against run_pipeline and asserts bit equality
of the final score map for every pixels-per-clock setting.
"""

import numpy as np
import pytest

from hogstream.detector import detections_from_scores, detections_to_text, run_pipeline
from hogstream.fixedpoint import DEFAULT_PROFILE, FxFormat, PrecisionProfile, SaturationStats
from hogstream.gradient import binned_field, binned_stream, gradient_field
from hogstream.histogram import accumulate_cells, cell_histogram_grid
from hogstream.normalize import (block_features, block_stream, cell_energy_grid,
                                 normalize_block)
from hogstream.stream import VALID_PPC, Frame, context_stream, pack_frame
from hogstream.svm import SvmModel, score_windows
from reference import score_grid


def streaming_scores(frame, model, ppc, stats=None, profile=DEFAULT_PROFILE):
    contexts = context_stream(pack_frame(frame, ppc), width=frame.width)
    binned = binned_stream(contexts, profile.gradient_magnitude, stats=stats)
    cells = accumulate_cells(binned, frame.width, profile.histogram_value, stats=stats)
    blocks = block_stream(cells, frame.width // 8, profile, stats=stats)
    feats = (normalize_block(b, profile, stats=stats) for b in blocks)
    return score_windows(
        feats, model,
        block_rows=frame.height // 8 - 1,
        block_cols=frame.width // 8 - 1,
        stats=stats,
        feature_fmt=profile.final_feature,
    )


def test_streaming_matches_vectorized():
    rng = np.random.default_rng(100)
    model = SvmModel(
        weights_raw=rng.integers(-1023, 1024, size=(15, 7, 36)),
        bias_raw=int(rng.integers(-(1 << 20), 1 << 20)),
    )
    for w, h in [(64, 128), (80, 136), (128, 128)]:
        frame = Frame.from_array(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        ref = run_pipeline(frame, model)
        for ppc in VALID_PPC:
            sm = streaming_scores(frame, model, ppc)
            assert np.array_equal(sm.scores_raw, ref.score_map.scores_raw), (w, h, ppc)
            assert sm.fmt == ref.score_map.fmt


def test_streaming_detection_text_invariant():
    rng = np.random.default_rng(101)
    model = SvmModel(
        weights_raw=rng.integers(-1023, 1024, size=(15, 7, 36)),
        bias_raw=0,
    )
    frame = Frame.from_array(rng.integers(0, 256, size=(144, 96), dtype=np.uint8))
    texts = set()
    for ppc in VALID_PPC:
        sm = streaming_scores(frame, model, ppc)
        texts.add(detections_to_text(detections_from_scores(sm, threshold=-50.0)))
    assert len(texts) == 1


def check_saturation_stats_match(profile):
    # saturation event counts agree between the two paths on a frame that
    # actually saturates the magnitude stage (full-range noise does)
    rng = np.random.default_rng(102)
    frame = Frame.from_array(rng.integers(0, 256, size=(128, 64), dtype=np.uint8))
    model = SvmModel(weights_raw=np.zeros((15, 7, 36), dtype=np.int64), bias_raw=0,
                     coeff_fmt=profile.svm_coefficient, bias_fmt=profile.svm_bias)

    s_stream = SaturationStats()
    sm = streaming_scores(frame, model, 4, stats=s_stream, profile=profile)

    s_vec = SaturationStats()
    ref = run_pipeline(frame, model, profile, stats=s_vec)

    assert s_stream["magnitude"] == s_vec["magnitude"] > 0
    assert s_stream["norm1"] == s_vec["norm1"]
    assert s_stream["norm2"] == s_vec["norm2"]
    assert s_stream["svm"] == s_vec["svm"] == 0
    assert np.array_equal(sm.scores_raw, ref.score_map.scores_raw)
    assert s_stream.counts == s_vec.counts
    return s_vec


def test_streaming_saturation_stats_match():
    check_saturation_stats_match(DEFAULT_PROFILE)


# narrow block-energy accumulator: saturates prepare_norm on noise
NARROW_PREPARE_NORM = PrecisionProfile(prepare_first_norm=FxFormat(30, 8))
# narrow histogram: saturates cell bins on noise
NARROW_HISTOGRAM = PrecisionProfile(histogram_value=FxFormat(14, 4))
# narrow magnitude and everything after it: on noise the magnitude, histogram
# and prepare_norm clamps of the packet path all fire
NARROW_MAGNITUDE = PrecisionProfile(
    gradient_magnitude=FxFormat(9, 3), histogram_value=FxFormat(12, 4),
    prepare_first_norm=FxFormat(20, 4), first_inv_sqrt=FxFormat(12, 11),
    feature_after_first_norm=FxFormat(8, 7), second_inv_sqrt=FxFormat(10, 8),
    final_feature=FxFormat(8, 7), svm_bias=FxFormat(33, 17))


@pytest.mark.parametrize("profile, stages", [
    (NARROW_PREPARE_NORM, ("prepare_norm",)),
    (NARROW_HISTOGRAM, ("histogram",)),
    (NARROW_MAGNITUDE, ("magnitude", "histogram", "prepare_norm")),
], ids=["narrow_prepare_norm", "narrow_histogram", "narrow_magnitude"])
def test_streaming_saturation_stats_match_narrow_profile(profile, stages):
    # each stage saturates every value it writes at most once, on both paths
    counts = check_saturation_stats_match(profile)
    assert all(counts[stage] > 0 for stage in stages)


@pytest.mark.parametrize("profile, stage", [
    (DEFAULT_PROFILE, "magnitude"),
    (NARROW_PREPARE_NORM, "prepare_norm"),
    (NARROW_HISTOGRAM, "histogram"),
], ids=["default", "narrow_prepare_norm", "narrow_histogram"])
@pytest.mark.parametrize("cell_rows", [16, 17, 33, 35])
def test_band_edges_match_stream_and_whole_grid(profile, stage, cell_rows):
    # run_pipeline streams bands of 16 cell rows: one whole band, a band plus
    # one row, two plus one and two plus three, with saturating cell stages
    rng = np.random.default_rng(103 + cell_rows)
    frame = Frame.from_array(rng.integers(0, 256, size=(cell_rows * 8, 64), dtype=np.uint8))
    model = SvmModel(weights_raw=rng.integers(-1023, 1024, size=(15, 7, 36)),
                     bias_raw=int(rng.integers(-(1 << 20), 1 << 20)))
    run = run_pipeline(frame, model, profile)
    assert run.stats[stage] > 0

    s_stream = SaturationStats()
    sm = streaming_scores(frame, model, 8, stats=s_stream, profile=profile)
    assert np.array_equal(sm.scores_raw, run.score_map.scores_raw)
    assert s_stream.counts == run.stats.counts

    s_grid = SaturationStats()
    mag, lo = binned_field(*gradient_field(frame.pixels), profile.gradient_magnitude, s_grid)
    hist = cell_histogram_grid(mag, lo, profile.histogram_value, s_grid)
    blocks = block_features(hist, cell_energy_grid(hist, profile, s_grid), profile, s_grid)
    scores = score_grid(blocks, model, s_grid, profile.final_feature)
    for got, want in [(run.mag_raw, mag), (run.bin_lo, lo), (run.hist_grid, hist),
                      (run.block_grid, blocks), (run.score_map.scores_raw, scores.scores_raw)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert s_grid.counts == run.stats.counts


def test_flat_frame_saturates_both_inverse_square_roots_on_both_paths():
    # a zero block energy under a 62-fraction accumulator makes 1/sqrt about
    # 2**31, which quantizes far beyond the int64 range at 40 fraction bits
    profile = PrecisionProfile(prepare_first_norm=FxFormat(64, 62),
                               first_inv_sqrt=FxFormat(64, 40))
    frame = Frame.from_array(np.full((128, 64), 90, dtype=np.uint8))
    model = SvmModel(weights_raw=np.zeros((15, 7, 36), dtype=np.int64), bias_raw=0)
    s_stream = SaturationStats()
    sm = streaming_scores(frame, model, 8, stats=s_stream, profile=profile)
    run = run_pipeline(frame, model, profile)
    assert np.array_equal(sm.scores_raw, run.score_map.scores_raw)
    assert run.stats.counts == s_stream.counts == {"inv_sqrt1": 105, "inv_sqrt2": 105}
