"""Whole-chain equivalence: packet-level streaming ops vs the vectorized path.

Every stage has its own equivalence test; this one runs the full streaming
composition (pack -> context -> binned gradients -> cell histograms -> blocks
-> normalize -> window scores) against run_pipeline and asserts bit equality
of the final score map for every pixels-per-clock setting.
"""

import sys
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest

import hogstream.detector
import hogstream.oracle
from hogstream.detector import (BAND_CELL_ROWS, block_bands, cell_bands, detections_from_scores,
                                detections_to_text, run_pipeline)
from hogstream.fixedpoint import (DEFAULT_PROFILE, SATURATING_STAGES, FxFormat, PrecisionProfile,
                                  SaturationStats)
from hogstream.gradient import binned_field, binned_stream, gradient_index
from hogstream.histogram import accumulate_cells, cell_histogram_grid
from hogstream.normalize import (block_features, block_stream, cell_energy_grid,
                                 normalize_block)
from hogstream.oracle import ErrorReport, _interp_weights, compare_paths
from hogstream.stream import VALID_PPC, Frame, context_stream, pack_frame
from hogstream.svm import SvmModel, score_windows
from hogstream.trainer import FloatModel, quantize_model
from reference import BAND_EDGE_CELL_ROWS, gradient_field, reference_run, score_grid


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


ZERO_WEIGHTS = np.zeros((15, 7, 36), dtype=np.int64)


def check_saturation_stats_match(profile, stages, weights=ZERO_WEIGHTS):
    # saturation event counts agree between the two paths on a frame that
    # actually saturates the magnitude stage (full-range noise does), and
    # exactly ``stages`` fire, in datapath order
    rng = np.random.default_rng(102)
    frame = Frame.from_array(rng.integers(0, 256, size=(128, 64), dtype=np.uint8))
    model = SvmModel(weights_raw=weights, bias_raw=0,
                     coeff_fmt=profile.svm_coefficient, bias_fmt=profile.svm_bias)

    s_stream = SaturationStats()
    sm = streaming_scores(frame, model, 4, stats=s_stream, profile=profile)

    s_vec = SaturationStats()
    ref = run_pipeline(frame, model, profile, stats=s_vec)

    assert tuple(stage for stage in SATURATING_STAGES if s_vec[stage]) == stages
    assert np.array_equal(sm.scores_raw, ref.score_map.scores_raw)
    assert s_stream.counts == s_vec.counts


def test_streaming_saturation_stats_match():
    check_saturation_stats_match(DEFAULT_PROFILE, ("magnitude",))


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
# narrow window scores, within 4 of 0: a model of random coefficients
# saturates the one window of a 128x64 noise frame
NARROW_SVM_BIAS = PrecisionProfile(svm_bias=FxFormat(22, 19))


@pytest.mark.parametrize("profile, weights, stages", [
    (NARROW_PREPARE_NORM, ZERO_WEIGHTS, ("magnitude", "prepare_norm", "norm1")),
    (NARROW_HISTOGRAM, ZERO_WEIGHTS, ("magnitude", "histogram")),
    (NARROW_MAGNITUDE, ZERO_WEIGHTS, ("magnitude", "histogram", "prepare_norm")),
    (NARROW_SVM_BIAS, np.random.default_rng(104).integers(-1023, 1024, size=(15, 7, 36)),
     ("magnitude", "svm")),
], ids=["narrow_prepare_norm", "narrow_histogram", "narrow_magnitude", "narrow_svm_bias"])
def test_streaming_saturation_stats_match_narrow_profile(profile, weights, stages):
    # each stage saturates every value it writes at most once, on both paths
    check_saturation_stats_match(profile, stages, weights)


def whole_grids(frame, profile, stats):
    """The fixed path's stages composed over the whole frame at once."""
    mag, lo = binned_field(gradient_index(frame.pixels), profile.gradient_magnitude, stats)
    hist = cell_histogram_grid(mag, lo, profile.histogram_value, stats)
    return mag, lo, hist, block_features(hist, cell_energy_grid(hist, profile, stats), profile,
                                         stats)


def band_edge_case(cell_rows):
    """A noise frame of cell_rows cell rows and 8 cell columns, and a model."""
    rng = np.random.default_rng(103 + cell_rows)
    frame = Frame.from_array(rng.integers(0, 256, size=(cell_rows * 8, 64), dtype=np.uint8))
    model = SvmModel(weights_raw=rng.integers(-1023, 1024, size=(15, 7, 36)),
                     bias_raw=int(rng.integers(-(1 << 20), 1 << 20)))
    return frame, model


BAND_EDGE_PROFILES = pytest.mark.parametrize("profile, stage", [
    (DEFAULT_PROFILE, "magnitude"),
    (NARROW_PREPARE_NORM, "prepare_norm"),
    (NARROW_HISTOGRAM, "histogram"),
], ids=["default", "narrow_prepare_norm", "narrow_histogram"])


@BAND_EDGE_PROFILES
@pytest.mark.parametrize("cell_rows", BAND_EDGE_CELL_ROWS)
def test_band_edges_match_stream_and_whole_grid(profile, stage, cell_rows):
    # run_pipeline streams bands of BAND_CELL_ROWS cell rows: whole bands, a
    # row more, a band and a row more, and a band and three rows more, with
    # saturating cell stages
    frame, model = band_edge_case(cell_rows)
    s_run = SaturationStats()
    run = run_pipeline(frame, model, profile, s_run)
    assert s_run[stage] > 0

    s_stream = SaturationStats()
    sm = streaming_scores(frame, model, 8, stats=s_stream, profile=profile)
    assert np.array_equal(sm.scores_raw, run.score_map.scores_raw)
    assert s_stream.counts == s_run.counts

    s_cells, s_bands = SaturationStats(), SaturationStats()
    cells = list(cell_bands(frame, profile, s_cells, {}))
    bands = list(block_bands(frame, profile, s_bands, {}))
    starts = range(0, cell_rows, BAND_CELL_ROWS)
    assert [r0 for r0, _ in cells] == list(starts)
    assert [b0 for b0, _ in bands] == [max(r0 - 1, 0) for r0 in starts]
    banded = [np.concatenate([grid for _, grid in b]) for b in (cells, bands)]
    score_grid(banded[-1], model, s_bands, profile.final_feature)   # counts the svm stage
    s_grid = SaturationStats()
    grids = whole_grids(frame, profile, s_grid)[2:]
    scores = score_grid(grids[-1], model, s_grid, profile.final_feature)
    for got, want in [*zip(banded, grids), (run.score_map.scores_raw, scores.scores_raw)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (list(s_grid.counts.items()) == list(s_bands.counts.items())
            == list(s_run.counts.items()))
    assert list(s_cells.counts.items()) == [(stage, n) for stage, n in s_grid.counts.items()
                                            if stage in ("magnitude", "histogram")]


def first_histogram_saturation_in_band_1():
    """Under NARROW_MAGNITUDE, band 0 saturates only its normalize stage:
    a ramp with gx = 3 gives cells whose bins fit the histogram format but
    whose blocks overflow prepare_norm. Noise below the first cell row of
    band 1 then saturates the magnitude and histogram stages."""
    rng = np.random.default_rng(109)
    frame = rng.integers(0, 256, size=((2 * BAND_CELL_ROWS + 1) * 8, 64), dtype=np.uint8)
    frame[: (BAND_CELL_ROWS + 1) * 8 + 1] = np.floor(1.5 * np.arange(64) + 50)
    model = SvmModel(weights_raw=rng.integers(-1023, 1024, size=(15, 7, 36)), bias_raw=0,
                     bias_fmt=NARROW_MAGNITUDE.svm_bias)
    return Frame.from_array(frame), model


def worker_and_serial(monkeypatch, frame, model, profile):
    """Run the frame on a serial reference, the bands one after another on
    the caller's thread (band_loop's _one_ahead replaced by map), then on
    the band worker: each time run_pipeline's scores and counts, and
    block_bands' bands and counts. Both sides must be equal, counts in the
    same key order, and only the second may run a worker thread. Returns the
    counts of the second run."""
    sides = []
    for serial in (True, False):
        with monkeypatch.context() as m:
            if serial:
                m.setattr(hogstream.detector, "_one_ahead", map)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)   # switch threads as often as the interpreter can
            try:
                s_run = SaturationStats()
                scores = run_pipeline(frame, model, profile, s_run).score_map.scores_raw
                s_bands = SaturationStats()
                threads = threading.active_count()
                bands = block_bands(frame, profile, s_bands, {})
                got = [next(bands)]
                workers = threading.active_count() - threads
                got += bands
            finally:
                sys.setswitchinterval(interval)
        sides.append((scores, list(s_run.counts.items()), got,
                      list(s_bands.counts.items()), workers))
    serial_side, worker_side = sides
    assert (serial_side[-1], worker_side[-1]) == (0, 1)
    assert np.array_equal(serial_side[0], worker_side[0])
    assert serial_side[1] == worker_side[1] and serial_side[3] == worker_side[3]
    assert len(serial_side[2]) == len(worker_side[2]) == -(-frame.height // 8 // BAND_CELL_ROWS)
    for band_serial, band_worker in zip(serial_side[2], worker_side[2]):
        for a, b in zip(band_serial, band_worker):
            assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype
    return dict(worker_side[1])


@BAND_EDGE_PROFILES
@pytest.mark.parametrize("cell_rows", BAND_EDGE_CELL_ROWS)
def test_worker_thread_and_one_cpu_give_the_same_run(monkeypatch, profile, stage, cell_rows):
    # "one_cpu" is the serial reference: the bands one after another on the
    # caller's thread, as a process pinned to one CPU once ran them
    frame, model = band_edge_case(cell_rows)
    assert worker_and_serial(monkeypatch, frame, model, profile)[stage] > 0


def test_worker_thread_and_serial_list_counts_in_stage_order(monkeypatch):
    # the histogram stage first saturates in band 1, which the worker
    # computes while the caller normalizes band 0, so prepare_norm is
    # recorded first on both schedules, even where the caller is slow enough
    # for the worker to finish first: the counts still list in datapath order
    frame, model = first_histogram_saturation_in_band_1()
    energy = hogstream.detector.cell_energy_grid
    monkeypatch.setattr(hogstream.detector, "cell_energy_grid",
                        lambda *args: time.sleep(0.02) or energy(*args))
    counts = worker_and_serial(monkeypatch, frame, model, NARROW_MAGNITUDE)
    assert list(counts) == ["magnitude", "histogram", "prepare_norm"]


class ThreadNotingTimes(dict):
    """A stage-seconds dict that notes the key and thread of each write."""

    def __init__(self, writes):
        super().__init__()
        self.writes = writes

    def __setitem__(self, key, value):
        self.writes.append((key, threading.current_thread()))
        super().__setitem__(key, value)


def writer_threads(writes):
    """The thread that wrote each key, in the order of first writes; a key
    written from two threads fails."""
    threads = {}
    for key, thread in writes:
        assert threads.setdefault(key, thread) is thread, key
    return threads


@pytest.mark.parametrize("profile, worker_labels", [
    (DEFAULT_PROFILE, {"magnitude"}),
    (NARROW_MAGNITUDE, {"magnitude", "histogram"}),
], ids=["default", "narrow_magnitude"])
def test_each_count_and_seconds_key_has_one_writer_thread(monkeypatch, profile, worker_labels):
    # the band worker and the caller record into one SaturationStats and one
    # seconds dict, which is safe as each label and key is written from one
    # thread: the worker writes the pixel stage's counts and seconds, the
    # caller the rest; every stage the worker counts saturates here
    rng = np.random.default_rng(111)
    frame = Frame.from_array(rng.integers(0, 256, size=((3 * BAND_CELL_ROWS + 1) * 8, 64),
                                          dtype=np.uint8))
    model = SvmModel(weights_raw=rng.integers(-1023, 1024, size=(15, 7, 36)), bias_raw=0,
                     bias_fmt=profile.svm_bias)
    counted = []
    record = SaturationStats.record
    monkeypatch.setattr(SaturationStats, "record", lambda self, stage, n=1: (
        counted.append((stage, threading.current_thread())) or record(self, stage, n)))
    caller = threading.current_thread()
    for bands in (False, True):
        counted.clear()
        stats, timed = SaturationStats(), []
        if bands:
            assert len(list(block_bands(frame, profile, stats, ThreadNotingTimes(timed)))) == 4
        else:
            assert list(run_pipeline(frame, model, profile, stats).stage_seconds) == [
                "gradient", "histogram", "normalize", "svm"]
        labels, keys = writer_threads(counted), writer_threads(timed)
        assert len({t for t in [*labels.values(), *keys.values()] if t is not caller}) == 1
        assert {k for k, t in labels.items() if t is not caller} == worker_labels
        assert set(labels) > worker_labels and all(stats[k] > 0 for k in worker_labels)
        if bands:
            assert [(k, t is caller) for k, t in keys.items()] == [
                ("gradient", False), ("histogram", False), ("normalize", True)]


@pytest.mark.parametrize("profile", [DEFAULT_PROFILE, NARROW_MAGNITUDE],
                         ids=["default", "narrow_magnitude"])
@pytest.mark.parametrize("cell_rows", BAND_EDGE_CELL_ROWS)
def test_streamed_compare_matches_whole_grid_report(monkeypatch, profile, cell_rows):
    # compare_paths runs both paths on one band loop; its report must be the
    # one the whole grids give, byte for byte the same with or without a
    # fixed_run, on the serial reference and with the band worker
    rng = np.random.default_rng(110 + cell_rows)
    frame = Frame.from_array(rng.integers(0, 256, size=(cell_rows * 8, 72), dtype=np.uint8))
    w = rng.uniform(-0.3, 0.3, 3780)
    model = quantize_model(FloatModel(weights=w, bias=0.1), profile)
    fw, fb = w * model.scale_applied, 0.1 * model.scale_applied
    stage, threads = hogstream.oracle.float_cells, set()
    monkeypatch.setattr(hogstream.oracle, "float_cells",
                        lambda *args: threads.add(threading.current_thread()) or stage(*args))
    texts = set()
    for serial in (True, False):
        with monkeypatch.context() as m:
            if serial:
                m.setattr(hogstream.detector, "_one_ahead", map)
            run = run_pipeline(frame, model, profile)
            report = compare_paths(frame, model, fw, fb, profile=profile)
            texts |= {report.to_text(),
                      compare_paths(frame, model, fw, fb, profile=profile,
                                    fixed_run=run).to_text()}
        if serial:
            assert threads == {threading.main_thread()}
    assert threads - {threading.main_thread()}   # the worker ran the float path too
    assert len(texts) == 1

    mag, lo, _, blocks = whole_grids(frame, profile, None)
    fixed_scores = score_grid(blocks, model, None, profile.final_feature)
    ref = reference_run(frame, fw, fb)
    gx, gy = gradient_field(frame.pixels)
    m = np.hypot(gx, gy)
    ref_lo, _ = _interp_weights(np.degrees(np.arctan2(gy, gx)) % 180.0)
    mag_err = np.abs(mag / profile.gradient_magnitude.scale - m)
    blk_err = np.abs(blocks / profile.final_feature.scale - ref.block_grid)
    score_err = np.abs(fixed_scores.scores_raw / fixed_scores.fmt.scale - ref.scores)
    flips = int((fixed_scores.above(0.0) != (ref.scores > 0.0)).sum())
    carrying = m > 0
    want = ErrorReport(
        pixels=m.size, blocks=blocks.shape[0] * blocks.shape[1], anchors=ref.scores.size,
        magnitude_max_abs_err=float(mag_err.max()),
        magnitude_mean_abs_err=float(mag_err.mean()),
        bin_pair_disagreement_rate=float(((lo != ref_lo) & carrying).sum() / carrying.sum()),
        block_feature_max_abs_err=float(blk_err.max()),
        block_feature_mean_abs_err=float(blk_err.mean()),
        score_max_abs_err=float(score_err.max()), score_mean_abs_err=float(score_err.mean()),
        classification_disagreements=flips,
        classification_disagreement_rate=flips / ref.scores.size)
    means = {"magnitude_mean_abs_err", "block_feature_mean_abs_err", "score_mean_abs_err"}
    for name, value in asdict(want).items():
        got = getattr(report, name)
        if name in means:
            assert got == pytest.approx(value, rel=1e-12, abs=0), name
        else:
            assert got == value and type(got) is type(value), name
    assert report.magnitude_max_abs_err > 0 and report.block_feature_max_abs_err > 0


def test_flat_frame_saturates_both_inverse_square_roots_on_both_paths():
    # a zero block energy under a 62-fraction accumulator makes 1/sqrt about
    # 2**31, which quantizes far beyond the int64 range at 40 fraction bits
    profile = PrecisionProfile(prepare_first_norm=FxFormat(64, 62),
                               first_inv_sqrt=FxFormat(64, 40))
    frame = Frame.from_array(np.full((128, 64), 90, dtype=np.uint8))
    model = SvmModel(weights_raw=np.zeros((15, 7, 36), dtype=np.int64), bias_raw=0)
    s_stream = SaturationStats()
    sm = streaming_scores(frame, model, 8, stats=s_stream, profile=profile)
    s_run = SaturationStats()
    run = run_pipeline(frame, model, profile, s_run)
    assert np.array_equal(sm.scores_raw, run.score_map.scores_raw)
    assert s_run.counts == s_stream.counts == {"inv_sqrt1": 105, "inv_sqrt2": 105}
