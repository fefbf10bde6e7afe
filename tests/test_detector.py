"""Thresholding, exact IoU, greedy NMS, frame-level detection."""

import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import hogstream.detector
import hogstream.oracle
from hogstream.detector import (
    BAND_CELL_ROWS,
    Detection,
    block_bands,
    cell_bands,
    detect_frame,
    detections_from_scores,
    detections_to_text,
    nms,
    run_pipeline,
)
from hogstream.fixedpoint import DEFAULT_PROFILE, FxFormat, PrecisionProfile
from hogstream.oracle import compare_paths
from hogstream.stream import Frame, GeometryError
from hogstream.svm import WINDOW_FEATURES, ScoreMap, SvmModel, load_model, save_model
from reference import bucketed_nms, iou

SCORE_FMT = DEFAULT_PROFILE.svm_bias


def box(x, y, score, w=64, h=128):
    return Detection(x=x, y=y, w=w, h=h, score=score)


def zero_model(bias=0):
    return SvmModel(weights_raw=np.zeros((15, 7, 36), dtype=np.int64), bias_raw=bias)


def test_iou_examples():
    a = box(0, 0, 1.0)
    b = box(8, 0, 0.9)
    assert iou(a, b) == Fraction(7, 9)  # 56x128 overlap of two 64x128 boxes
    assert iou(a, a) == 1
    assert iou(a, box(64, 0, 0.5)) == 0   # edge-adjacent, no overlap
    assert iou(a, box(200, 300, 0.5)) == 0


def test_nms_suppresses_overlap():
    a = box(0, 0, 1.0)
    b = box(8, 0, 0.9)   # IoU 7/9 > 0.5: suppressed by a
    c = box(200, 0, 0.8)
    kept = nms([b, c, a], iou_threshold=0.5)
    assert kept == [a, c]
    # a permissive threshold keeps all three
    assert nms([b, c, a], iou_threshold=0.8) == [a, b, c]


def test_nms_tie_raster_order():
    a = box(8, 0, 1.0)
    b = box(0, 0, 1.0)
    kept = nms([a, b], iou_threshold=0.5)
    assert kept == [b]  # equal score: smaller (y, x) wins


def test_nms_sorted_descending():
    rng = np.random.default_rng(60)
    dets = [box(int(x) * 8, int(y) * 8, float(s))
            for x, y, s in zip(rng.integers(0, 40, 30), rng.integers(0, 40, 30),
                               rng.uniform(-1, 1, 30))]
    kept = nms(dets, 0.5)
    scores = [d.score for d in kept]
    assert scores == sorted(scores, reverse=True)


def ref_nms(dets, thr):
    """Classic pop-best-then-filter formulation with float IoU."""
    def fiou(a, b):
        ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
        iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
        if ix <= 0 or iy <= 0:
            return 0.0
        inter = ix * iy
        return inter / (a.w * a.h + b.w * b.h - inter)

    remaining = sorted(dets, key=lambda d: (-d.score, d.y, d.x))
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [d for d in remaining if fiou(best, d) <= thr]
    return kept


def test_nms_matches_reference():
    rng = np.random.default_rng(61)
    for trial in range(50):
        n = int(rng.integers(0, 40))
        dets = []
        for _ in range(n):
            if rng.random() < 0.7:  # genuine window geometry
                d = box(int(rng.integers(0, 30)) * 8, int(rng.integers(0, 30)) * 8,
                        float(np.round(rng.uniform(-2, 2), 2)))
            else:                   # arbitrary boxes
                d = Detection(x=int(rng.integers(0, 200)), y=int(rng.integers(0, 200)),
                              w=int(rng.integers(1, 100)), h=int(rng.integers(1, 100)),
                              score=float(np.round(rng.uniform(-2, 2), 2)))
            dets.append(d)
        thr = float(rng.choice([0.3, 0.5, 0.7]))
        assert nms(dets, thr) == ref_nms(dets, thr), trial


def test_nms_dense_anchor_grid_matches_reference():
    # 2,000 distinct anchors of a 1080p frame, scores on a 0.1 grid so ties occur
    rng = np.random.default_rng(67)
    cols, rows = (1920 - 64) // 8 + 1, (1080 - 128) // 8 + 1
    anchors = rng.choice(cols * rows, 2000, replace=False)
    scores = np.round(rng.uniform(-1, 1, anchors.size), 1)
    dets = [box(int(a % cols) * 8, int(a // cols) * 8, float(s))
            for a, s in zip(anchors, scores)]
    assert len({d.score for d in dets}) < 30
    for thr in (0.0, 0.5, 1.0):
        assert nms(dets, thr) == ref_nms(dets, thr), thr


def test_nms_at_threshold_one_tests_no_pair(monkeypatch):
    # no IoU exceeds 1, so every candidate is kept without an overlap test
    rng = np.random.default_rng(68)
    dets = [box(int(x) * 8, int(y) * 8, float(s))
            for x, y, s in zip(rng.integers(0, 40, 500), rng.integers(0, 40, 500),
                               np.round(rng.uniform(-1, 1, 500), 1))]
    pairs = []
    suppresses = hogstream.detector._suppresses

    def counting(inter, union, num, den):
        pairs.append(inter.size)
        return suppresses(inter, union, num, den)

    monkeypatch.setattr(hogstream.detector, "_suppresses", counting)
    for thr in (1.0, 1, Fraction(1), np.float32(1)):
        assert nms(dets, thr) == ref_nms(dets, 1.0), thr
    assert pairs == []
    nms(dets, 0.5)
    assert sum(pairs) > 0


def test_nms_every_hd_anchor_matches_bucketed_reference(monkeypatch):
    # every anchor of a 1080p frame, scores on a 0.1 grid so that ties occur
    cols, rows = (1920 - 64) // 8 + 1, (1080 - 128) // 8 + 1
    scores = np.round(np.random.default_rng(70).uniform(-1, 1, cols * rows), 1)
    dets = [box(a % cols * 8, a // cols * 8, s) for a, s in enumerate(scores.tolist())]
    assert len(dets) == 27960 and len({d.score for d in dets}) == 21
    blocks = []
    suppresses = hogstream.detector._suppresses

    def counting(*args):
        blocks.append(1)
        return suppresses(*args)

    monkeypatch.setattr(hogstream.detector, "_suppresses", counting)
    for thr in (0.0, 0.5, 1 / 8192, Fraction(7, 9), 7 / 9):
        want = bucketed_nms(dets, thr)
        assert nms(dets, thr) == want, thr
        # small blocks: most pairs reach back to boxes an earlier block kept
        blocks.clear()
        with monkeypatch.context() as m:
            m.setattr(hogstream.detector, "NMS_PAIR_BUDGET", 20000)
            assert nms(dets, thr) == want, thr
        assert len(blocks) > 100, thr


@pytest.mark.parametrize("field, value", [("x", 0.5), ("y", 1.0), ("w", np.float32(64)),
                                          ("h", "128"), ("x", 1 << 26), ("y", -(1 << 26)),
                                          ("w", 1 << 70)])
def test_nms_rejects_a_box_off_the_integer_range(field, value):
    # past 2**26 an area or a union is not exact in float64
    bad = replace(box(0, 0, 0.5), **{field: value})
    ok = box(500, 0, 1.0)
    for thr in (0.5, 1.0):
        with pytest.raises(ValueError, match=f"{field} must be an integer") as err:
            nms([ok, bad], thr)
        assert repr(bad) in str(err.value)
    edge = (1 << 26) - 1
    far = [box(edge, -edge, 1.0), box(-edge, edge, 0.5, w=edge, h=edge)]
    assert nms(far, 0.5) == far


def test_nms_bucket_edges_and_unit_boxes():
    # the bucket steps are 64 and 128: put corners on, just before and just
    # after bucket edges (negative coordinates too), at five box sizes
    xs = (-65, -64, -1, 0, 1, 63, 64, 65, 127, 128)
    ys = (-129, -128, -1, 0, 1, 127, 128, 129, 255, 256)
    sizes = ((64, 128), (63, 127), (1, 1), (0, 128), (-8, 16))   # the last two overlap nothing
    dets = [box(x, y, float((x * 7 + y * 3 + w) % 11), w=w, h=h)
            for x in xs for y in ys for w, h in sizes]
    for thr in (0.0, 0.5, 1.0):
        assert nms(dets, thr) == ref_nms(dets, thr), thr
    big = box(0, 0, 2.0)
    inside = box(63, 127, 1.0, w=1, h=1)     # IoU 1/8192
    touching = box(64, 128, 1.0, w=1, h=1)   # corner-adjacent, no overlap
    assert nms([big, inside, touching], 0.0) == [big, touching]
    assert nms([big, inside, touching], 1 / 8192) == [big, inside, touching]
    assert nms([big, inside, touching], 0.9999 / 8192) == [big, touching]


@pytest.mark.parametrize("thr", [float("nan"), -0.1, 1.1, float("inf"), -float("inf")])
def test_nms_rejects_threshold_outside_unit_interval(thr):
    a, b = box(0, 0, 1.0), box(500, 0, 0.5)   # disjoint
    with pytest.raises(ValueError):
        nms([a, b], thr)
    assert nms([a, b], 0.0) == nms([a, b], 1.0) == [a, b]


def test_nms_threshold_types():
    a, b = box(0, 0, 1.0), box(8, 0, 0.9)   # IoU exactly 7/9
    # the double 7/9 exceeds 7/9 by 1/81064793292668928 and the pair's float
    # IoU rounds to it, as does 7/9 - 10**-30: the exact test keeps b at the
    # first and suppresses it at the second and at the next double down
    assert Fraction(7 / 9) - Fraction(7, 9) == Fraction(1, 81064793292668928)
    for thr in (np.float32(0.8), np.float64(0.8), Fraction(7, 9), 7 / 9, np.int64(1), 1):
        assert nms([a, b], thr) == [a, b], thr
    for thr in (np.float32(0.7), Fraction(7, 9) - Fraction(1, 10**12),
                Fraction(7, 9) - Fraction(1, 10**30), np.nextafter(7 / 9, 0), np.int64(0), 0):
        assert nms([a, b], thr) == [a], thr


def test_threshold_is_strict():
    raws = np.array([[100, 101], [99, 200]], dtype=np.int64)
    sm = ScoreMap(scores_raw=raws, fmt=SCORE_FMT)
    thr = 100 / SCORE_FMT.scale
    dets = detections_from_scores(sm, thr)
    assert [(d.x, d.y) for d in dets] == [(8, 0), (8, 8)]  # raw 100 excluded
    assert all(d.w == 64 and d.h == 128 for d in dets)
    assert dets[0].score == 101 / SCORE_FMT.scale


def test_detections_from_scores_decodes_as_python_numbers():
    # the detections_to_text digest needs each score to be int(raw) / scale
    # bit for bit, and every field a Python int or float
    rng = np.random.default_rng(71)
    edge = [SCORE_FMT.min_raw, SCORE_FMT.max_raw, SCORE_FMT.min_raw + 1, SCORE_FMT.max_raw - 1]
    raws = np.concatenate([edge, rng.integers(SCORE_FMT.min_raw, SCORE_FMT.max_raw + 1, 96)])
    sm = ScoreMap(scores_raw=raws.reshape(10, 10), fmt=SCORE_FMT)
    dets = detections_from_scores(sm, SCORE_FMT.min_raw / SCORE_FMT.scale)
    assert len(dets) == 99   # all but the raw at min_raw
    want = {(c * 8, r * 8): int(v) / SCORE_FMT.scale
            for (r, c), v in np.ndenumerate(sm.scores_raw) if v > SCORE_FMT.min_raw}
    assert {(d.x, d.y): d.score for d in dets} == want
    for d in dets:
        assert d.score.hex() == want[d.x, d.y].hex()
        assert [type(v) for v in (d.x, d.y, d.w, d.h, d.score)] == [int] * 4 + [float]


def test_threshold_quantizes_like_scores():
    # threshold between raws rounds down: raw floor(0.5 + lsb) still excludes raw 262144
    raws = np.array([[1 << 18]], dtype=np.int64)  # 0.5
    sm = ScoreMap(scores_raw=raws, fmt=SCORE_FMT)
    assert detections_from_scores(sm, 0.5) == []
    assert len(detections_from_scores(sm, 0.4999999)) == 1


@pytest.mark.parametrize("thr", [float("nan"), float("inf"), -float("inf")])
def test_threshold_rejects_non_finite(thr):
    sm = ScoreMap(scores_raw=np.zeros((1, 1), dtype=np.int64), fmt=SCORE_FMT)
    with pytest.raises(ValueError, match="threshold must be finite"):
        detections_from_scores(sm, thr)


def test_detect_frame_geometry():
    rng = np.random.default_rng(62)
    f = Frame.from_array(rng.integers(0, 256, size=(128, 64), dtype=np.uint8))
    m = zero_model(bias=1)
    small = Frame.from_array(rng.integers(0, 256, size=(120, 64), dtype=np.uint8))
    with pytest.raises(GeometryError):
        detect_frame(small, m)
    narrow = Frame.from_array(rng.integers(0, 256, size=(128, 56), dtype=np.uint8))
    with pytest.raises(GeometryError):
        detect_frame(narrow, m)


def test_detect_frame_positive_bias_fires_everywhere():
    rng = np.random.default_rng(63)
    f = Frame.from_array(rng.integers(0, 256, size=(136, 80), dtype=np.uint8))
    m = zero_model(bias=(1 << 19))  # score 1.0 everywhere
    dets = detect_frame(f, m)
    # 80x136 frame: cells 17x10 -> blocks 16x9 -> anchors 2x3
    assert len(dets) == 6
    assert [(d.x, d.y) for d in dets] == [(x * 8, y * 8) for y in range(2) for x in range(3)]
    assert all(d.score == 1.0 for d in dets)


def test_detect_frame_deterministic():
    rng = np.random.default_rng(64)
    f = Frame.from_array(rng.integers(0, 256, size=(128, 64), dtype=np.uint8))
    rngw = np.random.default_rng(65)
    m = SvmModel(weights_raw=rngw.integers(-1023, 1024, size=(15, 7, 36)), bias_raw=0)
    a = detect_frame(f, m, threshold=-10.0)
    b = detect_frame(f, m, threshold=-10.0)
    assert a == b
    assert len(a) == 1  # single anchor, threshold below any reachable score


def test_run_pipeline_shapes_and_timers():
    rng = np.random.default_rng(66)
    f = Frame.from_array(rng.integers(0, 256, size=(128, 64), dtype=np.uint8))
    run = run_pipeline(f, zero_model())
    starts = range(0, 16, BAND_CELL_ROWS)
    heights = [min(16 - r0, BAND_CELL_ROWS) for r0 in starts]
    cells = list(cell_bands(f, DEFAULT_PROFILE, None, {}))
    bands = list(block_bands(f, DEFAULT_PROFILE, None, {}))
    assert [r0 for r0, _ in cells] == list(starts)
    assert [b0 for b0, _ in bands] == [max(r0 - 1, 0) for r0 in starts]
    assert [hist.shape for _, hist in cells] == [(n, 8, 9) for n in heights]
    assert [blocks.shape for _, blocks in bands] == [(n - (r0 == 0), 7, 36)
                                                     for r0, n in zip(starts, heights)]
    assert run.score_map.scores_raw.shape == (1, 1)
    assert set(run.stage_seconds) == {"gradient", "histogram", "normalize", "svm"}
    assert all(t >= 0 for t in run.stage_seconds.values())


def test_run_pipeline_holds_one_band_at_a_time():
    # the run keeps only its score map and counts: copying every band into
    # whole-frame grids peaked at 27.3 MiB on this 1080p frame
    f = Frame.from_array(np.random.default_rng(67).integers(0, 256, size=(1080, 1920),
                                                            dtype=np.uint8))
    model = zero_model()
    run_pipeline(f, model)   # builds the shared tables outside the trace
    tracemalloc.start()
    try:
        run = run_pipeline(f, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.score_map.scores_raw.shape == (120, 233)
    assert peak <= 12 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_run_pipeline_keeps_nothing_once_its_result_is_dropped():
    # each band forms its own pixel slots: a cache of the slot grids of the
    # last frame shape kept 2.7 MiB of this 1080p frame's alive
    model = zero_model()
    run_pipeline(Frame.from_array(np.zeros((128, 64), dtype=np.uint8)), model)   # the tables
    f = Frame.from_array(np.random.default_rng(68).integers(0, 256, size=(1080, 1920),
                                                            dtype=np.uint8))
    tracemalloc.start()
    try:
        run_pipeline(f, model)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20, f"{kept / 2**20:.2f} MiB still allocated"


@pytest.mark.parametrize("serial", [True, False], ids=["serial", "worker"])
def test_each_frame_fills_one_scratch_set(monkeypatch, serial):
    # each band once allocated its own per-pixel arrays on the caller's
    # thread; the serial reference runs the bands there one after another
    if serial:
        monkeypatch.setattr(hogstream.detector, "_one_ahead", map)
    f = Frame.from_array(np.random.default_rng(70).integers(
        0, 256, size=((2 * BAND_CELL_ROWS + 1) * 8, 64), dtype=np.uint8))   # three bands
    outs = []
    gradient_index = hogstream.detector.gradient_index
    monkeypatch.setattr(hogstream.detector, "gradient_index",
                        lambda *args, out: outs.append(out) or gradient_index(*args, out=out))
    for path in (lambda: run_pipeline(f, zero_model()),
                 lambda: compare_paths(f, zero_model(), np.zeros(WINDOW_FEATURES), 0.0)):
        outs.clear()
        path()
        assert len(outs) == 3
        assert all(out.base is not None and out.base is outs[0].base for out in outs)


def test_no_band_worker_outlives_its_bands(monkeypatch):
    f = Frame.from_array(np.random.default_rng(69).integers(
        0, 256, size=((16 + BAND_CELL_ROWS) * 8, 64), dtype=np.uint8))   # two bands or more
    model = zero_model()
    before = threading.active_count()
    # each path over the one band loop: a run of the whole frame, its bands,
    # and a stage of its pixel stage, which runs on the worker
    paths = {
        "run_pipeline": (lambda: run_pipeline(f, model),
                         lambda: block_bands(f, DEFAULT_PROFILE, None, {}),
                         (hogstream.detector, "cell_histogram_grid")),
        "compare_paths": (lambda: compare_paths(f, model, np.zeros(WINDOW_FEATURES), 0.0),
                          None, (hogstream.oracle, "float_cells")),
    }
    for path, (whole_frame, bands_of, (module, stage)) in paths.items():
        whole_frame()
        assert threading.active_count() == before, path

        # a consumer that stops after the first band; compare_paths stops
        # when its block stage raises on the caller
        if bands_of is None:
            alive = []

            def stop(*args):
                alive.append(threading.active_count())
                raise ZeroDivisionError("band 0")

            with monkeypatch.context() as m:
                m.setattr(hogstream.oracle, "block_dots", stop)
                with pytest.raises(ZeroDivisionError, match="band 0"):
                    whole_frame()
            assert alive == [before + 1], path   # the worker, on band 1
        else:
            bands = bands_of()
            next(bands)
            assert threading.active_count() == before + 1, path   # the worker, on band 1
            del bands
        assert threading.active_count() == before, path

        # a stage that raises on the worker raises in the caller, the worker joined
        threads = []

        def fail_on_band_1(*args, fn=getattr(module, stage)):
            threads.append(threading.current_thread())
            if len(threads) == 2:
                raise ZeroDivisionError("band 1")
            return fn(*args)

        with monkeypatch.context() as m:
            m.setattr(module, stage, fail_on_band_1)
            with pytest.raises(ZeroDivisionError, match="band 1"):
                whole_frame()
        assert threads[1] is not threading.main_thread(), path
        assert threading.active_count() == before, path


def test_run_pipeline_rejects_a_model_of_other_formats(tmp_path):
    # a model loaded under the default profile scores in (33,19); a profile
    # asking for a (40,19) score must not run it silently
    path = tmp_path / "m.svm"
    save_model(zero_model(bias=5), path)
    f = Frame.from_array(np.zeros((128, 64), dtype=np.uint8))
    wide_bias = PrecisionProfile(svm_bias=FxFormat(40, 19))
    with pytest.raises(ValueError, match="profile"):
        run_pipeline(f, load_model(path), wide_bias)
    assert run_pipeline(f, load_model(path, wide_bias), wide_bias).score_map.fmt == FxFormat(40, 19)


def test_detections_to_text():
    txt = detections_to_text([box(8, 16, 1.5), box(0, 0, -0.25)])
    assert txt == "8 16 64 128 1.5\n0 0 64 128 -0.25\n"
    assert detections_to_text([]) == ""
