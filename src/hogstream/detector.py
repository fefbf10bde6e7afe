"""Frame-level orchestration: fixed-point pipeline, thresholding, greedy NMS.

detect_frame runs the whole fixed-point path on one frame and returns every
window whose score strictly exceeds the threshold, in raster anchor order.
run_pipeline rejects a frame smaller than one svm.WINDOW_W x WINDOW_H window.

As the datapath's line buffers do, the array path streams the frame in bands
of BAND_CELL_ROWS cell rows through band_loop, the one band loop, and as the
datapath runs its stages at once, each on other rows, one worker thread runs
the next band's pixel stage while the caller takes this band on. cell_bands
and block_bands are the fixed path's stages over it; the oracle's run over
it too. Their pixel stages fill one set of per-pixel arrays per frame, as
line buffers sized once for the frame width, and hand on only histograms.
Each stage saturates and counts only the values the band owns, so every
value is counted once and every grid equals the whole-grid composition of
the same stage functions. No pixels-per-clock setting applies: the
packet-level stream ops produce bit-identical values at every ppc (the
tests assert the equivalence), as every per-pixel op is pointwise and
histogram accumulation is exact integer addition, hence order-free.

NMS is greedy: repeatedly keep the highest-scoring remaining box (ties broken
by raster order) and discard everything overlapping it beyond the IoU
threshold. Box geometry is integral and below COORD_LIMIT, so each IoU test
is exact: a float64 ratio of int64 areas decides where it lies more than one
ulp from the threshold, an integer cross-multiplication against the
threshold's rational value within. A box's possible overlaps lie in three
rows of buckets as high as the highest box, so nms forms those candidate
pairs with numpy, in blocks of NMS_PAIR_BUDGET pairs taken in rank order,
tests each block's pairs in one pass and loops in Python only over the pairs
that suppress.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from numbers import Integral, Rational
from typing import Callable, Iterable, Iterator

import numpy as np

from .fixedpoint import DEFAULT_PROFILE, PrecisionProfile, SaturationStats
from .gradient import binned_field, gradient_index
from .histogram import cell_histogram_grid
from .normalize import block_cells, block_features, cell_energy_grid
from .stream import CELL, Frame, GeometryError
from .svm import WINDOW_H, WINDOW_W, ScoreAccumulator, ScoreMap, SvmModel

# cell rows per band of band_loop (the depth of the array path's line buffers)
BAND_CELL_ROWS = 8
# box coordinates and sizes lie below this magnitude, so that every area and
# union is exact in int64 and float64 (below 2**53)
COORD_LIMIT = 1 << 26
# nms sorts boxes by row * _ROW_KEY + x; every x it keys or looks up lies
# within +-_ROW_KEY / 2, so the key orders by row, then by x
_ROW_KEY = 1 << 28
# candidate pairs per block of nms: bounds its temporaries on a dense set
NMS_PAIR_BUDGET = 1 << 18


@dataclass(frozen=True)
class Detection:
    """One detected window; score is the decoded prediction value."""

    x: int
    y: int
    w: int
    h: int
    score: float


@dataclass
class PipelineRun:
    """The window scores of one frame, its profile and stage seconds: no
    band's cells or blocks outlive the SVM, nor per-pixel arrays the run.
    Saturation counts go to the SaturationStats the caller passes to
    run_pipeline. stage_seconds holds each stage's busy time, which overlap
    on the band worker (see band_loop), so the four can add up to more than
    the frame took."""

    score_map: ScoreMap
    profile: PrecisionProfile
    stage_seconds: dict[str, float] = field(default_factory=dict)


def _one_ahead(fn: Callable, *iterables: Iterable) -> Iterator:
    """map(fn, *iterables) with each call on one worker thread, one call
    ahead of the consumer: call i + 1 runs while the consumer holds the
    result of call i. Its arguments are taken, in the consumer's thread,
    only once call i has returned. The worker is joined however the map
    ends: exhausted, closed by a consumer that drops it, or raising what a
    call raised."""
    items = zip(*iterables)
    with ThreadPoolExecutor(1) as worker:
        ahead = [worker.submit(fn, *item) for item in islice(items, 1)]
        while ahead:
            done = ahead.pop().result()
            ahead = [worker.submit(fn, *item) for item in islice(items, 1)]
            yield done
            del done   # the consumer is done with it


def band_loop(frame: Frame, pixel_stage: Callable,
              block_stage: Callable | None = None) -> Iterator:
    """The one band loop. pixel_stage(r0, h) runs on the h pixel rows from
    cell row r0, on one worker thread one band ahead (_one_ahead); on one
    CPU the worker takes turns with the caller. The results reach the
    caller in band order, and block_stage(result, carried) maps each there:
    carried(*grids) puts the previous band's last cell row above each of the
    band's cell grids. With a block stage, a cell grid smaller than 2x2
    raises GeometryError before any stage runs."""
    rows, cols = frame.height // CELL, frame.width // CELL
    starts = range(0, rows, BAND_CELL_ROWS)
    heights = [(min(r0 + BAND_CELL_ROWS, rows) - r0) * CELL for r0 in starts]
    filled = _one_ahead(pixel_stage, starts, heights)
    if block_stage is None:
        return filled
    block_cells(np.empty((rows, cols, 0)))   # the frame's grid, not a band's, must hold a block
    last: list[np.ndarray] = []

    def carried(*grids: np.ndarray) -> list[np.ndarray]:
        out = [np.concatenate(pair) for pair in zip(last, grids)] if last else grids
        last[:] = [g[-1:].copy() for g in grids]
        return out

    return map(lambda band: block_stage(band, carried), filled)


def cell_stages(frame: Frame, profile: PrecisionProfile, stats: SaturationStats | None,
                times: dict[str, float]) -> tuple[Callable, Callable]:
    """The fixed path's pixel stage for band_loop, and the hand-over of its
    results on the caller's thread. The caller's thread allocates here one
    scratch set for the frame's tallest band (index, slots, magnitudes, bins,
    halves), whose [:h] views the pixel stage fills. Its result is ((r0,
    hist), counts, seconds, (idx, mag, lo)): only another pixel stage on the
    same thread may read the views, before the next band. One set is enough,
    as the worker runs one pixel stage at a time and the caller reads only
    the fresh histograms. The hand-over adds the counts and seconds to
    ``stats`` and ``times`` in band order, so both get the keys, values and
    key order of a run on one thread, and returns (r0, hist)."""
    shape = (min(BAND_CELL_ROWS * CELL, frame.height), frame.width)
    idx, slots = np.empty(shape, np.intp), np.empty(shape, np.intp)
    mag, lo, halves = np.empty(shape, np.int32), np.empty(shape, np.uint8), np.empty(shape)

    def cells(r0: int, h: int) -> tuple:
        band_stats = None if stats is None else SaturationStats()
        t0 = time.perf_counter()
        gradient_index(frame.pixels, r0 * CELL, r0 * CELL + h, out=idx[:h])
        binned_field(idx[:h], profile.gradient_magnitude, band_stats, out=(mag[:h], lo[:h]))
        t1 = time.perf_counter()
        hist = cell_histogram_grid(mag[:h], lo[:h], profile.histogram_value, band_stats,
                                   (slots[:h], halves[:h]))
        return ((r0, hist), band_stats, (t1 - t0, time.perf_counter() - t1),
                (idx[:h], mag[:h], lo[:h]))

    def hand_over(done: tuple) -> tuple:
        band, band_stats, seconds, _ = done
        if stats is not None:
            for stage, n in band_stats.counts.items():
                stats.record(stage, n)
        for stage, t in zip(("gradient", "histogram"), seconds):
            times[stage] = times.get(stage, 0.0) + t
        return band

    return cells, hand_over


def cell_bands(frame: Frame, profile: PrecisionProfile, stats: SaturationStats | None,
               times: dict[str, float]) -> Iterator[tuple]:
    """The gradient and histogram stages, band by band of cell rows: yields
    (r0, hist) per band, r0 its first cell row, and adds each stage's
    seconds, its busy time, to ``times``. It is a map, as block_bands is, so
    no name holds a band while the consumer runs."""
    cells, hand_over = cell_stages(frame, profile, stats, times)
    return map(hand_over, band_loop(frame, cells))


def block_bands(frame: Frame, profile: PrecisionProfile, stats: SaturationStats | None,
                times: dict[str, float]) -> Iterator[tuple]:
    """cell_bands plus the normalize stage: yields (b0, blocks) per band, b0
    its first block row. Its blocks also take the previous band's last cell
    row of histograms and energies. A cell grid smaller than 2x2 raises
    GeometryError before any stage runs."""
    cells, hand_over = cell_stages(frame, profile, stats, times)

    def blocks(done: tuple, carried: Callable) -> tuple:
        r0, hist = hand_over(done)
        t0 = time.perf_counter()
        out = block_features(*carried(hist, cell_energy_grid(hist, profile, stats)), profile, stats)
        times["normalize"] = times.get("normalize", 0.0) + time.perf_counter() - t0
        return max(r0 - 1, 0), out

    return band_loop(frame, cells, blocks)


def window_scorer(frame: Frame, model: SvmModel, profile: PrecisionProfile) -> ScoreAccumulator:
    """The ScoreAccumulator of the frame's block grid, for block_bands' blocks.

    A frame smaller than one window raises GeometryError, and a model in other
    coefficient or bias formats than the profile's ValueError, so callers
    that build it first check both before any stage runs.
    """
    if frame.width < WINDOW_W or frame.height < WINDOW_H:
        raise GeometryError(f"frame {frame.width}x{frame.height} is smaller than one "
                            f"{WINDOW_W}x{WINDOW_H} window")
    if (model.coeff_fmt, model.bias_fmt) != (profile.svm_coefficient, profile.svm_bias):
        raise ValueError(f"model formats {model.coeff_fmt}, {model.bias_fmt} are not the "
                         f"profile's {profile.svm_coefficient}, {profile.svm_bias}")
    return ScoreAccumulator(model, frame.height // CELL - 1, frame.width // CELL - 1,
                            profile.final_feature)


def run_pipeline(
    frame: Frame,
    model: SvmModel,
    profile: PrecisionProfile = DEFAULT_PROFILE,
    stats: SaturationStats | None = None,
) -> PipelineRun:
    """Gradients -> binning -> cell histograms -> block features -> scores,
    one loop over block_bands into a window_scorer, which checks the frame
    and the model before any stage runs. Saturations are counted into
    ``stats`` if one is given.
    """
    scorer = window_scorer(frame, model, profile)
    times: dict[str, float] = {}   # the band maps add their stages' seconds
    for b0, blocks in block_bands(frame, profile, stats, times):
        t0 = time.perf_counter()
        scorer.add(blocks, b0)
        times["svm"] = times.get("svm", 0.0) + time.perf_counter() - t0
    t0 = time.perf_counter()
    score_map = scorer.scores(stats)
    times["svm"] += time.perf_counter() - t0
    return PipelineRun(score_map=score_map, profile=profile, stage_seconds=times)


def detect_frame(
    frame: Frame,
    model: SvmModel,
    threshold: float = 0.0,
    profile: PrecisionProfile = DEFAULT_PROFILE,
    stats: SaturationStats | None = None,
) -> list[Detection]:
    """All windows scoring strictly above threshold, in raster anchor order."""
    run = run_pipeline(frame, model, profile, stats)
    return detections_from_scores(run.score_map, threshold)


def detections_from_scores(score_map: ScoreMap, threshold: float = 0.0) -> list[Detection]:
    """Threshold a score map with ``ScoreMap.above`` (strict, quantized; a
    non-finite threshold raises ValueError). The raws above it are gathered
    with one index and divided by the scale in numpy, which equals
    ``int(raw) / scale`` bit for bit (the scale is a power of two); every
    field is a Python int or float."""
    rows, cols = np.nonzero(score_map.above(threshold))
    scores = score_map.scores_raw[rows, cols] / score_map.fmt.scale
    # positional: a keyword call of the frozen dataclass costs a third more
    return [Detection(x, y, WINDOW_W, WINDOW_H, s)
            for x, y, s in zip((cols * CELL).tolist(), (rows * CELL).tolist(), scores.tolist())]


def _box_geometry(boxes: list[Detection]) -> np.ndarray:
    """The (4, n) int64 x, y, w and h of the boxes. A field that is not an
    integer, or whose magnitude reaches COORD_LIMIT, raises ValueError naming
    its box."""
    geo = np.array([[d.x for d in boxes], [d.y for d in boxes], [d.w for d in boxes],
                    [d.h for d in boxes]])
    if geo.dtype.kind not in "iu" or (geo.size and np.abs(geo).max() >= COORD_LIMIT):
        for d in boxes:
            for name in ("x", "y", "w", "h"):
                v = getattr(d, name)
                if not isinstance(v, Integral) or not -COORD_LIMIT < v < COORD_LIMIT:
                    raise ValueError(f"{d!r}: {name} must be an integer of magnitude below "
                                     f"2**26, got {v!r}")
    return geo.astype(np.int64)


def _suppresses(inter: np.ndarray, union: np.ndarray, num: int, den: int) -> np.ndarray:
    """Whether ``inter / union > num / den``, pair by pair, for int64 areas
    below 2**53. Rounding is monotone, so the float64 ratio decides wherever
    it lies more than one ulp from ``float(num / den)``; the exact integer
    test decides within."""
    t = num / den
    ratio = inter / union
    out = ratio > t
    near = np.flatnonzero((ratio >= np.nextafter(t, -1.0)) & (ratio <= np.nextafter(t, 2.0)))
    for k, a, u in zip(near.tolist(), inter[near].tolist(), union[near].tolist()):
        out[k] = a * den > num * u
    return out


def _overlap_runs(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                  h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each box's possible overlaps lie. by_key sorts the boxes by
    bucket row, as high as the highest box, then by x; ``lo`` and ``lens``
    (n, 3) give each box the run of by_key in the rows above, at and below
    its own whose x lies less than the widest box's width left of its own x
    and left of its right edge."""
    # bucket steps of at least 1: a box of zero width or height overlaps nothing
    sx, sy = max(int(w.max()), 1), max(int(h.max()), 1)
    row = y // sy
    key = row * _ROW_KEY + x
    by_key = np.argsort(key, kind="stable")
    # asked in key order, each row's queries ascend, which searchsorted takes fastest
    rows = (row[by_key] + np.array([[-1], [0], [1]])) * _ROW_KEY
    lo, hi = np.empty((2, len(key), 3), np.int64)
    lo[by_key] = np.searchsorted(key[by_key], rows + (x - sx + 1)[by_key]).T
    hi[by_key] = np.searchsorted(key[by_key], rows + (x + w)[by_key]).T
    return by_key, lo, np.maximum(hi - lo, 0)


def nms(detections: list[Detection], iou_threshold: float = 0.5) -> list[Detection]:
    """Greedy non-maximum suppression.

    Candidates are taken in order of descending score, ties broken by raster
    position (smaller y, then smaller x wins); a candidate is kept unless it
    overlaps an already-kept box with IoU strictly above the threshold. The
    result is sorted by descending score (raster order within equal scores).

    With ``Fraction(iou_threshold) = num/den``, a kept box suppresses the
    candidate iff ``inter * den > num * union`` (see _suppresses). Boxes sit
    in bucket rows as high as the largest box, sorted by row, then by x, so
    a box's possible overlaps lie in the rows above, at and below its own,
    less than the largest width to its left. The candidates are taken in
    blocks of NMS_PAIR_BUDGET such pairs in rank order. A block drops each
    pair whose earlier box an earlier block suppressed, tests the rest in one
    pass, lets the earlier blocks' kept boxes suppress at once and resolves
    its own suppressions in rank order. At a threshold of 1 no IoU can exceed
    it, so the sorted candidates are returned without a test.

    ``iou_threshold`` must lie in [0, 1]: NaN or anything outside raises
    ``ValueError``. So does a box whose x, y, w or h is not an integer, or
    has a magnitude of 2**26 or more, past which an area is not exact.
    """
    if not 0 <= iou_threshold <= 1:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold!r}")
    # numpy floats other than float64 are no Fraction input; their float is exact
    thr = iou_threshold if isinstance(iou_threshold, Rational) else float(iou_threshold)
    num, den = Fraction(thr).as_integer_ratio()
    order = sorted(detections, key=lambda d: (-d.score, d.y, d.x))
    x, y, w, h = _box_geometry(order)
    if num == den or not order:
        return order  # no IoU exceeds 1, so nothing is suppressed
    x2, y2, area = x + w, y + h, w * h
    by_key, lo, lens = _overlap_runs(x, y, w, h)
    ends = np.concatenate(([0], np.cumsum(lens.sum(1))))
    keep = np.ones(len(order), bool)
    j0 = 0
    while j0 < len(order):
        # candidates j0 .. j1 - 1: at most NMS_PAIR_BUDGET pairs, or one candidate
        j1 = max(int(np.searchsorted(ends, ends[j0] + NMS_PAIR_BUDGET, "right")) - 1, j0 + 1)
        starts, counts = lo[j0:j1].ravel(), lens[j0:j1].ravel()
        i = by_key[np.arange(ends[j1] - ends[j0])
                   + np.repeat(starts - (np.cumsum(counts) - counts), counts)]
        j = np.repeat(np.arange(j0, j1), lens[j0:j1].sum(1))
        # an earlier box of this block is still undecided, so kept for now;
        # numpy gathers by index (flatnonzero) faster than by a boolean mask
        k = np.flatnonzero((i < j) & keep[i])
        i, j = i[k], j[k]
        ix = np.minimum(x2[i], x2[j]) - np.maximum(x[i], x[j])
        iy = np.minimum(y2[i], y2[j]) - np.maximum(y[i], y[j])
        k = np.flatnonzero((ix > 0) & (iy > 0))
        i, j, inter = i[k], j[k], ix[k] * iy[k]
        k = np.flatnonzero(_suppresses(inter, area[i] + area[j] - inter, num, den))
        i, j = i[k], j[k]
        keep[j[i < j0]] = False   # suppressed by a box an earlier block kept
        k = np.flatnonzero((i >= j0) & keep[i] & keep[j])
        # j ascends, so each box's fate is settled before it suppresses
        dead: set[int] = set()
        for a, b in zip(i[k].tolist(), j[k].tolist()):
            if a not in dead:
                dead.add(b)
        keep[list(dead)] = False
        j0 = j1
    return [d for d, k in zip(order, keep.tolist()) if k]


def detections_to_text(detections: list[Detection]) -> str:
    """One detection per line: 'x y w h score' (score via repr round-trip)."""
    return "".join(f"{d.x} {d.y} {d.w} {d.h} {d.score!r}\n" for d in detections)
