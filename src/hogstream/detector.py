"""Frame-level orchestration: fixed-point pipeline, thresholding, greedy NMS.

detect_frame runs the whole fixed-point path on one frame and returns every
window whose score strictly exceeds the threshold, in raster anchor order.
run_pipeline rejects a frame smaller than one svm.WINDOW_W x WINDOW_H window.
The heavy math runs whole-frame vectorized, so no pixels-per-clock setting
applies. The packet-level stream ops produce bit-identical values at every
ppc (the tests assert the equivalence): every per-pixel op is pointwise and
histogram accumulation is exact integer addition, hence order-free.

NMS is greedy: repeatedly keep the highest-scoring remaining box (ties broken
by raster order) and discard everything overlapping it beyond the IoU
threshold. Box geometry is integral, so each IoU test is an exact integer
cross-multiplication against the threshold's rational value. Kept boxes sit in
a grid of buckets as large as the largest box, so a candidate is tested only
against the kept boxes in the buckets it could overlap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

import numpy as np

from .fixedpoint import DEFAULT_PROFILE, PrecisionProfile, SaturationStats
from .gradient import binned_field, gradient_field
from .histogram import cell_histogram_grid
from .normalize import block_feature_grid
from .stream import CELL, Frame, GeometryError
from .svm import WINDOW_H, WINDOW_W, ScoreMap, SvmModel, score_grid


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
    """Everything the fixed-point path produced for one frame."""

    mag_raw: np.ndarray
    bin_lo: np.ndarray
    hist_grid: np.ndarray
    block_grid: np.ndarray
    score_map: ScoreMap
    stats: SaturationStats
    stage_seconds: dict[str, float] = field(default_factory=dict)


def run_pipeline(
    frame: Frame,
    model: SvmModel,
    profile: PrecisionProfile = DEFAULT_PROFILE,
    stats: SaturationStats | None = None,
) -> PipelineRun:
    """Gradients -> binning -> cell histograms -> block features -> scores.

    A frame smaller than one window raises GeometryError before any stage runs.
    """
    if frame.width < WINDOW_W or frame.height < WINDOW_H:
        raise GeometryError(
            f"frame {frame.width}x{frame.height} is smaller than one "
            f"{WINDOW_W}x{WINDOW_H} window"
        )
    stats = stats if stats is not None else SaturationStats()
    times: dict[str, float] = {}

    t0 = time.perf_counter()
    gx, gy = gradient_field(frame.pixels)
    mag, lo = binned_field(gx, gy, profile.gradient_magnitude, stats)
    t1 = time.perf_counter()
    times["gradient"] = t1 - t0

    hist = cell_histogram_grid(mag, lo, profile.histogram_value, stats)
    t2 = time.perf_counter()
    times["histogram"] = t2 - t1

    blocks = block_feature_grid(hist, profile, stats)
    t3 = time.perf_counter()
    times["normalize"] = t3 - t2

    score_map = score_grid(blocks, model, stats, profile.final_feature)
    t4 = time.perf_counter()
    times["svm"] = t4 - t3

    return PipelineRun(
        mag_raw=mag,
        bin_lo=lo,
        hist_grid=hist,
        block_grid=blocks,
        score_map=score_map,
        stats=stats,
        stage_seconds=times,
    )


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
    non-finite threshold raises ValueError)."""
    scale = score_map.fmt.scale
    out: list[Detection] = []
    rows, cols = np.nonzero(score_map.above(threshold))
    for r, c in zip(rows.tolist(), cols.tolist()):
        out.append(
            Detection(
                x=c * CELL,
                y=r * CELL,
                w=WINDOW_W,
                h=WINDOW_H,
                score=int(score_map.scores_raw[r, c]) / scale,
            )
        )
    return out


def _inter_union(a: Detection, b: Detection) -> tuple[int, int]:
    """Integer intersection and union areas of two boxes; (0, 0) if disjoint."""
    # conditional expressions instead of min/max: this is the inner loop of nms
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    ax2, ay2, bx2, by2 = ax + a.w, ay + a.h, bx + b.w, by + b.h
    ix = (ax2 if ax2 < bx2 else bx2) - (ax if ax > bx else bx)
    iy = (ay2 if ay2 < by2 else by2) - (ay if ay > by else by)
    if ix <= 0 or iy <= 0:
        return 0, 0
    inter = ix * iy
    return inter, a.w * a.h + b.w * b.h - inter


def nms(detections: list[Detection], iou_threshold: float = 0.5) -> list[Detection]:
    """Greedy non-maximum suppression.

    Candidates are taken in order of descending score, ties broken by raster
    position (smaller y, then smaller x wins); a candidate is kept unless it
    overlaps an already-kept box with IoU strictly above the threshold. The
    result is sorted by descending score (raster order within equal scores).

    With ``Fraction(iou_threshold) = num/den``, a kept box suppresses the
    candidate iff ``inter * den > num * union``, in integers. Each kept box
    sits in the grid bucket of its top-left corner; the grid steps are the
    largest width and height in the input, so only the buckets from one step
    before the candidate's top-left corner to the one holding its far corner
    can hold a box that overlaps it. At a threshold of 1 no IoU can exceed it,
    so the sorted candidates are returned without a test. ``iou_threshold``
    must lie in [0, 1]: NaN or anything outside raises ``ValueError``.
    """
    if not 0 <= iou_threshold <= 1:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold!r}")
    # numpy floats other than float64 are no Fraction input; their float is exact
    thr = iou_threshold if isinstance(iou_threshold, Rational) else float(iou_threshold)
    num, den = Fraction(thr).as_integer_ratio()
    order = sorted(detections, key=lambda d: (-d.score, d.y, d.x))
    if num == den:
        return order  # no IoU exceeds 1, so nothing is suppressed
    # bucket steps of at least 1: a box of zero width or height overlaps nothing
    sx = max([d.w for d in order] + [1])
    sy = max([d.h for d in order] + [1])
    buckets: dict[tuple[int, int], list[Detection]] = {}
    kept: list[Detection] = []
    for cand in order:
        cols = range(cand.x // sx - 1, (cand.x + cand.w - 1) // sx + 1)
        rows = range(cand.y // sy - 1, (cand.y + cand.h - 1) // sy + 1)
        near = (k for c in cols for r in rows for k in buckets.get((c, r), ()))
        if not any(inter * den > num * union
                   for inter, union in (_inter_union(cand, k) for k in near)):
            kept.append(cand)
            buckets.setdefault((cand.x // sx, cand.y // sy), []).append(cand)
    return kept


def detections_to_text(detections: list[Detection]) -> str:
    """One detection per line: 'x y w h score' (score via repr round-trip)."""
    return "".join(f"{d.x} {d.y} {d.w} {d.h} {d.score!r}\n" for d in detections)
