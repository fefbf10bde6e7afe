"""Exact floating-point reference path and fixed-vs-float comparison.

The oracle recomputes every stage the honest way: Euclidean magnitude,
atan2 orientation in [0, 180), bilinear interpolation between the two
adjacent bin centers (20 degrees apart), exact L2-hys normalization with
epsilon = 1e-6 under the square roots, and exact dot-product scoring. It
shares only layout with the fixed-point path (the block layout
normalize.block_cells, the dot layout svm.block_dots, the window sum
svm.window_sums) and none of its arithmetic, so differences between the two
measure the hardware approximations and nothing else. The
histogram scatters each pixel's two interpolated shares onto its cell's
bins lo and lo + 1 mod 9, one np.bincount per share. Per-pixel, per-block
and per-window references that only tests compare against live in
tests/reference.py.

compare_paths runs both paths on one frame with a quantized model and its
float source, and reports per-stage error statistics plus the classification
disagreement rate, serialized as a flat key-value text block.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .detector import PipelineRun, run_pipeline
from .fixedpoint import DEFAULT_PROFILE, PrecisionProfile
from .gradient import N_BINS, BIN_STEP_DEG, FIRST_CENTER_DEG, gradient_field
from .histogram import CELL
from .normalize import BLOCK_VALUES, CLIP_THRESHOLD, block_cells
from .stream import Frame, GeometryError
from .svm import WINDOW_FEATURES, SvmModel, anchor_grid, block_dots, window_sums

EPSILON = 1e-6


def _interp_weights(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower bin of the pair around theta, and the fraction of mass going to
    the upper bin (lo + 1) % N_BINS."""
    u = (theta - FIRST_CENTER_DEG) / BIN_STEP_DEG
    k = np.floor(u)
    return k.astype(np.int64) % N_BINS, u - k


@dataclass
class ReferenceRun:
    """Everything the float path produced for one frame."""

    magnitude: np.ndarray
    bin_lo: np.ndarray
    hist_grid: np.ndarray
    block_grid: np.ndarray
    scores: np.ndarray


def reference_run(frame: Frame, weights: np.ndarray | None = None,
                  bias: float = 0.0) -> ReferenceRun:
    """Whole-frame float path. A cell grid smaller than 2x2 raises
    GeometryError (see block_cells); scores are computed only if weights are
    given: then weights that are not 3780 finite values or a bias that is
    not finite raise ValueError before any stage runs, and a frame smaller
    than one window raises GeometryError."""
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if not (weights.size == WINDOW_FEATURES and np.isfinite(weights).all()
                and np.isfinite(bias)):
            raise ValueError(f"a float model needs {WINDOW_FEATURES} finite weights "
                             "and a finite bias")
    gx, gy = gradient_field(frame.pixels)
    m = np.hypot(gx, gy)
    theta = np.degrees(np.arctan2(gy, gx)) % 180.0
    lo, frac = _interp_weights(theta)
    # a zero gradient carries no mass; give it the fixed path's pair (0, 1)
    lo = np.where((gx == 0) & (gy == 0), 0, lo)

    # scatter the two shares of each pixel onto its cell's bins lo and lo + 1
    rows, cols = frame.height // CELL, frame.width // CELL
    cell = (np.arange(frame.height)[:, None] // CELL * cols
            + np.arange(frame.width) // CELL) * N_BINS
    n = rows * cols * N_BINS
    grid = (np.bincount((cell + lo).ravel(), weights=(m * (1.0 - frac)).ravel(), minlength=n)
            + np.bincount((cell + (lo + 1) % N_BINS).ravel(), weights=(m * frac).ravel(),
                          minlength=n)).reshape(rows, cols, N_BINS)

    f4 = block_cells(grid)
    sq = (f4 * f4).sum(axis=2)
    f_l2 = f4 / np.sqrt(sq + EPSILON * EPSILON)[:, :, None]
    f_th = np.minimum(f_l2, CLIP_THRESHOLD)
    sq2 = (f_th * f_th).sum(axis=2)
    blocks = f_th / np.sqrt(sq2 + EPSILON * EPSILON)[:, :, None]

    scores = np.zeros((0, 0), dtype=np.float64)
    if weights is not None:
        scores = window_sums(block_dots(blocks, weights.reshape(-1, BLOCK_VALUES)),
                             anchor_grid(*blocks.shape[:2], bias))
    return ReferenceRun(
        magnitude=m,
        bin_lo=lo.astype(np.uint8),
        hist_grid=grid,
        block_grid=blocks,
        scores=scores,
    )


@dataclass
class ErrorReport:
    """Per-stage error statistics of the fixed path against the oracle."""

    pixels: int
    blocks: int
    anchors: int
    magnitude_max_abs_err: float
    magnitude_mean_abs_err: float
    bin_pair_disagreement_rate: float
    block_feature_max_abs_err: float
    block_feature_mean_abs_err: float
    score_max_abs_err: float
    score_mean_abs_err: float
    classification_disagreements: int
    classification_disagreement_rate: float

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            lines.append(f"{f.name} {v!r}" if isinstance(v, float) else f"{f.name} {v}")
        return "\n".join(lines) + "\n"


def compare_paths(
    frame: Frame,
    model: SvmModel,
    float_weights: np.ndarray,
    float_bias: float,
    threshold: float = 0.0,
    profile: PrecisionProfile = DEFAULT_PROFILE,
    fixed_run: PipelineRun | None = None,
) -> ErrorReport:
    """Run both paths on one frame and measure every approximation.

    The quantized model should come from the given float source so the score
    gap reflects the datapath plus weight quantization. Zero-magnitude pixels
    are excluded from the bin-pair rate (their pair carries no mass). The
    frame must hold at least one window (see run_pipeline) and the threshold
    must be finite (see ScoreMap.above). A given ``fixed_run`` must have run
    under ``profile`` (else ValueError), on a frame of this shape (else
    GeometryError).
    """
    if fixed_run is not None and fixed_run.profile != profile:
        raise ValueError("fixed_run ran under another profile than the one given")
    if fixed_run is not None and fixed_run.mag_raw.shape != frame.pixels.shape:
        h, w = fixed_run.mag_raw.shape
        raise GeometryError(f"fixed_run ran on a {w}x{h} frame, not {frame.width}x{frame.height}")
    fixed = fixed_run if fixed_run is not None else run_pipeline(frame, model, profile)
    fixed_pos = fixed.score_map.above(threshold)
    ref = reference_run(frame, float_weights, float_bias)

    mag_fixed = fixed.mag_raw / fixed.profile.gradient_magnitude.scale
    mag_err = np.abs(mag_fixed - ref.magnitude)

    # both paths pair bin_lo with bin_lo + 1 mod 9, so the pairs differ
    # exactly where the lower bins do
    carrying = ref.magnitude > 0
    pair_diff = (fixed.bin_lo != ref.bin_lo) & carrying
    n_carrying = int(carrying.sum())
    pair_rate = float(pair_diff.sum() / n_carrying) if n_carrying else 0.0

    blk_fixed = fixed.block_grid / fixed.profile.final_feature.scale
    blk_err = np.abs(blk_fixed - ref.block_grid)

    score_fixed = fixed.score_map.decode()
    score_err = np.abs(score_fixed - ref.scores)

    ref_pos = ref.scores > threshold
    disagree = int((fixed_pos != ref_pos).sum())
    n_anchors = int(ref.scores.size)

    return ErrorReport(
        pixels=int(ref.magnitude.size),
        blocks=int(ref.block_grid.shape[0] * ref.block_grid.shape[1]),
        anchors=n_anchors,
        magnitude_max_abs_err=float(mag_err.max()),
        magnitude_mean_abs_err=float(mag_err.mean()),
        bin_pair_disagreement_rate=pair_rate,
        block_feature_max_abs_err=float(blk_err.max()),
        block_feature_mean_abs_err=float(blk_err.mean()),
        score_max_abs_err=float(score_err.max()),
        score_mean_abs_err=float(score_err.mean()),
        classification_disagreements=disagree,
        classification_disagreement_rate=float(disagree / n_anchors),
    )
