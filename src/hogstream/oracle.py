"""Exact floating-point reference path and fixed-vs-float comparison.

The oracle recomputes every stage the honest way: Euclidean magnitude,
atan2 orientation in [0, 180), bilinear interpolation between the two
adjacent bin centers (20 degrees apart), exact L2-hys normalization with
epsilon = 1e-6 under the square roots, and exact dot-product scoring. It
shares only layout with the fixed-point path (the bands of
detector.BAND_CELL_ROWS cell rows, the block layout normalize.block_cells,
the dot layout svm.block_dots, the window sum svm.window_sums) and none of
its arithmetic, so differences between the two measure the hardware
approximations and nothing else. The histogram scatters each pixel's two
interpolated shares onto its cell's bins lo and lo + 1 mod 9, one
np.bincount per share. Per-pixel, per-block and per-window references that
only tests compare against live in tests/reference.py.

reference_bands runs the float path over the fixed path's bands, and
reference_run composes them into whole grids. compare_paths reads both band
maps side by side with a quantized model and its float source, and reports
per-stage error statistics plus the classification disagreement rate,
serialized as a flat key-value text block.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .detector import BAND_CELL_ROWS, PipelineRun, block_bands, run_pipeline
from .fixedpoint import DEFAULT_PROFILE, PrecisionProfile
from .gradient import N_BINS, BIN_STEP_DEG, FIRST_CENTER_DEG, gradient_field
from .histogram import CELL
from .normalize import BLOCK_VALUES, CLIP_THRESHOLD, block_cells
from .stream import Frame, GeometryError
from .svm import (WINDOW_BLOCK_COLS, WINDOW_BLOCK_ROWS, WINDOW_FEATURES, SvmModel, anchor_grid,
                  block_dots, window_sums)

EPSILON = 1e-6


def _interp_weights(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower bin of the pair around theta, and the fraction of mass going to
    the upper bin (lo + 1) % N_BINS."""
    u = (theta - FIRST_CENTER_DEG) / BIN_STEP_DEG
    k = np.floor(u)
    return k.astype(np.int64) % N_BINS, u - k


@dataclass
class ReferenceRun:
    """The float path's cell histograms and block features of one frame, and
    its window scores if a float model was given (else an empty array)."""

    hist_grid: np.ndarray
    block_grid: np.ndarray
    scores: np.ndarray


def _float_model(weights: np.ndarray, bias: float) -> np.ndarray:
    """The (105, 36) coefficient rows block_dots takes; weights that are not
    3780 finite values or a bias that is not finite raise ValueError."""
    weights = np.asarray(weights, dtype=np.float64)
    if not (weights.size == WINDOW_FEATURES and np.isfinite(weights).all()
            and np.isfinite(bias)):
        raise ValueError(f"a float model needs {WINDOW_FEATURES} finite weights "
                         "and a finite bias")
    return weights.reshape(-1, BLOCK_VALUES)


def reference_bands(frame: Frame) -> Iterator[tuple]:
    """The float path over detector.block_bands' bands, yielding as it does
    (r0, m, lo, hist, b0, blocks): m the magnitudes and lo the lower bins
    (arbitrary where m is 0) of the band's pixels. A cell grid smaller than
    2x2 raises GeometryError before any stage runs."""
    rows, cols = frame.height // CELL, frame.width // CELL
    block_cells(np.empty((rows, cols, 0)))   # the frame's grid, not a band's, must hold a block
    last = [np.empty((0, cols, N_BINS))]   # the previous band's last cell row

    def band(r0: int) -> tuple:
        r1 = min(r0 + BAND_CELL_ROWS, rows)
        gx, gy = gradient_field(frame.pixels, r0 * CELL, r1 * CELL)
        m = np.hypot(gx, gy)
        lo, frac = _interp_weights(np.degrees(np.arctan2(gy, gx)) % 180.0)

        # scatter the two shares of each pixel onto its cell's bins lo and lo + 1
        cell = (np.arange((r1 - r0) * CELL)[:, None] // CELL * cols
                + np.arange(frame.width) // CELL) * N_BINS
        n = (r1 - r0) * cols * N_BINS
        hist = (np.bincount((cell + lo).ravel(), weights=(m * (1.0 - frac)).ravel(), minlength=n)
                + np.bincount((cell + (lo + 1) % N_BINS).ravel(), weights=(m * frac).ravel(),
                              minlength=n)).reshape(r1 - r0, cols, N_BINS)

        f4 = block_cells(np.concatenate((last[0], hist)))
        last[0] = hist[-1:]
        sq = (f4 * f4).sum(axis=2)
        f_l2 = f4 / np.sqrt(sq + EPSILON * EPSILON)[:, :, None]
        f_th = np.minimum(f_l2, CLIP_THRESHOLD)
        sq2 = (f_th * f_th).sum(axis=2)
        blocks = f_th / np.sqrt(sq2 + EPSILON * EPSILON)[:, :, None]
        return r0, m, lo, hist, max(r0 - 1, 0), blocks

    return map(band, range(0, rows, BAND_CELL_ROWS))


def reference_run(frame: Frame, weights: np.ndarray | None = None,
                  bias: float = 0.0) -> ReferenceRun:
    """reference_bands composed into whole grids. A cell grid smaller than
    2x2 raises GeometryError; scores are computed only if weights are given:
    then a float model _float_model rejects raises ValueError before any
    stage runs, and a frame smaller than one window raises GeometryError."""
    wmat = None if weights is None else _float_model(weights, bias)
    bands = [band[3:] for band in reference_bands(frame)]   # (hist, b0, blocks): no pixels
    scores = np.zeros((0, 0), dtype=np.float64)
    if wmat is not None:
        scores = anchor_grid(frame.height // CELL - 1, frame.width // CELL - 1, bias)
        for _, b0, blocks in bands:
            window_sums(block_dots(blocks, wmat), scores, b0)
    hists, _, blocks = zip(*bands)
    return ReferenceRun(np.concatenate(hists), np.concatenate(blocks), scores)


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
        """One 'name value' line per field, each value its repr (exact for floats)."""
        return "".join(f"{f.name} {getattr(self, f.name)!r}\n" for f in fields(self))


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
    GeometryError); it and the float model are checked before any stage.
    The scores come from ``fixed_run`` or run_pipeline, every other value
    from block_bands and reference_bands, read side by side band by band.
    """
    wmat = _float_model(float_weights, float_bias)
    if fixed_run is not None and fixed_run.profile != profile:
        raise ValueError("fixed_run ran under another profile than the one given")
    if fixed_run is not None:
        ar, ac = fixed_run.score_map.scores_raw.shape
        w, h = (ac + WINDOW_BLOCK_COLS) * CELL, (ar + WINDOW_BLOCK_ROWS) * CELL
        if (w, h) != (frame.width, frame.height):
            raise GeometryError(f"fixed_run ran on a {w}x{h} frame, not "
                                f"{frame.width}x{frame.height}")
    fixed = fixed_run if fixed_run is not None else run_pipeline(frame, model, profile)
    fixed_pos = fixed.score_map.above(threshold)

    # per ErrorReport stage: the largest, the sum and the count of |fixed - float|
    errs = {"magnitude": [0.0, 0.0, 0], "block_feature": [0.0, 0.0, 0], "score": [0.0, 0.0, 0]}

    def tally(stage: str, err: np.ndarray) -> None:
        t = errs[stage]
        t[:] = max(t[0], float(err.max())), t[1] + float(err.sum()), t[2] + err.size

    scores = anchor_grid(frame.height // CELL - 1, frame.width // CELL - 1, float_bias)
    n_carrying = n_differ = 0
    for (_, mag, lo, _, b0, blocks), (_, m, ref_lo, _, _, ref_blocks) in zip(
            block_bands(frame, profile, None, {}), reference_bands(frame)):
        tally("magnitude", np.abs(mag / profile.gradient_magnitude.scale - m))
        tally("block_feature", np.abs(blocks / profile.final_feature.scale - ref_blocks))
        # both paths pair lo with lo + 1 mod 9, so the pairs differ exactly
        # where the lower bins do
        carrying = m > 0
        n_carrying += int(carrying.sum())
        n_differ += int(((lo != ref_lo) & carrying).sum())
        window_sums(block_dots(ref_blocks, wmat), scores, b0)
    tally("score", np.abs(fixed.score_map.decode() - scores))

    disagree = int((fixed_pos != (scores > threshold)).sum())
    return ErrorReport(
        pixels=errs["magnitude"][2],
        blocks=errs["block_feature"][2] // BLOCK_VALUES,
        anchors=scores.size,
        bin_pair_disagreement_rate=n_differ / n_carrying if n_carrying else 0.0,
        classification_disagreements=disagree,
        classification_disagreement_rate=disagree / scores.size,
        **{f"{stage}_{k}_abs_err": v for stage, (top, total, n) in errs.items()
           for k, v in (("max", top), ("mean", total / n))},
    )
