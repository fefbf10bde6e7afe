"""Exact floating-point reference path and fixed-vs-float comparison.

The oracle recomputes every stage the honest way: Euclidean magnitude,
atan2 orientation in [0, 180), bilinear interpolation between the two
adjacent bin centers (20 degrees apart), exact L2-hys normalization with
epsilon = 1e-6 under the square roots, and exact dot-product scoring. It
shares only layout with the fixed-point path (the band loop
detector.band_loop, the per-pixel table index
gradient.gradient_index, the (cell, bin) slots histogram.pixel_slots, the
block layout normalize.block_cells, the dot layout svm.block_dots, the
window sum svm.window_sums) and none of its arithmetic, so differences
between the two measure the hardware approximations and nothing else.

Every per-pixel float (the magnitude, the lower bin and the fraction of the
mass that goes to the upper one) is a function of the pixel's gradient
alone, and over 8-bit pixels both gradients lie in [-255, 255]. So, as the
fixed path does, the oracle gathers them from a table of every gradient,
_pixel_table, built once, chunk by chunk of gx rows, from the numpy
expressions a band would evaluate per pixel: every value is the one those
expressions give. The histogram scatters each pixel's two interpolated
shares onto its cell's bins lo and lo + 1 mod 9, one np.bincount per
share. Per-pixel, per-block and per-window references that only tests
compare against, and a whole-grid run of the two stages, live in
tests/reference.py.

The float path is two stages: a pixel stage (float_cells) and a block
stage (float_blocks). The trainer calls each once on a whole one-window
frame for a sample's features. compare_paths, the one place that scores
windows in float, is the one band loop over them: over detector.band_loop,
its pixel stage, on the band worker, runs the fixed one and then
float_cells on the index that one left. It takes a quantized model
and its float source, and reports per-stage error statistics plus the
classification disagreement rate, serialized as a flat key-value text block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

# run_pipeline is not called here; it stays bound for perfbench, whose tracer
# reaches it through this module
from .detector import (PipelineRun, band_loop, cell_stages, run_pipeline,  # noqa: F401
                       window_scorer)
from .fixedpoint import DEFAULT_PROFILE, PrecisionProfile
from .gradient import BIN_STEP_DEG, FIRST_CENTER_DEG, GRADIENT_MAX, N_BINS
from .histogram import CELL, pixel_slots
from .normalize import BLOCK_VALUES, CLIP_THRESHOLD, block_cells, block_features, cell_energy_grid
from .stream import Frame, GeometryError
from .svm import (WINDOW_BLOCK_COLS, WINDOW_BLOCK_ROWS, WINDOW_FEATURES, SvmModel, anchor_grid,
                  block_dots, threshold_raw, window_sums)

EPSILON = 1e-6


def _interp_weights(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower bin of the pair around theta, and the fraction of mass going to
    the upper bin (lo + 1) % N_BINS."""
    u = (theta - FIRST_CENTER_DEG) / BIN_STEP_DEG
    k = np.floor(u)
    return k.astype(np.int64) % N_BINS, u - k


def _float_model(weights: np.ndarray, bias: float) -> np.ndarray:
    """The (105, 36) coefficient rows block_dots takes; weights that are not
    3780 finite values or a bias that is not finite raise ValueError."""
    weights = np.asarray(weights, dtype=np.float64)
    if not (weights.size == WINDOW_FEATURES and np.isfinite(weights).all()
            and np.isfinite(bias)):
        raise ValueError(f"a float model needs {WINDOW_FEATURES} finite weights "
                         "and a finite bias")
    return weights.reshape(-1, BLOCK_VALUES)


# gx rows of the float table evaluated at a time: each float64 temporary of a
# chunk takes 0.26 MB, of the whole grid 2.1 MB, and the build makes about ten
_TABLE_CHUNK = 64


@functools.cache
def _pixel_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float path's per-pixel values at every gradient: the magnitude
    np.hypot (float64), the lower bin lo (uint8) and the fraction frac
    (float64) of the mass that goes to bin lo + 1 mod 9.

    Flat arrays indexed as gradient._pixel_table's (gradient.gradient_index),
    each entry the numpy expression evaluated on int32 gradients, as the
    per-pixel references of the tests evaluate it on a band, so gathering
    from it changes no value. The chunks are materialized int32 grids, so
    each ufunc runs the kernel it runs on such a band. Shared through the
    cache, so read-only.
    """
    g = GRADIENT_MAX
    n = 2 * g + 1
    m, frac = np.empty((n, n)), np.empty((n, n))
    lo = np.empty((n, n), dtype=np.uint8)
    for x0 in range(0, n, _TABLE_CHUNK):
        x1 = min(x0 + _TABLE_CHUNK, n)
        gx, gy = np.meshgrid(np.arange(x0 - g, x1 - g, dtype=np.int32),
                             np.arange(-g, g + 1, dtype=np.int32), indexing="ij")
        m[x0:x1] = np.hypot(gx, gy)
        lo[x0:x1], frac[x0:x1] = _interp_weights(np.degrees(np.arctan2(gy, gx)) % 180.0)
    for t in (m, lo, frac):
        t.flags.writeable = False
    return m.ravel(), lo.ravel(), frac.ravel()


def float_cells(idx: np.ndarray) -> tuple:
    """The float path's pixel stage at gradient_index's indices ``idx``: the
    magnitudes m and the lower bins lo (arbitrary where m is 0) of the
    pixels, and the histograms of their cells. The slots overwrite idx once
    the gathers have read it."""
    m_table, lo_table, frac_table = _pixel_table()
    m, lo, frac = np.take(m_table, idx), np.take(lo_table, idx), np.take(frac_table, idx)

    # scatter the two shares of each pixel, m * (1 - frac) and m * frac, onto
    # its cell's bins lo and lo + 1 mod 9. Both scatter onto (cell, lo), and
    # the upper sums then move up one bin, as in the fixed path: bincount
    # adds each slot's weights in pixel order, so a sum at lo moved to lo + 1
    # equals the sum scattered at lo + 1
    w = 1.0 - frac
    w *= m
    frac *= m
    slot = pixel_slots(lo, idx).ravel()
    shape = (idx.shape[0] // CELL, idx.shape[1] // CELL, N_BINS)
    n = shape[0] * shape[1] * N_BINS
    hist = np.bincount(slot, weights=w.ravel(), minlength=n).reshape(shape)
    hist += np.roll(np.bincount(slot, weights=frac.ravel(), minlength=n).reshape(shape), 1,
                    axis=2)
    return m, lo, hist


def float_blocks(hist: np.ndarray) -> np.ndarray:
    """The float path's block stage: exact L2-hys blocks of whole rows of cells."""
    f4 = block_cells(hist)
    sq = (f4 * f4).sum(axis=2)
    f_l2 = f4 / np.sqrt(sq + EPSILON * EPSILON)[:, :, None]
    f_th = np.minimum(f_l2, CLIP_THRESHOLD)
    sq2 = (f_th * f_th).sum(axis=2)
    return f_th / np.sqrt(sq2 + EPSILON * EPSILON)[:, :, None]


def _abs_err(raws: np.ndarray, scale: float, ref: np.ndarray) -> tuple[float, float, int]:
    """The largest, the sum and the count of |raws / scale - ref|."""
    d = raws / scale
    d -= ref
    np.abs(d, out=d)
    return float(d.max()), float(d.sum()), d.size


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
    are excluded from the bin-pair rate (their pair carries no mass).

    Every input is checked before any stage runs: the float model, a given
    ``fixed_run`` (run under ``profile``, else ValueError; on a frame of this
    shape, else GeometryError), the frame and the model (see
    detector.window_scorer), and the threshold (finite, see
    svm.threshold_raw). One band loop runs both paths: its pixel stage runs
    the fixed one, then, on the same thread, float_cells on the gradient
    index that one left in its scratch, and the fixed scores come from its
    blocks. A given ``fixed_run`` whose scores differ, as from another frame
    or model, raises ValueError naming the first such anchor.
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
    scorer = window_scorer(frame, model, profile)
    thr = threshold_raw(threshold, profile.svm_bias)   # the format of either score map
    scores = anchor_grid(frame.height // CELL - 1, frame.width // CELL - 1, float_bias)
    fixed_cells, (idx, mag, lo) = cell_stages(frame, profile, None, {})

    def cells(r0: int, h: int) -> tuple:
        """Both paths' pixel stages from the band's one index, and its
        per-pixel tallies, so no per-pixel array reaches the caller."""
        _, hist = fixed_cells(r0, h)
        m, ref_lo, ref_hist = float_cells(idx[:h])
        # both paths pair lo with lo + 1 mod 9, so the pairs differ exactly
        # where the lower bins do
        carrying = m > 0
        return (r0, hist, ref_hist, _abs_err(mag[:h], profile.gradient_magnitude.scale, m),
                int(np.count_nonzero(carrying)),
                int(np.count_nonzero((lo[:h] != ref_lo) & carrying)))

    def blocks(band: tuple, carried: Callable) -> tuple:
        """Score one band of both paths; returns its magnitude and block
        errors, and its counts of pixels with mass and with other pairs."""
        r0, hist, ref_hist, magnitude_err, n_carrying, n_differ = band
        hist, energy, ref_hist = carried(hist, cell_energy_grid(hist, profile, None), ref_hist)
        fixed, ref = block_features(hist, energy, profile, None), float_blocks(ref_hist)
        b0 = max(r0 - 1, 0)
        window_sums(block_dots(ref, wmat), scores, b0)
        scorer.add(fixed, b0)
        return (magnitude_err, _abs_err(fixed, profile.final_feature.scale, ref), n_carrying,
                n_differ)

    magnitude, block_feature, n_carrying, n_differ = zip(*band_loop(frame, cells, blocks))
    score_map = scorer.scores()
    if fixed_run is not None:
        differ = np.argwhere(fixed_run.score_map.scores_raw != score_map.scores_raw)
        if differ.size:
            r, c = differ[0].tolist()
            raise ValueError(f"fixed_run's score at anchor ({r}, {c}) is not this frame's "
                             "under this model")
    score = [_abs_err(score_map.scores_raw, score_map.fmt.scale, scores)]
    # per ErrorReport stage: the largest, the sum and the count of |fixed - float|
    errs = {stage: (max(e[0] for e in es), sum(e[1] for e in es), sum(e[2] for e in es))
            for stage, es in (("magnitude", magnitude), ("block_feature", block_feature),
                              ("score", score))}
    n_carrying, n_differ = sum(n_carrying), sum(n_differ)
    disagree = int(((score_map.scores_raw > thr) != (scores > threshold)).sum())
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
