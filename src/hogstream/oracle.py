"""Exact floating-point reference path and fixed-vs-float comparison.

The oracle recomputes every stage the honest way: Euclidean magnitude,
atan2 orientation in [0, 180), bilinear interpolation between the two
adjacent bin centers (20 degrees apart), exact L2-hys normalization with
epsilon = 1e-6 under the square roots, and exact dot-product scoring. It
shares only layout with the fixed-point path (the bands of
detector.BAND_CELL_ROWS cell rows, the per-pixel table index
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
compare against, and the whole-grid composition of the bands, live in
tests/reference.py.

reference_bands runs the float path over the fixed path's bands; the
trainer reads its blocks as sample features. compare_paths, the one place
that scores windows in float, reads one fixed pass (detector.block_bands)
and the float bands side by side with a quantized model and its float
source, and reports per-stage error statistics plus the classification
disagreement rate, serialized as a flat key-value text block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

# run_pipeline is not called here; it stays bound for perfbench, whose tracer
# reaches it through this module
from .detector import (BAND_CELL_ROWS, PipelineRun, block_bands, run_pipeline,  # noqa: F401
                       window_scorer)
from .fixedpoint import DEFAULT_PROFILE, PrecisionProfile
from .gradient import BIN_STEP_DEG, FIRST_CENTER_DEG, GRADIENT_MAX, N_BINS, gradient_index
from .histogram import CELL, pixel_slots
from .normalize import BLOCK_VALUES, CLIP_THRESHOLD, block_cells
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


def reference_bands(frame: Frame) -> Iterator[tuple]:
    """The float path over detector.block_bands' bands, yielding as it does
    (r0, m, lo, hist, b0, blocks): m the magnitudes and lo the lower bins
    (arbitrary where m is 0) of the band's pixels. A cell grid smaller than
    2x2 raises GeometryError before any stage runs."""
    rows, cols = frame.height // CELL, frame.width // CELL
    block_cells(np.empty((rows, cols, 0)))   # the frame's grid, not a band's, must hold a block
    last = [np.empty((0, cols, N_BINS))]   # the previous band's last cell row
    m_table, lo_table, frac_table = _pixel_table()

    def band(r0: int) -> tuple:
        r1 = min(r0 + BAND_CELL_ROWS, rows)
        idx = gradient_index(frame.pixels, r0 * CELL, r1 * CELL)
        m, lo, frac = np.take(m_table, idx), np.take(lo_table, idx), np.take(frac_table, idx)
        del idx   # one band-sized array fewer while the shares are formed

        # scatter the two shares of each pixel, m * (1 - frac) and m * frac,
        # onto its cell's bins lo and lo + 1 mod 9. Both scatter onto (cell,
        # lo), and the upper sums then move up one bin, as in the fixed path:
        # bincount adds each slot's weights in pixel order, so a sum at lo
        # moved to lo + 1 equals the sum scattered at lo + 1
        w = 1.0 - frac
        w *= m
        frac *= m
        slot = pixel_slots(lo).ravel()
        shape, n = (r1 - r0, cols, N_BINS), (r1 - r0) * cols * N_BINS
        hist = np.bincount(slot, weights=w.ravel(), minlength=n).reshape(shape)
        hist += np.roll(np.bincount(slot, weights=frac.ravel(), minlength=n).reshape(shape), 1,
                        axis=2)

        f4 = block_cells(np.concatenate((last[0], hist)))
        last[0] = hist[-1:]
        sq = (f4 * f4).sum(axis=2)
        f_l2 = f4 / np.sqrt(sq + EPSILON * EPSILON)[:, :, None]
        f_th = np.minimum(f_l2, CLIP_THRESHOLD)
        sq2 = (f_th * f_th).sum(axis=2)
        blocks = f_th / np.sqrt(sq2 + EPSILON * EPSILON)[:, :, None]
        return r0, m, lo, hist, max(r0 - 1, 0), blocks

    return map(band, range(0, rows, BAND_CELL_ROWS))


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
    svm.threshold_raw). One block_bands pass and reference_bands are read
    side by side, band by band, and the fixed scores come from that same
    pass's blocks. A given ``fixed_run`` is checked against them: a score
    that differs, as from another frame or another model, raises ValueError
    naming the first such anchor.
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

    # per ErrorReport stage: the largest, the sum and the count of |fixed - float|
    errs = {"magnitude": [0.0, 0.0, 0], "block_feature": [0.0, 0.0, 0], "score": [0.0, 0.0, 0]}

    def tally(stage: str, err: np.ndarray) -> None:
        t = errs[stage]
        t[:] = max(t[0], float(err.max())), t[1] + float(err.sum()), t[2] + err.size

    scores = anchor_grid(frame.height // CELL - 1, frame.width // CELL - 1, float_bias)

    def band(fixed: tuple, ref: tuple) -> tuple[int, int]:
        """Tally one band of both paths; returns its counts of pixels that
        carry mass and of those whose bin pairs differ."""
        (_, mag, lo, _, b0, blocks), (_, m, ref_lo, _, _, ref_blocks) = fixed, ref
        d = mag / profile.gradient_magnitude.scale
        d -= m
        tally("magnitude", np.abs(d, out=d))
        d = blocks / profile.final_feature.scale
        d -= ref_blocks
        tally("block_feature", np.abs(d, out=d))
        window_sums(block_dots(ref_blocks, wmat), scores, b0)
        scorer.add(blocks, b0)
        # both paths pair lo with lo + 1 mod 9, so the pairs differ exactly
        # where the lower bins do
        carrying = m > 0
        return int(np.count_nonzero(carrying)), int(np.count_nonzero((lo != ref_lo) & carrying))

    # a map, as block_bands is, so no name holds a band while the next one is computed
    counts = list(map(band, block_bands(frame, profile, None, {}), reference_bands(frame)))
    n_carrying, n_differ = (sum(c) for c in zip(*counts))
    score_map = scorer.scores()
    if fixed_run is not None:
        differ = np.argwhere(fixed_run.score_map.scores_raw != score_map.scores_raw)
        if differ.size:
            r, c = differ[0].tolist()
            raise ValueError(f"fixed_run's score at anchor ({r}, {c}) is not this frame's "
                             "under this model")
    tally("score", np.abs(score_map.decode() - scores))

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
