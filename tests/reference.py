"""Reference implementations that only the tests compare against.

Per-pixel and per-window float references for the oracle's whole-frame path,
the oracle's two stages run once on a whole frame and scored (reference_run),
the saturated scalar magnitude, the scalar requantization, the int32
central-difference gradients and their table index (the reference for
gradient_index, and the way tests index synthetic gradient grids),
whole-grid window scoring through one ScoreAccumulator, exact IoU, the
bucketed greedy NMS loop (the reference for detector.nms), the packet-stream
decoder, and for fixtures a PGM writer and the frame heights at the array
path's band edges. None of them runs in the detector, so they
live beside the tests, not in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from pathlib import Path
from typing import Iterable

import numpy as np

from hogstream.detector import BAND_CELL_ROWS, Detection
from hogstream.fixedpoint import (DEFAULT_PROFILE, MAGNITUDE, FxFormat, SaturationStats,
                                  saturate_raw)
from hogstream.gradient import (BIN_STEP_DEG, FIRST_CENTER_DEG, GRADIENT_MAX, N_BINS,
                                gradient_index, magnitude_approx_raw)
from hogstream.normalize import BLOCK_VALUES, CLIP_THRESHOLD
from hogstream.oracle import EPSILON, float_blocks, float_cells, _float_model
from hogstream.stream import (CELL, VALID_PPC, Frame, GeometryError, StreamPacket,
                              StreamProtocolError)
from hogstream.svm import WINDOW_H

# frame heights in cell rows at the edges of detector.BAND_CELL_ROWS: the
# fewest whole bands that hold a window, one row more, and a band more plus
# one and plus three rows (16, 17, 25 and 27 at bands of 8 cell rows)
_WHOLE_BANDS = -(-WINDOW_H // CELL // BAND_CELL_ROWS) * BAND_CELL_ROWS
BAND_EDGE_CELL_ROWS = (_WHOLE_BANDS, _WHOLE_BANDS + 1, _WHOLE_BANDS + BAND_CELL_ROWS + 1,
                       _WHOLE_BANDS + BAND_CELL_ROWS + 3)
from hogstream.svm import (WINDOW_FEATURES, ScoreAccumulator, ScoreMap, SvmModel, anchor_grid,
                           block_dots, window_sums)


@dataclass(frozen=True)
class OracleGradient:
    gx: int
    gy: int
    magnitude: float
    theta_deg: float


def oracle_gradient(frame: Frame, x: int, y: int) -> OracleGradient:
    """Exact gradient at one pixel: hypot magnitude, atan2 angle in [0, 180)."""
    px = frame.pixels.astype(np.int32)
    h, w = frame.height, frame.width
    if not (0 <= x < w and 0 <= y < h):
        raise GeometryError(f"pixel ({x},{y}) outside {w}x{h} frame")
    xl, xr = max(x - 1, 0), min(x + 1, w - 1)
    yt, yb = max(y - 1, 0), min(y + 1, h - 1)
    gx = int(px[y, xr]) - int(px[y, xl])
    gy = int(px[yb, x]) - int(px[yt, x])
    m = math.hypot(gx, gy)
    theta = math.degrees(math.atan2(gy, gx)) % 180.0 if (gx or gy) else 0.0
    return OracleGradient(gx=gx, gy=gy, magnitude=m, theta_deg=theta)


def magnitude_approx(
    gx: int,
    gy: int,
    fmt: FxFormat = DEFAULT_PROFILE.gradient_magnitude,
    stats: SaturationStats | None = None,
) -> int:
    """Shift-add magnitude raw, saturated into the magnitude format by the
    scalar saturate_raw: what binned_stream emits for one pixel."""
    return saturate_raw(magnitude_approx_raw(gx, gy), fmt, stats, MAGNITUDE)


def gradient_field(pixels: np.ndarray, y0: int = 0,
                   y1: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients (int32) of pixel rows y0..y1 of a frame.

    The rows default to the whole frame. A band of rows reads a one-row halo
    above and below it from the frame; edge pixels are replicated only at
    the frame's own borders, so any split into bands gives the same values.
    """
    h = pixels.shape[0]
    y1 = h if y1 is None else y1
    halo = (int(y0 == 0), int(y1 == h))   # rows the frame itself cannot supply
    p = np.pad(pixels[max(y0 - 1, 0) : y1 + 1], (halo, (1, 1)), mode="edge")
    return (np.subtract(p[1:-1, 2:], p[1:-1, :-2], dtype=np.int32),
            np.subtract(p[2:, 1:-1], p[:-2, 1:-1], dtype=np.int32))


def table_index(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Flat intp index of each gradient into a table over [-GRADIENT_MAX,
    GRADIENT_MAX]^2 laid out as _pixel_table's, [gx + G, gy + G]. Gradients
    outside that square are not checked and index out of the table."""
    n = 2 * GRADIENT_MAX + 1
    idx = np.multiply(gx, n, dtype=np.intp)
    idx += gy
    idx += GRADIENT_MAX * n + GRADIENT_MAX
    return idx


def requantize_raw(
    raw: int,
    fraction: int,
    fmt: FxFormat,
    stats: SaturationStats | None = None,
    stage: str | None = None,
) -> int:
    """Move one raw carrying ``fraction`` fractional bits into ``fmt``: the
    scalar definition that requantize_raws and requantize_array must match.

    Narrowing truncates toward minus infinity (arithmetic shift), widening is
    exact; the result is saturated into ``fmt``.
    """
    if fraction > fmt.fraction:
        raw >>= fraction - fmt.fraction
    elif fraction < fmt.fraction:
        raw <<= fmt.fraction - fraction
    return saturate_raw(raw, fmt, stats, stage)


def oracle_bin_pair(gx: int, gy: int) -> tuple[int, int]:
    """Adjacent-bin pair from the exact angle, same conventions as the datapath.

    Zero gradient maps to (0, 1) like the fixed path (zero mass, unobservable).
    """
    if gx == 0 and gy == 0:
        return (0, 1)
    theta = math.degrees(math.atan2(gy, gx)) % 180.0
    lo = math.floor((theta - FIRST_CENTER_DEG) / BIN_STEP_DEG) % N_BINS
    return lo, (lo + 1) % N_BINS


def oracle_cell_histogram(frame: Frame, cell_row: int, cell_col: int) -> np.ndarray:
    """Exact 9-bin histogram of one 8x8 cell with bilinear bin interpolation."""
    rows = frame.height // CELL
    cols = frame.width // CELL
    if not (0 <= cell_row < rows and 0 <= cell_col < cols):
        raise GeometryError(f"cell ({cell_row},{cell_col}) outside {rows}x{cols} grid")
    bins = np.zeros(N_BINS, dtype=np.float64)
    for y in range(cell_row * CELL, (cell_row + 1) * CELL):
        for x in range(cell_col * CELL, (cell_col + 1) * CELL):
            g = oracle_gradient(frame, x, y)
            if g.magnitude == 0.0:
                continue
            u = (g.theta_deg - FIRST_CENTER_DEG) / BIN_STEP_DEG
            k = math.floor(u)
            frac = u - k
            lo = k % N_BINS
            bins[lo] += g.magnitude * (1.0 - frac)
            bins[(lo + 1) % N_BINS] += g.magnitude * frac
    return bins


def oracle_block_normalize(cell_hists: np.ndarray, eps: float = EPSILON) -> np.ndarray:
    """Exact L2 -> clip at 0.2 -> L2 on one block's 4 cell histograms.

    cell_hists is (4, 9) in block order [cell(i,j), cell(i+1,j), cell(i,j+1),
    cell(i+1,j+1)]; returns the 36 normalized values.
    """
    f = np.asarray(cell_hists, dtype=np.float64).reshape(BLOCK_VALUES)
    f_l2 = f / math.sqrt(float(np.dot(f, f)) + eps * eps)
    f_th = np.minimum(f_l2, CLIP_THRESHOLD)
    return f_th / math.sqrt(float(np.dot(f_th, f_th)) + eps * eps)


@dataclass
class ReferenceRun:
    """The float path's cell histograms and block features of one frame, and
    its window scores if a float model was given (else an empty array)."""

    hist_grid: np.ndarray
    block_grid: np.ndarray
    scores: np.ndarray


def reference_run(frame: Frame, weights: np.ndarray | None = None,
                  bias: float = 0.0) -> ReferenceRun:
    """The float path's two stages, each run once on the whole frame with no
    band loop: the whole-grid reference for the banded compare_paths. A cell
    grid smaller than 2x2 raises GeometryError; scores are computed only if
    weights are given: then a float model oracle._float_model rejects raises
    ValueError before any stage runs, and a frame smaller than one window
    raises GeometryError. The scores are dotted in the block rows of the
    detector's bands, so each matrix product has the shape compare_paths
    gives it and rounds as it does."""
    wmat = None if weights is None else _float_model(weights, bias)
    hist = float_cells(gradient_index(frame.pixels))[2]
    blocks = float_blocks(hist)
    scores = np.zeros((0, 0), dtype=np.float64)
    if wmat is not None:
        rows = hist.shape[0]
        scores = anchor_grid(rows - 1, hist.shape[1] - 1, bias)
        for r0 in range(0, rows, BAND_CELL_ROWS):
            b0 = max(r0 - 1, 0)
            window_sums(block_dots(blocks[b0 : min(r0 + BAND_CELL_ROWS, rows) - 1], wmat),
                        scores, b0)
    return ReferenceRun(hist, blocks, scores)


def oracle_score(features: np.ndarray, weights: np.ndarray, bias: float) -> float:
    """Exact window score: dot(weights, features) + bias."""
    f = np.asarray(features, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if f.shape != (WINDOW_FEATURES,) or w.shape != (WINDOW_FEATURES,):
        raise GeometryError(f"expected {WINDOW_FEATURES}-value vectors, "
                            f"got {f.shape} and {w.shape}")
    return float(np.dot(w, f) + bias)


def score_grid(block_raw: np.ndarray, model: SvmModel, stats: SaturationStats | None = None,
               feature_fmt: FxFormat = DEFAULT_PROFILE.final_feature) -> ScoreMap:
    """Every window score of a whole (block_rows, block_cols, 36) raw grid,
    added to one ScoreAccumulator in a single band."""
    acc = ScoreAccumulator(model, block_raw.shape[0], block_raw.shape[1], feature_fmt)
    acc.add(block_raw, 0)
    return acc.scores(stats)


def _inter_union(a: Detection, b: Detection) -> tuple[int, int]:
    """Integer intersection and union areas of two boxes; (0, 0) if disjoint."""
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    ax2, ay2, bx2, by2 = ax + a.w, ay + a.h, bx + b.w, by + b.h
    # conditional expressions instead of min/max: the inner loop of bucketed_nms
    ix = (ax2 if ax2 < bx2 else bx2) - (ax if ax > bx else bx)
    iy = (ay2 if ay2 < by2 else by2) - (ay if ay > by else by)
    if ix <= 0 or iy <= 0:
        return 0, 0
    inter = ix * iy
    return inter, a.w * a.h + b.w * b.h - inter


def iou(a: Detection, b: Detection) -> Fraction:
    """Exact intersection-over-union of two boxes."""
    inter, union = _inter_union(a, b)
    return Fraction(inter, union) if inter else Fraction(0)


def bucketed_nms(detections: list[Detection], iou_threshold: float = 0.5) -> list[Detection]:
    """detector.nms as one Python loop over the candidates, the reference for
    its blocked pair tests: each candidate is tested, with the exact integer
    rule, against the kept boxes in the grid buckets it could overlap. Each
    kept box sits in the bucket of its top-left corner; the grid steps are the
    largest width and height, so only the buckets from one step before the
    candidate's top-left corner to the one holding its far corner can hold a
    box that overlaps it."""
    thr = iou_threshold if isinstance(iou_threshold, Rational) else float(iou_threshold)
    num, den = Fraction(thr).as_integer_ratio()
    order = sorted(detections, key=lambda d: (-d.score, d.y, d.x))
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


def unpack(packets: Iterable[StreamPacket]) -> Frame:
    """Rebuild a frame from a packet stream, validating flag discipline."""
    rows: list[list[int]] = []
    current: list[int] = []
    ppc = None
    for i, pkt in enumerate(packets):
        if ppc is None:
            ppc = len(pkt.pixels)
            if ppc not in VALID_PPC:
                raise StreamProtocolError(f"packet width {ppc} not in {VALID_PPC}")
        elif len(pkt.pixels) != ppc:
            raise StreamProtocolError(
                f"packet {i} width {len(pkt.pixels)} changed from {ppc}"
            )
        if pkt.sof != (i == 0):
            raise StreamProtocolError(f"sof flag wrong on packet {i}")
        current.extend(pkt.pixels)
        if pkt.eol:
            if rows and len(current) != len(rows[0]):
                raise StreamProtocolError(
                    f"row {len(rows)} has {len(current)} pixels, expected {len(rows[0])}"
                )
            rows.append(current)
            current = []
    if ppc is None:
        raise StreamProtocolError("empty stream")
    if current:
        raise StreamProtocolError("stream ended mid-row (missing eol)")
    return Frame.from_array(np.array(rows, dtype=np.uint8))


def save_pgm(frame: Frame, path: str | Path) -> None:
    """Write a Frame as a binary P5 file (test fixture helper)."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode()
    Path(path).write_bytes(header + frame.pixels.tobytes())
