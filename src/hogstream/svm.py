"""The detection window, linear SVM scoring over it, and model file IO.

This module owns the window: 15x7 blocks of 2x2 cells, so WINDOW_W x
WINDOW_H = 64x128 pixels, anchored at every cell. Each block's 36-value
feature is dotted with the matching 36 coefficients, and window_sums adds
the 105 block dots inside each window to the bias. Products of feature
(10,9) and coefficient (11,10) raws already sit at the accumulator
fraction (19), so accumulation is exact integer arithmetic: any evaluation
order gives the same raw score, and the single saturation check happens on
the final per-anchor total. The hardware's four sequential 9-value partial
dots are one such order. ScoreAccumulator uses another: one 36-wide dot per
block (block_dots), added into float64 window totals as block rows
complete, which is exact because it refuses formats whose worst-case sum
could reach 2**53. The dots are float32 where the model keeps every partial
sum of each below 2**24, float64 otherwise. Both execution styles score
through it.

Model files are line-oriented text. Quantized ("HOGSVM1"):

    HOGSVM1
    bias <raw int, (33,19)>
    <block_row> <block_col> <index 0..35> <raw int, (11,10)>   x 3780

Float ("HOGSVMF1") has the same shape with decimal reals (repr round-trip).
Rows are written in canonical order (block_row, then block_col, then index);
loaders accept any order but require every coefficient exactly once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .fixedpoint import (
    DEFAULT_PROFILE,
    FxFormat,
    SVM,
    PrecisionProfile,
    SaturationStats,
    check_score_formats,
    fx_quantize,
    saturate_array,
)
from .normalize import BLOCK_VALUES
from .stream import CELL, GeometryError

WINDOW_BLOCK_ROWS = 15
WINDOW_BLOCK_COLS = 7
WINDOW_BLOCKS = WINDOW_BLOCK_ROWS * WINDOW_BLOCK_COLS
WINDOW_FEATURES = WINDOW_BLOCKS * BLOCK_VALUES
# a block spans two cells, so a window of n blocks spans n + 1 cells
WINDOW_W = (WINDOW_BLOCK_COLS + 1) * CELL
WINDOW_H = (WINDOW_BLOCK_ROWS + 1) * CELL

QUANT_MAGIC = "HOGSVM1"
FLOAT_MAGIC = "HOGSVMF1"


class ModelFormatError(ValueError):
    """Model file violates the expected text format."""


@dataclass
class SvmModel:
    """Quantized window classifier: per-block coefficients plus bias.

    weights_raw is int64 of shape (15, 7, 36) in the coefficient format;
    decoded magnitudes are strictly below 1. Flattened in C order it lines up
    with the window feature vector (block_row, block_col, index). Raws that
    are not finite integers raise ValueError before any cast.
    """

    weights_raw: np.ndarray
    bias_raw: int
    coeff_fmt: FxFormat = field(default=DEFAULT_PROFILE.svm_coefficient)
    bias_fmt: FxFormat = field(default=DEFAULT_PROFILE.svm_bias)
    scale_applied: float = 1.0
    max_weight_quant_error: float = 0.0

    def __post_init__(self) -> None:
        w, bias = np.asarray(self.weights_raw), self.bias_raw
        if w.shape != (WINDOW_BLOCK_ROWS, WINDOW_BLOCK_COLS, BLOCK_VALUES):
            raise ValueError(f"weights shape {w.shape} is not "
                             f"({WINDOW_BLOCK_ROWS}, {WINDOW_BLOCK_COLS}, {BLOCK_VALUES})")
        if w.dtype.kind == "f" and not (np.isfinite(w).all() and (w == np.floor(w)).all()):
            raise ValueError("weight raws must be finite integers")
        if not isinstance(bias, numbers.Integral):
            if not (isinstance(bias, numbers.Real) and float(bias).is_integer()):
                raise ValueError(f"bias raw {bias!r} is not an integer")
            bias = int(bias)
        limit = self.coeff_fmt.max_raw
        if w.min() < -limit or w.max() > limit:
            raise ValueError("coefficient magnitude reaches 1.0; model must be rescaled")
        if not self.bias_fmt.min_raw <= bias <= self.bias_fmt.max_raw:
            raise ValueError(f"bias raw {bias} does not fit {self.bias_fmt}")
        self.weights_raw, self.bias_raw = w.astype(np.int64), int(bias)


@dataclass(frozen=True)
class ScoreMap:
    """Raw window scores on the anchor grid (one anchor per cell position)."""

    scores_raw: np.ndarray
    fmt: FxFormat = field(default=DEFAULT_PROFILE.svm_bias)

    def above(self, threshold: float) -> np.ndarray:
        """Anchors whose score strictly exceeds the quantized threshold (see
        threshold_raw)."""
        return self.scores_raw > threshold_raw(threshold, self.fmt)


def threshold_raw(threshold: float, fmt: FxFormat) -> int:
    """The threshold quantized into the score format ``fmt``. A NaN or
    infinite threshold has no quantized value and raises ValueError."""
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    return fx_quantize(threshold, fmt).raw


def anchor_grid(block_rows: int, block_cols: int, start: float) -> np.ndarray:
    """Float64 window totals of every anchor of a block grid, set to ``start``.

    A block grid smaller than one window has no anchor: GeometryError.
    """
    ar = block_rows - (WINDOW_BLOCK_ROWS - 1)
    ac = block_cols - (WINDOW_BLOCK_COLS - 1)
    if ar <= 0 or ac <= 0:
        raise GeometryError(f"block grid {block_rows}x{block_cols} is smaller than one "
                            f"{WINDOW_BLOCK_ROWS}x{WINDOW_BLOCK_COLS}-block window")
    return np.full((ar, ac), float(start))


def window_sums(dots: np.ndarray, sums: np.ndarray, row0: int = 0) -> np.ndarray:
    """Add the terms of block rows row0.. to the window totals ``sums``.

    dots: (105, n, block_cols) for block rows row0..row0 + n - 1; row r*7 + c
    holds, per block, the term that block adds to the window anchored r block
    rows above and c block columns left of it. Dots of another shape than
    (105, n, ac + 6) for the (ar, ac) totals, or off their ar + 14 block rows,
    raise GeometryError. The 7 column-shifted slices of every r are summed in
    float64 in one strided view, over c, and each r's sum is then added to the
    totals in r order; each block row feeds at most 15 anchor rows. Returns sums.
    """
    ar, ac = sums.shape
    n = dots.shape[1] if dots.ndim == 3 else 0
    if dots.shape != (WINDOW_BLOCKS, n, ac + WINDOW_BLOCK_COLS - 1):
        raise GeometryError(f"dots of shape {dots.shape} do not fit {ar}x{ac} anchors: "
                            f"expected ({WINDOW_BLOCKS}, n, {ac + WINDOW_BLOCK_COLS - 1})")
    if row0 < 0 or row0 + n > ar + WINDOW_BLOCK_ROWS - 1:
        raise GeometryError(f"block rows {row0}..{row0 + n - 1} do not lie in the "
                            f"{ar + WINDOW_BLOCK_ROWS - 1} block rows of {ar}x{ac} anchors")
    s0, s1, s2 = dots.strides
    # [c, r, i, j] = dots[r*7 + c, i, c + j]; the shape check keeps every
    # element inside dots
    rows = as_strided(dots, shape=(WINDOW_BLOCK_COLS, WINDOW_BLOCK_ROWS, n, ac),
                      strides=(s0 + s2, WINDOW_BLOCK_COLS * s0, s1, s2),
                      writeable=False).sum(axis=0, dtype=np.float64)
    for r in range(WINDOW_BLOCK_ROWS):
        a0, a1 = max(row0 - r, 0), min(row0 + n - r, ar)
        if a0 < a1:
            sums[a0:a1] += rows[r, a0 + r - row0 : a1 + r - row0]
    return sums


def block_dots(blocks: np.ndarray, wmat: np.ndarray) -> np.ndarray:
    """The (105, n, block_cols) terms window_sums adds: the dot of every block
    of blocks (n, block_cols, 36) with each of the 105 rows of wmat."""
    n, bc, nv = blocks.shape
    return (wmat @ blocks.reshape(n * bc, nv).T).reshape(WINDOW_BLOCKS, n, bc)


class ScoreAccumulator:
    """Window totals of a block grid, added as its block rows complete.

    Construction checks the formats and the geometry once: formats that
    fixedpoint.check_score_formats rejects raise ValueError, and any others
    keep every partial sum an exact integer in float64, so any split of the
    grid into bands gives the same totals. It also fixes the dtype of the
    block dots, carried by ``wmat``: float32 when the largest L1 norm of a
    block's coefficient raws times the largest raw magnitude of the feature
    format is below 2**24, so every partial sum of every dot of any block
    ``add`` admits is an exact integer in float32, in any order and with FMA;
    float64 otherwise. The window totals are float64. ``add`` takes the
    bands in order, top to bottom, and range-checks each raw once; ``scores``
    saturates each total once, after the last block row.
    """

    def __init__(self, model: SvmModel, block_rows: int, block_cols: int,
                 feature_fmt: FxFormat = DEFAULT_PROFILE.final_feature) -> None:
        check_score_formats(feature_fmt, model.coeff_fmt, model.bias_fmt)
        self.feature_fmt, self.bias_fmt = feature_fmt, model.bias_fmt
        w = model.weights_raw.reshape(WINDOW_BLOCKS, BLOCK_VALUES)
        # bounds |every partial sum| of the dot of any block add admits
        top = int(np.abs(w).sum(axis=1).max()) * max(feature_fmt.max_raw, -feature_fmt.min_raw)
        self.wmat = w.astype(np.float32 if top < 1 << 24 else np.float64)
        self.sums = anchor_grid(block_rows, block_cols, model.bias_raw)
        self.grid, self.due = (block_rows, block_cols), 0   # due: the next block row to add

    def add(self, block_raw: np.ndarray, row0: int) -> None:
        """Add block rows row0.. (int64 raws, (n, block_cols, 36)); a raw
        outside the feature format raises ValueError, a band of another width
        or not at the next row due, or running past the grid, GeometryError."""
        n, bc, nv = block_raw.shape
        rows, cols = self.grid
        if (bc, nv) != (cols, BLOCK_VALUES):
            raise GeometryError(f"a band {bc} blocks wide of {nv} values does not fit a "
                                f"{rows}x{cols} grid of {BLOCK_VALUES}-value blocks")
        if row0 != self.due or row0 + n > rows:
            raise GeometryError(f"block rows {row0}..{row0 + n - 1} arrived after {self.due} "
                                f"of {rows} rows")
        fmt = self.feature_fmt
        if block_raw.size and (block_raw.min() < fmt.min_raw or block_raw.max() > fmt.max_raw):
            raise ValueError(f"block feature raws do not fit {fmt}")
        window_sums(block_dots(block_raw.astype(self.wmat.dtype), self.wmat), self.sums, row0)
        self.due += n

    def scores(self, stats: SaturationStats | None = None) -> ScoreMap:
        """The window totals, each saturated once into the bias format; before
        the last block row has been added, GeometryError."""
        if self.due < self.grid[0]:
            raise GeometryError(f"scores asked after {self.due} of {self.grid[0]} block rows")
        raw = saturate_array(self.sums.astype(np.int64), self.bias_fmt, stats, SVM)
        return ScoreMap(scores_raw=raw, fmt=self.bias_fmt)


def score_windows(
    blocks: Iterable[tuple[int, int, Sequence[int]]],
    model: SvmModel,
    block_rows: int,
    block_cols: int,
    stats: SaturationStats | None = None,
    feature_fmt: FxFormat = DEFAULT_PROFILE.final_feature,
) -> ScoreMap:
    """Score a raster-order stream of (block_row, block_col, values) blocks
    (see normalize_block) of ``feature_fmt`` raws, holding one block row and
    adding it to a ScoreAccumulator when it completes.

    The accumulator checks formats and grid before the first block is pulled.
    A block without 36 values, or with one that is not an integer, raises
    ValueError naming the block. A block outside the grid, one that arrives
    twice or out of raster order, or a stream that ends short raises
    GeometryError naming the block.
    """
    acc = ScoreAccumulator(model, block_rows, block_cols, feature_fmt)
    row = np.empty((1, block_cols, BLOCK_VALUES), dtype=np.int64)
    due = 0   # raster index of the next block
    for r, c, values in blocks:
        if not (0 <= r < block_rows and 0 <= c < block_cols):
            raise GeometryError(f"block ({r},{c}) outside {block_rows}x{block_cols} grid")
        at = r * block_cols + c
        if at != due:
            raise GeometryError(f"block ({r},{c}) arrived "
                                + ("twice" if at < due else "out of raster order"))
        # ints of any width that int64 holds; a float would be floored here
        v = np.asarray(values)
        if v.shape != (BLOCK_VALUES,) or not np.can_cast(v.dtype, np.int64):
            raise ValueError(f"block ({r},{c}) must carry {BLOCK_VALUES} integer raws, "
                             f"got {v.size} of {v.dtype}")
        row[0, c] = v
        due += 1
        if c == block_cols - 1:
            acc.add(row, r)
    if due < block_rows * block_cols:
        raise GeometryError(f"block stream ended before block "
                            f"({due // block_cols},{due % block_cols})")
    return acc.scores(stats)


# ---------------------------------------------------------------------------
# model file IO


def _write_rows(path: str | Path, magic: str, bias: int | float, values: np.ndarray) -> None:
    """Write a model file: the magic, the bias and one row per coefficient of
    the (15, 7, 36) ``values`` in canonical order, each number as the repr
    of its Python value."""
    rows = (f"{r} {c} {k} {v!r}" for (r, c, k), v in zip(
        np.ndindex(WINDOW_BLOCK_ROWS, WINDOW_BLOCK_COLS, BLOCK_VALUES), values.ravel().tolist()))
    Path(path).write_text("\n".join([magic, f"bias {bias!r}", *rows]) + "\n")


def save_model(model: SvmModel, path: str | Path) -> None:
    """Write the quantized model in the HOGSVM1 text format."""
    _write_rows(path, QUANT_MAGIC, int(model.bias_raw), model.weights_raw)


def save_float_model(weights: np.ndarray, bias: float, path: str | Path) -> None:
    """Write a float model (3780 weights + bias) in the HOGSVMF1 text format."""
    _write_rows(path, FLOAT_MAGIC, float(bias), np.asarray(weights, dtype=np.float64).reshape(
        WINDOW_BLOCK_ROWS, WINDOW_BLOCK_COLS, BLOCK_VALUES))


def _parse_rows(lines: list[str], parse_bias, parse, what: str) -> tuple[np.ndarray, object]:
    if not lines:
        raise ModelFormatError("model file is empty")
    head = lines[1].split() if len(lines) > 1 else []
    if len(head) != 2 or head[0] != "bias":
        raise ModelFormatError("second line must be 'bias <value>'")
    try:
        bias = parse_bias(head[1])
    except ValueError as e:
        raise ModelFormatError(f"bad bias value: {e}") from None
    # flat lists at (r * 7 + c) * 36 + k: numpy indexing per coefficient was half a parse
    seen, out = [False] * WINDOW_FEATURES, [0.0] * WINDOW_FEATURES
    for n, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ModelFormatError(f"line {n}: expected 4 fields, got {len(parts)}")
        try:
            r, c, k = int(parts[0]), int(parts[1]), int(parts[2])
            v = parse(parts[3])
        except ValueError as e:
            raise ModelFormatError(f"line {n}: {e}") from None
        if not (0 <= r < WINDOW_BLOCK_ROWS and 0 <= c < WINDOW_BLOCK_COLS
                and 0 <= k < BLOCK_VALUES):
            raise ModelFormatError(f"line {n}: index ({r},{c},{k}) out of range")
        i = (r * WINDOW_BLOCK_COLS + c) * BLOCK_VALUES + k
        if seen[i]:
            raise ModelFormatError(f"line {n}: duplicate coefficient ({r},{c},{k})")
        seen[i], out[i] = True, v
    if not all(seen):
        raise ModelFormatError(f"{what}: {seen.count(False)} coefficients missing")
    return np.array(out, dtype=np.float64).reshape(WINDOW_BLOCK_ROWS, WINDOW_BLOCK_COLS, -1), bias


def _raw_parser(low: int, high: int):
    """int() that also rejects raws outside [low, high], before any numpy cast."""
    def parse(text: str) -> int:
        raw = int(text)
        if not low <= raw <= high:
            raise ValueError(f"raw {raw} outside [{low}, {high}]")
        return raw

    return parse


def text_lines(path: str | Path, error: type[ValueError] = ModelFormatError) -> list[str]:
    """The lines of a text file; one that is not UTF-8 raises ``error`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason})") from None


def load_model(path: str | Path, profile: PrecisionProfile = DEFAULT_PROFILE) -> SvmModel:
    """Load a HOGSVM1 quantized model."""
    lines = text_lines(path)
    if not lines or lines[0].strip() != QUANT_MAGIC:
        raise ModelFormatError(f"missing {QUANT_MAGIC} magic")
    bias_fmt, coeff_fmt = profile.svm_bias, profile.svm_coefficient
    # the same ranges SvmModel enforces: bias within its format, |coefficient| <= max_raw
    out, bias = _parse_rows(lines, _raw_parser(bias_fmt.min_raw, bias_fmt.max_raw),
                            _raw_parser(-coeff_fmt.max_raw, coeff_fmt.max_raw),
                            "quantized model")
    return SvmModel(
        weights_raw=out.astype(np.int64),
        bias_raw=bias,
        coeff_fmt=coeff_fmt,
        bias_fmt=bias_fmt,
    )


def load_float_model(path: str | Path) -> tuple[np.ndarray, float]:
    """Load a HOGSVMF1 float model as (weights (3780,), bias)."""
    lines = text_lines(path)
    if not lines or lines[0].strip() != FLOAT_MAGIC:
        raise ModelFormatError(f"missing {FLOAT_MAGIC} magic")
    out, bias = _parse_rows(lines, float, float, "float model")
    return out.reshape(WINDOW_FEATURES), float(bias)


def sniff_model_format(path: str | Path) -> str:
    """Return the magic on the first line ('HOGSVM1' or 'HOGSVMF1')."""
    magic = next(iter(text_lines(path)), "").strip()
    if magic not in (QUANT_MAGIC, FLOAT_MAGIC):
        raise ModelFormatError(f"unknown model magic {magic!r}")
    return magic
