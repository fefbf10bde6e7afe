"""Float-domain SVM training and model quantization.

Training is primal subgradient descent on the hinge loss with the 1/(lambda*t)
step schedule, one sample per step, reshuffled every epoch by a seeded
generator; the returned model is the running average of the iterates. The
bias rides along as a constant regularized feature, which keeps the early
1/(lambda*t) steps bounded. Deterministic for a fixed seed.

quantize_model maps a float model into the coefficient/bias formats. If any
weight magnitude reaches 1 the whole model (bias included) is first scaled by
the next power of two down, which cannot change any decision at the zero
threshold. The applied scale and the worst weight quantization error are
recorded on the returned model.

Since no labeled pedestrian corpus ships with the package, make_synthetic_set
renders a separable stand-in: bar-silhouette positives against textured-noise
negatives, one window (SAMPLE_W x SAMPLE_H = svm.WINDOW_W x WINDOW_H) each.
A sample's feature is the float path's block grid of its frame, which for a
one-window frame is the window feature in C order: one call of each of the
oracle's two stages on the whole frame, with no band loop, so no band worker
starts. Each cell's pixels lie in one band, so the features are those of
the frame's bands, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .fixedpoint import DEFAULT_PROFILE, PrecisionProfile, fx_quantize, quantize_array
from .gradient import gradient_index
from .normalize import BLOCK_VALUES
from .oracle import float_blocks, float_cells
from .stream import Frame, GeometryError
from .svm import (WINDOW_BLOCK_COLS, WINDOW_BLOCK_ROWS, WINDOW_FEATURES, WINDOW_H, WINDOW_W,
                  SvmModel, text_lines)

SAMPLE_W = WINDOW_W
SAMPLE_H = WINDOW_H


class TrainingError(ValueError):
    """Training input cannot produce a classifier."""


@dataclass(frozen=True)
class Sample:
    """One training vector: a 3780-value window feature and its +-1 label."""

    features: np.ndarray
    label: int

    def __post_init__(self) -> None:
        if self.label not in (-1, 1):
            raise TrainingError(f"label must be +1 or -1, got {self.label}")
        if self.features.shape != (WINDOW_FEATURES,):
            raise TrainingError(f"features shape {self.features.shape} "
                                f"is not ({WINDOW_FEATURES},)")


@dataclass
class FloatModel:
    """Float window classifier: 3780 weights plus bias."""

    weights: np.ndarray
    bias: float

    def score(self, features: np.ndarray) -> float:
        return float(self.weights @ np.asarray(features, dtype=np.float64) + self.bias)


def train(
    samples: Sequence[Sample],
    lam: float = 1e-4,
    epochs: int = 10,
    seed: int = 0,
) -> FloatModel:
    """Hinge-loss subgradient training, averaged iterate.

    Fewer than one epoch, or a lambda that is not finite and positive, would
    return no model (all zeros) or a non-finite one: TrainingError.
    """
    if not samples:
        raise TrainingError("no training samples")
    labels = {s.label for s in samples}
    if len(labels) < 2:
        raise TrainingError("training needs both classes present")
    if not (lam > 0 and math.isfinite(lam)):
        raise TrainingError(f"lambda must be finite and positive, got {lam}")
    if epochs < 1:
        raise TrainingError(f"epochs must be at least 1, got {epochs}")
    n = len(samples)
    x = np.stack([s.features for s in samples]).astype(np.float64)
    y = np.array([s.label for s in samples], dtype=np.float64)

    rng = np.random.default_rng(seed)
    w = np.zeros(WINDOW_FEATURES + 1, dtype=np.float64)  # last entry: bias feature
    avg = np.zeros_like(w)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margin = y[i] * (w[:-1] @ x[i] + w[-1])
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w[:-1] += eta * y[i] * x[i]
                w[-1] += eta * y[i]
            avg += (w - avg) / t
    return FloatModel(weights=avg[:-1].copy(), bias=float(avg[-1]))


def quantize_model(
    fm: FloatModel, profile: PrecisionProfile = DEFAULT_PROFILE
) -> SvmModel:
    """Encode a float model into the coefficient and bias formats.

    Weights with magnitude >= 1 force a uniform power-of-two rescale of the
    whole model (max |w| = 3 -> scale 1/4); decisions at threshold 0 are
    invariant under the positive scale. Weights are encoded by quantize_array
    and the bias by fx_quantize (floor, then saturate); weight raws are then
    clamped symmetric (floor would map w in [-1, -1023/1024) onto the raw
    whose decode is exactly -1.0, which the model format excludes).
    """
    coeff_fmt = profile.svm_coefficient
    bias_fmt = profile.svm_bias
    w = np.asarray(fm.weights, dtype=np.float64)
    if w.shape != (WINDOW_FEATURES,):
        raise TrainingError(f"weights shape {w.shape} is not ({WINDOW_FEATURES},)")
    if not np.all(np.isfinite(w)) or not math.isfinite(fm.bias):
        raise TrainingError("model contains non-finite values")

    scale = 1.0
    peak = float(np.abs(w).max()) if w.size else 0.0
    if peak >= 1.0:
        scale = 2.0 ** -(math.floor(math.log2(peak)) + 1)
    ws = w * scale
    raw = np.maximum(quantize_array(ws, coeff_fmt), -coeff_fmt.max_raw)
    max_err = float(np.abs(raw / coeff_fmt.scale - ws).max()) if w.size else 0.0
    return SvmModel(
        weights_raw=raw.reshape(WINDOW_BLOCK_ROWS, WINDOW_BLOCK_COLS, BLOCK_VALUES),
        bias_raw=fx_quantize(fm.bias * scale, bias_fmt).raw,
        coeff_fmt=coeff_fmt,
        bias_fmt=bias_fmt,
        scale_applied=scale,
        max_weight_quant_error=max_err,
    )


# ---------------------------------------------------------------------------
# synthetic corpus and manifest ingestion


def _positive_frame(rng: np.random.Generator) -> Frame:
    """Bar silhouette: bright torso bar and head blob on a dark background."""
    img = rng.normal(55.0, 10.0, size=(SAMPLE_H, SAMPLE_W))
    x0 = 20 + int(rng.integers(0, 9))       # torso left edge, jittered
    wd = 16 + int(rng.integers(0, 7))
    y0 = 28 + int(rng.integers(0, 7))
    y1 = 110 + int(rng.integers(0, 10))
    level = 180.0 + float(rng.normal(0.0, 12.0))
    img[y0:y1, x0 : x0 + wd] = rng.normal(level, 8.0, size=(y1 - y0, wd))
    cx = x0 + wd // 2
    r = 7 + int(rng.integers(0, 3))
    yy, xx = np.ogrid[:SAMPLE_H, :SAMPLE_W]
    head = (yy - (y0 - r)) ** 2 + (xx - cx) ** 2 <= r * r
    img[head] = rng.normal(level, 8.0, size=int(head.sum()))
    return Frame.from_array(np.clip(img, 0, 255).astype(np.uint8))


def _negative_frame(rng: np.random.Generator) -> Frame:
    """Textured noise with no coherent vertical structure."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        img = rng.uniform(0.0, 255.0, size=(SAMPLE_H, SAMPLE_W))
    elif kind == 1:
        img = rng.normal(120.0, 45.0, size=(SAMPLE_H, SAMPLE_W))
    else:
        ramp = np.linspace(0, float(rng.uniform(60, 180)), SAMPLE_W)[None, :]
        img = ramp + rng.normal(100.0, 25.0, size=(SAMPLE_H, SAMPLE_W))
    return Frame.from_array(np.clip(img, 0, 255).astype(np.uint8))


def make_synthetic_set(
    n_per_class: int, seed: int = 0
) -> tuple[list[Frame], np.ndarray]:
    """Deterministic bar-vs-noise corpus: frames plus +-1 labels."""
    rng = np.random.default_rng(seed)
    frames: list[Frame] = []
    labels: list[int] = []
    for _ in range(n_per_class):
        frames.append(_positive_frame(rng))
        labels.append(1)
        frames.append(_negative_frame(rng))
        labels.append(-1)
    return frames, np.array(labels, dtype=np.int64)


def samples_from_frames(frames: Sequence[Frame], labels: Sequence[int]) -> list[Sample]:
    """Extract exact window features (the float path's blocks) for
    one-window frames, one label to a frame. Counts that differ raise
    TrainingError, and a frame of another size GeometryError, before any
    stage runs."""
    if len(frames) != len(labels):
        raise TrainingError(f"{len(frames)} frames but {len(labels)} labels")
    for frame in frames:
        if frame.width != SAMPLE_W or frame.height != SAMPLE_H:
            raise GeometryError(f"training frames must be {SAMPLE_W}x{SAMPLE_H}, "
                                f"got {frame.width}x{frame.height}")
    out = []
    for frame, label in zip(frames, labels):
        features = float_blocks(float_cells(gradient_index(frame.pixels))[2])
        out.append(Sample(features=features.reshape(WINDOW_FEATURES), label=int(label)))
    return out


def load_manifest(path: str | Path) -> list[Sample]:
    """Read '<label> <image path>' lines; images must be SAMPLE_W x SAMPLE_H."""
    from .pnm import load_image  # deferred: cli-level ingestion

    base = Path(path).parent
    frames: list[Frame] = []
    labels: list[int] = []
    for n, line in enumerate(text_lines(path, TrainingError), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(maxsplit=1)
        if len(parts) != 2 or parts[0] not in ("1", "+1", "-1"):
            raise TrainingError(f"manifest line {n}: expected '<+1|-1> <path>'")
        img_path = Path(parts[1])
        if not img_path.is_absolute():
            img_path = base / img_path
        frames.append(load_image(img_path))
        labels.append(1 if parts[0] in ("1", "+1") else -1)
    if not frames:
        raise TrainingError("manifest lists no samples")
    return samples_from_frames(frames, labels)
