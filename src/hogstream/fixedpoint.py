"""Signed fixed-point arithmetic with explicit quantization and overflow policy.

Every value in the detector datapath is a two's-complement integer scaled by a
power of two. As on a hardware bus, the format belongs to the stage, not to
the value: stage kernels carry raw ints and take each format from the
``PrecisionProfile`` (or the format argument they are given). ``Fx`` pairs a
raw with its format only at the API boundary. The policy, applied uniformly:

* quantization of a real: multiply by 2**fraction, truncate toward minus
  infinity, then saturate into the target width;
* requantization between fractions: arithmetic right shift (again truncation
  toward minus infinity), widening is an exact left shift; a product or sum
  of raws is formed exactly first and requantized once;
* overflow: saturate, never wrap. Saturation events can be recorded through a
  ``SaturationStats`` sink so callers may assert that nominal data never clips.

saturate_raw and fx_quantize are the scalar ops, and requantize_raws is the
list form the packet path applies to a cell's or a block's values, reading
the format's bounds once per list. The array forms (numpy int64) let the
grid stages run vectorized while staying bit-identical to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

# the shift-add magnitude is exact at 3 fractional bits and is encoded without
# rescaling, so every profile carries the magnitude at this fraction
MAGNITUDE_FRACTION = 3

# products one window score sums: 15x7 blocks of 36 values (svm.WINDOW_FEATURES;
# kept here so that a PrecisionProfile can check its score formats)
SCORE_TERMS = 3780

# the saturating stages in datapath order, the only labels SaturationStats takes
SATURATING_STAGES = ("magnitude", "histogram", "prepare_norm", "inv_sqrt1", "norm1",
                     "inv_sqrt2", "norm2", "svm")
MAGNITUDE, HISTOGRAM, PREPARE_NORM, INV_SQRT1, NORM1, INV_SQRT2, NORM2, SVM = SATURATING_STAGES


@dataclass(frozen=True)
class FxFormat:
    """Width/fraction pair describing a signed fixed-point representation.

    ``width`` counts all bits including the sign, ``fraction`` of them sit
    below the binary point. Raw integers live in [-2**(width-1), 2**(width-1)-1]
    and decode to raw * 2**-fraction.
    """

    width: int
    fraction: int

    def __post_init__(self) -> None:
        for name in ("width", "fraction"):   # Python or numpy ints, kept as ints
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, int(getattr(self, name)))
        if not 1 <= self.width <= 64:
            raise ValueError(f"width must be in 1..64, got {self.width}")
        if not 0 <= self.fraction < self.width:
            raise ValueError(
                f"fraction must be in 0..{self.width - 1}, got {self.fraction}"
            )

    @property
    def min_raw(self) -> int:
        return -(1 << (self.width - 1))

    @property
    def max_raw(self) -> int:
        return (1 << (self.width - 1)) - 1

    @property
    def scale(self) -> int:
        return 1 << self.fraction

    def __str__(self) -> str:
        return f"({self.width},{self.fraction})"


@dataclass(frozen=True)
class Fx:
    """A raw two's-complement integer together with its format."""

    raw: int
    format: FxFormat

    def __post_init__(self) -> None:
        if not self.format.min_raw <= self.raw <= self.format.max_raw:
            raise ValueError(f"raw {self.raw} does not fit {self.format}")

    @property
    def value(self) -> float:
        # int / int is correctly rounded, and exact while |raw| < 2**53
        return self.raw / self.format.scale

    def __str__(self) -> str:
        return f"{self.value}{self.format}"


class SaturationStats:
    """One saturation counter per stage of SATURATING_STAGES from
    construction, so recording never inserts a key: stats[stage] reads one,
    counts lists the nonzero ones in datapath order, and any other label
    raises ValueError."""

    def __init__(self) -> None:
        self._counts = dict.fromkeys(SATURATING_STAGES, 0)

    @property
    def counts(self) -> dict[str, int]:
        return {stage: n for stage, n in self._counts.items() if n}

    def record(self, stage: str, n: int = 1) -> None:
        if stage not in SATURATING_STAGES:
            raise ValueError(f"{stage!r} is not a saturating stage: {SATURATING_STAGES}")
        if n:
            self._counts[stage] += int(n)

    def __getitem__(self, stage: str) -> int:
        self.record(stage, 0)   # checks the label and counts nothing
        return self._counts[stage]

    def __repr__(self) -> str:
        return f"SaturationStats({self.counts})"


def saturate_raw(
    raw: int, fmt: FxFormat, stats: SaturationStats | None = None, stage: str | None = None
) -> int:
    """Clamp a raw integer into the representable range of ``fmt``."""
    if raw > fmt.max_raw:
        if stats is not None:
            stats.record(stage)
        return fmt.max_raw
    if raw < fmt.min_raw:
        if stats is not None:
            stats.record(stage)
        return fmt.min_raw
    return raw


def requantize_raws(
    raws: list[int],
    fraction: int,
    fmt: FxFormat,
    stats: SaturationStats | None = None,
    stage: str | None = None,
) -> list[int]:
    """Move raws carrying ``fraction`` fractional bits into ``fmt``: narrowing
    truncates toward minus infinity (arithmetic shift), widening is exact, and
    each result saturates. One shift pass and one bounds read per list; when
    nothing clips, the shifted list (``raws`` itself if no shift was needed)
    comes back as is, else the clipped elements are clamped and counted once.
    """
    if fraction > fmt.fraction:
        shift = fraction - fmt.fraction
        raws = [r >> shift for r in raws]
    elif fraction < fmt.fraction:
        shift = fmt.fraction - fraction
        raws = [r << shift for r in raws]
    low, high = fmt.min_raw, fmt.max_raw
    if not raws or (min(raws) >= low and max(raws) <= high):
        return raws
    if stats is not None:
        stats.record(stage, sum(r > high or r < low for r in raws))
    return [high if r > high else low if r < low else r for r in raws]


def fx_quantize(
    value: float,
    fmt: FxFormat,
    stats: SaturationStats | None = None,
    stage: str | None = None,
) -> Fx:
    """Encode a real value: floor(value * 2**fraction), then saturate."""
    raw = math.floor(value * fmt.scale)
    return Fx(saturate_raw(raw, fmt, stats, stage), fmt)


# ---------------------------------------------------------------------------
# array variants (int64 raws), bit-identical to the scalar ops above


def saturate_array(
    raw: np.ndarray,
    fmt: FxFormat,
    stats: SaturationStats | None = None,
    stage: str | None = None,
) -> np.ndarray:
    """Vector form of saturate_raw; counts every clipped element.

    One min and one max pass come first: when nothing lies outside ``fmt``,
    ``raw`` itself comes back as is, with nothing counted, so a caller that
    writes to the result must pass an array it owns (every caller in the
    package passes a fresh temporary). Else the result is a clipped copy.
    """
    if not raw.size or (raw.min() >= fmt.min_raw and raw.max() <= fmt.max_raw):
        return raw
    if stats is not None:
        n = int(np.count_nonzero(raw > fmt.max_raw)) + int(
            np.count_nonzero(raw < fmt.min_raw)
        )
        stats.record(stage, n)
    return np.clip(raw, fmt.min_raw, fmt.max_raw)


def requantize_array(
    raw: np.ndarray,
    fraction: int,
    fmt: FxFormat,
    stats: SaturationStats | None = None,
    stage: str | None = None,
) -> np.ndarray:
    """Array form of requantize_raws (arithmetic shifts are floor for int64).

    As there, ``raw`` itself comes back as is when no shift is needed and
    nothing clips (see saturate_array).
    """
    if fraction > fmt.fraction:
        raw = raw >> (fraction - fmt.fraction)
    elif fraction < fmt.fraction:
        raw = raw << (fmt.fraction - fraction)
    return saturate_array(raw, fmt, stats, stage)


def quantize_array(
    values: np.ndarray,
    fmt: FxFormat,
    stats: SaturationStats | None = None,
    stage: str | None = None,
) -> np.ndarray:
    """Vector form of fx_quantize: floor then saturate, returns int64 raws.

    Saturation happens in float64, before the cast: a float -> int64 cast is
    undefined beyond the int64 range. The bounds +-2**(width - 1) are exact
    powers of two, where float(max_raw) rounds up to 2**63 at width 64.
    """
    v = np.floor(np.asarray(values, dtype=np.float64) * fmt.scale)
    top = 2.0 ** (fmt.width - 1)
    high, low = v >= top, v < -top
    if stats is not None:
        stats.record(stage, int(np.count_nonzero(high)) + int(np.count_nonzero(low)))
    raw = np.where(high | low, 0.0, v).astype(np.int64)
    raw[high], raw[low] = fmt.max_raw, fmt.min_raw
    return raw


def check_score_formats(feature: FxFormat, coefficient: FxFormat, bias: FxFormat) -> None:
    """ValueError unless a window score of these formats is exact in float64.

    Feature and coefficient fractions that do not sum to the bias fraction
    have no exact accumulator, and a worst-case score magnitude reaching
    2**53 is where float64 stops being exact: below it every partial sum of
    the SCORE_TERMS products and the bias is an exact integer, so any order
    of summation gives the same total.
    """
    # the largest |score| any partial sum can reach: a raw's magnitude is at
    # most 2**(width - 1), a coefficient's max_raw
    worst = (SCORE_TERMS * (1 << (feature.width - 1)) * coefficient.max_raw
             + (1 << (bias.width - 1)))
    if worst >= 1 << 53:
        raise ValueError(f"features {feature}, coefficients {coefficient} and bias "
                         f"{bias} can reach 2**53: float64 scoring would not be exact")
    if bias.fraction != feature.fraction + coefficient.fraction:
        raise ValueError("feature and coefficient fractions must sum to the "
                         "accumulator fraction")


def dump_raws(grid: np.ndarray) -> bytes:
    """Flat binary blob of a raw grid: C order, little-endian int32."""
    return np.ascontiguousarray(grid, dtype="<i4").tobytes()


@dataclass(frozen=True)
class PrecisionProfile:
    """Per-stage fixed-point formats of the detection pipeline.

    The defaults are the shipped datapath widths; tests pin them, and every
    stage takes its format from here rather than hard-coding widths. Window
    scores carry ``svm_bias``, the fraction the exact accumulation lands on.
    A field that is not an FxFormat raises TypeError here, and score formats
    that check_score_formats rejects ValueError, before any frame runs.
    """

    gradient_magnitude: FxFormat = field(default=FxFormat(11, 3))
    histogram_value: FxFormat = field(default=FxFormat(18, 4))
    prepare_first_norm: FxFormat = field(default=FxFormat(42, 8))
    first_inv_sqrt: FxFormat = field(default=FxFormat(24, 18))
    feature_after_first_norm: FxFormat = field(default=FxFormat(10, 9))
    second_inv_sqrt: FxFormat = field(default=FxFormat(22, 16))
    final_feature: FxFormat = field(default=FxFormat(10, 9))
    svm_coefficient: FxFormat = field(default=FxFormat(11, 10))
    svm_bias: FxFormat = field(default=FxFormat(33, 19))

    def __post_init__(self) -> None:
        for f in fields(self):
            if not isinstance(getattr(self, f.name), FxFormat):
                raise TypeError(f"{f.name} must be an FxFormat, got {getattr(self, f.name)!r}")
        # the histogram widens each halved magnitude into its own fraction
        # with a left shift, which must not be negative
        if self.gradient_magnitude.fraction != MAGNITUDE_FRACTION:
            raise ValueError(
                f"gradient_magnitude {self.gradient_magnitude} must have "
                f"{MAGNITUDE_FRACTION} fractional bits"
            )
        if self.histogram_value.fraction < self.gradient_magnitude.fraction:
            raise ValueError(
                f"histogram_value {self.histogram_value} has fewer fractional bits "
                f"than gradient_magnitude {self.gradient_magnitude}"
            )
        check_score_formats(self.final_feature, self.svm_coefficient, self.svm_bias)


DEFAULT_PROFILE = PrecisionProfile()
