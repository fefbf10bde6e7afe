"""Fixed-point core: quantization, arithmetic, saturation policy, profile."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hogstream.fixedpoint import (
    DEFAULT_PROFILE,
    HISTOGRAM,
    INV_SQRT1,
    MAGNITUDE,
    NORM1,
    NORM2,
    SATURATING_STAGES,
    SVM,
    Fx,
    FxFormat,
    PrecisionProfile,
    SaturationStats,
    fx_quantize,
    quantize_array,
    requantize_array,
    requantize_raws,
    saturate_array,
    saturate_raw,
)
from reference import requantize_raw

F10_9 = FxFormat(10, 9)
F11_3 = FxFormat(11, 3)


def test_format_ranges():
    assert F10_9.min_raw == -512 and F10_9.max_raw == 511
    assert F10_9.scale == 512
    assert F11_3.max_raw / F11_3.scale == 127.875
    assert str(F11_3) == "(11,3)"


def test_format_validation():
    with pytest.raises(ValueError):
        FxFormat(0, 0)
    with pytest.raises(ValueError):
        FxFormat(8, 8)  # fraction must leave room for the sign bit
    with pytest.raises(ValueError):
        FxFormat(65, 2)
    for width, fraction in [(10.5, 3), (10, 3.0), ("10", 3), (None, 0)]:
        with pytest.raises(TypeError, match="must be an integer"):
            FxFormat(width, fraction)
    # numpy integers are taken, as Python ints: a numpy width wrapped max_raw
    f = FxFormat(np.int64(64), np.uint8(3))
    assert f == FxFormat(64, 3) and type(f.width) is int and type(f.fraction) is int
    assert (f.min_raw, f.max_raw) == (-(1 << 63), (1 << 63) - 1)


def test_fx_range_checked():
    with pytest.raises(ValueError):
        Fx(512, F10_9)
    assert Fx(-512, F10_9).value == -1.0


def test_quantize_examples():
    q = fx_quantize(0.2, F10_9)
    assert q.raw == 102 and q.value == 0.19921875
    assert fx_quantize(-0.2, F10_9).raw == -103      # floor, not round
    assert fx_quantize(1000.0, F11_3).value == 127.875  # saturates at the max


def test_quantize_saturation_counted():
    stats = SaturationStats()
    fx_quantize(1000.0, F11_3, stats, MAGNITUDE)
    fx_quantize(-1000.0, F11_3, stats, MAGNITUDE)
    fx_quantize(1.0, F11_3, stats, MAGNITUDE)
    assert stats[MAGNITUDE] == 2
    assert stats[SVM] == 0
    assert sum(stats.counts.values()) == 2


@pytest.mark.parametrize("label", ["nrom1", "mag", "saturate", "requantize", "quantize", None])
def test_saturation_stats_reject_a_label_outside_the_table(label):
    # a misspelt label raises even when nothing clips, on both methods
    stats = SaturationStats()
    for read_or_count in (stats.__getitem__, stats.record, lambda s: stats.record(s, 0)):
        with pytest.raises(ValueError, match="not a saturating stage"):
            read_or_count(label)
    assert stats.counts == {} and label not in SATURATING_STAGES


def test_saturating_helpers_need_a_stage_to_count():
    # a helper given a sink but no stage counts nothing it did not clip, and
    # raises at its first count
    stats = SaturationStats()
    assert saturate_raw(5, F11_3, stats) == 5
    assert saturate_array(np.array([5]), F11_3, stats).tolist() == [5]
    for clip in (lambda: saturate_raw(F11_3.max_raw + 1, F11_3, stats),
                 lambda: requantize_raws([1 << 20], 3, F11_3, stats),
                 lambda: quantize_array(np.array([0.0]), F11_3, stats)):
        with pytest.raises(ValueError, match="not a saturating stage"):
            clip()
    assert stats.counts == {}


def test_mul_example():
    f = Fx(102, F10_9)  # 0.19921875
    r = requantize_raw(f.raw * f.raw, 2 * F10_9.fraction, F10_9)
    assert r == 20  # floor(102*102 / 512)


def test_mul_truncates_toward_minus_inf():
    a = Fx(-102, F10_9)
    b = Fx(102, F10_9)
    r = requantize_raw(a.raw * b.raw, a.format.fraction + b.format.fraction, F10_9)
    assert r == math.floor(-102 * 102 / 512)  # -21, not -20


def test_widening_requantize_is_exact():
    raw = requantize_raw(5, 3, FxFormat(18, 4))
    assert raw == 10


formats = (
    st.tuples(
        st.integers(min_value=2, max_value=48),
        st.integers(min_value=0, max_value=20),
    )
    .filter(lambda wf: wf[1] < wf[0])
    .map(lambda wf: FxFormat(width=wf[0], fraction=wf[1]))
)


@st.composite
def fx_values(draw, fmt=None):
    f = draw(formats) if fmt is None else fmt
    raw = draw(st.integers(min_value=f.min_raw, max_value=f.max_raw))
    return Fx(raw, f)


@given(fx_values())
def test_roundtrip_exact_values(v):
    # every representable value quantizes back to itself
    assert fx_quantize(v.value, v.format).raw == v.raw


@given(st.data())
@settings(max_examples=200)
def test_mul_matches_bigint_oracle(data):
    a = data.draw(fx_values())
    b = data.draw(fx_values())
    out = data.draw(formats)
    got = requantize_raw(a.raw * b.raw, a.format.fraction + b.format.fraction, out)
    # independent arbitrary-precision recomputation
    prod = a.raw * b.raw
    frac = a.format.fraction + b.format.fraction
    if frac > out.fraction:
        expect = prod >> (frac - out.fraction)
    else:
        expect = prod << (out.fraction - frac)
    expect = max(out.min_raw, min(out.max_raw, expect))
    assert got == expect
    # the shift really is floor division
    assert prod >> 1 == math.floor(Fraction(prod, 2))


@given(st.data())
@settings(max_examples=200)
def test_add_matches_bigint_oracle(data):
    fmt = data.draw(formats)
    a = data.draw(fx_values(fmt=fmt))
    b = data.draw(fx_values(fmt=fmt))
    out = data.draw(formats)
    got = requantize_raw(a.raw + b.raw, fmt.fraction, out)
    s = a.raw + b.raw
    if fmt.fraction > out.fraction:
        expect = s >> (fmt.fraction - out.fraction)
    else:
        expect = s << (out.fraction - fmt.fraction)
    expect = max(out.min_raw, min(out.max_raw, expect))
    assert got == expect


@given(st.data())
@settings(max_examples=200)
def test_quantize_matches_fraction_oracle(data):
    fmt = data.draw(formats)
    num = data.draw(st.integers(min_value=-(10**6), max_value=10**6))
    den = data.draw(st.integers(min_value=1, max_value=997))
    value = num / den
    got = fx_quantize(value, fmt)
    expect = math.floor(Fraction(value) * fmt.scale)  # exact: float -> Fraction is exact
    expect = max(fmt.min_raw, min(fmt.max_raw, expect))
    assert got.raw == expect


def test_array_ops_match_scalar():
    rng = np.random.default_rng(7)
    fmt = FxFormat(12, 5)
    raws = rng.integers(-(1 << 15), 1 << 15, size=300)
    out = saturate_array(raws.copy(), fmt)
    assert [saturate_raw(int(r), fmt) for r in raws] == out.tolist()

    req = requantize_array(raws.copy(), 8, fmt)
    assert [requantize_raw(int(r), 8, fmt) for r in raws] == req.tolist()

    vals = rng.uniform(-100, 100, size=300)
    qa = quantize_array(vals, fmt)
    assert [fx_quantize(float(v), fmt).raw for v in vals] == qa.tolist()


@pytest.mark.parametrize("fmt", [FxFormat(24, 18), FxFormat(63, 0), FxFormat(64, 40)],
                         ids=str)
@pytest.mark.parametrize("value", [2.0**62, -(2.0**62), 2.0**63, -(2.0**63), 1e30, -1e30])
def test_quantize_array_saturates_beyond_int64_like_scalar(fmt, value):
    # floor(value * scale) can lie beyond the int64 range, where a float -> int64
    # cast is undefined; both forms must saturate to the same end and count it
    array_stats, scalar_stats = SaturationStats(), SaturationStats()
    got = quantize_array(np.array([value, 0.0]), fmt, array_stats, INV_SQRT1)
    want = fx_quantize(value, fmt, scalar_stats, INV_SQRT1).raw
    assert got.tolist() == [want, 0]
    assert array_stats.counts == scalar_stats.counts


@st.composite
def raw_lists(draw):
    """(raws, fraction, fmt): a format of any width, a source fraction on
    either side of its own, and raws that land inside it, next to either
    bound after the shift, or lie beyond the int64 range."""
    width = draw(st.integers(min_value=1, max_value=64))
    fmt = FxFormat(width, draw(st.integers(min_value=0, max_value=width - 1)))
    fraction = draw(st.integers(min_value=0, max_value=80))
    shift = fraction - fmt.fraction

    def at_source(raw):
        return raw << shift if shift >= 0 else raw >> -shift

    inside = st.integers(fmt.min_raw, fmt.max_raw).map(at_source)
    step = 1 << max(shift, 0)
    near = st.sampled_from([fmt.min_raw, fmt.max_raw]).flatmap(
        lambda b: st.integers(at_source(b) - 3 * step, at_source(b) + 3 * step))
    huge = st.sampled_from([1, -1]).flatmap(
        lambda sign: st.integers(1 << 63, 1 << 90).map(lambda r: sign * r))
    element = draw(st.sampled_from([inside, st.one_of(inside, near, huge)]))
    return draw(st.lists(element, max_size=40)), fraction, fmt


@given(raw_lists())
@settings(max_examples=400)
def test_requantize_raws_matches_scalar(case):
    raws, fraction, fmt = case
    list_stats, scalar_stats = SaturationStats(), SaturationStats()
    got = requantize_raws(list(raws), fraction, fmt, list_stats, NORM1)
    want = [requantize_raw(r, fraction, fmt, scalar_stats, NORM1) for r in raws]
    assert got == want
    assert list_stats.counts == scalar_stats.counts


def test_requantize_raws_returns_an_unclipped_list_as_is():
    raws = [F10_9.min_raw, 0, F10_9.max_raw]
    stats = SaturationStats()
    assert requantize_raws(raws, F10_9.fraction, F10_9, stats) is raws
    assert requantize_raws([], 12, F10_9, stats) == []
    assert stats.counts == {}
    assert requantize_raws([4096, -4096, 4], 11, F10_9, stats, NORM2) == [511, -512, 1]
    assert stats.counts == {NORM2: 2}


def test_array_saturation_counts():
    stats = SaturationStats()
    saturate_array(np.array([10**6, -(10**6), 0]), F11_3, stats, SVM)
    assert stats[SVM] == 2


# in range, at each bound, beyond each, mixed, and empty; each case both as
# given and after a shift of the source fraction
@pytest.mark.parametrize("raws", [
    [0, 1, -5, 1000], [F11_3.max_raw], [F11_3.min_raw], [F11_3.min_raw, F11_3.max_raw],
    [F11_3.max_raw + 1, 10**6], [F11_3.min_raw - 1, -(10**6)],
    [F11_3.max_raw + 1, 3, F11_3.min_raw - 1, F11_3.max_raw, F11_3.min_raw], [],
], ids=["inside", "top", "bottom", "both-bounds", "above", "below", "mixed", "empty"])
@pytest.mark.parametrize("fraction", [0, 3, 5])
def test_array_saturation_matches_the_clip_path(raws, fraction):
    # the clip path: saturate_raw and requantize_raw element by element. The
    # raws sit at ``fraction``, so at 3 and 5 requantize meets each bound exactly
    arr = np.array(raws, dtype=np.int64) << max(fraction - F11_3.fraction, 0)
    array_stats, scalar_stats = SaturationStats(), SaturationStats()
    assert (saturate_array(arr.copy(), F11_3, array_stats, HISTOGRAM).tolist()
            == [saturate_raw(int(r), F11_3, scalar_stats, HISTOGRAM) for r in arr])
    assert (requantize_array(arr.copy(), fraction, F11_3, array_stats, NORM2).tolist()
            == [requantize_raw(int(r), fraction, F11_3, scalar_stats, NORM2) for r in arr])
    assert array_stats.counts == scalar_stats.counts


def test_saturate_array_returns_an_unclipped_array_as_is():
    stats = SaturationStats()
    inside = np.array([F11_3.min_raw, 0, F11_3.max_raw])
    assert saturate_array(inside, F11_3, stats) is inside
    assert requantize_array(inside, F11_3.fraction, F11_3, stats) is inside
    assert stats.counts == {}
    over = np.array([F11_3.max_raw + 1, 0])
    assert saturate_array(over, F11_3, stats, SVM) is not over
    assert over.tolist() == [F11_3.max_raw + 1, 0] and stats.counts == {SVM: 1}


def test_profile_stage_formats():
    p = DEFAULT_PROFILE
    expected = {
        "gradient_magnitude": (11, 3),
        "histogram_value": (18, 4),
        "prepare_first_norm": (42, 8),
        "first_inv_sqrt": (24, 18),
        "feature_after_first_norm": (10, 9),
        "second_inv_sqrt": (22, 16),
        "final_feature": (10, 9),
        "svm_coefficient": (11, 10),
        "svm_bias": (33, 19),
    }
    got = {f.name: (getattr(p, f.name).width, getattr(p, f.name).fraction)
           for f in dataclasses.fields(p)}
    assert got == expected
    assert PrecisionProfile() == p


def test_profile_rejects_formats_the_datapath_cannot_honour():
    # the shift-add magnitude is exact at 3 fractional bits, unscaled
    for fmt in (FxFormat(11, 2), FxFormat(12, 4)):
        with pytest.raises(ValueError, match="3 fractional bits"):
            PrecisionProfile(gradient_magnitude=fmt)
    # the histogram widens halved magnitudes into its fraction; narrowing would
    # zero the array path's histograms and break the scalar path's shift
    with pytest.raises(ValueError, match="fewer fractional bits"):
        PrecisionProfile(histogram_value=FxFormat(18, 2))
    PrecisionProfile(gradient_magnitude=FxFormat(14, 3), histogram_value=FxFormat(18, 3))
    # a (width, fraction) pair would otherwise fail deep in a stage kernel
    for f in dataclasses.fields(PrecisionProfile):
        fmt = getattr(DEFAULT_PROFILE, f.name)
        with pytest.raises(TypeError, match=f"^{f.name} must be an FxFormat"):
            PrecisionProfile(**{f.name: (fmt.width, fmt.fraction)})
