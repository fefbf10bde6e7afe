"""Exact float reference path: gradients, interpolation, L2-hys, scoring."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import hogstream.detector
import hogstream.oracle
from hogstream.detector import BAND_CELL_ROWS, run_pipeline
from hogstream.fixedpoint import FxFormat, PrecisionProfile
from hogstream.gradient import gradient_index, orient_bin_pair
from hogstream.normalize import block_cells
from hogstream.oracle import (
    float_blocks,
    float_cells,
    _interp_weights,
    _pixel_table,
    compare_paths,
)
from hogstream.stream import Frame, GeometryError
from hogstream.svm import WINDOW_FEATURES, block_dots, window_sums
from hogstream.trainer import FloatModel, quantize_model
from reference import (
    BAND_EDGE_CELL_ROWS,
    gradient_field,
    oracle_bin_pair,
    oracle_block_normalize,
    oracle_cell_histogram,
    oracle_gradient,
    oracle_score,
    reference_run,
    table_index,
)


def frame_of(px):
    return Frame.from_array(np.asarray(px, dtype=np.uint8))


def ramp_frame(step_x, step_y, w=24, h=24):
    xs = np.arange(w) * step_x
    ys = np.arange(h) * step_y
    return frame_of(ys[:, None] + xs[None, :])


def test_oracle_gradient_values():
    px = np.zeros((8, 8), dtype=np.uint8)
    px[3, 4] = 100
    f = frame_of(px)
    g = oracle_gradient(f, 3, 3)   # right neighbor is the spike
    assert (g.gx, g.gy) == (100, 0)
    assert g.magnitude == 100.0 and g.theta_deg == 0.0
    g = oracle_gradient(f, 4, 2)   # neighbor below is the spike
    assert (g.gx, g.gy) == (0, 100)
    assert g.theta_deg == 90.0


def test_oracle_gradient_345():
    px = np.zeros((8, 8), dtype=np.uint8)
    px[4, 5] = 3    # right of (4,4)
    px[5, 4] = 4    # below (4,4)
    g = oracle_gradient(frame_of(px), 4, 4)
    assert (g.gx, g.gy) == (3, 4)
    assert g.magnitude == 5.0
    assert abs(g.theta_deg - math.degrees(math.atan2(4, 3))) < 1e-12


def test_oracle_gradient_negative_quadrant():
    px = np.zeros((8, 8), dtype=np.uint8)
    px[4, 3] = 7    # left of (4,4)
    px[5, 4] = 7    # below (4,4)
    g = oracle_gradient(frame_of(px), 4, 4)
    assert (g.gx, g.gy) == (-7, 7)
    assert g.theta_deg == 135.0


def test_oracle_gradient_zero_and_bounds():
    f = frame_of(np.full((8, 8), 50))
    g = oracle_gradient(f, 2, 2)
    assert g.magnitude == 0.0 and g.theta_deg == 0.0
    with pytest.raises(GeometryError):
        oracle_gradient(f, 8, 0)


def test_oracle_bin_pair_matches_fixed():
    rng = np.random.default_rng(70)
    for _ in range(2000):
        gx = int(rng.integers(-255, 256))
        gy = int(rng.integers(-255, 256))
        assert oracle_bin_pair(gx, gy) == orient_bin_pair(gx, gy)


def test_interp_weights_wrap():
    lo, frac = _interp_weights(np.array([10.0, 30.0, 170.0, 175.0, 5.0, 0.0]))
    assert lo.tolist() == [0, 1, 8, 8, 8, 8]
    assert ((lo + 1) % 9).tolist() == [1, 2, 0, 0, 0, 0]
    # theta=170 is exactly center 8: nothing spills into bin 0
    assert frac.tolist() == [0.0, 0.0, 0.0, 0.25, 0.75, 0.5]


def test_interp_theta_zero_splits_evenly():
    # ramp along x: interior gx = 2*step, theta = 0 lies midway between
    # centers 170 and 10, so the mass splits in half
    f = ramp_frame(step_x=2, step_y=0)
    h = oracle_cell_histogram(f, 1, 1)  # fully interior cell
    assert h[8] == pytest.approx(h[0])
    assert h[8] == pytest.approx(0.5 * 4.0 * 64)
    assert h[1:8].sum() == 0.0


def test_interp_theta_90_single_bin():
    # theta=90 is exactly center 4: all mass in bin 4
    f = ramp_frame(step_x=0, step_y=3)
    h = oracle_cell_histogram(f, 1, 1)
    assert h[4] == pytest.approx(6.0 * 64)
    assert np.delete(h, 4).sum() == 0.0


def test_interp_theta_45_quarter_split():
    # theta=45: u = 1.75, so bin 1 takes 25% and bin 2 takes 75%
    f = ramp_frame(step_x=1, step_y=1)
    h = oracle_cell_histogram(f, 1, 1)
    m = 64 * 2.0 * math.sqrt(2.0)
    assert h[1] == pytest.approx(0.25 * m)
    assert h[2] == pytest.approx(0.75 * m)
    assert np.delete(h, [1, 2]).sum() == 0.0


@pytest.mark.parametrize("rows, cols", [(2, 2), (3, 5), *zip(BAND_EDGE_CELL_ROWS, (2, 3, 2, 2))])
def test_cell_histogram_mass_conservation(rows, cols):
    # square and non-square grids: the scatter's cell index is row * cols + col;
    # the band-edge heights run over one band or several, the blocks of a band
    # taking the last cell row of the one before
    rng = np.random.default_rng(71 + rows)
    f = frame_of(rng.integers(0, 256, size=(rows * 8, cols * 8), dtype=np.uint8))
    ref = reference_run(f)
    assert ref.hist_grid.shape == (rows, cols, 9)
    assert ref.block_grid.shape == (rows - 1, cols - 1, 36)
    mag = np.hypot(*gradient_field(f.pixels))
    want = np.empty((rows, cols, 9))
    for r in range(rows):
        for c in range(cols):
            want[r, c] = oracle_cell_histogram(f, r, c)
            cell_mag = mag[r * 8:(r + 1) * 8, c * 8:(c + 1) * 8]
            assert want[r, c].sum() == pytest.approx(cell_mag.sum())
            assert np.allclose(ref.hist_grid[r, c], want[r, c])
    for r in range(rows - 1):
        for c in range(cols - 1):
            cells = want[[r, r + 1, r, r + 1], [c, c, c + 1, c + 1]]
            assert np.allclose(ref.block_grid[r, c], oracle_block_normalize(cells),
                               rtol=1e-12, atol=1e-15)
    with pytest.raises(GeometryError):
        oracle_cell_histogram(f, rows, 0)


def test_block_normalize_properties():
    rng = np.random.default_rng(72)
    hists = rng.uniform(0, 500, size=(4, 9))
    out = oracle_block_normalize(hists)
    assert out.shape == (36,)
    assert np.all(out >= 0) and np.all(out <= 1.0)
    # scale invariance (epsilon is negligible at this magnitude)
    assert np.allclose(out, oracle_block_normalize(hists * 7.5), atol=1e-9)
    # the second pass renormalizes to unit length whether or not clipping bites
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-6)


def test_block_normalize_one_hot_and_zero():
    h = np.zeros((4, 9))
    assert oracle_block_normalize(h).sum() == 0.0
    h[0, 0] = 100.0
    out = oracle_block_normalize(h)
    assert out[0] == pytest.approx(1.0, abs=1e-6)
    assert out[1:].sum() == 0.0


def test_block_normalize_equal_entries():
    out = oracle_block_normalize(np.full((4, 9), 3.0))
    assert np.allclose(out, 1.0 / 6.0, atol=1e-7)


def test_oracle_score_exact():
    rng = np.random.default_rng(73)
    f = rng.uniform(-1, 1, WINDOW_FEATURES)
    w = rng.uniform(-1, 1, WINDOW_FEATURES)
    b = 0.125
    got = oracle_score(f, w, b)
    exact = sum(Fraction(x) * Fraction(y) for x, y in zip(f, w)) + Fraction(b)
    assert abs(got - float(exact)) < 1e-9
    with pytest.raises(GeometryError):
        oracle_score(f[:10], w, b)


@pytest.mark.parametrize("cell_rows", BAND_EDGE_CELL_ROWS)
def test_reference_scores_match_window_dot(cell_rows):
    rng = np.random.default_rng(75 + cell_rows)
    f = frame_of(rng.integers(0, 256, size=(cell_rows * 8, 80), dtype=np.uint8))
    w = rng.uniform(-0.5, 0.5, WINDOW_FEATURES)
    b = 0.25
    ref = reference_run(f, w, b)
    assert ref.scores.shape == (cell_rows - 15, 3)
    for r in range(ref.scores.shape[0]):
        for c in range(ref.scores.shape[1]):
            window = ref.block_grid[r : r + 15, c : c + 7].reshape(WINDOW_FEATURES)
            assert ref.scores[r, c] == pytest.approx(
                oracle_score(window, w, b), rel=1e-12, abs=1e-12
            )


def test_compare_paths_reports():
    rng = np.random.default_rng(76)
    f = frame_of(rng.integers(0, 256, size=(128, 64), dtype=np.uint8))
    w = rng.uniform(-0.3, 0.3, WINDOW_FEATURES)
    b = -0.1
    qm = quantize_model(FloatModel(weights=w, bias=b))
    rep = compare_paths(f, qm, w * qm.scale_applied, b * qm.scale_applied)
    assert rep.pixels == 128 * 64
    assert rep.anchors == 1
    assert rep.bin_pair_disagreement_rate == 0.0   # binning is bit-exact
    # full-range noise saturates the magnitude stage, so block features drift
    # visibly from the exact path; 0.101 observed on this seed, frozen with slack
    assert rep.block_feature_max_abs_err < 0.15
    assert 0.0 <= rep.classification_disagreement_rate <= 1.0
    txt = rep.to_text()
    assert "bin_pair_disagreement_rate 0.0" in txt
    assert txt.endswith("\n") and len(txt.splitlines()) == 12


def test_compare_paths_accepts_preshared_run():
    rng = np.random.default_rng(77)
    f = frame_of(rng.integers(0, 256, size=(128, 64), dtype=np.uint8))
    w = rng.uniform(-0.3, 0.3, WINDOW_FEATURES)
    qm = quantize_model(FloatModel(weights=w, bias=0.0))
    run = run_pipeline(f, qm)
    a = compare_paths(f, qm, w * qm.scale_applied, 0.0)
    b = compare_paths(f, qm, w * qm.scale_applied, 0.0, fixed_run=run)
    assert a == b


def test_compare_paths_decodes_a_given_run_with_its_own_profile():
    # a run from a narrow profile: passing that profile reports as a fresh
    # compare does; omitting it once decoded the run at the default scales
    profile = PrecisionProfile(feature_after_first_norm=FxFormat(12, 11),
                               final_feature=FxFormat(12, 11),
                               svm_coefficient=FxFormat(11, 8))
    rng = np.random.default_rng(0)
    f = frame_of(rng.integers(0, 256, size=(128, 64), dtype=np.uint8))
    w = rng.uniform(-0.3, 0.3, WINDOW_FEATURES)
    qm = quantize_model(FloatModel(weights=w, bias=0.0), profile)
    run = run_pipeline(f, qm, profile)
    assert run.profile == profile
    fw = w * qm.scale_applied
    rep = compare_paths(f, qm, fw, 0.0, profile=profile, fixed_run=run)
    assert rep == compare_paths(f, qm, fw, 0.0, profile=profile)
    assert rep.block_feature_max_abs_err < 0.15
    with pytest.raises(ValueError, match="profile"):
        compare_paths(f, qm, fw, 0.0, fixed_run=run)


def test_compare_paths_holds_one_band_at_a_time():
    # both paths stream band by band beside the given run: rebuilding every
    # float stage over the whole frame peaked at 159 MiB on this 1080p frame
    rng = np.random.default_rng(80)
    f = frame_of(rng.integers(0, 256, size=(1080, 1920), dtype=np.uint8))
    w = rng.uniform(-0.3, 0.3, WINDOW_FEATURES)
    qm = quantize_model(FloatModel(weights=w, bias=0.0))
    run = run_pipeline(f, qm)
    tracemalloc.start()
    try:
        rep = compare_paths(f, qm, w * qm.scale_applied, 0.0, fixed_run=run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.pixels, rep.blocks, rep.anchors) == (1080 * 1920, 134 * 239, 120 * 233)
    assert peak <= 60 << 20, f"peak {peak / 2**20:.1f} MiB"


def count_calls(monkeypatch, name: str) -> list:
    """Record every call of the detector's function ``name``, made in the
    detector or in the oracle, where the oracle binds it."""
    calls = []
    fn = getattr(hogstream.detector, name)
    for module in (hogstream.detector, hogstream.oracle):
        if hasattr(module, name):
            monkeypatch.setattr(module, name,
                                lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    return calls


def count_fixed_passes(monkeypatch) -> list:
    """Record every pass over the frame: every run of the one band loop,
    detector.band_loop."""
    return count_calls(monkeypatch, "band_loop")


def test_compare_paths_checks_the_float_model_before_any_stage(monkeypatch):
    # NaN weights once cost a whole fixed run before the ValueError
    calls = count_fixed_passes(monkeypatch)
    rng = np.random.default_rng(81)
    f = frame_of(rng.integers(0, 256, size=(128, 64), dtype=np.uint8))
    qm = quantize_model(FloatModel(np.zeros(WINDOW_FEATURES), 0.0))
    with pytest.raises(ValueError, match="finite"):
        compare_paths(f, qm, np.full(WINDOW_FEATURES, np.nan), 0.0)
    with pytest.raises(ValueError, match="finite"):
        compare_paths(f, qm, np.zeros(WINDOW_FEATURES), 0.0, threshold=float("nan"))
    with pytest.raises(GeometryError, match="smaller than one"):
        compare_paths(frame_of(np.zeros((120, 64))), qm, np.zeros(WINDOW_FEATURES), 0.0)
    assert calls == []


def test_compare_paths_scores_from_its_own_fixed_pass(monkeypatch):
    # without a fixed_run, compare once ran run_pipeline for the scores and a
    # second fixed pass for the per-pixel values, and the float path formed
    # its own index of every band; 17 cell rows make three bands
    rng = np.random.default_rng(82)
    f = frame_of(rng.integers(0, 256, size=(136, 72), dtype=np.uint8))
    w = rng.uniform(-0.3, 0.3, WINDOW_FEATURES)
    qm = quantize_model(FloatModel(weights=w, bias=0.1))
    fw, fb = w * qm.scale_applied, 0.1 * qm.scale_applied
    calls = count_fixed_passes(monkeypatch)
    indices = count_calls(monkeypatch, "gradient_index")
    rep = compare_paths(f, qm, fw, fb, threshold=-0.05)
    assert len(calls) == 1
    assert len(indices) == -(-17 // BAND_CELL_ROWS)   # both paths read one index per band
    run = run_pipeline(f, qm)
    assert rep == compare_paths(f, qm, fw, fb, threshold=-0.05, fixed_run=run)
    assert rep.anchors == 2 * 2


def test_pixel_table_is_the_whole_grid_expressions():
    # every entry, bit for bit (so -0.0 against +0.0 too), equals the
    # per-pixel expressions evaluated over the whole gradient grid in one pass
    g = np.arange(-255, 256, dtype=np.int32)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    m = np.hypot(gx, gy)
    lo, frac = _interp_weights(np.degrees(np.arctan2(gy, gx)) % 180.0)
    tables = _pixel_table()
    assert [t.dtype for t in tables] == [np.float64, np.uint8, np.float64]
    for got, want in zip(tables, (m, lo, frac)):
        assert got.shape == (511 * 511,) and not got.flags.writeable
        assert np.array_equal(got, want.ravel())
    for got, want in ((tables[0], m), (tables[2], frac)):
        assert np.array_equal(got.view(np.uint64), want.ravel().view(np.uint64))
    # the index the fixed path gathers with addresses the same entries
    assert np.array_equal(table_index(gx, gy), np.arange(511 * 511).reshape(511, 511))


def band_by_expressions(frame, r0, r1, last):
    """The float path's values over cell rows r0..r1, every per-pixel float
    evaluated on the band itself, with no table."""
    cols = frame.width // 8
    gx, gy = gradient_field(frame.pixels, r0 * 8, r1 * 8)
    m = np.hypot(gx, gy)
    lo, frac = _interp_weights(np.degrees(np.arctan2(gy, gx)) % 180.0)
    cell = (np.arange((r1 - r0) * 8)[:, None] // 8 * cols + np.arange(frame.width) // 8) * 9
    n = (r1 - r0) * cols * 9
    hist = (np.bincount((cell + lo).ravel(), weights=(m * (1.0 - frac)).ravel(), minlength=n)
            + np.bincount((cell + (lo + 1) % 9).ravel(), weights=(m * frac).ravel(),
                          minlength=n)).reshape(r1 - r0, cols, 9)
    f4 = block_cells(np.concatenate((last, hist)))
    f_l2 = f4 / np.sqrt((f4 * f4).sum(axis=2) + 1e-12)[:, :, None]
    f_th = np.minimum(f_l2, 0.2)
    blocks = f_th / np.sqrt((f_th * f_th).sum(axis=2) + 1e-12)[:, :, None]
    return m, lo, hist, blocks


@pytest.mark.parametrize("cell_rows", BAND_EDGE_CELL_ROWS)
def test_float_stages_match_the_per_pixel_expressions(cell_rows):
    # the two stages band by band, as compare_paths runs them, each band's
    # blocks taking the last cell row of the band before; a whole-grid run
    # (reference_run, as the trainer runs them) gives the same grids and
    # scores, byte for byte
    rng = np.random.default_rng(83 + cell_rows)
    f = frame_of(rng.integers(0, 256, size=(cell_rows * 8, 72), dtype=np.uint8))
    w = rng.uniform(-0.5, 0.5, WINDOW_FEATURES)
    last = np.empty((0, 9, 9))
    scores = np.full((cell_rows - 15, 2), 0.25)   # the anchors of 9 cell columns
    hists, block_grids = [], []
    for r0 in range(0, cell_rows, BAND_CELL_ROWS):
        r1 = min(r0 + BAND_CELL_ROWS, cell_rows)
        m, lo, hist = float_cells(gradient_index(f.pixels, r0 * 8, r1 * 8))
        blocks = float_blocks(np.concatenate((last, hist)))
        want_m, want_lo, want_hist, want_blocks = band_by_expressions(f, r0, r1, last)
        last = hist[-1:]
        assert np.array_equal(m, want_m)
        assert np.array_equal(lo[m > 0], want_lo[m > 0])
        assert np.array_equal(hist, want_hist)
        assert np.array_equal(blocks, want_blocks)
        window_sums(block_dots(blocks, w.reshape(105, 36)), scores, max(r0 - 1, 0))
        hists.append(hist)
        block_grids.append(blocks)
    ref = reference_run(f, w, 0.25)
    assert np.array_equal(ref.hist_grid, np.concatenate(hists))
    assert np.array_equal(ref.block_grid, np.concatenate(block_grids))
    assert np.array_equal(ref.scores, scores)


def test_compare_paths_rejects_a_run_of_another_frame_shape():
    # a 64x128 run given for a 72x136 frame once failed deep in numpy broadcasting
    rng = np.random.default_rng(79)
    w = rng.uniform(-0.3, 0.3, WINDOW_FEATURES)
    qm = quantize_model(FloatModel(weights=w, bias=0.0))
    run = run_pipeline(frame_of(rng.integers(0, 256, size=(128, 64), dtype=np.uint8)), qm)
    f = frame_of(rng.integers(0, 256, size=(136, 72), dtype=np.uint8))
    with pytest.raises(GeometryError, match="64x128 frame, not 72x136"):
        compare_paths(f, qm, w * qm.scale_applied, 0.0, fixed_run=run)


def first_differing_anchor(a, b) -> tuple[int, int]:
    """Raster-order first anchor where two score maps differ."""
    for r in range(a.scores_raw.shape[0]):
        for c in range(a.scores_raw.shape[1]):
            if a.scores_raw[r, c] != b.scores_raw[r, c]:
                return r, c
    raise AssertionError("the score maps are equal")


@pytest.mark.parametrize("other", ["model", "frame"])
def test_compare_paths_rejects_a_run_it_does_not_reproduce(other):
    # a run of another model or of another frame of the same shape was once
    # reported on as if it were this frame's run under this model
    rng = np.random.default_rng(83)
    f, g = (frame_of(rng.integers(0, 256, size=(136, 72), dtype=np.uint8)) for _ in range(2))
    w, v = rng.uniform(-0.3, 0.3, (2, WINDOW_FEATURES))
    qm = quantize_model(FloatModel(weights=w, bias=0.0))
    own = run_pipeline(f, qm)
    given = run_pipeline(f, quantize_model(FloatModel(weights=v, bias=0.0))) \
        if other == "model" else run_pipeline(g, qm)
    r, c = first_differing_anchor(own.score_map, given.score_map)
    with pytest.raises(ValueError, match=rf"anchor \({r}, {c}\)"):
        compare_paths(f, qm, w * qm.scale_applied, 0.0, fixed_run=given)
    compare_paths(f, qm, w * qm.scale_applied, 0.0, fixed_run=own)


@pytest.mark.parametrize("thr", [float("nan"), float("inf"), -float("inf")])
def test_compare_paths_rejects_non_finite_threshold(thr):
    rng = np.random.default_rng(78)
    f = frame_of(rng.integers(0, 256, size=(128, 64), dtype=np.uint8))
    w = rng.uniform(-0.3, 0.3, WINDOW_FEATURES)
    qm = quantize_model(FloatModel(weights=w, bias=0.0))
    with pytest.raises(ValueError, match="finite"):
        compare_paths(f, qm, w * qm.scale_applied, 0.0, threshold=thr)


@pytest.mark.parametrize("weights, bias", [
    (np.full(WINDOW_FEATURES, np.nan), 0.0),
    (np.zeros(WINDOW_FEATURES - 1), 0.0),
    (np.zeros(WINDOW_FEATURES), float("inf")),
    (np.zeros(WINDOW_FEATURES), float("nan")),
], ids=["nan_weights", "3779_weights", "inf_bias", "nan_bias"])
def test_reference_run_rejects_a_float_model_it_cannot_score(weights, bias):
    # NaN weights would give a report of NaN errors and count disagreements
    # against NaN scores
    frame = frame_of(np.random.default_rng(64).integers(0, 256, size=(128, 64)))
    model = quantize_model(FloatModel(np.zeros(WINDOW_FEATURES), 0.0))
    with pytest.raises(ValueError, match="finite"):
        reference_run(frame, weights, bias)
    with pytest.raises(ValueError, match="finite"):
        compare_paths(frame, model, weights, bias)
