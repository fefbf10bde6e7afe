"""Release gate: ten end-to-end criteria, one pass/fail line each.

Each test prints exactly one line (visible with `pytest -s`, or in the
failure report otherwise):

    PASS  <criterion>
    FAIL  <criterion>: <detail>

Regression bounds marked "frozen" were measured once on the seeded inputs
used here and pinned with slack; they guard against behavioural drift, not
against the laws of arithmetic.
"""

from __future__ import annotations

import numpy as np

from hogstream.cli import main
from hogstream.detector import (
    Detection,
    block_bands,
    cell_bands,
    detections_from_scores,
    detections_to_text,
    nms,
    run_pipeline,
)
from hogstream.fixedpoint import DEFAULT_PROFILE, SaturationStats
from hogstream.gradient import binned_field, binned_stream, magnitude_approx_raw
from hogstream.histogram import accumulate_cells
from hogstream.normalize import block_stream, fast_inv_sqrt_field, normalize_block
from hogstream.oracle import compare_paths
from hogstream.stream import CELL, Frame, context_stream, pack_frame
from hogstream.svm import SvmModel, save_model, score_windows
from hogstream.trainer import (
    make_synthetic_set,
    quantize_model,
    samples_from_frames,
    train,
)
from reference import reference_run, save_pgm, score_grid


def _check(name: str, condition: bool, detail: str = "") -> None:
    if condition:
        print(f"PASS  {name}")
    else:
        print(f"FAIL  {name}: {detail}")
    assert condition, f"{name}: {detail}" if detail else name


def test_01_magnitude_error_band():
    """Shift-add magnitude vs exact square root, exhaustively."""
    g = np.arange(256, dtype=np.int64)
    a = np.maximum(g[:, None], g[None, :])
    b = np.minimum(g[:, None], g[None, :])
    ra = a << 3
    raw = np.maximum(ra - (ra >> 3) + ((b << 3) >> 1), ra)

    rng = np.random.default_rng(101)
    pts = rng.integers(0, 256, size=(512, 2))
    mirror_ok = all(
        int(raw[x, y]) == magnitude_approx_raw(int(x), int(y)) for x, y in pts
    )

    exact = np.hypot(a.astype(np.float64), b.astype(np.float64))
    nz = exact > 0
    rel = raw[nz].astype(np.float64) / 8.0 / exact[nz] - 1.0
    on_axis = nz & (b == 0)
    axis_exact = bool(np.all(raw[on_axis] == a[on_axis] << 3))

    lo, hi = float(rel.min()), float(rel.max())
    _check(
        "magnitude approximation: rel err in [-3.2%, +0.9%] over [0,255]^2, exact on axes",
        mirror_ok and axis_exact and lo >= -0.032 and hi <= 0.009,
        f"mirror_ok={mirror_ok} axis_exact={axis_exact} band=[{lo:.5f},{hi:.5f}]",
    )


def test_02_inv_sqrt_error_band():
    """Magic-constant inverse square root vs exact 1/sqrt on a dense sweep."""
    x = np.logspace(-10.0, 10.0, 1_000_001, base=2.0)
    rel = np.abs(fast_inv_sqrt_field(x) * np.sqrt(x) - 1.0)
    worst = float(rel.max())
    _check(
        "fast inverse sqrt: |rel err| <= 0.18% on 10^6+ points in [2^-10, 2^10]",
        worst <= 0.0018,
        f"worst |rel err| = {worst:.6f}",
    )


def test_03_orientation_binning_exact():
    """Tangent-inequality bin pair vs atan2-derived pair, exhaustively."""
    g = np.arange(-255, 256, dtype=np.int64)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    # the table index of gradient (gx, gy) is (gx + 255) * 511 + gy + 255
    _, lo = binned_field(np.arange(511 * 511).reshape(511, 511))
    hi = (lo + 1) % 9

    theta = np.degrees(np.arctan2(gy, gx)) % 180.0
    lo_ref = np.floor((theta - 10.0) / 20.0).astype(np.int64) % 9
    lo_ref[(gx == 0) & (gy == 0)] = 0
    hi_ref = (lo_ref + 1) % 9

    agree = np.array_equal(lo.astype(np.int64), lo_ref) and np.array_equal(
        hi.astype(np.int64), hi_ref
    )
    bad = int(np.count_nonzero(lo.astype(np.int64) != lo_ref))
    _check(
        "orientation pair: bit-exact vs atan2 reference on exhaustive [-255,255]^2 grid",
        agree,
        f"{bad} of {lo.size} pairs differ",
    )


def _streaming_detection_text(
    frame: Frame, model: SvmModel, ppc: int, threshold: float
) -> bytes:
    packets = pack_frame(frame, ppc)
    contexts = context_stream(iter(packets), frame.width)
    binned = binned_stream(contexts)
    cells = accumulate_cells(binned, frame.width)
    blocks = block_stream(cells, frame.width // CELL)
    feats = (normalize_block(b) for b in blocks)
    score_map = score_windows(
        feats, model, frame.height // CELL - 1, frame.width // CELL - 1
    )
    dets = nms(detections_from_scores(score_map, threshold))
    return detections_to_text(dets).encode()


def test_04_ppc_invariance():
    """Detection files from the streaming path are identical for every lane width."""
    rng = np.random.default_rng(104)
    model = SvmModel(
        weights_raw=rng.integers(-200, 201, size=(15, 7, 36)), bias_raw=0
    )
    sizes = [(512, 512), (384, 256), (64, 128)]
    while len(sizes) < 50:
        sizes.append((int(rng.integers(8, 21)) * 8, int(rng.integers(16, 23)) * 8))

    mismatches = 0
    total_detections = 0
    for w, h in sizes:
        frame = Frame.from_array(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        texts = [
            _streaming_detection_text(frame, model, ppc, threshold=1.0)
            for ppc in (1, 2, 4, 8)
        ]
        if any(t != texts[0] for t in texts[1:]):
            mismatches += 1
        total_detections += texts[0].count(b"\n")

    _check(
        "ppc invariance: detection files identical for ppc 1/2/4/8 on 50 random frames",
        mismatches == 0 and total_detections > 0,
        f"{mismatches} frames differed, {total_detections} total detections",
    )


def test_05_pipelined_svm_equivalence():
    """Sliding accumulation vs a naive per-window dot product, raw-exact."""
    rng = np.random.default_rng(105)
    bad = 0
    saturated = 0
    for _ in range(100):
        br = int(rng.integers(15, 20))
        bc = int(rng.integers(7, 12))
        blocks = rng.integers(0, 512, size=(br, bc, 36)).astype(np.int64)
        model = SvmModel(
            weights_raw=rng.integers(-1023, 1024, size=(15, 7, 36)),
            bias_raw=int(rng.integers(-(1 << 24), 1 << 24)),
        )
        stats = SaturationStats()
        scores = score_grid(blocks, model, stats=stats).scores_raw
        saturated += stats.counts.get("svm", 0)
        for r in range(br - 14):
            for c in range(bc - 6):
                ref = int(
                    np.sum(blocks[r : r + 15, c : c + 7, :] * model.weights_raw)
                ) + model.bias_raw
                if int(scores[r, c]) != ref:
                    bad += 1
    _check(
        "pipelined svm: bit-identical to naive window dot on 100 grids, zero saturation",
        bad == 0 and saturated == 0,
        f"{bad} windows differ, {saturated} saturation events",
    )


def _iou_ref(a: Detection, b: Detection) -> float:
    ix = max(0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    return inter / (a.w * a.h + b.w * b.h - inter)


def _nms_ref(dets: list[Detection], thr: float) -> list[Detection]:
    rest = sorted(dets, key=lambda d: (-d.score, d.y, d.x))
    kept: list[Detection] = []
    while rest:
        best = rest.pop(0)
        kept.append(best)
        rest = [d for d in rest if _iou_ref(best, d) <= thr]
    return kept


def test_06_nms_equivalence():
    """Greedy suppression vs a brute-force pop-the-best reference."""
    rng = np.random.default_rng(106)
    bad = 0
    for trial in range(200):
        n = int(rng.integers(1, 201))
        dets = []
        for _ in range(n):
            if rng.random() < 0.7:
                dets.append(
                    Detection(
                        x=int(rng.integers(0, 81)) * 8,
                        y=int(rng.integers(0, 41)) * 8,
                        w=64,
                        h=128,
                        score=round(float(rng.uniform(-5, 5)), 2),
                    )
                )
            else:
                dets.append(
                    Detection(
                        x=int(rng.integers(0, 601)),
                        y=int(rng.integers(0, 601)),
                        w=int(rng.integers(8, 257)),
                        h=int(rng.integers(8, 257)),
                        score=round(float(rng.uniform(-5, 5)), 2),
                    )
                )
        thr = (0.3, 0.5, 0.7)[trial % 3]
        if nms(dets, thr) != _nms_ref(dets, thr):
            bad += 1
    _check(
        "nms: identical to brute-force reference on 200 random box sets",
        bad == 0,
        f"{bad} of 200 sets differ",
    )


def test_07_window_count_4k():
    """Grid arithmetic on a full 3840x2160 frame."""
    frame = Frame.from_array(np.zeros((2160, 3840), dtype=np.uint8))
    model = SvmModel(weights_raw=np.zeros((15, 7, 36), dtype=np.int64), bias_raw=0)
    run = run_pipeline(frame, model)
    hists = [hist for _, hist in cell_bands(frame, DEFAULT_PROFILE, None, {})]
    band_blocks = [blocks for _, blocks in block_bands(frame, DEFAULT_PROFILE, None, {})]
    cells = (sum(map(len, hists)), hists[-1].shape[1])
    blocks = sum(len(b) for b in band_blocks) * band_blocks[-1].shape[1]
    anchors = run.score_map.scores_raw.size
    _check(
        "4K geometry: 480x270 cells, 128851 blocks, 120615 window anchors",
        cells == (270, 480) and blocks == 128_851 and anchors == 120_615,
        f"cells={cells[1]}x{cells[0]} blocks={blocks} anchors={anchors}",
    )


# Frozen on the first calibration run over the 20 seeded frames below, with a
# model trained on the synthetic set: aggregate disagreement 8/8500 anchors
# (0.00094, all in one frame at 8/425), worst |float score| at a disagreement
# 6.9735, worst |fixed - float| score error 8.6590.
FIDELITY_MAX_AGGREGATE_RATE = 0.005
FIDELITY_MAX_FRAME_RATE = 0.03
FIDELITY_QUANT_MARGIN = 10.0


def _fidelity_frames() -> list[Frame]:
    rng = np.random.default_rng(2001)
    frames = []
    for _ in range(10):  # full-range noise: heavy magnitude saturation
        frames.append(
            Frame.from_array(rng.integers(0, 256, size=(256, 256), dtype=np.uint8))
        )
    for _ in range(10):  # blocky gradients: moderate regime
        coarse = rng.integers(0, 256, size=(32, 32))
        img = np.kron(coarse, np.ones((8, 8))) + rng.normal(0.0, 6.0, size=(256, 256))
        frames.append(Frame.from_array(np.clip(img, 0, 255).astype(np.uint8)))
    return frames


def test_08_end_to_end_fidelity():
    """Fixed path vs float path on 20 frames: disagreements rare and marginal."""
    tf, tl = make_synthetic_set(60, seed=2002)
    fm = train(samples_from_frames(tf, tl), lam=1e-4, epochs=8, seed=2002)
    qm = quantize_model(fm)
    ws = fm.weights * qm.scale_applied
    bs = fm.bias * qm.scale_applied

    anchors = 0
    disagree = 0
    worst_frame_rate = 0.0
    worst_margin = 0.0
    worst_score_err = 0.0
    consistent = True
    for frame in _fidelity_frames():
        run = run_pipeline(frame, qm)
        report = compare_paths(frame, qm, ws, bs, threshold=0.0, fixed_run=run)
        ref = reference_run(frame, ws, bs)
        flipped = (run.score_map.scores_raw > 0) != (ref.scores > 0.0)
        consistent &= int(flipped.sum()) == report.classification_disagreements
        anchors += report.anchors
        disagree += report.classification_disagreements
        worst_frame_rate = max(worst_frame_rate, report.classification_disagreement_rate)
        if flipped.any():
            worst_margin = max(worst_margin, float(np.abs(ref.scores[flipped]).max()))
        worst_score_err = max(worst_score_err, report.score_max_abs_err)

    rate = disagree / anchors
    _check(
        "fixed vs float fidelity: disagreement rate and margins within frozen bounds",
        consistent
        and rate <= FIDELITY_MAX_AGGREGATE_RATE
        and worst_frame_rate <= FIDELITY_MAX_FRAME_RATE
        and worst_margin < FIDELITY_QUANT_MARGIN
        and worst_score_err <= FIDELITY_QUANT_MARGIN,
        f"rate={rate:.5f} worst_frame_rate={worst_frame_rate:.5f} "
        f"margin={worst_margin:.4f} score_err={worst_score_err:.4f} "
        f"consistent={consistent}",
    )


def test_09_trainer_sanity():
    """Float training accuracy and quantized decision agreement, held out."""
    frames, labels = make_synthetic_set(300, seed=2003)
    samples = samples_from_frames(frames, labels)
    train_set, held = samples[:400], samples[400:]

    fm = train(train_set, lam=1e-4, epochs=10, seed=2004)
    qm = quantize_model(fm)
    qw = qm.weights_raw.reshape(-1).astype(np.float64) / qm.coeff_fmt.scale
    qb = qm.bias_raw / qm.bias_fmt.scale

    train_acc = sum(
        (fm.score(s.features) > 0) == (s.label > 0) for s in train_set
    ) / len(train_set)
    agreement = sum(
        ((float(qw @ s.features) + qb > 0) == (fm.score(s.features) > 0))
        for s in held
    ) / len(held)

    _check(
        "trainer: float training accuracy >= 99%, quantized agreement >= 99% held out",
        train_acc >= 0.99 and agreement >= 0.99,
        f"train_acc={train_acc:.4f} quantized_agreement={agreement:.4f}",
    )


def test_10_throughput_report(tmp_path, capsys):
    """Bench on a 4K frame: completes, reports fps and stage timings, counts stable."""
    rng = np.random.default_rng(110)
    img = tmp_path / "uhd.pgm"
    save_pgm(
        Frame.from_array(rng.integers(0, 256, size=(2160, 3840), dtype=np.uint8)),
        img,
    )
    mpath = tmp_path / "flat.svm"
    save_model(
        SvmModel(
            weights_raw=np.zeros((15, 7, 36), dtype=np.int64),
            bias_raw=-(1 << 19),
        ),
        mpath,
    )

    reports = []
    for _ in range(2):
        rc = main(["bench", str(img), "--model", str(mpath), "--reps", "1"])
        assert rc == 0
        fields = {}
        for line in capsys.readouterr().out.splitlines():
            key, _, value = line.partition(" ")
            fields[key if key != "stage_seconds" else "stage_" + value.split()[0]] = (
                value.split()[-1]
            )
        reports.append(fields)

    first, second = reports
    fps = float(first["frames_per_second"])
    stages = ("stage_gradient", "stage_histogram", "stage_normalize", "stage_svm")
    have_stages = all(k in first and float(first[k]) >= 0.0 for k in stages)
    counts_stable = (
        first["windows_per_frame"] == second["windows_per_frame"] == "120615"
        and first["detections"] == second["detections"]
    )
    _check(
        f"bench 3840x2160: reports {fps:.2f} frames/sec with per-stage timings, "
        "deterministic counts",
        fps > 0.0 and have_stages and counts_stable,
        f"fps={fps} stages={have_stages} counts_stable={counts_stable}",
    )
