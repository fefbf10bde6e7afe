"""Image ingestion and the command-line front end."""

import tracemalloc

import numpy as np
import pytest

from hogstream.cli import main
from hogstream.detector import run_pipeline
from hogstream.fixedpoint import dump_raws
from hogstream.gradient import binned_field, gradient_index
from hogstream.histogram import cell_histogram_grid
from hogstream.normalize import block_features, cell_energy_grid
from hogstream.pnm import PnmError, load_image
from hogstream.stream import Frame, GeometryError
from hogstream.svm import QUANT_MAGIC, SvmModel, load_model, save_float_model, save_model
from reference import save_pgm


def write_pgm(path, px):
    save_pgm(Frame.from_array(np.asarray(px, dtype=np.uint8)), path)


def write_ppm(path, rgb):
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + rgb.tobytes())


def bias_model_file(path, bias_raw=1 << 19):
    save_model(SvmModel(weights_raw=np.zeros((15, 7, 36), dtype=np.int64),
                        bias_raw=bias_raw), path)


# ---------------------------------------------------------------------------
# PGM/PPM ingestion


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(90)
    px = rng.integers(0, 256, size=(16, 8), dtype=np.uint8)
    p = tmp_path / "a.pgm"
    write_pgm(p, px)
    f = load_image(p)
    assert np.array_equal(f.pixels, px)


def test_ppm_luma_white_and_primaries(tmp_path):
    p = tmp_path / "c.ppm"
    rgb = np.zeros((8, 8, 3), dtype=np.uint8)
    rgb[0, 0] = (255, 255, 255)   # white: weights sum to 256, so 255 survives
    rgb[0, 1] = (255, 0, 0)       # (77*255) >> 8
    rgb[0, 2] = (0, 255, 0)       # (150*255) >> 8
    rgb[0, 3] = (0, 0, 255)       # (29*255) >> 8
    write_ppm(p, rgb)
    f = load_image(p)
    assert f.pixels[0, 0] == 255
    assert f.pixels[0, 1] == 76
    assert f.pixels[0, 2] == 149
    assert f.pixels[0, 3] == 28


def test_ppm_luma_formula(tmp_path):
    # every R and G over 0..255 at B = 255 reaches the largest weighted sum,
    # 256 * 255; the random frame varies B too
    red, green = np.indices((256, 256))
    p = tmp_path / "d.ppm"
    for rgb in (np.stack([red, green, np.full_like(red, 255)], axis=2),
                np.random.default_rng(91).integers(0, 256, size=(8, 16, 3))):
        write_ppm(p, rgb)
        f = load_image(p)
        r, g, b = (rgb[:, :, k].astype(int) for k in range(3))
        assert np.array_equal(f.pixels, (77 * r + 150 * g + 29 * b) >> 8)


def test_ppm_load_reads_the_payload_in_place(tmp_path):
    # luma in uint16 from the file's own bytes: copying the payload and
    # widening to uint32 peaked at about 52 MiB on this 1080p frame
    p = tmp_path / "hd.ppm"
    write_ppm(p, np.random.default_rng(93).integers(0, 256, size=(1080, 1920, 3)))
    tracemalloc.start()
    try:
        load_image(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_pgm_load_reads_the_payload_into_the_frame(tmp_path):
    # reading the file's bytes and copying the payload out of them held two
    # payload-sized buffers at once: 16.6 MB on this 4K frame
    p = tmp_path / "uhd.pgm"
    px = np.random.default_rng(94).integers(0, 256, size=(2160, 3840), dtype=np.uint8)
    write_pgm(p, px)
    tracemalloc.start()
    try:
        f = load_image(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(f.pixels, px)
    assert peak <= px.size + (1 << 20), f"peak {peak / 2**20:.1f} MiB"


def test_pnm_header_longer_than_the_first_read(tmp_path):
    p = tmp_path / "long.pgm"
    p.write_bytes(b"P5\n# " + b"x" * 5000 + b"\n8 8\n255\n" + bytes(range(64)))
    assert load_image(p).pixels[7, 7] == 63


def test_pgm_header_comments(tmp_path):
    p = tmp_path / "e.pgm"
    p.write_bytes(b"P5 # magic\n# a comment\n8 # width\n8\n# before maxval\n255\n"
                  + bytes(range(64)))
    f = load_image(p)
    assert f.pixels[0, 5] == 5


def test_pnm_errors(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(b"P4\n8 8\n")
    with pytest.raises(PnmError):
        load_image(p)
    p.write_bytes(b"P5\n8 8\n65535\n" + bytes(128))
    with pytest.raises(PnmError):
        load_image(p)
    p.write_bytes(b"P5\n8 8\n255\n" + bytes(10))  # truncated payload
    with pytest.raises(PnmError, match=r"truncated pixel data \(10 of 64 bytes\)"):
        load_image(p)
    p.write_bytes(b"P5\nx 8\n255\n" + bytes(64))
    with pytest.raises(PnmError):
        load_image(p)
    p.write_bytes(b"P5\n8")  # header runs out
    with pytest.raises(PnmError):
        load_image(p)
    p.write_bytes(b"P5\n12 12\n255\n" + bytes(144))  # not multiples of 8
    with pytest.raises(GeometryError):
        load_image(p)


# ---------------------------------------------------------------------------
# subcommands


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(92)
    img = tmp_path / "frame.pgm"
    write_pgm(img, rng.integers(0, 256, size=(128, 64), dtype=np.uint8))
    model = tmp_path / "model.txt"
    bias_model_file(model)
    return tmp_path, img, model


def test_detect_writes_detections(workspace):
    tmp, img, model = workspace
    out = tmp / "dets.txt"
    rc = main(["detect", str(img), "--model", str(model), "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "0 0 64 128 1.0\n"


def test_detect_stdout(workspace, capsys):
    _, img, model = workspace
    assert main(["detect", str(img), "--model", str(model)]) == 0
    assert capsys.readouterr().out == "0 0 64 128 1.0\n"


def test_detect_accepts_float_model(workspace):
    tmp, img, _ = workspace
    rng = np.random.default_rng(95)
    fmodel = tmp / "m.float"
    save_float_model(rng.uniform(-0.1, 0.1, 3780), 2.0, fmodel)
    out = tmp / "o.txt"
    assert main(["detect", str(img), "--model", str(fmodel), "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 1  # bias 2.0 dominates: one window kept by NMS


def test_compare_needs_float_model(workspace, capsys):
    _, img, model = workspace
    rc = main(["compare", str(img), "--model", str(model)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_compare_report(workspace):
    tmp, img, _ = workspace
    rng = np.random.default_rng(96)
    fmodel = tmp / "m.float"
    save_float_model(rng.uniform(-0.2, 0.2, 3780), -0.05, fmodel)
    out = tmp / "report.txt"
    assert main(["compare", str(img), "--model", str(fmodel), "--out", str(out)]) == 0
    report = dict(line.split(maxsplit=1) for line in out.read_text().splitlines())
    assert report["pixels"] == "8192"
    assert report["anchors"] == "1"
    assert float(report["bin_pair_disagreement_rate"]) == 0.0
    assert float(report["score_max_abs_err"]) < 0.5


def test_train_synthetic(tmp_path, capsys):
    out = tmp_path / "trained.txt"
    rc = main(["train", "--synthetic", "4", "--epochs", "4", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "training accuracy" in stdout
    assert out.exists() and (tmp_path / "trained.txt.float").exists()
    qm = load_model(out)
    assert qm.weights_raw.shape == (15, 7, 36)


def test_train_needs_source(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path / "x.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--epochs", "0", "epochs must be at least 1"),
    ("--epochs", "-2", "epochs must be at least 1"),
    ("--seed", "-1", "seed must be at least 0"),
    ("--synthetic", "-1", "synthetic must be at least 0"),
    ("--lambda", "nan", "lambda must be finite and positive"),
    ("--lambda", "inf", "lambda must be finite and positive"),
    ("--lambda", "0", "lambda must be finite and positive"),
])
def test_train_rejects_arguments_that_make_no_model(tmp_path, capsys, option, value, message):
    out = tmp_path / "z.svm"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--synthetic", "5", option, value, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_checks_out_before_building_samples(monkeypatch, capsys):
    import hogstream.cli

    def no_samples(*args, **kwargs):
        raise AssertionError("samples built before --out was checked")

    monkeypatch.setattr(hogstream.cli, "make_synthetic_set", no_samples)
    assert main(["train", "--synthetic", "5"]) == 1
    assert "train needs --out" in capsys.readouterr().err


def test_train_manifest_cli(tmp_path):
    from hogstream.trainer import make_synthetic_set

    frames, labels = make_synthetic_set(2, seed=4)
    lines = []
    for i, (f, y) in enumerate(zip(frames, labels)):
        save_pgm(f, tmp_path / f"s{i}.pgm")
        lines.append(f"{y:+d} s{i}.pgm")
    man = tmp_path / "man.txt"
    man.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m.txt"
    assert main(["train", "--manifest", str(man), "--epochs", "3",
                 "--out", str(out)]) == 0
    assert out.exists()


def test_bench_report(workspace):
    tmp, img, model = workspace
    out = tmp / "bench.txt"
    rc = main(["bench", str(img), "--model", str(model), "--reps", "2",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    for key in ("windows_per_frame 1", "seconds_per_frame", "frames_per_second",
                "megapixels_per_second", "stage_seconds gradient",
                "stage_seconds histogram", "stage_seconds normalize",
                "stage_seconds svm", "stage_seconds threshold", "stage_seconds nms"):
        assert key in text


def test_bench_warms_up_once(workspace, monkeypatch):
    import hogstream.cli

    tmp, img, model = workspace
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return run_pipeline(*args, **kwargs)

    monkeypatch.setattr(hogstream.cli, "run_pipeline", counting)
    assert main(["bench", str(img), "--model", str(model), "--reps", "3",
                 "--out", str(tmp / "bench.txt")]) == 0
    assert len(calls) == 3 + 1  # one untimed warm-up, then the timed reps


@pytest.mark.parametrize("command", ["detect", "bench", "compare"])
def test_frame_smaller_than_window_rejected(tmp_path, capsys, command):
    img = tmp_path / "small.pgm"
    write_pgm(img, np.random.default_rng(97).integers(0, 256, size=(64, 64)))
    fmodel = tmp_path / "m.float"
    save_float_model(np.zeros(3780), 1.0, fmodel)
    assert main([command, str(img), "--model", str(fmodel)]) == 1
    assert "smaller than one 64x128 window" in capsys.readouterr().err


def whole_cell_grid(frame):
    """The cell histograms of a frame, composed over its whole grids."""
    return cell_histogram_grid(*binned_field(gradient_index(frame.pixels)))


def noise_pgm(path, w, h, seed):
    frame = Frame.from_array(np.random.default_rng(seed).integers(0, 256, size=(h, w),
                                                                  dtype=np.uint8))
    save_pgm(frame, path)
    return frame


# one band; a band plus one cell row; two bands plus one cell row
@pytest.mark.parametrize("w, h", [(64, 128), (72, 136), (40, 264)])
def test_dump_blobs(tmp_path, w, h):
    img = tmp_path / "frame.pgm"
    hist = whole_cell_grid(noise_pgm(img, w, h, seed=w + h))
    want = {"cells": dump_raws(hist),
            "blocks": dump_raws(block_features(hist, cell_energy_grid(hist)))}
    rows, cols = h // 8, w // 8
    assert len(want["cells"]) == rows * cols * 9 * 4
    assert len(want["blocks"]) == (rows - 1) * (cols - 1) * 36 * 4
    for kind, blob in want.items():
        out = tmp_path / f"{kind}.bin"
        assert main(["dump", str(img), "--dump", kind, "--out", str(out)]) == 0
        assert out.read_bytes() == blob


@pytest.mark.parametrize("w, h", [(8, 8), (64, 8), (8, 64), (8, 200)])
def test_dump_of_a_grid_too_small_for_a_block(tmp_path, capsys, w, h):
    # the cells are written; the blocks fail on the frame's grid, not on its
    # first band's (8x200 spans two bands), and leave no file behind
    img = tmp_path / "frame.pgm"
    frame = noise_pgm(img, w, h, seed=w + h)
    cells, blocks = tmp_path / "cells.bin", tmp_path / "blocks.bin"
    assert main(["dump", str(img), "--dump", "cells", "--out", str(cells)]) == 0
    assert cells.read_bytes() == dump_raws(whole_cell_grid(frame))
    assert main(["dump", str(img), "--dump", "blocks", "--out", str(blocks)]) == 1
    err = capsys.readouterr().err
    assert f"error: cell grid {h // 8}x{w // 8} is too small to form a block" in err
    assert not blocks.exists()


@pytest.mark.parametrize("kind", ["cells", "blocks"])
def test_dump_streams_the_frame(tmp_path, kind):
    # dump holds one band of intermediates at a time; on this 1080p frame a
    # composition over the whole grids peaked above 50 MiB
    img = tmp_path / "hd.pgm"
    noise_pgm(img, 1920, 1080, seed=96)
    tracemalloc.start()
    try:
        assert main(["dump", str(img), "--dump", kind, "--out", str(tmp_path / "o.bin")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25 * 2**20


def test_dump_needs_out(workspace, capsys):
    tmp, img, _ = workspace
    assert main(["dump", str(img), "--dump", "cells"]) == 1
    assert "error:" in capsys.readouterr().err
    # --out is checked before the image is read
    assert main(["dump", str(tmp / "missing.pgm"), "--dump", "cells"]) == 1
    assert "dump needs --out" in capsys.readouterr().err


def test_missing_image_is_user_error(workspace, capsys):
    tmp, _, model = workspace
    rc = main(["detect", str(tmp / "nope.pgm"), "--model", str(model)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "bench"])
@pytest.mark.parametrize("iou", ["nan", "-0.1", "1.5", "inf"])
def test_bad_iou_rejected_by_parser(workspace, command, iou):
    _, img, model = workspace
    with pytest.raises(SystemExit):
        main([command, str(img), "--model", str(model), "--iou", iou])


@pytest.mark.parametrize("command", ["detect", "bench", "compare"])
@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_non_finite_threshold_rejected_by_parser(workspace, capsys, command, threshold):
    _, img, model = workspace
    with pytest.raises(SystemExit) as exc:
        main([command, str(img), "--model", str(model), f"--threshold={threshold}"])
    assert exc.value.code == 2
    assert "score threshold must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_bad_reps_rejected_by_parser(workspace, capsys, reps):
    _, img, model = workspace
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(img), "--model", str(model), "--reps", reps])
    assert exc.value.code == 2
    assert "reps must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "compare", "bench", "train"])
def test_file_that_is_not_utf8_is_user_error(workspace, capsys, command):
    # the model file, or train's manifest, fails with one error line naming it
    tmp, img, _ = workspace
    bad = tmp / "bad.svm"
    bad.write_bytes(b"\xff\xfe" + QUANT_MAGIC.encode() + b"\n")
    if command == "train":
        argv = ["train", "--manifest", str(bad), "--out", str(tmp / "m.svm")]
    else:
        argv = [command, str(img), "--model", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert "not UTF-8 text" in err


def test_model_file_mentions_magic(workspace):
    *_, model = workspace
    assert model.read_text().startswith(QUANT_MAGIC + "\n")
