"""Float training loop, model quantization, synthetic corpus, manifests."""

import threading

import numpy as np
import pytest

import hogstream.detector
import hogstream.oracle
import hogstream.trainer
from hogstream.fixedpoint import DEFAULT_PROFILE
from hogstream.stream import Frame, GeometryError
from hogstream.svm import WINDOW_FEATURES
from hogstream.trainer import (
    SAMPLE_H,
    SAMPLE_W,
    FloatModel,
    Sample,
    TrainingError,
    load_manifest,
    make_synthetic_set,
    quantize_model,
    samples_from_frames,
    train,
)

COEFF_FMT = DEFAULT_PROFILE.svm_coefficient


def toy_samples(rng, n=40, gap=2.0):
    """Linearly separable cloud along a random direction."""
    direction = rng.standard_normal(WINDOW_FEATURES)
    direction /= np.linalg.norm(direction)
    out = []
    for _ in range(n):
        label = 1 if rng.random() < 0.5 else -1
        point = rng.standard_normal(WINDOW_FEATURES) * 0.1 + direction * gap * label
        out.append(Sample(features=point, label=label))
    return out


def test_sample_validation():
    with pytest.raises(TrainingError):
        Sample(features=np.zeros(WINDOW_FEATURES), label=0)
    with pytest.raises(TrainingError):
        Sample(features=np.zeros(10), label=1)


def test_train_separates_toy_data():
    rng = np.random.default_rng(80)
    samples = toy_samples(rng)
    fm = train(samples, lam=1e-3, epochs=8, seed=1)
    assert all(np.sign(fm.score(s.features)) == s.label for s in samples)


def test_train_deterministic():
    rng = np.random.default_rng(81)
    samples = toy_samples(rng, n=20)
    a = train(samples, epochs=3, seed=5)
    b = train(samples, epochs=3, seed=5)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
    c = train(samples, epochs=3, seed=6)
    assert not np.array_equal(a.weights, c.weights)


def test_train_label_flip_negates_model():
    # negating every label exactly negates the trajectory (same shuffle seed)
    rng = np.random.default_rng(82)
    samples = toy_samples(rng, n=20)
    flipped = [Sample(features=s.features, label=-s.label) for s in samples]
    a = train(samples, epochs=3, seed=7)
    b = train(flipped, epochs=3, seed=7)
    assert np.array_equal(a.weights, -b.weights)
    assert a.bias == -b.bias


def test_train_strong_regularization_shrinks():
    rng = np.random.default_rng(83)
    samples = toy_samples(rng, n=20)
    small = train(samples, lam=100.0, epochs=3, seed=0)
    large = train(samples, lam=1e-4, epochs=3, seed=0)
    assert np.linalg.norm(small.weights) < np.linalg.norm(large.weights)


def test_train_input_errors():
    with pytest.raises(TrainingError):
        train([])
    ones = [Sample(features=np.zeros(WINDOW_FEATURES), label=1)] * 4
    with pytest.raises(TrainingError):
        train(ones)  # single class
    rng = np.random.default_rng(84)
    with pytest.raises(TrainingError):
        train(toy_samples(rng, n=8), lam=0.0)


@pytest.mark.parametrize("epochs", [0, -2])
def test_train_rejects_fewer_than_one_epoch(epochs):
    # no step would run: the model would be all zeros
    rng = np.random.default_rng(85)
    with pytest.raises(TrainingError, match="epochs"):
        train(toy_samples(rng, n=8), epochs=epochs)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1e-4])
def test_train_rejects_a_lambda_that_is_not_finite_and_positive(lam):
    rng = np.random.default_rng(86)
    with pytest.raises(TrainingError, match="lambda"):
        train(toy_samples(rng, n=8), lam=lam, epochs=1)


def test_quantize_plain_values():
    w = np.zeros(WINDOW_FEATURES)
    w[0] = 0.5
    w[1] = -0.25
    w[2] = 0.9998  # floors to the top raw
    qm = quantize_model(FloatModel(weights=w, bias=1.5))
    assert qm.scale_applied == 1.0
    flat = qm.weights_raw.reshape(-1)
    assert flat[0] == 512 and flat[1] == -256 and flat[2] == 1023
    assert qm.bias_raw == int(1.5 * (1 << 19))
    assert qm.max_weight_quant_error < 1.0 / COEFF_FMT.scale


def test_quantize_rescales_by_power_of_two():
    w = np.zeros(WINDOW_FEATURES)
    w[0] = 3.0   # peak 3 -> scale 1/4
    w[1] = -1.0
    qm = quantize_model(FloatModel(weights=w, bias=-2.0))
    assert qm.scale_applied == 0.25
    flat = qm.weights_raw.reshape(-1)
    assert flat[0] == int(0.75 * 1024)
    assert flat[1] == -256
    assert qm.bias_raw == int(-0.5 * (1 << 19))


def test_quantize_peak_exactly_one():
    w = np.zeros(WINDOW_FEATURES)
    w[0] = 1.0   # scale 1/2; raw floor(0.5*1024) = 512
    qm = quantize_model(FloatModel(weights=w, bias=0.0))
    assert qm.scale_applied == 0.5
    assert qm.weights_raw.reshape(-1)[0] == 512


def test_quantize_negative_edge_clamped():
    # floor would hit raw -1024 (decode -1.0); the clamp keeps it at -1023
    w = np.zeros(WINDOW_FEATURES)
    w[0] = -0.99999
    qm = quantize_model(FloatModel(weights=w, bias=0.0))
    assert qm.weights_raw.reshape(-1)[0] == -1023


def test_quantize_preserves_decisions():
    rng = np.random.default_rng(85)
    w = rng.uniform(-2.0, 2.0, WINDOW_FEATURES)
    fm = FloatModel(weights=w, bias=0.3)
    qm = quantize_model(fm)
    feats = rng.integers(0, 512, size=WINDOW_FEATURES)
    float_score = fm.score(feats / 512.0) * qm.scale_applied
    fixed_score = (int(np.dot(feats.astype(object), qm.weights_raw.reshape(-1).astype(object)))
                   + qm.bias_raw) / (1 << 19)
    # quantization moves the score by at most sum of per-term gaps
    bound = WINDOW_FEATURES * (1.0 / COEFF_FMT.scale) + 2.0 ** -19
    assert abs(float_score - fixed_score) <= bound


def test_quantize_rejects_bad_models():
    with pytest.raises(TrainingError):
        quantize_model(FloatModel(weights=np.zeros(10), bias=0.0))
    w = np.zeros(WINDOW_FEATURES)
    w[0] = np.inf
    with pytest.raises(TrainingError):
        quantize_model(FloatModel(weights=w, bias=0.0))


def test_synthetic_set_shape_and_determinism():
    frames, labels = make_synthetic_set(3, seed=9)
    assert len(frames) == 6
    assert labels.tolist() == [1, -1, 1, -1, 1, -1]
    assert all(f.width == SAMPLE_W and f.height == SAMPLE_H for f in frames)
    again, _ = make_synthetic_set(3, seed=9)
    assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(frames, again))
    other, _ = make_synthetic_set(3, seed=10)
    assert not np.array_equal(frames[0].pixels, other[0].pixels)


def test_samples_from_frames_geometry():
    bad = Frame.from_array(np.zeros((128, 72), dtype=np.uint8))
    with pytest.raises(GeometryError):
        samples_from_frames([bad], [1])


@pytest.mark.parametrize("n_frames, n_labels", [(4, 1), (1, 4), (0, 1)])
def test_samples_from_frames_needs_one_label_per_frame(monkeypatch, n_frames, n_labels):
    # zip once dropped the frames past the last label: 4 frames with 1 label
    # gave 1 sample
    frames, labels = make_synthetic_set(2, seed=14)
    calls = []
    monkeypatch.setattr(hogstream.trainer, "float_cells", calls.append)
    with pytest.raises(TrainingError, match=f"{n_frames} frames but {n_labels} labels"):
        samples_from_frames(frames[:n_frames], labels[:n_labels])
    assert calls == []   # before any stage runs


def test_samples_from_frames_starts_no_band_worker(monkeypatch):
    # each one-window frame once ran the band loop, whose worker started and
    # joined a thread per sample
    started, loops = [], []
    start, band_loop = threading.Thread.start, hogstream.detector.band_loop
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    for module in (hogstream.detector, hogstream.oracle):
        monkeypatch.setattr(module, "band_loop",
                            lambda *args: loops.append(args) or band_loop(*args))
    frames, labels = make_synthetic_set(2)
    assert len(samples_from_frames(frames, labels)) == 4
    assert started == [] and loops == []


def test_sample_features_are_the_float_windows():
    # a sample's features are its window's float blocks in C order: block
    # (r, c) of the 15x7 grid, then its 36 values
    from reference import oracle_block_normalize, oracle_cell_histogram

    frames, labels = make_synthetic_set(1, seed=13)
    for frame, sample in zip(frames, samples_from_frames(frames, labels)):
        hist = np.array([[oracle_cell_histogram(frame, r, c) for c in range(8)]
                         for r in range(16)])
        want = np.concatenate([
            oracle_block_normalize(hist[[r, r + 1, r, r + 1], [c, c, c + 1, c + 1]])
            for r in range(15) for c in range(7)])
        assert np.allclose(sample.features, want, rtol=1e-12, atol=1e-15)


def test_synthetic_training_smoke():
    frames, labels = make_synthetic_set(12, seed=11)
    samples = samples_from_frames(frames, labels)
    # tiny set: the 1/(lam*t) schedule needs a large lam to anneal in few steps
    fm = train(samples, lam=0.1, epochs=30, seed=2)
    correct = sum(np.sign(fm.score(s.features)) == s.label for s in samples)
    assert correct >= len(samples) - 1


def test_load_manifest(tmp_path):
    from reference import save_pgm

    frames, labels = make_synthetic_set(2, seed=12)
    lines = ["# comment line", ""]
    for i, (f, y) in enumerate(zip(frames, labels)):
        name = f"img{i}.pgm"
        save_pgm(f, tmp_path / name)
        lines.append(f"{'+1' if y > 0 else '-1'} {name}")
    man = tmp_path / "list.txt"
    man.write_text("\n".join(lines) + "\n")
    samples = load_manifest(man)
    assert [s.label for s in samples] == labels.tolist()
    ref = samples_from_frames(frames, labels)
    assert all(np.array_equal(a.features, b.features) for a, b in zip(samples, ref))


def test_load_manifest_errors(tmp_path):
    man = tmp_path / "bad.txt"
    man.write_text("2 img.pgm\n")
    with pytest.raises(TrainingError):
        load_manifest(man)
    man.write_text("# only comments\n")
    with pytest.raises(TrainingError):
        load_manifest(man)
