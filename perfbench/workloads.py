"""The benchmark's four workloads: seeded inputs, set-up, one frame, checks.

Each workload writes its inputs as files (PGM/PPM frames, model text files)
from the run seed, then drives hogstream through its public functions. All
calls go through module attributes (``hs.detector.nms``), so a tracer that
rewrites those attributes sees every call.

Models are drawn from a fixed seed per workload and only the frame follows the
run seed: with a random model the spatial correlation of the scores, and so
the NMS work at a fixed candidate count, changes several-fold more from seed
to seed than it does with a fixed model.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
CELL = 8
WINDOW_CELLS = (16, 8)    # a 64x128 window in cells (rows, cols)
SAT_LABELS = ("magnitude", "histogram", "prepare_norm", "inv_sqrt1", "norm1",
              "inv_sqrt2", "norm2", "svm")
EXPECTED_PATH = Path(__file__).with_name("expected.json")
# ErrorReport floats come from float64 reductions and a BLAS matmul whose
# rounding may differ on another CPU or BLAS build; integers compare exactly
REPORT_REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# inputs


def write_pnm(path: Path, pixels: np.ndarray) -> None:
    """Binary P5 (h, w) or P6 (h, w, 3) file, maxval 255."""
    magic = "P5" if pixels.ndim == 2 else "P6"
    h, w = pixels.shape[:2]
    path.write_bytes(f"{magic}\n{w} {h}\n255\n".encode() + pixels.astype(np.uint8).tobytes())


def write_model(path: Path, weights_raw: np.ndarray, bias_raw: int = 0) -> None:
    """HOGSVM1 text model, rows in canonical order."""
    lines = ["HOGSVM1", f"bias {bias_raw}"]
    for (r, c, k), v in np.ndenumerate(weights_raw):
        lines.append(f"{r} {c} {k} {int(v)}")
    path.write_text("\n".join(lines) + "\n")


def random_model(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(-300, 301, size=(15, 7, 36))


def block_texture(rng: np.random.Generator, h: int, w: int, block: int = 16) -> np.ndarray:
    """RGB frame of uniform random colour blocks, cropped to h x w."""
    colours = rng.integers(0, 256, size=(-(-h // block), -(-w // block), 3), dtype=np.uint8)
    return np.repeat(np.repeat(colours, block, 0), block, 1)[:h, :w]


# ---------------------------------------------------------------------------
# outputs and their checks


@dataclass
class Output:
    """What one frame produced, reduced to what the checks compare."""

    scores: np.ndarray                  # raw score map
    sat: dict[str, int]
    candidates: int = 0
    kept: int = 0
    detections: bytes = b""             # detections_to_text of the kept boxes
    report: dict = field(default_factory=dict)   # ErrorReport fields

    def digest(self) -> dict:
        return {
            "scores": hashlib.sha256(np.ascontiguousarray(self.scores, "<i8").tobytes()).hexdigest(),
            "anchors": int(self.scores.size),
            "detections": hashlib.sha256(self.detections).hexdigest(),
            "candidates": self.candidates,
            "kept": self.kept,
            "sat": {k: int(v) for k, v in sorted(self.sat.items()) if v},
            "report": self.report,
        }


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=REPORT_REL_TOL, abs_tol=0.0)
    return a == b


def mismatches(got: dict, want: dict, keys) -> list[str]:
    """Names of the digest fields (and ErrorReport fields) that differ."""
    bad = []
    for k in keys:
        if k == "report":
            g, w = got["report"], want["report"]
            bad += [f"report.{f}" for f in sorted(set(g) | set(w))
                    if f not in g or f not in w or not _same(g[f], w[f])]
        elif got[k] != want[k]:
            bad.append(k)
    return bad


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.is_file() else {}


def stage_elements(height: int, width: int) -> dict[str, int]:
    """Element count of each saturating stage: the values it writes."""
    rows, cols = height // CELL, width // CELL
    cells = rows * cols
    blocks = (rows - 1) * (cols - 1)
    anchors = (rows - WINDOW_CELLS[0] + 1) * (cols - WINDOW_CELLS[1] + 1)
    return {
        "magnitude": height * width,
        "histogram": cells * 9,
        "prepare_norm": cells * 9 + cells + blocks,   # squares, cell sums, block sums
        "inv_sqrt1": blocks,
        "norm1": blocks * 36,
        "inv_sqrt2": blocks,
        "norm2": blocks * 36,
        "svm": anchors,
    }


def calibrate_threshold(score_map, target: int) -> float:
    """Threshold that lets at most ``target`` windows through (ties excluded).

    The threshold is a decoded raw score, so quantizing it again is exact.
    """
    raw = np.sort(score_map.scores_raw, axis=None)[::-1]
    return int(raw[min(target, raw.size - 1)]) / score_map.fmt.scale


# ---------------------------------------------------------------------------
# workloads


@dataclass
class State:
    """Loaded inputs plus what set-up derived from the warm-up frame."""

    frame: object
    model: object
    threshold: float | None = None
    float_weights: np.ndarray | None = None
    float_bias: float = 0.0
    reference: dict | None = None       # cross-path reference digest


class Workload:
    name = ""
    why = ""
    width = height = 0
    iou = 0.5
    target_candidates = 0
    model_seed = 0

    def make_inputs(self, hs, seed: int, workdir: Path) -> dict:
        """Uniform-noise P5 frame from the seed, random model from ``model_seed``."""
        rng = np.random.default_rng(seed)
        write_pnm(workdir / "frame.pgm",
                  rng.integers(0, 256, size=(self.height, self.width), dtype=np.uint8))
        write_model(workdir / "model.svm", random_model(self.model_seed))
        return {"image": workdir / "frame.pgm", "model": workdir / "model.svm"}

    def load(self, hs, inputs: dict) -> State:
        return State(frame=hs.pnm.load_image(inputs["image"]),
                     model=hs.svm.load_model(inputs["model"]))

    def warm_up(self, hs, st: State) -> Output:
        return self.frame(hs, st)

    def frame(self, hs, st: State) -> Output:
        raise NotImplementedError

    def properties(self, out: Output) -> dict:
        elems = stage_elements(self.height, self.width)
        return {"candidates": out.candidates, "kept": out.kept,
                "sat.magnitude.rate": out.sat.get("magnitude", 0) / elems["magnitude"]}

    def _detect(self, hs, st: State, score_map, sat) -> Output:
        """Threshold and NMS stages; calibrates the threshold on first use."""
        if st.threshold is None:
            st.threshold = calibrate_threshold(score_map, self.target_candidates)
        cands = hs.detector.detections_from_scores(score_map, st.threshold)
        kept = hs.detector.nms(cands, self.iou)
        return Output(scores=score_map.scores_raw, sat=sat, candidates=len(cands),
                      kept=len(kept), detections=hs.detector.detections_to_text(kept).encode())


class ArrayDetect(Workload):
    """run_pipeline -> detections_from_scores -> nms on one large frame."""

    def frame(self, hs, st: State) -> Output:
        stats = hs.fixedpoint.SaturationStats()
        run = hs.detector.run_pipeline(st.frame, st.model, stats=stats)
        return self._detect(hs, st, run.score_map, stats.counts)


class UhdNoise(ArrayDetect):
    name = "uhd_noise"
    why = ("4K full-range noise: the array pixel stages do almost all the work, half the "
           "pixels saturate the magnitude stage, and NMS sees under 100 candidates")
    width, height = 3840, 2160
    target_candidates = 64
    model_seed = 1001


class HdDense(ArrayDetect):
    name = "hd_dense"
    why = ("1080p colour blocks through the luma path with 1.5k windows above threshold: "
           "the quadratic NMS is most of the frame")
    width, height = 1920, 1080
    target_candidates = 1500
    model_seed = 1002

    def make_inputs(self, hs, seed, workdir):
        rng = np.random.default_rng(seed)
        write_pnm(workdir / "frame.ppm", block_texture(rng, self.height, self.width))
        write_model(workdir / "model.svm", random_model(self.model_seed))
        return {"image": workdir / "frame.ppm", "model": workdir / "model.svm"}


class ScalarStream(Workload):
    """The packet-level composition, cross-checked against run_pipeline."""

    name = "scalar_stream"
    why = ("256x256 noise through the scalar packet path at ppc 4: stream, per-element "
           "fixedpoint ops and scalar stage functions; the array path is not timed")
    width, height = 256, 256
    ppc = 4
    target_candidates = 16
    model_seed = 1003

    def warm_up(self, hs, st):
        stats = hs.fixedpoint.SaturationStats()
        run = hs.detector.run_pipeline(st.frame, st.model, stats=stats)
        st.reference = self._detect(hs, st, run.score_map, stats.counts).digest()
        return self.frame(hs, st)

    def frame(self, hs, st):
        frame, model = st.frame, st.model
        stats = hs.fixedpoint.SaturationStats()
        packets = hs.stream.pack_frame(frame, self.ppc)
        contexts = hs.stream.context_stream(packets, frame.width)
        binned = hs.gradient.binned_stream(contexts, stats=stats)
        cells = hs.histogram.accumulate_cells(binned, frame.width, stats=stats)
        blocks = hs.normalize.block_stream(cells, frame.width // CELL, stats=stats)
        feats = (hs.normalize.normalize_block(b, stats=stats) for b in blocks)
        score_map = hs.svm.score_windows(feats, model, frame.height // CELL - 1,
                                         frame.width // CELL - 1, stats=stats)
        return self._detect(hs, st, score_map, stats.counts)


class HdCompare(Workload):
    """run_pipeline + compare_paths on a scene tiled from the trainer's generator.

    compare_paths is given the fixed run so that its score map and saturation
    counts can be checked; it then skips the run_pipeline call it would
    otherwise make, so the frame does the work of one plain compare_paths.
    """

    name = "hd_compare"
    why = ("1080p scene of synthetic positives and negatives under a trained model: the "
           "only workload that runs the float oracle and measures fidelity")
    width, height = 1920, 1080
    train_per_class = 100
    model_seed = 1004

    def make_inputs(self, hs, seed, workdir):
        tr = hs.trainer
        frames, labels = tr.make_synthetic_set(self.train_per_class, seed=self.model_seed)
        fm = tr.train(tr.samples_from_frames(frames, labels), lam=1e-4, epochs=10,
                      seed=self.model_seed)
        hs.svm.save_float_model(fm.weights, fm.bias, workdir / "model.svm.float")

        th, tw = tr.SAMPLE_H, tr.SAMPLE_W
        rows, cols = -(-self.height // th), self.width // tw
        tiles, _ = tr.make_synthetic_set(rows * cols // 2 + 1, seed=seed)
        order = np.random.default_rng(seed).permutation(len(tiles))[: rows * cols]
        scene = np.block([[tiles[order[r * cols + c]].pixels for c in range(cols)]
                          for r in range(rows)])
        write_pnm(workdir / "scene.pgm", scene[: self.height])
        return {"image": workdir / "scene.pgm", "model": workdir / "model.svm.float"}

    def load(self, hs, inputs):
        weights, bias = hs.svm.load_float_model(inputs["model"])
        model = hs.trainer.quantize_model(hs.trainer.FloatModel(weights=weights, bias=bias))
        # as `hogstream compare` does: the float path gets the same rescale
        return State(frame=hs.pnm.load_image(inputs["image"]), model=model, threshold=0.0,
                     float_weights=weights * model.scale_applied,
                     float_bias=bias * model.scale_applied)

    def frame(self, hs, st):
        stats = hs.fixedpoint.SaturationStats()
        run = hs.detector.run_pipeline(st.frame, st.model, stats=stats)
        report = hs.oracle.compare_paths(st.frame, st.model, st.float_weights, st.float_bias,
                                         threshold=st.threshold, fixed_run=run)
        return Output(scores=run.score_map.scores_raw, sat=stats.counts, report=asdict(report))

    def properties(self, out):
        props = super().properties(out)
        props["disagreement_rate"] = out.report["classification_disagreement_rate"]
        return props


WORKLOADS = {w.name: w for w in (UhdNoise(), HdDense(), ScalarStream(), HdCompare())}
