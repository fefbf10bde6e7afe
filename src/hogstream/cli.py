"""Command-line front end: detect, compare, train, bench, dump.

Outputs are deterministic for identical inputs, configuration, and seed.
Errors print one diagnostic line to stderr and exit nonzero; an option value
outside its range is rejected by the parser. No command composes stages:
dump writes the grids that detector.cell_bands or block_bands yield, as they come.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from .detector import (
    block_bands,
    cell_bands,
    detect_frame,
    detections_from_scores,
    detections_to_text,
    nms,
    run_pipeline,
)
from .fixedpoint import DEFAULT_PROFILE, dump_raws
from .oracle import compare_paths
from .pnm import PnmError, load_image  # noqa: F401  (load_image is this module's API)
from .stream import GeometryError, StreamProtocolError
from .svm import (
    FLOAT_MAGIC,
    ModelFormatError,
    SvmModel,
    load_float_model,
    load_model,
    save_float_model,
    save_model,
    sniff_model_format,
)
from .trainer import (
    FloatModel,
    TrainingError,
    load_manifest,
    make_synthetic_set,
    quantize_model,
    samples_from_frames,
    train,
)

USER_ERRORS = (
    GeometryError,
    StreamProtocolError,
    PnmError,
    ModelFormatError,
    TrainingError,
    OSError,
)


def _load_any_model(path: str) -> SvmModel:
    """Accept either model format; float models are quantized on load."""
    if sniff_model_format(path) == FLOAT_MAGIC:
        weights, bias = load_float_model(path)
        return quantize_model(FloatModel(weights=weights, bias=bias))
    return load_model(path)


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _iou_threshold(text: str) -> float:
    """argparse type of ``--iou``: a float in [0, 1], as ``nms`` requires."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"IoU threshold must be in [0, 1], got {text!r}")
    return value


def _score_threshold(text: str) -> float:
    """argparse type of ``--threshold``: a finite float, as
    ``detections_from_scores`` requires."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"score threshold must be finite, got {text!r}")
    return value


def _at_least(low: int, what: str):
    """argparse type of an int option that must be at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {text!r}")
        return value

    parse.__name__ = "int"   # argparse names the type in its "invalid int value" error
    return parse


def _regularization(text: str) -> float:
    """argparse type of ``--lambda``: a finite float above 0, as ``train`` requires."""
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"lambda must be finite and positive, got {text!r}")
    return value


def _cmd_detect(args: argparse.Namespace) -> int:
    frame = load_image(args.image)
    model = _load_any_model(args.model)
    dets = detect_frame(frame, model, threshold=args.threshold)
    kept = nms(dets, iou_threshold=args.iou)
    _write_out(detections_to_text(kept), args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    frame = load_image(args.image)
    if sniff_model_format(args.model) != FLOAT_MAGIC:
        raise ModelFormatError(
            "compare needs the float model (HOGSVMF1) so both paths share one source"
        )
    weights, bias = load_float_model(args.model)
    fm = FloatModel(weights=weights, bias=bias)
    qm = quantize_model(fm)
    # the quantized model carries the rescale; give the float path the same
    # scaled source so score gaps measure the datapath, not the rescale
    report = compare_paths(
        frame,
        qm,
        weights * qm.scale_applied,
        bias * qm.scale_applied,
        threshold=args.threshold,
    )
    _write_out(report.to_text(), args.out)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    if not args.out:
        raise TrainingError("train needs --out to place the model files")
    if args.manifest:
        samples = load_manifest(args.manifest)
    elif args.synthetic > 0:
        frames, labels = make_synthetic_set(args.synthetic, seed=args.seed)
        samples = samples_from_frames(frames, labels)
    else:
        raise TrainingError("train needs --manifest or --synthetic N")
    fm = train(samples, lam=args.lam, epochs=args.epochs, seed=args.seed)
    qm = quantize_model(fm)
    save_model(qm, args.out)
    save_float_model(fm.weights, fm.bias, args.out + ".float")
    correct = sum(1 for s in samples if (fm.score(s.features) > 0) == (s.label > 0))
    print(f"trained on {len(samples)} samples, training accuracy "
          f"{correct / len(samples):.4f}")
    print(f"quantized scale {qm.scale_applied!r}, "
          f"max weight quantization error {qm.max_weight_quant_error!r}")
    print(f"wrote {args.out} and {args.out}.float")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    frame = load_image(args.image)
    model = _load_any_model(args.model)
    stage_totals: dict[str, float] = {}
    seconds = []
    detections = 0
    windows = 0
    # untimed warm-up: the first frame of a process builds the gradient table (6 ms, 2-vCPU Xeon)
    run_pipeline(frame, model)
    for _ in range(args.reps):
        t0 = time.perf_counter()
        run = run_pipeline(frame, model)
        t1 = time.perf_counter()
        cands = detections_from_scores(run.score_map, args.threshold)
        t2 = time.perf_counter()
        dets = nms(cands, args.iou)
        t3 = time.perf_counter()
        seconds.append(t3 - t0)
        detections = len(dets)
        windows = run.score_map.scores_raw.size
        stages = {**run.stage_seconds, "threshold": t2 - t1, "nms": t3 - t2}
        for k, v in stages.items():
            stage_totals[k] = stage_totals.get(k, 0.0) + v
    mean_s = sum(seconds) / args.reps
    mpix = frame.width * frame.height / 1e6
    lines = [
        f"image {args.image}",
        f"width {frame.width}",
        f"height {frame.height}",
        f"reps {args.reps}",
        f"windows_per_frame {windows}",
        f"detections {detections}",
        f"seconds_per_frame {mean_s:.6f}",
        f"frames_per_second {1.0 / mean_s:.6f}",
        f"megapixels_per_second {mpix / mean_s:.6f}",
    ]
    for k, v in stage_totals.items():
        lines.append(f"stage_seconds {k} {v / args.reps:.6f}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    if not args.out:
        raise GeometryError("dump needs --out for the binary blob")
    frame = load_image(args.image)
    # a grid too small for a block fails here, before --out is opened
    bands = (cell_bands if args.dump == "cells" else block_bands)(frame, DEFAULT_PROFILE, None, {})
    with open(args.out, "wb") as f:
        for band in bands:
            f.write(dump_raws(band[-1]))   # a band's last item is its last stage's grid
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hogstream",
        description="Fixed-point streaming HOG+SVM pedestrian detector model",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, model=True):
        sp.add_argument("image", help="input PGM (P5) or PPM (P6), maxval 255")
        if model:   # detect, compare and bench write text, to stdout by default
            sp.add_argument("--model", required=True, help="model file (HOGSVM1 or HOGSVMF1)")
            sp.add_argument("--out", help="output path (default: stdout)")

    sp = sub.add_parser("detect", help="run the fixed-point detector on one frame")
    add_common(sp)
    sp.add_argument("--threshold", type=_score_threshold, default=0.0)
    sp.add_argument("--iou", type=_iou_threshold, default=0.5, help="NMS IoU threshold")

    sp = sub.add_parser("compare", help="error report of fixed path vs float oracle")
    add_common(sp)
    sp.add_argument("--threshold", type=_score_threshold, default=0.0)

    sp = sub.add_parser("train", help="train a float model and quantize it")
    sp.add_argument("--manifest", help="text file of '<+1|-1> <image path>' lines")
    sp.add_argument("--synthetic", type=_at_least(0, "synthetic"), default=0, metavar="N",
                    help="use N synthetic samples per class instead of a manifest")
    sp.add_argument("--lambda", dest="lam", type=_regularization, default=1e-4)
    sp.add_argument("--epochs", type=_at_least(1, "epochs"), default=10)
    sp.add_argument("--seed", type=_at_least(0, "seed"), default=0)
    sp.add_argument("--out", help="output model path (HOGSVM1; float copy at <out>.float)")

    sp = sub.add_parser("bench", help="timing run on one frame")
    add_common(sp)
    sp.add_argument("--threshold", type=_score_threshold, default=0.0)
    sp.add_argument("--iou", type=_iou_threshold, default=0.5)
    sp.add_argument("--reps", type=_at_least(1, "reps"), default=1)

    sp = sub.add_parser("dump", help="binary dump of an intermediate stage")
    add_common(sp, model=False)
    sp.add_argument("--out", help="output path of the binary blob (required)")
    sp.add_argument("--dump", required=True, choices=("cells", "blocks"),
                    help="which stage to serialize")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "detect": _cmd_detect,
        "compare": _cmd_compare,
        "train": _cmd_train,
        "bench": _cmd_bench,
        "dump": _cmd_dump,
    }
    try:
        return handlers[args.command](args)
    except USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
