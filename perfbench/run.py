"""hogstream benchmark: one workload, one process, one frame at a time.

    python3 perfbench/run.py --workload uhd_noise --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The workload's inputs are generated from ``--seed`` into a
temporary directory inside the checkout, then:

* set-up (import, model load, frame load, one warm-up frame) is timed
  SETUP_REPEATS times with a fresh import each time; ``setup_s`` is the median;
* frames run closed-loop until their measured time reaches ``--seconds``;
  every frame's output is checked (see README.md);
* ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
  untraced and traced frames and reports the per-layer metrics.

Every metric is printed as ``metric <name> <value> <unit>``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits nonzero, with no result line, if the package cannot be found or set-up
fails.
"""

from __future__ import annotations

import os

# one BLAS thread (nproc is 2): a closed loop of one frame at a time, and a
# steadier measurement than one that competes with itself for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

from spans import LAYERS, PACKAGE, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    SAT_LABELS,
    WORKLOADS,
    load_expected,
    mismatches,
    stage_elements,
)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
CHECK_KEYS = ("scores", "anchors", "detections", "candidates", "kept", "sat", "report")
CROSS_PATH_KEYS = ("scores", "anchors", "detections", "candidates", "kept", "sat")


def use_checkout_source() -> bool:
    """Put the checkout's ``src/`` first on the import path, if the package is there."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        return False
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    return True


def fresh_import() -> types.SimpleNamespace:
    """Import the package and its layer modules anew (cold import cost)."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS + ("trainer",)
    })


class Checker:
    """Compares each frame's output digest with every reference that applies."""

    def __init__(self, workload, seed: int, warm_digest: dict, cross_ref: dict | None):
        self.refs = [("repeat of warm-up frame", warm_digest, CHECK_KEYS)]
        if cross_ref is not None:
            self.refs.append(("run_pipeline on the same frame", cross_ref, CROSS_PATH_KEYS))
        recorded = load_expected().get(workload.name) if seed == DEFAULT_SEED else None
        if recorded is not None:
            self.refs.append(("recorded at the seed commit", recorded, CHECK_KEYS))

    def describe(self) -> str:
        return "; ".join(name for name, _, _ in self.refs)

    def problems(self, digest: dict) -> list[str]:
        out = []
        for name, ref, keys in self.refs:
            out += [f"{k} differs from {name}" for k in mismatches(digest, ref, keys)]
        return out


def timed_frame(workload, hs, st, checker: Checker, log) -> tuple[float, object, bool]:
    """One frame: its host seconds, its output (None if it raised), pass/fail."""
    gc.collect()
    t0 = perf_counter()
    try:
        out = workload.frame(hs, st)
    except Exception:  # a failing frame is counted, and the loop goes on
        dt = perf_counter() - t0
        log("frame raised:\n" + traceback.format_exc())
        return dt, None, False
    dt = perf_counter() - t0
    problems = checker.problems(out.digest())
    for p in problems:
        log(f"check failed: {p}")
    return dt, out, not problems


def layer_metrics(tracer: Tracer, workload, out) -> dict[str, float]:
    """Per-layer numbers of one traced frame."""
    m: dict[str, float] = {}
    for layer, s in tracer.layer_totals().items():
        m[f"{layer}.self_s"] = s.self_s
        m[f"{layer}.calls"] = s.calls
    m["detector.nms_s"] = tracer.fn("detector", "nms").total_s
    m["detector.threshold_s"] = tracer.fn("detector", "detections_from_scores").total_s
    m["detector.candidates"] = out.candidates
    m["detector.kept"] = out.kept
    m["detector.keep_ratio"] = out.kept / out.candidates if out.candidates else 0.0
    m["detector.iou_calls"] = tracer.fn("detector", "iou").calls
    m["stream.packets"] = tracer.fn("stream", "pack_frame").items
    m["svm.anchors"] = int(out.scores.size)
    elems = stage_elements(workload.height, workload.width)
    for label in SAT_LABELS:
        n = out.sat.get(label, 0)
        m[f"sat.{label}"] = n
        m[f"sat.{label}.rate"] = n / elems[label]
    m["oracle.disagreement_rate"] = out.report.get("classification_disagreement_rate", 0.0)
    return m


def traced_frame(tracer: Tracer, workload, hs, st, checker: Checker, log):
    """One frame under the tracer: its host seconds, per-layer metrics, pass/fail."""
    tracer.reset()
    tracer.install()
    try:
        dt, out, ok = timed_frame(workload, hs, st, checker, log)
    finally:
        tracer.uninstall()
    return dt, (layer_metrics(tracer, workload, out) if out is not None else None), ok


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("rate") or name.endswith("ratio"):
        return "ratio"
    return "count"


def run(args, log) -> dict:
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        hs = fresh_import()
        inputs = workload.make_inputs(hs, args.seed, Path(tmp))

        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            gc.collect()
            t0 = perf_counter()
            hs = fresh_import()
            st = workload.load(hs, inputs)
            warm = workload.warm_up(hs, st)
            setup_times.append(perf_counter() - t0)
        checker = Checker(workload, args.seed, warm.digest(), st.reference)
        log(f"workload {workload.name}: {workload.why}")
        log(f"seed {args.seed}; threshold {st.threshold!r}; frames checked against: "
            f"{checker.describe()}")
        if args.seed != DEFAULT_SEED:
            log(f"recorded digests cover seed {DEFAULT_SEED} only; this seed is checked "
                "for repeatability" + (" and across paths" if st.reference else ""))
        for k, v in workload.properties(warm).items():
            log(f"property {k} {v!r}")

        if args.trace:
            return traced_run(args, workload, hs, st, inputs, checker, log)

        times, failed = [], 0
        while not times or sum(times) < args.seconds:
            dt, _, ok = timed_frame(workload, hs, st, checker, log)
            times.append(dt)
            failed += not ok
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    log(f"frames {len(times)}: median {median(times):.4f} s, min {min(times):.4f} s, "
        f"max {max(times):.4f} s; failed_ratio {failed / len(times)!r}")
    return {
        "attempted": len(times),
        "failed": failed,
        "metrics": {
            "frames_per_s": (1.0 / median(times), "1/s"),
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mib": (rss_mib, "MiB"),
            "ok_ratio": (1.0 - failed / len(times), "ratio"),
        },
    }


def traced_run(args, workload, hs, st, inputs, checker, log) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        workload.load(hs, inputs)
    finally:
        tracer.uninstall()
    load = {
        "pnm.load_s": tracer.fn("pnm", "load_image").total_s,
        "svm.load_model_s": (tracer.fn("svm", "load_model").total_s
                             + tracer.fn("svm", "load_float_model").total_s),
    }

    plain, traced, per_frame = [], [], []
    failed = 0
    while sum(plain) + sum(traced) < args.seconds or not traced:
        dt, _, ok = timed_frame(workload, hs, st, checker, log)
        plain.append(dt)
        failed += not ok
        dt, m, ok = traced_frame(tracer, workload, hs, st, checker, log)
        traced.append(dt)
        if m is not None:
            counts = {k: v for k, v in m.items() if unit_of(k) == "count"}
            if per_frame and counts != {k: per_frame[0][k] for k in counts}:
                log("check failed: deterministic counts differ between traced frames")
                ok = False
            per_frame.append(m)
        failed += not ok
    if not per_frame:
        raise RuntimeError("no traced frame completed")
    metrics = {}
    for name in per_frame[0]:
        values = [m[name] for m in per_frame]
        value = values[0] if unit_of(name) == "count" else median(values)
        metrics[name] = (value, unit_of(name))
    for name, value in load.items():
        metrics[name] = (value, "s")
    metrics["trace.overhead_s"] = (median(traced) - median(plain), "s")
    log(f"frames {len(plain)} untraced (median {median(plain):.4f} s), {len(traced)} "
        f"traced (median {median(traced):.4f} s)")
    return {"attempted": len(plain) + len(traced), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    def log(line: str) -> None:
        print(line, flush=True)

    if not use_checkout_source():
        print(f"error: no {PACKAGE} package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args, log)
    except Exception:
        traceback.print_exc()
        print("error: set-up failed; no result", file=sys.stderr)
        return 1
    for name, (value, unit) in result["metrics"].items():
        log(f"metric {name} {value!r} {unit}")
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
