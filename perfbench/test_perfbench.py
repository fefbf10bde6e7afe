"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Every deterministic count must repeat exactly from frame to frame, and the
output-defined ones must equal what expected.json recorded at the default
seed. The trace must reach functions bound by ``from .x import y`` and leave
the package as it found it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from spans import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, load_expected

assert run.use_checkout_source()

# counts fixed by the frame and the model, whatever the implementation
OUTPUT_COUNTS = {"detector.candidates": "candidates", "detector.kept": "kept",
                 "svm.anchors": "anchors"}


def traced_pair(name: str, tmp_path: Path):
    workload = WORKLOADS[name]
    hs = run.fresh_import()
    inputs = workload.make_inputs(hs, DEFAULT_SEED, tmp_path)
    st = workload.load(hs, inputs)
    warm = workload.warm_up(hs, st)
    checker = run.Checker(workload, DEFAULT_SEED, warm.digest(), st.reference)
    logged: list[str] = []
    tracer = Tracer()
    frames = [run.traced_frame(tracer, workload, hs, st, checker, logged.append)
              for _ in range(2)]
    return frames, logged, warm


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_and_match_recorded(name, tmp_path):
    frames, logged, warm = traced_pair(name, tmp_path)
    (_, first, ok1), (_, second, ok2) = frames
    assert ok1 and ok2, logged
    counts = [k for k in first if run.unit_of(k) == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}

    recorded = load_expected()[name]
    assert not run.mismatches(warm.digest(), recorded, run.CHECK_KEYS)
    for metric, key in OUTPUT_COUNTS.items():
        assert first[metric] == recorded[key]
    for label, n in recorded["sat"].items():
        assert first[f"sat.{label}"] == n

    # the layer predictions the benchmark is built on
    if name == "scalar_stream":
        w = WORKLOADS[name]
        assert first["stream.packets"] == w.width * w.height // w.ppc
    else:
        assert first["stream.calls"] == 0
    assert (first["oracle.calls"] > 0) == (name == "hd_compare")


def test_tracer_reaches_rebound_names_and_restores():
    hs = run.fresh_import()
    import hogstream

    originals = (hs.oracle.run_pipeline, hogstream.nms, hs.fixedpoint.Fx.__post_init__,
                 hs.fixedpoint.FxFormat.__dict__["max_raw"])
    tracer = Tracer()
    tracer.install()
    try:
        assert hs.oracle.run_pipeline is hs.detector.run_pipeline
        assert hs.detector.run_pipeline.__wrapped__ is originals[0]
        assert hogstream.nms.__wrapped__ is originals[1]
        hs.fixedpoint.FxFormat(8, 2).max_raw
        assert tracer.fn("fixedpoint", "FxFormat.max_raw").calls == 1
        frame = hs.stream.Frame.from_array(np.zeros((8, 16), np.uint8))
        assert len(list(hs.stream.pack_frame(frame, 8))) == 16
        packer = tracer.fn("stream", "pack_frame")
        assert (packer.calls, packer.items) == (17, 16)   # one next() per item, one to stop
    finally:
        tracer.uninstall()
    assert (hs.oracle.run_pipeline, hogstream.nms, hs.fixedpoint.Fx.__post_init__,
            hs.fixedpoint.FxFormat.__dict__["max_raw"]) == originals


def test_fails_without_the_program(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hd_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
