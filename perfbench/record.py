"""Record the reference outputs of every workload at the default seed.

    python3 perfbench/record.py

Writes ``expected.json`` beside this file: per workload, the SHA-256 of the
raw score map and of the detection text, the candidate and kept counts, the
saturation counts and the ErrorReport. Run it only at the commit whose
outputs are the reference; a speed-only change must reproduce them exactly.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import DEFAULT_SEED, EXPECTED_PATH, WORKLOADS, mismatches


def record(name: str) -> dict:
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        hs = run.fresh_import()
        inputs = workload.make_inputs(hs, DEFAULT_SEED, Path(tmp))
        st = workload.load(hs, inputs)
        first = workload.warm_up(hs, st).digest()
        second = workload.frame(hs, st).digest()
    if first != second:
        raise SystemExit(f"{name}: two frames gave different outputs; nothing recorded")
    if st.reference is not None and mismatches(first, st.reference, run.CROSS_PATH_KEYS):
        raise SystemExit(f"{name}: the two execution paths disagree; nothing recorded")
    return first


def main() -> int:
    if not run.use_checkout_source():
        print("error: no hogstream package under src/", file=sys.stderr)
        return 2
    expected = {name: record(name) for name in WORKLOADS}
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
