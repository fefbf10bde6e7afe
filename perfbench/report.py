"""Run every workload untraced and traced; print all metrics side by side.

    python3 perfbench/report.py [--seed 0] [--seconds 20] [--out report.json]

Each workload runs in its own process, once with ``--trace 0`` (end-to-end
metrics) and once with ``--trace 1`` (per-layer metrics). The table has one
row per metric and one column per workload, end-to-end rows first; ``--out``
also writes the same numbers as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

RUN = Path(__file__).with_name("run.py")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{name} (trace {trace}) exited with {proc.returncode}")
    for line in lines[:-1]:
        if line.startswith("check failed") or (
                not trace and line.startswith(("property ", "recorded digests"))):
            print(f"{name}: {line}")
    return json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", help="also write the results as JSON to this file")
    args = p.parse_args()

    results = {name: {"end_to_end": run_workload(name, args.seed, args.seconds, 0),
                      "per_layer": run_workload(name, args.seed, args.seconds, 1)}
               for name in WORKLOADS}

    names = list(WORKLOADS)
    print(f"{'metric':32}" + "".join(f"{n:>16}" for n in names) + "  unit")
    for kind in ("end_to_end", "per_layer"):
        rows: dict[str, str] = {}
        for n in names:
            for metric, m in results[n][kind]["metrics"].items():
                rows.setdefault(metric, m["unit"])
        print(f"-- {kind}")
        for metric, unit in rows.items():
            cells = []
            for n in names:
                m = results[n][kind]["metrics"].get(metric)
                cells.append(f"{m['value']:>16.6g}" if m else f"{'-':>16}")
            print(f"{metric:32}" + "".join(cells) + f"  {unit}")
    for kind in ("end_to_end", "per_layer"):
        print(f"{kind:32}" + "".join(
            f"{'ok' if results[n][kind]['correct'] else 'FAILED':>16}" for n in names))
    if args.out:
        Path(args.out).write_text(json.dumps({"seed": args.seed, "results": results}, indent=1))
    return 0 if all(r[k]["correct"] for r in results.values() for k in r) else 1


if __name__ == "__main__":
    sys.exit(main())
