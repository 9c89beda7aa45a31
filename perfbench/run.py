"""Benchmark entry point: one workload, one JSON result line.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``; a
checkout without it is refused (exit code 2, no result line).  With
``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1``
the per-layer ones (see ``metrics.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return (
        f"environment: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas.get('name')} {blas.get('version')} "
        f"threads={threads or 'library default'}"
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    print(environment(), flush=True)
    (HERE / ".work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=HERE / ".work")
    try:
        run = Run(str(ROOT), args.seed, args.seconds, bool(args.trace), work)
        e2e, layer = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        layer.update({f"traced.{name}": value for name, value in e2e.items()})
        values, units = layer, PER_LAYER
    else:
        values, units = e2e, END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
