"""Traced ``repro serve``: install the layer wrappers, then run the normal
CLI entry; the spans are written to ``--spans`` when the server stops.

    python perfbench/launch.py --spans spans.json serve --index idx.npz --port 0
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer, install_index, install_serving  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        raise SystemExit("usage: launch.py --spans FILE <repro cli arguments>")
    path, cli_args = argv[1], argv[2:]
    from repro.cli import main as cli_main

    tracer = Tracer()
    install_index(tracer)
    install_serving(tracer)
    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
