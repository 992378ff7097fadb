"""``repro serve`` with the layer calls traced (the traced run's server).

Usage: ``PERFBENCH_SPANS=<file> python perfbench/traced_serve.py serve ...``
with ``src`` on ``PYTHONPATH``. Takes the same arguments as
``python -m repro``. On SIGUSR1 it appends every span recorded so far to
``<file>`` as JSONL and then creates ``<file>.done``; the benchmark sends
the signal before it kills the server.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

import layers
from spans import Tracer


def main(argv) -> int:
    from repro.cli import main as cli_main

    path = os.environ["PERFBENCH_SPANS"]
    tracer = Tracer("s")
    layers.install(tracer)
    layers.install_server(tracer)

    def dump(_signum, _frame) -> None:
        tracer.dump(path)
        Path(f"{path}.done").touch()

    signal.signal(signal.SIGUSR1, dump)
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
