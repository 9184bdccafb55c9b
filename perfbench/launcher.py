"""Server-process launcher: runs ``pis serve`` from the checkout's source.

Usage::

    python3 perfbench/launcher.py [--trace-out PATH] serve --database ... --engine ...

Without ``--trace-out`` this is exactly ``pis serve``.  With it, SIGUSR1
installs the layer wrappers of ``tracing.py`` inside the server process
(and touches ``PATH.armed`` once they are in place); when the server stops
the spans, plus the engine's own counter deltas since the signal, are
written to ``PATH``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))


def _counter_delta(after, before):
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def main(argv) -> int:
    from repro import cli

    if argv[:1] != ["--trace-out"]:
        return cli.main(argv)
    trace_out, argv = Path(argv[1]), argv[2:]

    from repro import Engine
    from tracing import Tracer

    tracer = Tracer()
    engines = []
    armed_counters = {}
    load_engine = Engine.load

    def keep_engine(path, database, durability=None):
        engine = load_engine(path, database, durability)
        engines.append(engine)
        return engine

    def arm(signum, frame):
        # Sent between load phases, while no request is in flight.
        armed_counters.update(engines[0].profile()["counters"])
        tracer.install()
        Path(str(trace_out) + ".armed").touch()

    # The engine the server loads, for its counters.
    Engine.load = keep_engine
    signal.signal(signal.SIGUSR1, arm)
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        counters = (
            _counter_delta(engines[0].profile()["counters"], armed_counters)
            if engines and armed_counters
            else {}
        )
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counters": counters}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
