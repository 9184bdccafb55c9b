"""Benchmark entry point: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan_heavy --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
installs the layer wrappers of ``tracing.py`` and reports the per-layer
metrics instead.  The metric names and units come from ``BENCHMARK.json``.
The last line of standard output is the result JSON; the exit status is 0
only when every answer was checked correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Trace files and serving scratch space, inside the checkout.
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("plan_heavy", "serve_mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_hash_seed() -> None:
    """Re-run this process with ``PYTHONHASHSEED=0``, as CI runs the tests."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _metric_specs(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def _exit_on_sigterm(signum, frame):
    # Unwind through the ``finally`` blocks, which stop the server.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_hash_seed()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    import stats

    specs = _metric_specs(bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "serve_mixed":
        import serving

        outcome = serving.run(args.seed, args.seconds, bool(args.trace), OUT_DIR)
    else:
        import inproc

        outcome = inproc.run(args.workload, args.seed, args.seconds, bool(args.trace))
        tracer = outcome.pop("tracer")
        if tracer is not None:
            tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")

    values = outcome["metrics"]
    if args.trace:
        # A layer this workload does not exercise reads 0.
        values = {spec["name"]: values.get(spec["name"], 0.0) for spec in specs}
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    capture = dict(outcome["capture"], environment=stats.environment())
    if "tail_ms" in capture:
        # Reported beside the gated metrics, not gated: see README.md.
        print(
            f"{args.workload} tail_ms = {capture['tail_ms']:.6g} ms "
            f"(p{capture['tail_percentile']:g} of {capture['samples']} samples, "
            f"{capture['samples_beyond_tail']} beyond)"
        )
    capture.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"capture": capture}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(outcome["correct"]),
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
