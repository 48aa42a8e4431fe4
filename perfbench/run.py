"""Paper-workload benchmark: simulated milliseconds per host second.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5-oltp-st --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced passes for ``--seconds`` and prints every
end-to-end metric; ``--trace 1`` makes one untraced and two traced passes
and prints the per-layer metrics. Both check every simulate call's output
and end with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups timed (each in a fresh interpreter) for the median ``setup_s``.
SETUP_REPEATS = 5


def bootstrap() -> None:
    """Put the checkout's ``src`` (and root) on ``sys.path``, or exit."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]


def measure_setup(workload_name: str, seed: int | None) -> float:
    """Seconds to import ``repro`` and generate the workload's traces."""
    start = time.perf_counter()
    bootstrap()
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    workloads.make_traces(workload, _seed(workload, seed))
    return time.perf_counter() - start


def _seed(workload, seed: int | None) -> int:
    return workload.default_seed() if seed is None else seed


def _setup_seconds(args, kernel: list[float]) -> float:
    """Median set-up seconds over fresh interpreters, sampling the
    host-speed kernel into ``kernel`` before each and after the last."""
    import hostspeed

    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--measure-setup"]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        hostspeed.sample(kernel)
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    hostspeed.sample(kernel)
    return statistics.median(samples)


def _traced_pass(workload_name: str, seed: int, run_id: str,
                 references: list) -> dict:
    """Run :func:`measure.traced_pass` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload_name, "--seed", str(seed), "--traced-pass", run_id],
        input=json.dumps(references), capture_output=True, text=True,
        timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="trace generator seed (default: the "
                             "generator's own default)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced-pass", metavar="RUN_ID",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.measure_setup:
        print(repr(measure_setup(args.workload, args.seed)))
        return 0
    if args.traced_pass:
        bootstrap()
        import measure
        import workloads

        references = json.loads(sys.stdin.read())
        print(json.dumps(measure.traced_pass(
            workloads.WORKLOADS[args.workload], args.seed, args.traced_pass,
            references)))
        return 0

    bootstrap()
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = _seed(workload, args.seed)
    tally = measure.Tally()
    if args.trace:
        metrics, extra, record = measure.traced(
            workload, seed, tally,
            lambda run_id, references: _traced_pass(args.workload, seed,
                                                    run_id, references))
    else:
        kernel: list[float] = []
        setup_s = _setup_seconds(args, kernel)
        metrics, extra, record = measure.untraced(
            workload, seed, args.seconds, tally, setup_s, kernel)

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<44} {value:.6g} {unit}")
    for problem in tally.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if tally.drifted_floats:
        print(f"perfbench: note: {tally.drifted_floats} simulated floats "
              "differ from the first pass in their last digits (see "
              "FLOAT_REL_TOL in perfbench/workloads.py)", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record.update({"workload": workload.name, "seed": seed,
                   "trace": args.trace, "metrics": {**metrics, **extra},
                   "problems": tally.problems})
    (OUT / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
