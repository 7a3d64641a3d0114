"""Run one workload of the tabret benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tall --seed 1 --seconds 20 --trace 0

Workloads are defined in ``bench.py``: tall, wide, serve and http.
``--trace 0`` measures the end-to-end metrics with the program
unpatched, its timings corrected for the host's speed (``hostspeed.py``;
the raw wall times are printed on ``#`` lines); ``--trace 1`` reports per-layer metrics from one traced pass
of the workload's focus. Human-readable lines come first, each starting
with ``#``; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the same checkout, never from
an installed copy. Without it the benchmark exits with status 2 and
prints no result.
"""

from __future__ import annotations

import os

# Cap BLAS and OpenMP threads before numpy is imported: timings then do
# not depend on how many threads the BLAS library would pick.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tabret benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tabret" / "__init__.py").is_file():
        print(f"no library source at {src / 'tabret'}", file=sys.stderr)
        return 2
    try:
        import bench
    except ImportError as exc:
        print(f"cannot import the library from {src}: {exc}", file=sys.stderr)
        return 2
    import numpy

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2

    # on SIGTERM unwind through the finally below, which stops the stub
    # provider and removes the run's files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = bench.Run(workload, args.seed, args.seconds, work)
    try:
        metrics = run.measure_traced() if args.trace else run.measure()
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    tally = run.tally
    if not args.trace:
        metrics["ok_share"] = (tally.attempted - tally.failed) / tally.attempted
    declared = bench.PER_LAYER if args.trace else bench.END_TO_END

    print(f"# tabret benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env: nproc={bench.NPROC} python={platform.python_version()} "
          f"numpy={numpy.__version__} blas_threads={BLAS_THREADS}")
    for note in run.notes:
        print(f"# {note}")
    if not args.trace:
        print(f"# failed_share {tally.failed / tally.attempted:.6f} "
              f"({tally.failed} of {tally.attempted} operations)")
    for name, unit in declared:
        if name in metrics:
            print(f"# {name:32s} {metrics[name]:>16.6f} {unit}")
        else:
            print(f"# {name:32s} {'missing':>16s} {unit}")
    complete = all(name in metrics for name, _ in declared)
    print(json.dumps({
        "correct": tally.failed == 0 and complete,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
