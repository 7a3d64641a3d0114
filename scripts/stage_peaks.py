"""Memory of each stage of one cold build of a benchmark workload, as JSON.

    python3 scripts/stage_peaks.py SRC WORKDIR --workload W --seed N

SRC is a tabret checkout; its ``src/`` and ``perfbench/`` are imported,
as ``scripts/workspace_digests.py`` imports them, so two checkouts (say a
parent commit and a change) can be compared. The workload's corpus and
config (``perfbench/bench.py``'s ``WORKLOADS`` and ``write_inputs``, mock
provider) are written under WORKDIR, which must not exist yet, and cold-
built twice, each time in a new child process and a new workspace:

- with tracemalloc on: per stage, the peak of traced memory above what
  was traced when the stage began (``tracemalloc_peak_mb``);
- with tracemalloc off: per stage, the process's RSS high-water
  (``ru_maxrss``) once the stage has returned (``rss_high_water_mb``).
  ``rss_before_build_mb`` is the same figure before the first stage,
  once the interpreter, numpy and the library are imported.

perfbench's ``peak_rss_mb`` reads the RSS high-water once, at the end of
a fixed-time run of many cycles; this gives it for one cold build, stage
by stage. BLAS runs on one thread, as in ``perfbench/run.py``. Figures
are in MB of 2**20 bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Callable

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

MEASURES = ("tracemalloc_peak_mb", "rss_high_water_mb")
MB = float(1 << 20)


def _rss_high_water_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def stage_figures(config_path: Path, workspace: Path, measure: str) -> dict[str, float]:
    """measure, one of MEASURES, of each stage that a cold build of
    config_path on workspace runs, in the order they ran."""
    from tabret import config, pipeline

    cfg = config.load_config(config_path, [f"workspace={workspace}"])
    traced = measure == "tracemalloc_peak_mb"
    figures: dict[str, float] = {}
    originals = dict(pipeline._STAGE_FNS)

    def measured(stage: str, fn: Callable) -> Callable:
        def run(*args: object) -> None:
            if traced:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                fn(*args)
                figures[stage] = (tracemalloc.get_traced_memory()[1] - start) / MB
            else:
                fn(*args)
                figures[stage] = _rss_high_water_mb()

        return run

    pipeline._STAGE_FNS.update({st: measured(st, fn) for st, fn in originals.items()})
    if traced:
        tracemalloc.start()
    try:
        pipeline.run_pipeline(cfg, "all")
    finally:
        if traced:
            tracemalloc.stop()
        pipeline._STAGE_FNS.update(originals)
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="tabret checkout to run")
    parser.add_argument("workdir", type=Path, help="new directory for inputs and workspaces")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    # the child processes' side of the run: one build, one measure
    parser.add_argument("--measure", choices=MEASURES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src, workdir = args.src.resolve(), args.workdir.resolve()
    sys.path[:0] = [str(src / "src"), str(src / "perfbench")]
    config_path = workdir / "inputs" / "config.yaml"
    if args.measure:
        import tabret.pipeline  # noqa: F401  (numpy and the library, before the first figure)

        before = _rss_high_water_mb()
        figures = stage_figures(config_path, workdir / args.measure, args.measure)
        json.dump({"rss_before_build_mb": before, "stages": figures}, sys.stdout)
        return 0

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    workdir.mkdir(parents=True)
    bench.write_inputs(bench.WORKLOADS[args.workload], args.seed, config_path.parent, None)
    runs = {}
    for measure in MEASURES:
        child = [sys.executable, __file__, str(src), str(workdir), "--workload", args.workload,
                 "--seed", str(args.seed), "--measure", measure]
        runs[measure] = json.loads(subprocess.run(child, check=True, capture_output=True,
                                                  text=True).stdout)
    out = {
        "src": str(src),
        "workload": args.workload,
        "seed": args.seed,
        "rss_before_build_mb": round(runs["rss_high_water_mb"]["rss_before_build_mb"], 2),
        "stages": {
            stage: {m: round(runs[m]["stages"][stage], 2) for m in MEASURES}
            for stage in runs["rss_high_water_mb"]["stages"]
        },
    }
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
