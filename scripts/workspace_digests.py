"""SHA-256 of every workspace file after each kind of run, as JSON.

    python3 scripts/workspace_digests.py SRC WORKDIR [--seeds 1 2]

SRC is a tabret checkout; its ``src/`` and ``perfbench/`` are imported,
so two checkouts (say a parent commit and a change) can be compared with
one ``diff`` of the two outputs. For the demo config and for each
benchmark workload (``perfbench/bench.py``'s ``WORKLOADS`` and
``write_inputs``, mock provider) at each seed, it runs a cold build, a
no-op run, a re-index with ``retrieval.fusion=mean`` and one back to
``max``, and after each run records the digest of every file in the
workspace, embedding cache included. ``manifest.jsonl`` holds wall
times, so in its place each of its stage entries (the last entry of each
stage, in the order the stages first ran) is recorded as its stage and
the digest of the entry without ``wall_time_s``, under the run's key
plus ``/manifest``; its stamp line, which holds inode numbers and file
times, is left out. Each stage's status in the run (ran, fresh
or skipped) goes under the run's key plus ``/stages``, so the same diff
shows whether the two checkouts ran the same stages. Everything it
writes lives under WORKDIR, which must not exist yet; the demo config
and corpus are copied there too. The ingest config hash and the corpus's manifest key hold the
corpus's absolute path, so two outputs compare equal only when both
runs used the same WORKDIR path (remove it between the runs). BLAS runs
on one thread unless the environment says otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

RUNS = (("cold", []), ("noop", []), ("fusion-mean", ["retrieval.fusion=mean"]),
        ("fusion-max", ["retrieval.fusion=max"]))


def digests(workspace: Path) -> dict[str, str]:
    return {
        path.relative_to(workspace).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workspace.rglob("*"))
        if path.is_file() and path.name != "manifest.jsonl"
    }


def manifest_entries(workspace: Path) -> list[str]:
    lines = (workspace / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    out = []
    for entry in map(json.loads, lines):
        if "stage" not in entry:  # a stamp line
            continue
        entry.pop("wall_time_s", None)
        canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        out.append(f"{entry['stage']} {hashlib.sha256(canonical.encode()).hexdigest()}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="tabret checkout to run")
    parser.add_argument("workdir", type=Path, help="new directory for inputs and workspaces")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    src, workdir = args.src.resolve(), args.workdir.resolve()
    sys.path[:0] = [str(src / "src"), str(src / "perfbench")]
    import bench
    from tabret import config, pipeline

    workdir.mkdir(parents=True)
    demo = workdir / "inputs" / "demo"
    demo.mkdir(parents=True)
    for name in ("config.yaml", "corpus.jsonl"):
        shutil.copy(src / "data" / "demo" / name, demo)
    configs = {"demo": demo / "config.yaml"}
    for name, w in bench.WORKLOADS.items():
        for seed in args.seeds:
            inputs = workdir / "inputs" / f"{name}-{seed}"
            configs[f"{name}-{seed}"] = bench.write_inputs(w, seed, inputs, None)

    out: dict[str, dict[str, str] | list[str]] = {}
    for label, path in configs.items():
        # a relative workspace would resolve against the config's directory
        workspace = workdir / "workspaces" / label
        for run, overrides in RUNS:
            cfg = config.load_config(path, [f"workspace={workspace}", *overrides])
            results = pipeline.run_pipeline(cfg, "all")
            out[f"{label}/{run}"] = digests(workspace)
            out[f"{label}/{run}/stages"] = [f"{r.stage} {r.status}" for r in results]
            out[f"{label}/{run}/manifest"] = manifest_entries(workspace)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
