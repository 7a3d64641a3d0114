"""Golden digests of the demo workspace: byte identity as committed data.

tests/data/demo_digests.json holds the SHA-256 of every workspace file
after a cold build of data/demo and after a retrieval.fusion=mean
re-index, taken with scripts/workspace_digests.py's digests(), the
embedding cache included. That function leaves out manifest.jsonl, and
so does this test: its entries hold wall times and the corpus's absolute
path (in the ingest config hash and the corpus's key), and its stamp
lines hold inode numbers and file times, so it differs between two runs
of one tree. The files it vouches for are compared instead.

Some bits depend on the numeric stack: the scoring docstring records
gemv, gemm and dot results that depend on the BLAS. So the file also
records numpy's version, the BLAS and SIMD entries of
numpy.show_config(mode="dicts"), and the kernel that OpenBLAS picks at
run time, since its DYNAMIC_ARCH build gives other bits under another
kernel (OPENBLAS_CORETYPE=Haswell on a SkylakeX host, say). The files
computed without BLAS are compared on every stack, by one test; the rest
are compared, by the other, only on the stack the file was made on, and
on another stack that test is skipped with the difference as its reason.
Each test's name says which set it compares.

A change that alters bits on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_demo_digests.py

and lists each changed file in CHANGES.md.
"""

from __future__ import annotations

import ctypes
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "data" / "demo_digests.json"
SCRIPT = REPO / "scripts" / "workspace_digests.py"
# no BLAS result goes into these: the mock embedding's squared norm is an
# exact integer (see embed) and k-means takes its distances without BLAS
# (see cluster)
BLAS_FREE = ("corpus.jsonl", "instance_embeddings.bin", "clusters.jsonl", "kpts.jsonl",
             "queries.jsonl")
RUNS = (("cold", []), ("fusion-mean", ["retrieval.fusion=mean"]))


def blas_kernel() -> str | None:
    """The kernel numpy's bundled OpenBLAS runs on, or None where numpy
    bundles no such library."""
    try:
        corename = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def numeric_stack() -> dict:
    """numpy's version, its BLAS and SIMD entries without install paths,
    and the BLAS kernel."""
    info = np.show_config(mode="dicts")
    blas = {k: v for k, v in info["Build Dependencies"]["blas"].items() if "directory" not in k}
    return {"numpy": np.__version__, "blas": blas, "simd": info["SIMD Extensions"],
            "blas_kernel": blas_kernel()}


def skip_unless_on_stack(recorded: dict) -> None:
    """Skip the calling test, naming each entry that differs, unless this
    is the numeric stack recorded."""
    here = numeric_stack()
    differs = [f"{k} is {here[k]!r} here, {recorded.get(k)!r} recorded"
               for k in sorted(here) if here[k] != recorded.get(k)]
    if differs:
        pytest.skip(f"numeric stack differs from the recorded one: {'; '.join(differs)}; "
                    f"only the BLAS-free files were compared")


def measure(workdir: Path) -> dict[str, dict[str, str]]:
    """Each run's workspace digests, the runs made in order on one workspace."""
    from tabret import config, pipeline

    # the script pins BLAS threads in the environment when imported
    with pytest.MonkeyPatch.context() as mp:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.delenv(var, raising=False)
        spec = importlib.util.spec_from_file_location("workspace_digests", SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
    out = {}
    for run, overrides in RUNS:
        cfg = config.load_config(REPO / "data" / "demo" / "config.yaml",
                                 [f"workspace={workdir / 'workspace'}", *overrides])
        pipeline.run_pipeline(cfg, "all")
        out[run] = script.digests(workdir / "workspace")
    return out


def changed_files(want: dict[str, str], got: dict[str, str]) -> list[str]:
    return sorted(f for f in want.keys() | got.keys() if want.get(f) != got.get(f))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def built(tmp_path_factory) -> dict[str, dict[str, str]]:
    return measure(tmp_path_factory.mktemp("demo"))


def test_blas_free_files_match_the_golden_digests_on_any_stack(golden, built):
    for run, _ in RUNS:
        want = {f: golden["runs"][run][f] for f in BLAS_FREE}
        got = {f: built[run].get(f, "missing") for f in BLAS_FREE}
        assert not changed_files(want, got), f"{run}: {changed_files(want, got)} changed"


def test_every_file_matches_the_golden_digests_on_the_recorded_stack(golden, built):
    skip_unless_on_stack(golden["stack"])
    for run, _ in RUNS:
        changed = changed_files(golden["runs"][run], built[run])
        assert not changed, f"{run}: {changed} changed"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = {"stack": numeric_stack(), "runs": measure(Path(tmp))}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
