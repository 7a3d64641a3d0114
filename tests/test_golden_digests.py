"""Golden digests of the demo and every benchmark shape: byte identity as committed data.

tests/data/golden_digests.json holds part of what
scripts/workspace_digests.py records at seed 1 with mock providers, and
this test builds it with that script's own functions. For the demo and
each benchmark workload (demo, tall-1, wide-1, serve-1, http-1) the
script makes a cold build, a no-op run, a retrieval.fusion=mean
re-index, one back to max, and a staged build (one stage per run). The
golden keeps, under the script's keys, the SHA-256 of every workspace
file, the embedding cache included, after the cold build and after the
mean re-index, and every run's stage statuses. The no-op run, the
re-index back to max and the staged build must leave the cold build's
bytes, so they are compared with the cold build rather than stored. The
script's manifest entries are left out: the ingest config hash holds the
corpus's absolute path.

Some bits depend on the numeric stack: the scoring docstring records
gemv, gemm and dot results that depend on the BLAS. So the file also
records numpy's version, the BLAS and SIMD entries of
numpy.show_config(mode="dicts"), and the kernel that OpenBLAS picks at
run time, since its DYNAMIC_ARCH build gives other bits under another
kernel (OPENBLAS_CORETYPE=Haswell on a SkylakeX host, say). The files
computed without BLAS, and the stage statuses, are compared on every
stack, by one test; everything is compared, by another, only on the
stack the file was made on, and on another stack that test is skipped
with the difference as its reason.

tall-1 is 24 tables of 150 rows, so every table reaches k = k_max = 5
under the default r = 10: its Lloyd steps run with more centroids than
the demo's k <= 3 ever gives.

A change that alters bits on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_golden_digests.py

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
GOLDEN = REPO / "tests" / "data" / "golden_digests.json"
SCRIPT = REPO / "scripts" / "workspace_digests.py"
# no BLAS result goes into these: the mock embedding's squared norm is an
# exact integer (see embed), k-means takes its distances without BLAS (see
# cluster), and the index's entries and meta hold ids and settings; nor into
# the embedding cache's files (embed_cache/, named after the model), which
# hold mock vectors only
BLAS_FREE = (".lock", "corpus.jsonl", "instance_embeddings.bin", "clusters.jsonl",
             "kpts.jsonl", "queries.jsonl", "index/entries.jsonl", "index/meta.json")
SAME_AS_COLD = ("noop", "fusion-max", "staged")


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


def build(workdir: Path) -> dict[str, dict[str, str] | list[str]]:
    """The script's record of every label at seed 1, manifest entries left out."""
    # the script pins BLAS threads in the environment when imported
    with pytest.MonkeyPatch.context() as mp:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.delenv(var, raising=False)
        mp.syspath_prepend(str(REPO / "perfbench"))
        spec = importlib.util.spec_from_file_location("workspace_digests", SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        configs = script.inputs(REPO, workdir, [1])
    out = {}
    for label, path in configs.items():
        out.update(script.label_digests(label, path, workdir))
    return {key: value for key, value in out.items() if not key.endswith("/manifest")}


def stored(record: dict) -> dict:
    """What the golden keeps of a record: no digests of a run that must equal the cold build."""
    return {key: value for key, value in record.items()
            if not key.endswith(tuple(f"/{run}" for run in SAME_AS_COLD))}


def blas_free(name: str) -> bool:
    return name in BLAS_FREE or name.startswith("embed_cache/")


def changed(want: dict, got: dict, keep=lambda name: True) -> list[str]:
    """Each stage list that differs, and each kept file whose digest differs."""
    out = []
    for key, value in sorted(want.items()):
        if key.endswith("/stages"):
            out += [key] if got.get(key) != value else []
            continue
        here = got.get(key, {})
        out += [f"{key}: {f}" for f in sorted(value.keys() | here.keys())
                if keep(f) and value.get(f) != here.get(f)]
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def built(workdir) -> dict:
    return build(workdir)


def test_reruns_and_the_staged_build_leave_the_cold_build_bytes(golden, built):
    assert stored(built).keys() == golden["runs"].keys()
    labels = {key.split("/")[0] for key in golden["runs"]}
    assert labels == {"demo", "tall-1", "wide-1", "serve-1", "http-1"}
    moved = [f"{label}/{run}" for label in sorted(labels) for run in SAME_AS_COLD
             if built[f"{label}/{run}"] != built[f"{label}/cold"]]
    assert not moved, f"{moved} differ from the cold build"


def test_blas_free_files_and_stage_lines_match_the_golden_on_any_stack(golden, built):
    assert not (diff := changed(golden["runs"], built, blas_free)), f"{diff} changed"


def test_every_file_matches_the_golden_on_the_recorded_stack(golden, built):
    skip_unless_on_stack(golden["stack"])
    assert not (diff := changed(golden["runs"], built)), f"{diff} changed"


def test_every_tall_table_reaches_k_max(workdir, built):
    lines = (workdir / "workspaces" / "tall-1" / "clusters.jsonl").read_text().splitlines()
    assert len(lines) == 24
    assert {json.loads(line)["k"] for line in lines} == {5}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = {"stack": numeric_stack(), "runs": stored(build(Path(tmp)))}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
