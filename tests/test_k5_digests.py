"""Golden digests of a corpus whose tables reach k = k_max = 5.

The demo's tables reach only k = 3, so tests/test_demo_digests.py never
sees a Lloyd step with more than three centroids. This test builds
synthdata.build_corpus(24, 150, 5, 1) (24 tables of 150 rows, so k = 5
for every table under the default r = 10) with the mock embedding at
dim 64 and seed 1, runs ingest, embed, cluster and kpt, and compares the
SHA-256 of instance_embeddings.bin, clusters.jsonl and kpts.jsonl with
tests/data/k5_digests.json. No BLAS result goes into these files (see
tests/test_demo_digests.py), so they are compared on every numeric
stack.

A change that alters bits on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_k5_digests.py

and lists each changed file in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from tabret import pipeline, synthdata
from tabret.config import load_config
from tabret.corpus import write_corpus

GOLDEN = Path(__file__).resolve().parent / "data" / "k5_digests.json"
CORPUS = {"n_tables": 24, "n_rows": 150, "tables_per_family": 5, "seed": 1}
FILES = ("instance_embeddings.bin", "clusters.jsonl", "kpts.jsonl")


def build(workdir: Path) -> Path:
    """The workspace after ingest through kpt."""
    write_corpus(synthdata.build_corpus(**CORPUS), workdir / "corpus.jsonl")
    (workdir / "config.yaml").write_text(json.dumps({
        "corpus": {"path": "corpus.jsonl"}, "workspace": "workspace", "seed": 1,
        "embedding": {"kind": "mock", "model_name": "mock-64", "dim": 64},
    }), encoding="utf-8")
    cfg = load_config(workdir / "config.yaml")
    for stage in ("ingest", "embed", "cluster", "kpt"):
        pipeline.run_pipeline(cfg, stage)
    return cfg.workspace


def digests(workspace: Path) -> dict[str, str]:
    return {f: hashlib.sha256((workspace / f).read_bytes()).hexdigest() for f in FILES}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    return build(tmp_path_factory.mktemp("k5"))


def test_every_table_reaches_k_max(workspace):
    lines = (workspace / "clusters.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == CORPUS["n_tables"]
    assert {json.loads(line)["k"] for line in lines} == {5}


def test_blas_free_files_match_the_golden_digests_on_any_stack(workspace):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["corpus"] == CORPUS
    got = digests(workspace)
    changed = sorted(f for f in FILES if golden["digests"][f] != got[f])
    assert not changed, f"{changed} changed"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = {"corpus": CORPUS, "digests": digests(build(Path(tmp)))}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
