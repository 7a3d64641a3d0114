"""Golden digests of the wide shape: many tables of few rows.

The demo has 10 tables, so tests/test_demo_digests.py never sees mining,
training and ranking at scale. This test builds
synthdata.build_corpus(150, 12, 15, 1), the wide benchmark workload's
corpus at seed 1 (every table has k <= 2 under the default r = 10), with
the mock embedding at dim 64, genq.n_q 3 and eval.holdout_per_pt 2. It
records the SHA-256 of every workspace file, the embedding cache
included and manifest.jsonl left out, after a cold build and after a
retrieval.fusion=mean re-index, in tests/data/wide_digests.json. The
BLAS-free files are compared on every numeric stack; the rest only on
the stack the file was made on (see tests/test_demo_digests.py, whose
helpers this test uses).

A change that alters bits on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_wide_digests.py

and lists each changed file in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

from tabret import pipeline, synthdata
from tabret.config import load_config
from tabret.corpus import write_corpus

from test_demo_digests import BLAS_FREE, RUNS, SCRIPT, changed_files, numeric_stack

GOLDEN = Path(__file__).resolve().parent / "data" / "wide_digests.json"
CORPUS = {"n_tables": 150, "n_rows": 12, "tables_per_family": 15, "seed": 1}


def measure(workdir: Path) -> dict[str, dict[str, str]]:
    """Each run's workspace digests, the runs made in order on one workspace."""
    # the script pins BLAS threads in the environment when imported
    with pytest.MonkeyPatch.context() as mp:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.delenv(var, raising=False)
        spec = importlib.util.spec_from_file_location("workspace_digests", SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
    write_corpus(synthdata.build_corpus(**CORPUS), workdir / "corpus.jsonl")
    (workdir / "config.yaml").write_text(json.dumps({
        "corpus": {"path": "corpus.jsonl"}, "workspace": "workspace", "seed": 1,
        "embedding": {"kind": "mock", "model_name": "mock-64", "dim": 64},
        "genq": {"n_q": 3}, "eval": {"holdout_per_pt": 2},
    }), encoding="utf-8")
    out = {}
    for run, overrides in RUNS:
        cfg = load_config(workdir / "config.yaml", overrides)
        pipeline.run_pipeline(cfg, "all")
        out[run] = script.digests(cfg.workspace)
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert data["corpus"] == CORPUS
    return data


@pytest.fixture(scope="module")
def built(tmp_path_factory) -> dict[str, dict[str, str]]:
    return measure(tmp_path_factory.mktemp("wide"))


def test_blas_free_files_match_the_golden_digests_on_any_stack(golden, built):
    for run, _ in RUNS:
        want = {f: golden["runs"][run][f] for f in BLAS_FREE}
        got = {f: built[run].get(f, "missing") for f in BLAS_FREE}
        assert not changed_files(want, got), f"{run}: {changed_files(want, got)} changed"


def test_every_file_matches_the_golden_digests_on_the_recorded_stack(golden, built):
    here = numeric_stack()
    if here != golden["stack"]:
        differs = sorted(k for k in here if here[k] != golden["stack"].get(k))
        pytest.skip(f"numeric stack differs from the recorded one in {differs}; "
                    f"only the BLAS-free files were compared")
    for run, _ in RUNS:
        changed = changed_files(golden["runs"][run], built[run])
        assert not changed, f"{run}: {changed} changed"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = {"corpus": CORPUS, "stack": numeric_stack(), "runs": measure(Path(tmp))}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
