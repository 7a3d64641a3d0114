"""scripts/workspace_digests.py: what it records of a manifest."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "workspace_digests.py"


@pytest.fixture
def digests_script(monkeypatch):
    # the script pins BLAS threads in the environment when imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    spec = importlib.util.spec_from_file_location("workspace_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_manifest(ws: Path, lines: list[dict]) -> None:
    (ws / "manifest.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))


def test_manifest_entries_skip_wall_times_and_stamp_lines(digests_script, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ingest = {"stage": "ingest", "config_hash": "c1", "input_hashes": {}, "output_hashes": {}}
    embed = {**ingest, "stage": "embed", "config_hash": "c2"}
    stamps = {"reference_ns": 2, "stamps": {"corpus.jsonl": {
        "ino": 7, "size": 3, "mtime_ns": 1, "ctime_ns": 1, "sha256": "0" * 64}}}
    _write_manifest(a, [{**ingest, "wall_time_s": 0.1}, {**embed, "wall_time_s": 0.2}])
    _write_manifest(b, [{**ingest, "wall_time_s": 0.3}, stamps, {**embed, "wall_time_s": 0.4}])
    entries = digests_script.manifest_entries(b)
    assert entries == digests_script.manifest_entries(a)
    assert [e.split()[0] for e in entries] == ["ingest", "embed"]
    _write_manifest(b, [ingest, {**embed, "config_hash": "c3"}])
    assert digests_script.manifest_entries(b)[1] != entries[1]


def test_each_run_lists_the_last_entry_of_each_stage(digests_script, tmp_path):
    # a run replaces the entries of the stages it ran and keeps the rest
    from tabret import config, pipeline

    from test_pipeline import CONFIG_BODY, write_tiny_corpus

    write_tiny_corpus(tmp_path / "corpus.jsonl")
    (tmp_path / "config.yaml").write_text(CONFIG_BODY, encoding="utf-8")
    workspace = tmp_path / "ws"
    entries: dict[str, str] = {}
    for _, overrides in digests_script.RUNS:
        cfg = config.load_config(tmp_path / "config.yaml", overrides)
        ran = {r.stage for r in pipeline.run_pipeline(cfg, "all") if r.status == "ran"}
        listed = dict(e.split() for e in digests_script.manifest_entries(workspace))
        assert list(listed) == list(pipeline.STAGES)
        kept = {stage: digest for stage, digest in listed.items() if stage not in ran}
        assert kept == {stage: digest for stage, digest in entries.items() if stage not in ran}
        entries = listed
