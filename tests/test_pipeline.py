"""Stage orchestration: sequencing, caching, holdout hygiene, compare."""

import builtins
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import tabret.fsio as fsio
import tabret.pipeline as pipeline_mod
from tabret.config import ConfigError, PipelineConfig, load_config
from tabret.embed import EmbeddingCache
from tabret.fsio import read_jsonl, sha256_json, write_jsonl
from tabret.pipeline import (
    STAGES,
    StageError,
    Variant,
    parse_variants,
    plan_stages,
    run_compare,
    run_pipeline,
    split_queries,
)
from tabret.querygen import SyntheticQuery

DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"


def copy_demo(directory: Path) -> None:
    """The demo's config and corpus, copied into directory."""
    for name in ("config.yaml", "corpus.jsonl"):
        shutil.copy(DEMO / name, directory)


def make_query(pt: str, ordinal: int, table: str | None = None) -> SyntheticQuery:
    return SyntheticQuery(
        query_id=f"{pt}#q{ordinal}",
        pt_id=pt,
        table_id=table or pt.split("#", 1)[0],
        text=f"question {ordinal} about {pt}",
        lang="en",
    )


class TestSplitQueries:
    def test_partition_is_exact(self):
        queries = [make_query(f"t{t}#kpt_random#0", o) for t in range(5) for o in range(4)]
        training, heldout = split_queries(queries, 1)
        assert len(training) + len(heldout) == len(queries)
        assert {q.query_id for q in training}.isdisjoint(q.query_id for q in heldout)
        assert {q.query_id for q in training} | {q.query_id for q in heldout} == {
            q.query_id for q in queries
        }

    def test_holds_out_requested_count_per_pt(self):
        queries = [make_query(f"t{t}#kpt_random#0", o) for t in range(4) for o in range(5)]
        training, heldout = split_queries(queries, 2)
        by_pt: dict[str, int] = {}
        for q in heldout:
            by_pt[q.pt_id] = by_pt.get(q.pt_id, 0) + 1
        assert by_pt == {f"t{t}#kpt_random#0": 2 for t in range(4)}

    def test_at_least_one_query_stays_in_training(self):
        # even when the requested holdout exceeds the group size
        queries = [make_query("t0#kpt_random#0", o) for o in range(3)]
        training, heldout = split_queries(queries, 99)
        assert len(training) == 1
        assert len(heldout) == 2

    def test_single_query_groups_never_held_out(self):
        queries = [make_query(f"t{t}#kpt_random#0", 0) for t in range(6)]
        training, heldout = split_queries(queries, 1)
        assert heldout == []
        assert len(training) == 6

    def test_zero_holdout(self):
        queries = [make_query("t0#kpt_random#0", o) for o in range(4)]
        training, heldout = split_queries(queries, 0)
        assert heldout == []
        assert len(training) == 4

    def test_insensitive_to_input_order(self, rng):
        queries = [make_query(f"t{t}#kpt_random#0", o) for t in range(4) for o in range(5)]
        baseline = split_queries(queries, 2)
        shuffled = list(queries)
        rng.shuffle(shuffled)
        result = split_queries(shuffled, 2)
        assert [q.query_id for q in result[0]] == [q.query_id for q in baseline[0]]
        assert [q.query_id for q in result[1]] == [q.query_id for q in baseline[1]]

    def test_held_positions_vary_across_pts(self):
        # the held-out ordinal is hash-placed, so across many pts it
        # must not collapse onto one fixed position
        queries = [make_query(f"t{t:02d}#kpt_random#0", o) for t in range(30) for o in range(5)]
        _, heldout = split_queries(queries, 1)
        positions = {int(q.query_id.rsplit("#q", 1)[1]) for q in heldout}
        assert len(positions) > 1


def write_tiny_corpus(path: Path, n_tables: int = 6, n_rows: int = 12) -> None:
    records = []
    for t in range(n_tables):
        rows = [
            [f"t{t}-r{i:02d}", f"part {t} model {i}", f"aisle {(t * 7 + i) % 5}"]
            for i in range(n_rows)
        ]
        records.append(
            {"table_id": f"t{t:02d}", "header": ["sku", "name", "zone"], "rows": rows}
        )
    write_jsonl(path, records)


CONFIG_BODY = """\
corpus:
  path: corpus.jsonl
workspace: ws
seed: 3
embedding:
  kind: mock
  model_name: mock-32
  dim: 32
clustering:
  n_init: 2
kpt:
  s: 3
genq:
  n_q: 3
mining:
  h: 4
train:
  epochs: 1
  accumulation_steps: 8
"""


@pytest.fixture
def pipeline_cfg(tmp_path):
    write_tiny_corpus(tmp_path / "corpus.jsonl")
    (tmp_path / "config.yaml").write_text(CONFIG_BODY, encoding="utf-8")
    return load_config(tmp_path / "config.yaml")


class TestRunPipeline:
    def test_full_run_produces_all_artifacts(self, pipeline_cfg):
        results = run_pipeline(pipeline_cfg, "all")
        assert [r.stage for r in results] == list(STAGES)
        assert all(r.status == "ran" for r in results)
        ws = pipeline_cfg.workspace
        for name in (
            "corpus.jsonl",
            "instance_embeddings.bin",
            "clusters.jsonl",
            "kpts.jsonl",
            "queries.jsonl",
            "triples.jsonl",
            "adapter.bin",
            "train_report.json",
            "report.json",
            "index/entries.jsonl",
            "index/vectors.bin",
            "index/meta.json",
        ):
            assert (ws / name).exists(), name
        report = json.loads((ws / "report.json").read_text())
        assert report["query_count"] == len(report["ranks"]) > 0
        assert set(report["recall"]) == {"R@1", "R@5", "R@10"}
        train_report = json.loads((ws / "train_report.json").read_text())
        assert sorted(train_report) == [
            "epoch_mean_losses", "final_loss", "initial_loss", "steps", "triples_seen"]

    def test_second_run_is_all_fresh(self, pipeline_cfg):
        run_pipeline(pipeline_cfg, "all")
        results = run_pipeline(pipeline_cfg, "all")
        assert all(r.status == "fresh" for r in results)

    def test_manifest_holds_its_live_lines_after_every_run(self, pipeline_cfg, tmp_path):
        # each fusion toggle re-runs index and eval; after every run the
        # manifest holds the last entry of each stage, in STAGES order, and
        # at most one stamp line, whose every stamp names a file as it is
        run_pipeline(pipeline_cfg, "all")
        ws = pipeline_cfg.workspace
        manifest = ws / "manifest.jsonl"
        for fusion in ["mean", "max"] * 10:
            cfg = load_config(tmp_path / "config.yaml", [f"retrieval.fusion={fusion}"])
            plans = plan_stages(cfg)
            for statuses in (["fresh"] * 7 + ["ran"] * 2, ["fresh"] * 9):
                _settle(ws)  # so that the run stamps each file it hashes
                assert [r.status for r in run_pipeline(cfg, "all")] == statuses
                lines = read_jsonl(manifest)
                assert [line.get("stage") for line in lines] in ([*STAGES], [*STAGES, None])
                assert [line["config_hash"] for line in lines[: len(STAGES)]] == [
                    plans[st].config_hash for st in STAGES]
                stamps = lines[-1].get("stamps", {})
                assert stamps
                for key, stamp in stamps.items():  # an absolute key stays absolute
                    st = (ws / key).stat()
                    assert (st.st_ino, st.st_size) == (stamp["ino"], stamp["size"]), key

    def test_deleted_artifact_reruns_only_downstream(self, pipeline_cfg):
        run_pipeline(pipeline_cfg, "all")
        (pipeline_cfg.workspace / "kpts.jsonl").unlink()
        results = {r.stage: r.status for r in run_pipeline(pipeline_cfg, "all")}
        assert results["embed"] == "fresh"
        assert results["cluster"] == "fresh"
        assert results["kpt"] == "ran"

    def test_config_change_invalidates_owning_stage_only(self, pipeline_cfg, tmp_path):
        run_pipeline(pipeline_cfg, "all")
        changed = load_config(tmp_path / "config.yaml", overrides=["kpt.s=2"])
        results = {r.stage: r.status for r in run_pipeline(changed, "all")}
        assert results["embed"] == "fresh"
        assert results["cluster"] == "fresh"
        assert results["kpt"] == "ran"
        assert results["genq"] == "ran"

    def test_single_stage_run(self, pipeline_cfg):
        results = run_pipeline(pipeline_cfg, "ingest")
        assert [(r.stage, r.status) for r in results] == [("ingest", "ran")]

    def test_missing_prerequisite_names_producer(self, pipeline_cfg):
        with pytest.raises(StageError, match="run stage 'ingest' first") as exc_info:
            run_pipeline(pipeline_cfg, "embed")
        assert exc_info.value.exit_code == 3

    def test_unknown_stage_rejected(self, pipeline_cfg):
        with pytest.raises(StageError, match="unknown stage") as exc_info:
            run_pipeline(pipeline_cfg, "shuffle")
        assert exc_info.value.exit_code == 2

    def test_train_disabled_skips_and_indexes_without_adapter(self, pipeline_cfg, tmp_path):
        cfg = load_config(tmp_path / "config.yaml", overrides=["train.enabled=false"])
        results = {r.stage: r.status for r in run_pipeline(cfg, "all")}
        assert results["mine"] == "skipped"
        assert results["train"] == "skipped"
        assert results["eval"] == "ran"
        assert not (cfg.workspace / "adapter.bin").exists()
        assert (cfg.workspace / "report.json").exists()

    @pytest.mark.parametrize("setting", ["eval.holdout_per_pt=0", "genq.n_q=1"])
    def test_nothing_held_out_without_gold_fails_at_load(self, pipeline_cfg, tmp_path, setting):
        path = tmp_path / "config.yaml"
        with pytest.raises(ConfigError, match="genq.n_q >= 2 and eval.holdout_per_pt >= 1"):
            load_config(path, overrides=[setting])
        # a gold file gives eval its queries
        assert load_config(path, overrides=[setting, "eval.gold_path=gold.jsonl"])

    def test_one_question_per_partial_table_fails_eval(self, pipeline_cfg, tmp_path):
        # the mock chat asks one question per column of a row, so a
        # one-column table yields one question, which training keeps
        write_jsonl(tmp_path / "corpus.jsonl", [
            {"table_id": f"t{t}", "header": ["sku"], "rows": [[f"t{t}-r{i}"] for i in range(4)]}
            for t in range(3)
        ])
        with pytest.raises(StageError, match="no evaluation queries: each partial table has "
                                             "only one question") as exc_info:
            run_pipeline(pipeline_cfg, "all")
        assert exc_info.value.exit_code == 2

    def test_bad_corpus_path_maps_to_exit_code_2(self, pipeline_cfg, tmp_path):
        cfg = load_config(
            tmp_path / "config.yaml", overrides=["corpus.path=missing.jsonl"]
        )
        with pytest.raises(StageError) as exc_info:
            run_pipeline(cfg, "all")
        assert exc_info.value.exit_code == 2


def _flip_byte(path: Path, at: int) -> None:
    raw = bytearray(path.read_bytes())
    raw[at] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestDamagedWorkspace:
    """Fault injection: torn logs, corrupt artifacts, older formats."""

    @pytest.mark.parametrize(
        "artifact, stage, producer",
        [
            ("instance_embeddings.bin", "cluster", "embed"),
            ("adapter.bin", "index", "train"),
            ("adapter.bin", "eval", "train"),
            ("index/vectors.bin", "eval", "index"),
        ],
    )
    def test_corrupt_artifact_exits_3_naming_the_stage_to_rerun(
        self, pipeline_cfg, artifact, stage, producer
    ):
        run_pipeline(pipeline_cfg, "all")
        path = pipeline_cfg.workspace / artifact
        _flip_byte(path, path.stat().st_size // 2)
        with pytest.raises(StageError, match=f"; rerun stage '{producer}'$") as exc_info:
            run_pipeline(pipeline_cfg, stage)
        assert exc_info.value.exit_code == 3
        # the remedy restores the exact bytes, so the stage is fresh again
        assert [r.status for r in run_pipeline(pipeline_cfg, producer)] == ["ran"]
        assert [r.status for r in run_pipeline(pipeline_cfg, stage)] == ["fresh"]

    def test_corrupt_cache_record_exits_3_naming_the_cache(self, pipeline_cfg):
        run_pipeline(pipeline_cfg, "all")
        (cache_bin,) = pipeline_cfg.cache_dir.glob("*.bin")
        # records are 4 + 8 * 32 + 8 bytes long: this hits every one
        for at in range(10, cache_bin.stat().st_size, 100):
            _flip_byte(cache_bin, at)
        (pipeline_cfg.workspace / "index" / "vectors.bin").unlink()
        with pytest.raises(StageError, match="remove the embedding cache") as exc_info:
            run_pipeline(pipeline_cfg, "index")
        assert exc_info.value.exit_code == 3

    @pytest.mark.parametrize("target", ["instance_embeddings.bin", "index/vectors.bin"])
    def test_temp_file_of_a_run_killed_at_the_rename_is_swept_by_the_next(
        self, pipeline_cfg, tmp_path, target
    ):
        kill_at_rename = (
            "import os, signal, sys\n"
            "from tabret.config import load_config\n"
            "from tabret.pipeline import run_pipeline\n"
            "replace = os.replace\n"
            "def kill_at(src, dst):\n"
            "    if str(dst).endswith(sys.argv[2]):\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    replace(src, dst)\n"
            "os.replace = kill_at\n"
            "run_pipeline(load_config(sys.argv[1]), 'all')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fsio.__file__).parents[1]))
        config = str(tmp_path / "config.yaml")
        proc = subprocess.run([sys.executable, "-c", kill_at_rename, config, target], env=env)
        assert proc.returncode == -signal.SIGKILL
        ws = pipeline_cfg.workspace
        target_path = ws / target
        # the artifact was written in full, but beside its final name
        (tmp,) = target_path.parent.glob(f".{target_path.name}.*.tmp")
        assert tmp.stat().st_size > 0 and not target_path.exists()
        results = run_pipeline(pipeline_cfg, "all")
        assert all(r.status in ("ran", "fresh") for r in results)
        assert target_path.exists()
        assert not list(ws.glob(".*.tmp")) + list((ws / "index").glob(".*.tmp"))

    def test_run_killed_at_the_rename_of_a_record_resumes_at_that_stage(
        self, pipeline_cfg, tmp_path
    ):
        # the manifest's fourth replace is kpt's record
        kill_at_rename = (
            "import os, signal, sys\n"
            "from tabret.config import load_config\n"
            "from tabret.pipeline import run_pipeline\n"
            "replace, renames = os.replace, []\n"
            "def kill_at(src, dst):\n"
            "    renames.append(str(dst))\n"
            "    if sum(r.endswith('manifest.jsonl') for r in renames) == 4:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    replace(src, dst)\n"
            "os.replace = kill_at\n"
            "run_pipeline(load_config(sys.argv[1]), 'all')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fsio.__file__).parents[1]))
        config = str(tmp_path / "config.yaml")
        proc = subprocess.run([sys.executable, "-c", kill_at_rename, config], env=env)
        assert proc.returncode == -signal.SIGKILL
        ws = pipeline_cfg.workspace
        # kpt wrote its output, but the manifest still ends at cluster
        assert (ws / "kpts.jsonl").exists()
        assert [line["stage"] for line in read_jsonl(ws / "manifest.jsonl")
                if "stage" in line] == ["ingest", "embed", "cluster"]
        results = [r.status for r in run_pipeline(pipeline_cfg, "all")]
        assert results == ["fresh"] * 3 + ["ran"] * 6
        clean = load_config(tmp_path / "config.yaml", ["workspace=clean"])
        run_pipeline(clean, "all")
        assert _tree(ws) == _tree(clean.workspace)
        assert _entries(ws) == _entries(clean.workspace)

    def test_torn_manifest_line_keeps_the_workspace_usable(self, pipeline_cfg):
        run_pipeline(pipeline_cfg, "all")
        manifest = pipeline_cfg.workspace / "manifest.jsonl"
        with manifest.open("a") as fh:
            fh.write('{"stage": "ev')
        assert all(r.status == "fresh" for r in run_pipeline(pipeline_cfg, "all"))
        (pipeline_cfg.workspace / "report.json").unlink()
        assert run_pipeline(pipeline_cfg, "eval")[0].status == "ran"
        assert all(r.status == "fresh" for r in run_pipeline(pipeline_cfg, "all"))

    @pytest.mark.parametrize("overrides", [[], ["kpt.s=2"]], ids=["eval", "kpt-s2"])
    def test_manifest_torn_in_its_last_entry_resumes_at_that_stage(
        self, pipeline_cfg, tmp_path, overrides
    ):
        run_pipeline(pipeline_cfg, "all")
        ws = pipeline_cfg.workspace
        manifest = ws / "manifest.jsonl"

        def entries() -> list[bytes]:
            return [line for line in manifest.read_bytes().splitlines(keepends=True)
                    if b'"stage": ' in line]

        cfg = load_config(tmp_path / "config.yaml", overrides)
        kept = entries()
        if overrides:
            # older code appended each record: a run under kpt.s=2 was
            # killed in the append of kpt's entry, after kpt wrote its file
            run_pipeline(cfg, "kpt")
            (last,) = [line for line in entries() if line.startswith(b'{"artifact_format": ')
                       and b'"stage": "kpt"' in line]
        else:  # killed in the append of eval's entry
            *kept, last = kept
        data = b"".join(kept) + last[: len(last) // 2]
        manifest.write_bytes(data)
        stamp = fsio._stamp(manifest.stat())
        fsio.Manifest(ws)
        assert (manifest.read_bytes(), fsio._stamp(manifest.stat())) == (data, stamp)
        # the torn stage reruns, and so does each stage after it whose inputs changed
        rerun = len(STAGES) - (STAGES.index("kpt") if overrides else STAGES.index("eval"))
        results = [r.status for r in run_pipeline(cfg, "all")]
        assert results == ["fresh"] * (len(STAGES) - rerun) + ["ran"] * rerun
        # and the record that follows leaves only the live lines
        assert [line.get("stage") for line in read_jsonl(manifest)] in (
            [*STAGES], [*STAGES, None])
        # the embedding cache also holds the vectors of the earlier build
        clean = load_config(tmp_path / "config.yaml", [*overrides, "workspace=clean"])
        run_pipeline(clean, "all")
        artifacts = [{name: data for name, data in _tree(root).items()
                      if not name.startswith("embed_cache/")} for root in (ws, clean.workspace)]
        assert artifacts[0] == artifacts[1]
        assert _entries(ws) == _entries(clean.workspace)

    def test_workspace_of_an_older_format_rebuilds(self, pipeline_cfg):
        run_pipeline(pipeline_cfg, "all")
        ws = pipeline_cfg.workspace
        # format-1 manifest entries carry no artifact_format, and format-1
        # binaries end in a trailer the current reader rejects
        manifest = ws / "manifest.jsonl"
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        for entry in entries:
            entry.pop("artifact_format", None)  # a stamp line has none
        manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
        for name in ("instance_embeddings.bin", "adapter.bin", "index/vectors.bin"):
            _flip_byte(ws / name, -1)
        results = run_pipeline(pipeline_cfg, "all")
        assert all(r.status == "ran" for r in results)


    def test_workspace_hashed_with_clustering_tol_reruns_only_cluster(self, pipeline_cfg):
        # clustering.tol was removed: a workspace built while it was still
        # hashed into the cluster stage's config reruns that stage once,
        # and the identical clusters.jsonl keeps every later stage fresh
        run_pipeline(pipeline_cfg, "all")
        ws = pipeline_cfg.workspace
        effective = pipeline_cfg.effective_dict()
        old_hash = sha256_json(
            {
                "clustering": {**effective["clustering"], "tol": 1e-6},
                "seed": effective["seed"],
                "embedding": effective["embedding"],
            }
        )
        assert old_hash != plan_stages(pipeline_cfg)["cluster"].config_hash
        manifest = ws / "manifest.jsonl"
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        for entry in entries:
            if entry.get("stage") == "cluster":
                entry["config_hash"] = old_hash
        manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
        clusters = (ws / "clusters.jsonl").read_bytes()
        results = {r.stage: r.status for r in run_pipeline(pipeline_cfg, "all")}
        assert results == {st: ("ran" if st == "cluster" else "fresh") for st in STAGES}
        assert (ws / "clusters.jsonl").read_bytes() == clusters
        assert all(r.status == "fresh" for r in run_pipeline(pipeline_cfg, "all"))

# the stage that writes each workspace file, stated apart from plan_stages
PRODUCERS = {
    "corpus.jsonl": "ingest",
    "instance_embeddings.bin": "embed",
    "clusters.jsonl": "cluster",
    "kpts.jsonl": "kpt",
    "queries.jsonl": "genq",
    "triples.jsonl": "mine",
    "adapter.bin": "train",
    "index/entries.jsonl": "index",
    "index/vectors.bin": "index",
    "index/meta.json": "index",
}


@pytest.fixture(scope="class")
def built_cfg(tmp_path_factory):
    """One cold-built workspace shared by a class's tests, which must
    leave its files as they found them."""
    root = tmp_path_factory.mktemp("built")
    write_tiny_corpus(root / "corpus.jsonl")
    (root / "config.yaml").write_text(CONFIG_BODY, encoding="utf-8")
    cfg = load_config(root / "config.yaml")
    run_pipeline(cfg, "all")
    return cfg


class TestStageFiles:
    """plan_stages gives what each stage reads and writes."""

    @pytest.mark.parametrize(
        "overrides", [[], ["train.enabled=false"], ["eval.gold_path=gold.jsonl"]],
        ids=["train-on", "train-off", "gold"],
    )
    def test_manifest_records_exactly_the_declared_files(self, pipeline_cfg, tmp_path, overrides):
        write_jsonl(tmp_path / "gold.jsonl", [{"query": "part 0 model 1", "gold_table_id": "t00"}])
        cfg = load_config(tmp_path / "config.yaml", overrides=overrides)
        ran = [r.stage for r in run_pipeline(cfg, "all") if r.status == "ran"]
        *entries, last = read_jsonl(cfg.workspace / "manifest.jsonl")
        if "stage" in last:
            entries.append(last)
        else:  # the stamps of the source files that settled before the run
            sources = {str(cfg.corpus_path), str(cfg.eval.gold_path)}
            assert set(last["stamps"]) <= sources
        assert [e["stage"] for e in entries] == ran
        manifest = fsio.Manifest(cfg.workspace)
        plans = plan_stages(cfg)
        for entry in entries:
            plan = plans[entry["stage"]]
            assert set(entry["input_hashes"]) == {manifest.key(p) for p in plan.inputs}
            assert set(entry["output_hashes"]) == {manifest.key(p) for p in plan.outputs}

    def test_a_run_reads_the_effective_settings_once(self, built_cfg, monkeypatch):
        calls = []
        real = PipelineConfig.effective_dict
        monkeypatch.setattr(PipelineConfig, "effective_dict",
                            lambda cfg: calls.append(cfg) or real(cfg))
        assert {r.status for r in run_pipeline(built_cfg, "all")} == {"fresh"}
        assert calls == [built_cfg]

    @pytest.mark.parametrize("stage", STAGES)
    def test_missing_produced_input_exits_3_naming_its_producer(self, built_cfg, stage):
        ws = built_cfg.workspace
        produced = [p for p in plan_stages(built_cfg)[stage].inputs if p.is_relative_to(ws)]
        assert bool(produced) == (stage != "ingest")
        for path in produced:
            name = path.relative_to(ws).as_posix()
            path.rename(path.with_name(path.name + ".bak"))
            try:
                with pytest.raises(
                    StageError, match=f"missing {name}; run stage '{PRODUCERS[name]}' first"
                ) as exc_info:
                    run_pipeline(built_cfg, stage)
            finally:
                path.with_name(path.name + ".bak").rename(path)
            assert exc_info.value.exit_code == 3
        assert [r.status for r in run_pipeline(built_cfg, stage)] == ["fresh"]


def _latest_manifest_paths(ws: Path) -> set[Path]:
    """Every file named by the latest manifest entry of each stage."""
    latest = {}
    for line in (ws / "manifest.jsonl").read_text().splitlines():
        entry = json.loads(line)
        if "stage" in entry:  # not a stamp line
            latest[entry["stage"]] = entry
    return {
        ws / key  # an absolute key stays absolute
        for entry in latest.values()
        for section in ("input_hashes", "output_hashes")
        for key in entry[section]
    }


def _settle(ws: Path) -> None:
    """Wait until the filesystem's clock is past every change in ws, so
    that the next run can stamp each file it hashes."""
    stats = [p.stat() for p in ws.rglob("*")]
    newest = max(max(st.st_mtime_ns, st.st_ctime_ns) for st in stats)
    while True:
        (ws / ".lock").touch()
        if (ws / ".lock").stat().st_mtime_ns > newest:
            return
        time.sleep(0.001)


@pytest.fixture
def hashed(monkeypatch) -> Counter:
    """Counts fsio.sha256_file calls per resolved path."""
    calls: Counter = Counter()
    real = fsio.sha256_file

    def counting(path):
        calls[Path(path).resolve()] += 1
        return real(path)

    monkeypatch.setattr(fsio, "sha256_file", counting)
    return calls


@pytest.fixture
def caches(monkeypatch) -> list:
    """Every EmbeddingCache the pipeline opens, in order."""
    opened = []

    class Recorded(EmbeddingCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(pipeline_mod, "EmbeddingCache", Recorded)
    return opened


class TestOneReadPerRun:
    """A run hashes each file once and opens the embedding cache once."""

    def test_cold_build_hashes_every_input_and_output_once(self, pipeline_cfg, hashed):
        run_pipeline(pipeline_cfg, "all")
        paths = {p.resolve() for p in _latest_manifest_paths(pipeline_cfg.workspace)}
        assert pipeline_cfg.corpus_path.resolve() in paths
        assert hashed == Counter({p: 1 for p in paths})

    def test_first_noop_hashes_each_path_but_the_stamped_corpus_once(
        self, pipeline_cfg, tmp_path, hashed
    ):
        # a cold build stamps only its source corpus, which settled before
        # it began; every file a stage wrote is hashed by the first no-op
        _settle(tmp_path)
        run_pipeline(pipeline_cfg, "all")
        corpus = pipeline_cfg.corpus_path.resolve()
        (line,) = [line for line in read_jsonl(pipeline_cfg.workspace / "manifest.jsonl")
                   if "stamps" in line]
        assert set(line["stamps"]) == {str(corpus)}
        paths = {p.resolve() for p in _latest_manifest_paths(pipeline_cfg.workspace)}
        hashed.clear()
        assert all(r.status == "fresh" for r in run_pipeline(pipeline_cfg, "all"))
        assert hashed == Counter({p: 1 for p in paths - {corpus}})

    def test_second_noop_hashes_nothing_and_writes_nothing(self, pipeline_cfg, hashed):
        run_pipeline(pipeline_cfg, "all")
        _settle(pipeline_cfg.workspace)
        run_pipeline(pipeline_cfg, "all")
        manifest = pipeline_cfg.workspace / "manifest.jsonl"
        before = (manifest.read_bytes(), manifest.stat().st_mtime_ns)
        hashed.clear()
        assert all(r.status == "fresh" for r in run_pipeline(pipeline_cfg, "all"))
        assert hashed == Counter()
        assert (manifest.read_bytes(), manifest.stat().st_mtime_ns) == before

    def test_same_size_edit_with_restored_mtime_is_caught(self, pipeline_cfg):
        # fault injection: a size/mtime check would call this file fresh
        run_pipeline(pipeline_cfg, "all")
        path = pipeline_cfg.workspace / "kpts.jsonl"
        original = path.read_bytes()
        before = os.stat(path)
        raw = bytearray(original)
        at = raw.index(b"model", raw.index(b'"text": "')) + 4  # the "l" of "model"
        raw[at] = ord("X")
        path.write_bytes(bytes(raw))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        json.loads(raw.splitlines()[0])
        for stage in ("genq", "mine", "train", "index"):
            assert [r.status for r in run_pipeline(pipeline_cfg, stage)] == ["ran"], stage

    def test_same_size_edit_of_an_output_reruns_its_producer(self, pipeline_cfg):
        # kpt hashes its damaged output before rerunning; genq must then
        # compare against the rewritten file, not that earlier digest
        run_pipeline(pipeline_cfg, "all")
        path = pipeline_cfg.workspace / "kpts.jsonl"
        original = path.read_bytes()
        before = os.stat(path)
        path.write_bytes(original.replace(b"model", b"modeX", 1))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        results = {r.stage: r.status for r in run_pipeline(pipeline_cfg, "all")}
        # kpt restores the exact bytes, so everything downstream stays fresh
        assert results == {st: ("ran" if st == "kpt" else "fresh") for st in STAGES}
        assert path.read_bytes() == original

    def test_one_embedding_cache_per_run(self, pipeline_cfg, tmp_path, caches, monkeypatch):
        stage_of_call = []
        for stage, fn in list(pipeline_mod._STAGE_FNS.items()):
            def traced(*args, _stage=stage, _fn=fn):
                stage_of_call.append(_stage)
                return _fn(*args)

            monkeypatch.setitem(pipeline_mod._STAGE_FNS, stage, traced)
        hits: dict[str, list[bool]] = {}
        put_by: dict[str, str] = {}
        real_get_many, real_put_many = EmbeddingCache.get_many, EmbeddingCache.put_many

        def get_many(self, texts, out):
            hit = real_get_many(self, texts, out)
            hits.setdefault(stage_of_call[-1], []).extend(hit.tolist())
            return hit

        def put_many(self, texts, vectors):
            for text in texts:
                put_by.setdefault(text, stage_of_call[-1])
            return real_put_many(self, texts, vectors)

        monkeypatch.setattr(EmbeddingCache, "get_many", get_many)
        monkeypatch.setattr(EmbeddingCache, "put_many", put_many)

        run_pipeline(pipeline_cfg, "all")
        assert len(caches) == 1
        assert set(put_by.values()) == {"embed", "mine", "eval"}
        # vectors put by an earlier stage are hits from the same cache
        assert hits["embed"] == [False] * len(hits["embed"])
        assert all(hits["index"]) and len(hits["index"]) > 0
        # train takes the base vectors mine looked up in the same run
        assert "train" not in hits

        caches.clear()
        run_pipeline(pipeline_cfg, "all")
        assert caches == []  # a no-op run opens no cache

        # a run whose mine is fresh looks them up once, in train
        hits.clear()
        more_epochs = load_config(tmp_path / "config.yaml", overrides=["train.epochs=2"])
        assert [r.status for r in run_pipeline(more_epochs, "all")][5:7] == ["fresh", "ran"]
        assert set(hits) == {"train", "index", "eval"}
        assert all(hits["train"]) and len(hits["train"]) > 0

    def test_reindex_opens_the_cache_once(self, pipeline_cfg, tmp_path, caches):
        run_pipeline(pipeline_cfg, "all")
        caches.clear()
        changed = load_config(tmp_path / "config.yaml", overrides=["retrieval.fusion=mean"])
        run_pipeline(changed, "all")
        assert len(caches) == 1

    def test_queries_are_parsed_and_split_once_per_run(self, pipeline_cfg, tmp_path, monkeypatch):
        reads: Counter = Counter()
        splits = []
        real_read, real_split = fsio.read_jsonl, pipeline_mod.split_queries

        def counting_read(path):
            reads[Path(path).name] += 1
            return real_read(path)

        def counting_split(queries, holdout_per_pt):
            splits.append(len(queries))
            return real_split(queries, holdout_per_pt)

        monkeypatch.setattr(fsio, "read_jsonl", counting_read)
        monkeypatch.setattr(pipeline_mod, "split_queries", counting_split)
        # cold build: genq hands its queries, split once, to mine, train,
        # index and eval
        run_pipeline(pipeline_cfg, "all")
        assert reads["queries.jsonl"] == 0 and len(splits) == 1
        # a re-index run reruns index and eval only
        reads.clear()
        splits.clear()
        changed = load_config(tmp_path / "config.yaml", overrides=["retrieval.fusion=mean"])
        results = run_pipeline(changed, "all")
        assert [r.stage for r in results if r.status == "ran"] == ["index", "eval"]
        assert reads["queries.jsonl"] == 1 and len(splits) == 1
        # a no-op run parses nothing
        reads.clear()
        splits.clear()
        run_pipeline(changed, "all")
        assert reads["queries.jsonl"] == 0 and splits == []

    def test_partial_tables_are_parsed_once_per_run(self, pipeline_cfg, tmp_path, monkeypatch):
        parsed = []
        real = pipeline_mod.kpt_from_record

        def counting(rec):
            parsed.append(rec["pt_id"])
            return real(rec)

        monkeypatch.setattr(pipeline_mod, "kpt_from_record", counting)
        # cold build: kpt hands its partial tables to genq, mine, train and index
        run_pipeline(pipeline_cfg, "all")
        assert parsed == []
        # kpt is fresh: genq, mine, train and index share one parse
        fewer = load_config(tmp_path / "config.yaml", overrides=["genq.n_q=2"])
        results = run_pipeline(fewer, "all")
        assert [r.stage for r in results if r.status == "ran"] == list(STAGES[4:])
        pt_ids = [rec["pt_id"] for rec in read_jsonl(pipeline_cfg.workspace / "kpts.jsonl")]
        assert parsed == pt_ids
        parsed.clear()
        run_pipeline(fewer, "all")
        assert parsed == []

    def test_a_cold_build_opens_none_of_the_files_it_wrote(self, tmp_path, monkeypatch):
        # each stage hands what it wrote to the stages after it; only the
        # manifest hashes an output, once its stage has written it
        copy_demo(tmp_path)
        cfg = load_config(tmp_path / "config.yaml")
        opened, hashing = [], []
        real_open, real_hash = io.open, fsio.sha256_file

        def recording_open(file, mode="r", *args, **kwargs):
            if "r" in mode and not hashing and isinstance(file, (str, os.PathLike)):
                opened.append(Path(file))
            return real_open(file, mode, *args, **kwargs)

        def hashing_file(path):
            hashing.append(path)
            try:
                return real_hash(path)
            finally:
                hashing.pop()

        monkeypatch.setattr(io, "open", recording_open)
        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(fsio, "sha256_file", hashing_file)
        run_pipeline(cfg, "all")
        monkeypatch.undo()
        written = {p for plan in plan_stages(cfg).values() for p in plan.outputs}
        assert {p.relative_to(cfg.workspace).as_posix() for p in written} >= {
            "corpus.jsonl", "instance_embeddings.bin", "clusters.jsonl", "kpts.jsonl",
            "queries.jsonl", "triples.jsonl", "adapter.bin", "index/entries.jsonl",
            "index/vectors.bin", "index/meta.json"}
        assert cfg.corpus_path in opened  # the recorder sees the reads it should
        assert written.isdisjoint(opened)

    def test_an_object_with_one_reader_is_dropped_once_it_has_it(self, pipeline_cfg, monkeypatch):
        held, runs = [], []
        for stage, fn in list(pipeline_mod._STAGE_FNS.items()):
            def traced(run, _stage=stage, _fn=fn):
                _fn(run)
                held.append((_stage, sorted(run.handed)))
                runs.append(run)

            monkeypatch.setitem(pipeline_mod._STAGE_FNS, stage, traced)
        run_pipeline(pipeline_cfg, "all")
        assert held == [("ingest", []), ("embed", ["cluster"]), ("cluster", ["kpt"]),
                        ("kpt", []), ("genq", []), ("mine", ["train"]), ("train", []),
                        ("index", ["eval"]), ("eval", [])]
        # embed rewrites the same bytes, so cluster is fresh and drops them
        (pipeline_cfg.workspace / "instance_embeddings.bin").unlink()
        held.clear()
        results = run_pipeline(pipeline_cfg, "all")
        assert [r.status for r in results] == ["fresh", "ran"] + ["fresh"] * 7
        assert held == [("embed", ["cluster"])] and runs[-1].handed == {}

    def test_a_cold_build_one_stage_a_run_writes_what_one_run_writes(self, tmp_path):
        # each stage of the first parses what the stage before it wrote;
        # the second hands it over
        copy_demo(tmp_path)
        staged = load_config(tmp_path / "config.yaml", [f"workspace={tmp_path / 'staged'}"])
        for stage in STAGES:
            assert [r.status for r in run_pipeline(staged, stage)] == ["ran"], stage
        whole = load_config(tmp_path / "config.yaml", [f"workspace={tmp_path / 'whole'}"])
        assert [r.status for r in run_pipeline(whole, "all")] == ["ran"] * len(STAGES)
        assert _tree(staged.workspace) == _tree(whole.workspace)
        assert "embed_cache" in {Path(f).parts[0] for f in _tree(whole.workspace)}
        assert _entries(staged.workspace) == _entries(whole.workspace)

    @pytest.fixture
    def corpus_loads(self, monkeypatch) -> list:
        loads = []
        real = pipeline_mod.load_corpus

        def counting(path, *args):
            loads.append(Path(path))
            return real(path, *args)

        monkeypatch.setattr(pipeline_mod, "load_corpus", counting)
        return loads

    def test_a_cold_build_parses_the_corpus_once(self, pipeline_cfg, corpus_loads):
        # ingest parses the source; embed, cluster and kpt share its tables
        run_pipeline(pipeline_cfg, "all")
        assert corpus_loads == [pipeline_cfg.corpus_path]
        corpus_loads.clear()
        run_pipeline(pipeline_cfg, "all")
        assert corpus_loads == []

    def test_workspace_corpus_is_parsed_once_per_run(self, pipeline_cfg, tmp_path, corpus_loads):
        run_pipeline(pipeline_cfg, "all")
        corpus_loads.clear()
        # ingest is fresh; cluster and kpt share one parse of the copy
        changed = load_config(tmp_path / "config.yaml", overrides=["clustering.n_init=3"])
        results = run_pipeline(changed, "all")
        assert {"cluster", "kpt"} <= {r.stage for r in results if r.status == "ran"}
        assert corpus_loads == [pipeline_cfg.workspace / "corpus.jsonl"]


def _tree(ws: Path) -> dict[str, bytes]:
    """The bytes of every file in ws but the manifest, which holds wall times."""
    return {p.relative_to(ws).as_posix(): p.read_bytes()
            for p in sorted(ws.rglob("*")) if p.is_file() and p.name != "manifest.jsonl"}


def _entries(ws: Path) -> list[dict]:
    """The manifest's stage entries without their wall times."""
    lines = read_jsonl(ws / "manifest.jsonl")
    return [{k: v for k, v in line.items() if k != "wall_time_s"} for line in lines if "stage" in line]


def _same_size_damage(path: Path) -> bytes:
    """path's bytes with one letter of a partial table's text changed."""
    return path.read_bytes().replace(b"model", b"modeX", 1)


def _edit_stamp_line(ws: Path, edit) -> None:
    """Let edit change the manifest's last line, a stamp line, in place."""
    manifest = ws / "manifest.jsonl"
    *entries, last = manifest.read_text().splitlines(keepends=True)
    line = json.loads(last)
    edit(line)
    manifest.write_text("".join(entries) + json.dumps(line) + "\n")


class TestStatStamps:
    """Fault injection once a no-op has stamped every file: each change or
    bad stamp still gives the statuses of a run that hashes everything."""

    @pytest.fixture
    def stamped(self, pipeline_cfg):
        run_pipeline(pipeline_cfg, "all")
        _settle(pipeline_cfg.workspace)
        run_pipeline(pipeline_cfg, "all")
        last = (pipeline_cfg.workspace / "manifest.jsonl").read_text().splitlines()[-1]
        paths = _latest_manifest_paths(pipeline_cfg.workspace)
        assert set(json.loads(last)["stamps"]) == {fsio.Manifest(pipeline_cfg.workspace).key(p)
                                                   for p in paths}
        return pipeline_cfg

    @staticmethod
    def assert_only_kpt_reruns(cfg, original: bytes) -> None:
        # kpt restores the exact bytes, so everything downstream stays fresh
        path = cfg.workspace / "kpts.jsonl"
        assert path.read_bytes() != original
        results = {r.stage: r.status for r in run_pipeline(cfg, "all")}
        assert results == {st: ("ran" if st == "kpt" else "fresh") for st in STAGES}
        assert path.read_bytes() == original

    def test_same_size_rewrite_reruns_its_producer(self, stamped):
        path = stamped.workspace / "kpts.jsonl"
        original = path.read_bytes()
        path.write_bytes(_same_size_damage(path))
        self.assert_only_kpt_reruns(stamped, original)

    def test_same_size_rewrite_with_restored_mtime_reruns_its_producer(self, stamped):
        path = stamped.workspace / "kpts.jsonl"
        original, before = path.read_bytes(), path.stat()
        path.write_bytes(_same_size_damage(path))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
            before.st_ino, before.st_size, before.st_mtime_ns)
        self.assert_only_kpt_reruns(stamped, original)

    def test_file_swapped_in_by_rename_reruns_its_producer(self, stamped):
        path = stamped.workspace / "kpts.jsonl"
        original, before = path.read_bytes(), path.stat()
        swap = path.with_name("kpts.swap")
        swap.write_bytes(_same_size_damage(path))
        os.utime(swap, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(swap, path)
        assert path.stat().st_ino != before.st_ino
        self.assert_only_kpt_reruns(stamped, original)

    def test_stamp_taken_no_earlier_than_its_file_changed_is_rehashed(self, stamped, hashed):
        # a wrong digest behind a matching stamp is caught: the stamp is racy
        ws = stamped.workspace
        ctime = (ws / "kpts.jsonl").stat().st_ctime_ns

        def edit(line):
            line["reference_ns"] = ctime
            line["stamps"]["kpts.jsonl"]["sha256"] = "0" * 64

        _edit_stamp_line(ws, edit)
        assert all(r.status == "fresh" for r in run_pipeline(stamped, "all"))
        assert hashed[(ws / "kpts.jsonl").resolve()] == 1

    def test_torn_stamp_line_is_read_past_and_left_out_by_the_next_write(self, stamped, hashed):
        manifest = stamped.workspace / "manifest.jsonl"
        good = manifest.read_text()
        with manifest.open("a") as fh:
            fh.write('{"reference_ns": 1, "stamps": {"kpts.jsonl": {"ino')
        torn = manifest.read_text()
        # every stamp still matches, so a no-op writes nothing
        assert all(r.status == "fresh" for r in run_pipeline(stamped, "all"))
        assert manifest.read_text() == torn
        assert hashed == Counter()
        (stamped.workspace / "report.json").unlink()
        assert [r.status for r in run_pipeline(stamped, "all")] == ["fresh"] * 8 + ["ran"]
        assert manifest.read_text().endswith("\n")
        assert [line.get("stage") for line in read_jsonl(manifest)] == [*STAGES, None]
        assert len(read_jsonl(manifest)) == len(good.splitlines())

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rec: {k: v for k, v in rec.items() if k != "ctime_ns"},
            lambda rec: {**rec, "size": float(rec["size"])},
            lambda rec: {**rec, "ino": str(rec["ino"])},
            lambda rec: {**rec, "mtime_ns": None},
            lambda rec: {**rec, "sha256": 0},
            lambda rec: list(rec.values()),
        ],
        ids=["missing-ctime", "float-size", "str-ino", "null-mtime", "int-digest", "list"],
    )
    def test_ill_typed_stamp_is_ignored_and_the_file_rehashed(self, stamped, hashed, edit):
        ws = stamped.workspace

        def bad_stamp(line):
            # with a wrong digest, so that trusting the stamp would show
            stamps = line["stamps"]
            stamps["kpts.jsonl"] = edit({**stamps["kpts.jsonl"], "sha256": "0" * 64})

        _edit_stamp_line(ws, bad_stamp)
        assert all(r.status == "fresh" for r in run_pipeline(stamped, "all"))
        assert hashed == Counter({(ws / "kpts.jsonl").resolve(): 1})

    def test_ill_typed_reference_is_ignored(self, stamped, hashed):
        ws = stamped.workspace
        _edit_stamp_line(ws, lambda line: line.update(reference_ns=str(line["reference_ns"])))
        assert all(r.status == "fresh" for r in run_pipeline(stamped, "all"))
        paths = {p.resolve() for p in _latest_manifest_paths(ws)}
        assert hashed == Counter({p: 1 for p in paths})


class TestManifestKeys:
    """Manifest keys are made from the paths as configured."""

    def test_workspace_reached_through_a_symlink_keeps_relative_keys(
        self, pipeline_cfg, tmp_path
    ):
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "real", target_is_directory=True)
        linked = load_config(tmp_path / "config.yaml", ["workspace=link"])
        run_pipeline(linked, "all")
        keys = {key for entry in _entries(tmp_path / "real")
                for section in ("input_hashes", "output_hashes") for key in entry[section]}
        assert "kpts.jsonl" in keys
        assert {key for key in keys if os.path.isabs(key)} == {str(linked.corpus_path)}
        # the real directory holds the same workspace under the same keys
        real = load_config(tmp_path / "config.yaml", ["workspace=real"])
        assert all(r.status == "fresh" for r in run_pipeline(real, "all"))

    def test_reindex_resolves_no_path(self, pipeline_cfg, tmp_path, monkeypatch):
        run_pipeline(pipeline_cfg, "all")
        changed = load_config(tmp_path / "config.yaml", ["retrieval.fusion=mean"])
        calls = []
        resolve = Path.resolve
        monkeypatch.setattr(Path, "resolve",
                            lambda self, *args: calls.append(self) or resolve(self, *args))
        assert [r.status for r in run_pipeline(changed, "all")] == ["fresh"] * 7 + ["ran"] * 2
        assert calls == []


class TestDemoManifestWrites:
    """What a demo cold build, a no-op and a retrieval.fusion=mean re-index
    each write, every run starting once its inputs have settled."""

    def test_replaces_and_live_stamps_of_each_run(self, tmp_path, monkeypatch):
        copy_demo(tmp_path)
        replaced = []
        real = os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: replaced.append(dst) or real(src, dst))
        ws = tmp_path / "workspace"
        counts = []
        for overrides in ([], [], ["retrieval.fusion=mean"]):
            _settle(tmp_path)
            replaced.clear()
            run_pipeline(load_config(tmp_path / "config.yaml", overrides), "all")
            (line,) = [line for line in read_jsonl(ws / "manifest.jsonl") if "stamps" in line]
            for key, stamp in line["stamps"].items():  # an absolute key stays absolute
                st = (ws / key).stat()
                assert (st.st_ino, st.st_size) == (stamp["ino"], stamp["size"]), key
            counts.append((len(replaced), len(line["stamps"])))
        # a cold build stamps its source corpus; a re-index drops the stamps
        # of the four files that index and eval replace
        assert counts == [(22, 1), (1, 14), (6, 10)]


class TestHoldoutHygiene:
    def test_heldout_queries_never_enter_mining(self, pipeline_cfg):
        run_pipeline(pipeline_cfg, "all")
        ws = pipeline_cfg.workspace
        queries = [
            SyntheticQuery(
                query_id=r["query_id"],
                pt_id=r["pt_id"],
                table_id=r["table_id"],
                text=r["text"],
                lang=r["lang"],
            )
            for r in read_jsonl(ws / "queries.jsonl")
        ]
        _, heldout = split_queries(queries, pipeline_cfg.eval.holdout_per_pt)
        held_ids = {q.query_id for q in heldout}
        assert held_ids, "expected a non-empty holdout"
        mined_ids = {r["query_id"] for r in read_jsonl(ws / "triples.jsonl")}
        assert mined_ids
        assert held_ids.isdisjoint(mined_ids)

    def test_eval_query_count_matches_holdout(self, pipeline_cfg):
        run_pipeline(pipeline_cfg, "all")
        ws = pipeline_cfg.workspace
        queries = [
            SyntheticQuery(
                query_id=r["query_id"],
                pt_id=r["pt_id"],
                table_id=r["table_id"],
                text=r["text"],
                lang=r["lang"],
            )
            for r in read_jsonl(ws / "queries.jsonl")
        ]
        _, heldout = split_queries(queries, pipeline_cfg.eval.holdout_per_pt)
        report = json.loads((ws / "report.json").read_text())
        assert report["query_count"] == len(heldout)


class TestExternalGold:
    def test_gold_file_drives_eval(self, pipeline_cfg, tmp_path):
        gold_rows = [
            {"query": "part 0 model 1", "gold_table_id": "t00"},
            {"query": "part 3 model 7", "gold_table_id": "t03"},
        ]
        write_jsonl(tmp_path / "gold.jsonl", gold_rows)
        cfg = load_config(
            tmp_path / "config.yaml", overrides=["eval.gold_path=gold.jsonl"]
        )
        run_pipeline(cfg, "all")
        report = json.loads((cfg.workspace / "report.json").read_text())
        assert report["query_count"] == 2

    def test_malformed_gold_row_rejected(self, pipeline_cfg, tmp_path):
        write_jsonl(tmp_path / "gold.jsonl", [{"question": "missing keys"}])
        cfg = load_config(
            tmp_path / "config.yaml", overrides=["eval.gold_path=gold.jsonl"]
        )
        with pytest.raises(StageError, match="field 'query': missing") as exc_info:
            run_pipeline(cfg, "all")
        assert exc_info.value.exit_code == 2


class TestParseVariants:
    def test_full_tokens(self, pipeline_cfg):
        variants = parse_variants("kpt_random+hard+adapter,first_rows+random+no-adapter", pipeline_cfg)
        assert variants == [
            Variant("kpt_random", "hard", True),
            Variant("first_rows", "random", False),
        ]
        assert variants[0].slug == "kpt_random-hard-adapter"
        assert variants[1].slug == "first_rows-random-no-adapter"

    def test_defaults_come_from_config(self, pipeline_cfg):
        (variant,) = parse_variants("cb_centroid", pipeline_cfg)
        assert variant.mining_strategy == pipeline_cfg.mining.strategy == "hard"
        assert variant.use_adapter == pipeline_cfg.train_enabled is True

    def test_unknown_sampling_strategy(self, pipeline_cfg):
        with pytest.raises(StageError, match="sampling strategy") as exc_info:
            parse_variants("middle_rows", pipeline_cfg)
        assert exc_info.value.exit_code == 2

    def test_unknown_token(self, pipeline_cfg):
        with pytest.raises(StageError, match="variant token"):
            parse_variants("kpt_random+warm", pipeline_cfg)

    def test_empty_spec(self, pipeline_cfg):
        with pytest.raises(StageError, match="no variants"):
            parse_variants(" , ,", pipeline_cfg)


class TestRunCompare:
    def test_two_variants_reported(self, pipeline_cfg):
        variants = parse_variants(
            "kpt_random+hard+no-adapter,first_rows+hard+no-adapter", pipeline_cfg
        )
        out = run_compare(pipeline_cfg, variants)
        assert [row["variant"] for row in out["rows"]] == [
            "kpt_random-hard-no-adapter",
            "first_rows-hard-no-adapter",
        ]
        for row in out["rows"]:
            assert set(row["recall"]) == {"R@1", "R@5", "R@10"}
            assert row["query_count"] > 0
        saved = json.loads(
            (pipeline_cfg.workspace / "compare_report.json").read_text()
        )
        assert saved == out
        for slug in ("kpt_random-hard-no-adapter", "first_rows-hard-no-adapter"):
            assert (pipeline_cfg.workspace / "compare" / slug / "report.json").exists()

    def test_duplicate_variants_run_once(self, pipeline_cfg):
        variants = parse_variants(
            "first_rows+hard+no-adapter,first_rows+hard+no-adapter", pipeline_cfg
        )
        out = run_compare(pipeline_cfg, variants)
        assert len(out["rows"]) == 2
        assert out["rows"][0] == out["rows"][1]
        compare_dirs = sorted(
            p.name for p in (pipeline_cfg.workspace / "compare").iterdir()
        )
        assert compare_dirs == ["first_rows-hard-no-adapter"]

    def test_each_variant_sets_its_strategies_and_keeps_the_rest(self, pipeline_cfg, monkeypatch):
        seen = []
        run = pipeline_mod.run_pipeline
        monkeypatch.setattr(pipeline_mod, "run_pipeline",
                            lambda cfg, *args: seen.append(cfg) or run(cfg, *args))
        variants = parse_variants("first_rows+random+no-adapter,cb_centroid+hard+adapter",
                                  pipeline_cfg)
        run_compare(pipeline_cfg, variants)
        ws = pipeline_cfg.workspace / "compare"
        assert [(c.kpt.strategy, c.mining.strategy, c.train_enabled, c.workspace)
                for c in seen] == [
            ("first_rows", "random", False, ws / "first_rows-random-no-adapter"),
            ("cb_centroid", "hard", True, ws / "cb_centroid-hard-adapter"),
        ]
        for cfg in seen:
            # everything else, the shared cache, seed and embedding included, is the parent's
            assert (cfg.cache_dir, cfg.seed, cfg.embedding) == (
                pipeline_cfg.cache_dir, pipeline_cfg.seed, pipeline_cfg.embedding)
            assert replace(cfg, kpt=pipeline_cfg.kpt, mining=pipeline_cfg.mining,
                           train_enabled=pipeline_cfg.train_enabled,
                           workspace=pipeline_cfg.workspace) == pipeline_cfg

    def test_variants_share_embedding_cache(self, pipeline_cfg):
        variants = parse_variants(
            "kpt_random+hard+no-adapter,cb_centroid+hard+no-adapter", pipeline_cfg
        )
        run_compare(pipeline_cfg, variants)
        # both variant workspaces exist, but embeddings landed in the
        # parent's cache directory
        assert pipeline_cfg.cache_dir.exists()
        assert any(pipeline_cfg.cache_dir.iterdir())
        for slug in ("kpt_random-hard-no-adapter", "cb_centroid-hard-no-adapter"):
            vws = pipeline_cfg.workspace / "compare" / slug
            assert not (vws / "embed_cache").exists()
