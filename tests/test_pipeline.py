"""Stage orchestration: sequencing, caching, holdout hygiene, compare."""

import json
import os
from collections import Counter
from pathlib import Path

import pytest

import tabret.fsio as fsio
import tabret.pipeline as pipeline_mod
from tabret.config import load_config
from tabret.embed import EmbeddingCache
from tabret.fsio import read_jsonl, sha256_json, write_jsonl
from tabret.pipeline import (
    STAGES,
    StageError,
    Variant,
    parse_variants,
    run_compare,
    run_pipeline,
    split_queries,
)
from tabret.querygen import SyntheticQuery


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
            "instance_embeddings.jsonl",
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

    def test_second_run_is_all_fresh(self, pipeline_cfg):
        run_pipeline(pipeline_cfg, "all")
        results = run_pipeline(pipeline_cfg, "all")
        assert all(r.status == "fresh" for r in results)

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

    def test_zero_holdout_without_gold_fails_eval(self, pipeline_cfg, tmp_path):
        cfg = load_config(
            tmp_path / "config.yaml", overrides=["eval.holdout_per_pt=0"]
        )
        with pytest.raises(StageError, match="no evaluation queries") as exc_info:
            run_pipeline(cfg, "all")
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

    def test_torn_manifest_line_keeps_the_workspace_usable(self, pipeline_cfg):
        run_pipeline(pipeline_cfg, "all")
        manifest = pipeline_cfg.workspace / "manifest.jsonl"
        with manifest.open("a") as fh:
            fh.write('{"stage": "ev')
        assert all(r.status == "fresh" for r in run_pipeline(pipeline_cfg, "all"))
        (pipeline_cfg.workspace / "report.json").unlink()
        assert run_pipeline(pipeline_cfg, "eval")[0].status == "ran"
        assert all(r.status == "fresh" for r in run_pipeline(pipeline_cfg, "all"))

    def test_workspace_of_an_older_format_rebuilds(self, pipeline_cfg):
        run_pipeline(pipeline_cfg, "all")
        ws = pipeline_cfg.workspace
        # format-1 manifest entries carry no artifact_format, and format-1
        # binaries end in a trailer the current reader rejects
        manifest = ws / "manifest.jsonl"
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        for entry in entries:
            del entry["artifact_format"]
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
        assert old_hash != pipeline_cfg.stage_config_hash("cluster")
        manifest = ws / "manifest.jsonl"
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        for entry in entries:
            if entry["stage"] == "cluster":
                entry["config_hash"] = old_hash
        manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
        clusters = (ws / "clusters.jsonl").read_bytes()
        results = {r.stage: r.status for r in run_pipeline(pipeline_cfg, "all")}
        assert results == {st: ("ran" if st == "cluster" else "fresh") for st in STAGES}
        assert (ws / "clusters.jsonl").read_bytes() == clusters
        assert all(r.status == "fresh" for r in run_pipeline(pipeline_cfg, "all"))


def _latest_manifest_paths(ws: Path) -> set[Path]:
    """Every file named by the latest manifest entry of each stage."""
    latest = {}
    for line in (ws / "manifest.jsonl").read_text().splitlines():
        entry = json.loads(line)
        latest[entry["stage"]] = entry
    return {
        ws / key  # an absolute key stays absolute
        for entry in latest.values()
        for section in ("input_hashes", "output_hashes")
        for key in entry[section]
    }


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

    def test_noop_run_hashes_each_manifest_path_once(self, pipeline_cfg, hashed):
        run_pipeline(pipeline_cfg, "all")
        hashed.clear()
        assert all(r.status == "fresh" for r in run_pipeline(pipeline_cfg, "all"))
        paths = {p.resolve() for p in _latest_manifest_paths(pipeline_cfg.workspace)}
        assert hashed == Counter({p: 1 for p in paths})

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

    def test_one_embedding_cache_per_run(self, pipeline_cfg, caches, monkeypatch):
        stage_of_call = []
        for stage, fn in list(pipeline_mod._STAGE_FNS.items()):
            def traced(*args, _stage=stage, _fn=fn):
                stage_of_call.append(_stage)
                return _fn(*args)

            monkeypatch.setitem(pipeline_mod._STAGE_FNS, stage, traced)
        hits: dict[str, list[bool]] = {}
        put_by: dict[str, str] = {}
        real_get, real_put_many = EmbeddingCache.get, EmbeddingCache.put_many

        def get(self, text):
            vec = real_get(self, text)
            hits.setdefault(stage_of_call[-1], []).append(vec is not None)
            return vec

        def put_many(self, texts, vectors):
            for text in texts:
                put_by.setdefault(text, stage_of_call[-1])
            return real_put_many(self, texts, vectors)

        monkeypatch.setattr(EmbeddingCache, "get", get)
        monkeypatch.setattr(EmbeddingCache, "put_many", put_many)

        run_pipeline(pipeline_cfg, "all")
        assert len(caches) == 1
        assert set(put_by.values()) == {"embed", "mine", "eval"}
        # vectors put by an earlier stage are hits from the same cache
        assert hits["embed"] == [False] * len(hits["embed"])
        assert all(hits["train"]) and all(hits["index"])
        assert len(hits["train"]) > 0 and len(hits["index"]) > 0

        caches.clear()
        run_pipeline(pipeline_cfg, "all")
        assert caches == []  # a no-op run opens no cache

    def test_reindex_opens_the_cache_once(self, pipeline_cfg, tmp_path, caches):
        run_pipeline(pipeline_cfg, "all")
        caches.clear()
        changed = load_config(tmp_path / "config.yaml", overrides=["retrieval.fusion=mean"])
        run_pipeline(changed, "all")
        assert len(caches) == 1

    def test_queries_are_parsed_and_split_once_per_run(self, pipeline_cfg, tmp_path, monkeypatch):
        reads: Counter = Counter()
        splits = []
        real_read, real_split = pipeline_mod.read_jsonl, pipeline_mod.split_queries

        def counting_read(path):
            reads[Path(path).name] += 1
            return real_read(path)

        def counting_split(queries, holdout_per_pt):
            splits.append(len(queries))
            return real_split(queries, holdout_per_pt)

        monkeypatch.setattr(pipeline_mod, "read_jsonl", counting_read)
        monkeypatch.setattr(pipeline_mod, "split_queries", counting_split)
        # cold build: mine, train, index and eval all read the queries
        run_pipeline(pipeline_cfg, "all")
        assert reads["queries.jsonl"] == 1 and len(splits) == 1
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
        with pytest.raises(StageError, match="gold rows need") as exc_info:
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
