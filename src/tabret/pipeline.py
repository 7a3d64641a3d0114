"""Stage orchestration over a locked workspace directory.

Each stage reads the previous stage's artifact, writes its own
atomically, and records content hashes in the manifest; a stage whose
config slice and file hashes are unchanged is a no-op on re-run. One
run hashes each workspace file at most once (plus once more for each
output a stage writes) and opens the embedding cache at most once, on
the first stage that embeds, sharing it with every later stage. It
likewise parses and splits queries.jsonl at most once, on the first
stage that reads it; genq, which writes that file, runs before all of
them. When no external gold file is configured, evaluation holds out
the last synthetic queries of each partial table: those never enter
mining, training, or pt_plus_queries representations, and are scored
with their source table as gold.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .cluster import ClusterLabels, cluster_table
from .config import PipelineConfig, variant_config
from .corpus import CorpusFormatError, load_corpus, serialize_instance, table_to_record
from .embed import EmbeddingCache, embed_texts
from .fsio import (
    ArtifactError,
    Manifest,
    WorkspaceLock,
    atomic_write_text,
    read_jsonl,
    read_matrix_bin,
    write_jsonl,
    write_matrix_bin,
)
from .httpjson import ProviderError
from .kpt import STRATEGIES, build_kpts, kpt_from_record, kpt_to_record, PartialTable
from .mining import mine_all, triple_from_record, triple_to_record
from .querygen import SyntheticQuery, generate_all, query_from_record, query_to_record
from .retrieval import build_index, evaluate, load_index, save_index
from .train import Adapter, load_adapter, save_adapter
from .train import train as train_adapter

STAGES = ("ingest", "embed", "cluster", "kpt", "genq", "mine", "train", "index", "eval")

_PRODUCER = {
    "corpus.jsonl": "ingest",
    "instance_embeddings.bin": "embed",
    "instance_embeddings.jsonl": "embed",
    "clusters.jsonl": "cluster",
    "kpts.jsonl": "kpt",
    "queries.jsonl": "genq",
    "triples.jsonl": "mine",
    "adapter.bin": "train",
    "index/entries.jsonl": "index",
    "index/vectors.bin": "index",
    "index/meta.json": "index",
}


class StageError(RuntimeError):
    """Pipeline failure carrying the CLI exit code."""

    def __init__(self, exit_code: int, message: str) -> None:
        super().__init__(message)
        self.exit_code = exit_code


@dataclass
class StageResult:
    stage: str
    status: str  # ran | fresh | skipped
    wall_time_s: float


Log = Callable[[str], None]
# the run's embedding cache, opened by the first call
CacheOpener = Callable[[], EmbeddingCache]


@dataclass(frozen=True)
class QuerySplit:
    """queries.jsonl as one run reads it."""

    queries: list[SyntheticQuery]
    # what mine, train and index see: the queries outside the held-out set
    training: list[SyntheticQuery]
    # scored by eval when no gold file is configured
    heldout: list[SyntheticQuery]


# the run's QuerySplit, parsed by the first call
QueryLoader = Callable[[], QuerySplit]
# a stage's (input paths, output paths), recorded in the manifest
StageFiles = tuple[list, list]


def _quiet(_: str) -> None:
    pass


def _requires(cfg: PipelineConfig, stage: str) -> tuple[str, ...]:
    base: dict[str, tuple[str, ...]] = {
        "ingest": (),
        "embed": ("corpus.jsonl",),
        "cluster": ("corpus.jsonl", "instance_embeddings.bin", "instance_embeddings.jsonl"),
        "kpt": ("corpus.jsonl", "clusters.jsonl"),
        "genq": ("kpts.jsonl",),
        "mine": ("kpts.jsonl", "queries.jsonl"),
        "train": ("triples.jsonl", "kpts.jsonl", "queries.jsonl"),
        "index": ("kpts.jsonl", "queries.jsonl"),
        "eval": ("index/entries.jsonl", "index/vectors.bin", "index/meta.json"),
    }
    need = base[stage]
    if stage in ("index", "eval") and cfg.train_enabled:
        need = need + ("adapter.bin",)
    if stage == "eval" and cfg.eval.gold_path is None:
        need = need + ("queries.jsonl",)
    return need


def run_pipeline(
    cfg: PipelineConfig, stage: str = "all", log: Log = _quiet
) -> list[StageResult]:
    """Run one stage or the whole ordered pipeline under the workspace lock."""
    if stage != "all" and stage not in STAGES:
        raise StageError(2, f"unknown stage {stage!r}; expected one of {STAGES} or 'all'")
    cfg.workspace.mkdir(parents=True, exist_ok=True)
    results = []
    with WorkspaceLock(cfg.workspace):
        manifest = Manifest(cfg.workspace, memoize=True)
        cache = functools.cache(lambda: EmbeddingCache(cfg.cache_dir, cfg.embedding.model_name))
        queries = functools.cache(lambda: _load_queries(cfg))
        stages = STAGES if stage == "all" else (stage,)
        for st in stages:
            if stage == "all" and st in ("mine", "train") and not cfg.train_enabled:
                log(f"[{st}] skipped (train.enabled is false)")
                results.append(StageResult(st, "skipped", 0.0))
                continue
            results.append(_run_one(cfg, st, manifest, cache, queries, log))
    return results


def _run_one(
    cfg: PipelineConfig,
    stage: str,
    manifest: Manifest,
    cache: CacheOpener,
    queries: QueryLoader,
    log: Log,
) -> StageResult:
    ws = cfg.workspace
    for name in _requires(cfg, stage):
        if not (ws / name).exists():
            producer = _PRODUCER[name]
            raise StageError(
                3, f"stage '{stage}': missing {name}; run stage '{producer}' first"
            )
    config_hash = cfg.stage_config_hash(stage)
    if manifest.is_fresh(stage, config_hash):
        log(f"[{stage}] fresh (cache hit), nothing to do")
        return StageResult(stage, "fresh", 0.0)
    started = time.monotonic()
    try:
        inputs, outputs = _STAGE_FNS[stage](cfg, ws, cache, queries, log)
    except ProviderError as exc:
        raise StageError(4, f"stage '{stage}': provider failure: {exc}") from exc
    except (CorpusFormatError, FileNotFoundError) as exc:
        raise StageError(2, f"stage '{stage}': {exc}") from exc
    except ArtifactError as exc:
        producer = _PRODUCER.get(manifest.key(exc.path))
        remedy = (
            f"rerun stage '{producer}'" if producer
            else f"remove the embedding cache {exc.path.parent} and rerun stage '{stage}'"
        )
        raise StageError(3, f"stage '{stage}': {exc}; {remedy}") from exc
    wall = time.monotonic() - started
    manifest.record(stage, config_hash, inputs, outputs, wall)
    log(f"[{stage}] done in {wall:.2f}s")
    return StageResult(stage, "ran", wall)


def _load_pts(ws: Path) -> list[PartialTable]:
    return [kpt_from_record(rec) for rec in read_jsonl(ws / "kpts.jsonl")]


def _load_queries(cfg: PipelineConfig) -> QuerySplit:
    parsed = [query_from_record(rec) for rec in read_jsonl(cfg.workspace / "queries.jsonl")]
    if cfg.eval.gold_path is not None:
        return QuerySplit(parsed, parsed, [])
    training, heldout = split_queries(parsed, cfg.eval.holdout_per_pt)
    return QuerySplit(parsed, training, heldout)


def _query_ordinal(query_id: str) -> int:
    return int(query_id.rsplit("#q", 1)[1])


def split_queries(
    queries: list[SyntheticQuery], holdout_per_pt: int
) -> tuple[list[SyntheticQuery], list[SyntheticQuery]]:
    """Split into (training, held-out) per partial table.

    The held-out ordinals start at a position derived from a stable hash
    of the pt_id, not at a fixed ordinal: generators that vary question
    form by ordinal would otherwise concentrate one form in the eval set
    and starve training of it. At least one query always stays on the
    training side.
    """
    by_pt: dict[str, list[SyntheticQuery]] = {}
    for q in queries:
        by_pt.setdefault(q.pt_id, []).append(q)
    training, heldout = [], []
    for pt_id in sorted(by_pt):
        group = sorted(by_pt[pt_id], key=lambda q: _query_ordinal(q.query_id))
        n_held = min(holdout_per_pt, len(group) - 1)
        start = int.from_bytes(hashlib.sha256(pt_id.encode("utf-8")).digest()[:8], "big")
        held_pos = {(start + j) % len(group) for j in range(n_held)}
        for pos, q in enumerate(group):
            (heldout if pos in held_pos else training).append(q)
    return training, heldout


def _stage_ingest(
    cfg: PipelineConfig, ws: Path, cache: CacheOpener, queries: QueryLoader, log: Log
) -> StageFiles:
    corpus = load_corpus(cfg.corpus_path, cfg.corpus_format)
    records = [table_to_record(t) for t in corpus.tables]
    out = ws / "corpus.jsonl"
    write_jsonl(out, records)
    log(f"[ingest] {len(records)} tables")
    return [cfg.corpus_path], [out]


def _stage_embed(
    cfg: PipelineConfig, ws: Path, cache: CacheOpener, queries: QueryLoader, log: Log
) -> StageFiles:
    corpus = load_corpus(ws / "corpus.jsonl")
    texts, rows = [], []
    for t in corpus.tables:
        for i in range(len(t.instances)):
            texts.append(serialize_instance(t, i))
            rows.append({"table_id": t.table_id, "row_index": i})
    vectors = embed_texts(cfg.embedding, texts, cache())
    out_bin = ws / "instance_embeddings.bin"
    out_idx = ws / "instance_embeddings.jsonl"
    write_matrix_bin(out_bin, vectors)
    write_jsonl(out_idx, rows)
    log(f"[embed] {len(texts)} instances at dim {cfg.embedding.dim}")
    return [ws / "corpus.jsonl"], [out_bin, out_idx]


def _stage_cluster(
    cfg: PipelineConfig, ws: Path, cache: CacheOpener, queries: QueryLoader, log: Log
) -> StageFiles:
    corpus = load_corpus(ws / "corpus.jsonl")
    matrix = read_matrix_bin(ws / "instance_embeddings.bin")
    rows = list(read_jsonl(ws / "instance_embeddings.jsonl"))
    if len(rows) != len(matrix):
        raise StageError(3, "instance embeddings sidecar and matrix disagree; rerun 'embed'")
    offsets: dict[str, list[int]] = {}
    for i, rec in enumerate(rows):
        offsets.setdefault(rec["table_id"], []).append(i)
    records = []
    for t in corpus.tables:
        idx = offsets.get(t.table_id)
        if not idx or len(idx) != len(t.instances):
            raise StageError(3, f"embeddings missing for table {t.table_id!r}; rerun 'embed'")
        assignment = cluster_table(matrix[idx], cfg.clustering)
        records.append(
            {
                "table_id": t.table_id,
                "k": assignment.k,
                "labels": [int(x) for x in assignment.labels],
                "point_distances": [float(x) for x in assignment.point_distances],
                "inertia": assignment.inertia,
                "iterations_run": assignment.iterations_run,
                "inertia_history": assignment.inertia_history,
            }
        )
    out = ws / "clusters.jsonl"
    write_jsonl(out, records)
    log(f"[cluster] {len(records)} tables clustered")
    return [ws / "corpus.jsonl", ws / "instance_embeddings.bin"], [out]


def _labels_from_record(rec: dict) -> ClusterLabels:
    return ClusterLabels(
        k=int(rec["k"]),
        labels=np.asarray(rec["labels"], dtype=np.intp),
        point_distances=np.asarray(rec["point_distances"], dtype=np.float64),
    )


def _stage_kpt(
    cfg: PipelineConfig, ws: Path, cache: CacheOpener, queries: QueryLoader, log: Log
) -> StageFiles:
    corpus = load_corpus(ws / "corpus.jsonl")
    assignments = {
        rec["table_id"]: _labels_from_record(rec)
        for rec in read_jsonl(ws / "clusters.jsonl")
    }
    records = []
    for t in corpus.tables:
        assignment = assignments.get(t.table_id)
        if assignment is None and cfg.kpt_strategy != "first_rows":
            raise StageError(3, f"no clustering for table {t.table_id!r}; rerun 'cluster'")
        for pt in build_kpts(t, assignment, cfg.kpt, cfg.kpt_strategy):
            records.append(kpt_to_record(pt))
    out = ws / "kpts.jsonl"
    write_jsonl(out, records)
    log(f"[kpt] {len(records)} partial tables ({cfg.kpt_strategy})")
    return [ws / "corpus.jsonl", ws / "clusters.jsonl"], [out]


def _stage_genq(
    cfg: PipelineConfig, ws: Path, cache: CacheOpener, queries: QueryLoader, log: Log
) -> StageFiles:
    pts = _load_pts(ws)
    generated, skipped = generate_all(pts, cfg.genq)
    for pt_id in skipped:
        log(f"[genq] warning: no usable queries for {pt_id}, skipped")
    out = ws / "queries.jsonl"
    write_jsonl(out, [query_to_record(q) for q in generated])
    log(f"[genq] {len(generated)} queries over {len(pts) - len(skipped)} partial tables")
    return [ws / "kpts.jsonl"], [out]


def _stage_mine(
    cfg: PipelineConfig, ws: Path, cache: CacheOpener, queries: QueryLoader, log: Log
) -> StageFiles:
    pts = _load_pts(ws)
    training = queries().training
    if not training:
        raise StageError(3, "queries.jsonl has no training queries; rerun 'genq'")
    pt_vecs = embed_texts(cfg.embedding, [pt.text for pt in pts], cache())
    q_vecs = embed_texts(cfg.embedding, [q.text for q in training], cache())
    triples, skipped = mine_all(training, q_vecs, pts, cfg.mining, pt_vecs)
    for query_id in skipped:
        log(f"[mine] warning: no eligible negatives for {query_id}, skipped")
    out = ws / "triples.jsonl"
    write_jsonl(out, [triple_to_record(t) for t in triples])
    log(f"[mine] {len(triples)} triples ({cfg.mining.strategy}, h={cfg.mining.h})")
    return [ws / "kpts.jsonl", ws / "queries.jsonl"], [out]


def _stage_train(
    cfg: PipelineConfig, ws: Path, cache: CacheOpener, queries: QueryLoader, log: Log
) -> StageFiles:
    triples = [triple_from_record(rec) for rec in read_jsonl(ws / "triples.jsonl")]
    if not triples:
        raise StageError(3, "triples.jsonl is empty; rerun 'mine'")
    pts = _load_pts(ws)
    by_id = {q.query_id: q for q in queries().queries}
    vectors: dict[str, np.ndarray] = {}
    pt_vecs = embed_texts(cfg.embedding, [pt.text for pt in pts], cache())
    vectors.update({pt.pt_id: v for pt, v in zip(pts, pt_vecs)})
    needed_qids = sorted({t.query_id for t in triples})
    q_vecs = embed_texts(cfg.embedding, [by_id[qid].text for qid in needed_qids], cache())
    vectors.update(dict(zip(needed_qids, q_vecs)))

    adapter, report = train_adapter(triples, vectors, cfg.train)
    save_adapter(adapter, str(ws / "adapter.bin"))
    report_json = {
        "initial_loss": report.initial_loss,
        "final_loss": report.final_loss,
        "epoch_mean_losses": report.epoch_mean_losses,
        "steps": report.steps,
        "triples_seen": report.triples_seen,
    }
    atomic_write_text(
        ws / "train_report.json", json.dumps(report_json, sort_keys=True, indent=2) + "\n"
    )
    write_jsonl(ws / "train_log.jsonl", report.log)
    log(
        f"[train] mean loss {report.initial_loss:.4f} -> {report.final_loss:.4f} "
        f"over {report.steps} steps"
    )
    return (
        [ws / "triples.jsonl", ws / "kpts.jsonl", ws / "queries.jsonl"],
        [ws / "adapter.bin", ws / "train_report.json", ws / "train_log.jsonl"],
    )


def _maybe_adapter(cfg: PipelineConfig, ws: Path) -> Adapter | None:
    if not cfg.train_enabled:
        return None
    return load_adapter(str(ws / "adapter.bin"), expected_dim=cfg.embedding.dim)


def _stage_index(
    cfg: PipelineConfig, ws: Path, cache: CacheOpener, queries: QueryLoader, log: Log
) -> StageFiles:
    pts = _load_pts(ws)
    queries_by_pt: dict[str, list[SyntheticQuery]] = {}
    for q in queries().training:
        queries_by_pt.setdefault(q.pt_id, []).append(q)
    adapter = _maybe_adapter(cfg, ws)
    index = build_index(
        pts,
        queries_by_pt,
        cfg.embedding,
        cache=cache(),
        adapter=adapter,
        mode=cfg.retrieval_mode,
        fusion=cfg.fusion,
    )
    save_index(index, ws / "index")
    inputs = [ws / "kpts.jsonl", ws / "queries.jsonl"]
    if adapter is not None:
        inputs.append(ws / "adapter.bin")
    log(f"[index] {len(index.pt_ids)} entries ({cfg.retrieval_mode}, {cfg.fusion} fusion)")
    return inputs, [ws / "index" / n for n in ("entries.jsonl", "vectors.bin", "meta.json")]


def _gold_pairs(
    cfg: PipelineConfig, ws: Path, queries: QueryLoader
) -> tuple[list[tuple[str, str]], list[Path]]:
    if cfg.eval.gold_path is not None:
        pairs = []
        for rec in read_jsonl(cfg.eval.gold_path):
            if "query" not in rec or "gold_table_id" not in rec:
                raise StageError(2, f"{cfg.eval.gold_path}: gold rows need query and gold_table_id")
            pairs.append((str(rec["query"]), str(rec["gold_table_id"])))
        return pairs, [cfg.eval.gold_path]
    return [(q.text, q.table_id) for q in queries().heldout], [ws / "queries.jsonl"]


def _stage_eval(
    cfg: PipelineConfig, ws: Path, cache: CacheOpener, queries: QueryLoader, log: Log
) -> StageFiles:
    adapter = _maybe_adapter(cfg, ws)
    index = load_index(ws / "index", adapter=adapter)
    gold, extra_inputs = _gold_pairs(cfg, ws, queries)
    if not gold:
        raise StageError(
            2, "no evaluation queries: set eval.gold_path or eval.holdout_per_pt >= 1"
        )
    report = evaluate(index, gold, cfg.embedding, ks=cfg.eval.ks, cache=cache())
    out = ws / "report.json"
    atomic_write_text(out, json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")
    recalls = " ".join(f"R@{k}={v}" for k, v in sorted(report.recall.items()))
    log(f"[eval] {report.query_count} queries: {recalls}")
    inputs = [ws / "index" / n for n in ("entries.jsonl", "vectors.bin", "meta.json")]
    if adapter is not None:
        inputs.append(ws / "adapter.bin")
    return inputs + extra_inputs, [out]


_STAGE_FNS = {
    "ingest": _stage_ingest,
    "embed": _stage_embed,
    "cluster": _stage_cluster,
    "kpt": _stage_kpt,
    "genq": _stage_genq,
    "mine": _stage_mine,
    "train": _stage_train,
    "index": _stage_index,
    "eval": _stage_eval,
}


@dataclass(frozen=True)
class Variant:
    kpt_strategy: str
    mining_strategy: str
    use_adapter: bool

    @property
    def slug(self) -> str:
        tail = "adapter" if self.use_adapter else "no-adapter"
        return f"{self.kpt_strategy}-{self.mining_strategy}-{tail}"


def parse_variants(spec: str, cfg: PipelineConfig) -> list[Variant]:
    """Parse "kpt_random+hard+adapter,first_rows+no-adapter" style specs.

    The sampling strategy is required; mining strategy and adapter use
    default to the config's settings.
    """
    variants = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split("+")
        sampling = parts[0]
        if sampling not in STRATEGIES:
            raise StageError(2, f"unknown sampling strategy {sampling!r} in --strategies")
        mining_strategy = cfg.mining.strategy
        use_adapter = cfg.train_enabled
        for part in parts[1:]:
            if part in ("hard", "random"):
                mining_strategy = part
            elif part == "adapter":
                use_adapter = True
            elif part == "no-adapter":
                use_adapter = False
            else:
                raise StageError(2, f"unknown variant token {part!r} in --strategies")
        variants.append(Variant(sampling, mining_strategy, use_adapter))
    if not variants:
        raise StageError(2, "--strategies named no variants")
    return variants


def run_compare(cfg: PipelineConfig, variants: list[Variant], log: Log = _quiet) -> dict:
    """Run the pipeline once per distinct variant; report one row each.

    Variant workspaces live under <workspace>/compare/ and share the
    parent's embedding cache, so repeated texts embed once.
    """
    rows = []
    computed: dict[Variant, dict] = {}
    for variant in variants:
        if variant not in computed:
            vcfg = variant_config(
                cfg,
                kpt_strategy=variant.kpt_strategy,
                mining_strategy=variant.mining_strategy,
                use_adapter=variant.use_adapter,
                workspace=cfg.workspace / "compare" / variant.slug,
            )
            log(f"[compare] running variant {variant.slug}")
            run_pipeline(vcfg, "all", log)
            report = json.loads((vcfg.workspace / "report.json").read_text())
            computed[variant] = {
                "variant": variant.slug,
                "kpt_strategy": variant.kpt_strategy,
                "mining_strategy": variant.mining_strategy,
                "adapter": variant.use_adapter,
                "recall": report["recall"],
                "query_count": report["query_count"],
            }
        rows.append(computed[variant])
    out = {"rows": rows}
    cfg.workspace.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        cfg.workspace / "compare_report.json", json.dumps(out, sort_keys=True, indent=2) + "\n"
    )
    return out
