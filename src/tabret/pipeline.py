"""Stage orchestration over a locked workspace directory.

Each stage reads the previous stage's artifact, writes its own
atomically, and records content hashes in the manifest; a stage whose
config slice and file hashes are unchanged is a no-op on re-run.
_STAGE_TABLE declares each stage once: its function, the files it reads
and writes and the config sections it hashes. A run resolves it once
(plan_stages), checks each stage's inputs against it, records exactly
those files in the manifest, and names the writer of a missing, outdated
or damaged file as the stage to rerun. Before a stage runs, the manifest
also vouches for its inputs: each one another stage writes must come
from that writer's current settings and current inputs, or the run names
the writer to run first (see _run_one). One run hashes each workspace
file at most once (plus once more for each output a stage writes), and
none whose stat stamp is as an earlier run recorded it. Each record
replaces the manifest whole, with the stamps in force, and a run that
ends without an error saves the stamps it took after its last record
(see fsio.Manifest); nothing else writes it, so a kill anywhere leaves
the manifest as its last os.replace left it. The stages of one run share
a _Run, which opens the embedding cache at most once. A run parses each
artifact at most once, and not at all when the run wrote it: each stage
hands what it wrote, once its atomic write has returned, to the stages
after it, and only a file an earlier run wrote is parsed, with every
damage check, on the first stage that reads it. An object with a single
reader (embed's matrix, cluster's labels, mine's triples, index's index)
is dropped once that reader has taken it or has been found fresh. Train
takes the base vectors of the partial tables and training queries that
mine looked up. When no external gold file is configured, evaluation
holds out the last synthetic queries of each partial table: those never
enter mining, training, or pt_plus_queries representations, and are
scored with their source table as gold.

Every JSON Lines file a stage reads, the source corpus and the gold file
included, goes through fsio.read_records, so a bad line or record raises
JsonLinesError naming the file and line; so does a second record of one
id in clusters.jsonl, kpts.jsonl, queries.jsonl or triples.jsonl (see
_read_some).
_run_one turns it into exit 2 for the corpus or gold file, which no
stage writes, and into exit 3 naming the stage to rerun for a workspace
file. A corpus or gold file that a stage writes exits 2 before any stage
runs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .cluster import ClusterLabels, cluster_tables
from .config import PipelineConfig
from .corpus import Corpus, load_corpus, serialize_instance, table_to_record
from .embed import CacheDimError, EmbeddingCache, embed_texts
from .fsio import (
    ArtifactError,
    Manifest,
    WorkspaceLock,
    atomic_write_text,
    read_matrix_bin,
    read_records,
    sha256_json,
    sweep_temp_files,
    write_jsonl,
    write_matrix_bin,
)
from .httpjson import ProviderError
from .kpt import PT_FIELDS, STRATEGIES, build_kpts, kpt_from_record, PartialTable
from .mining import MINING_STRATEGIES, TRIPLE_FIELDS, TrainingTriple, mine_all, triple_from_record
from .querygen import QUERY_FIELDS, SyntheticQuery, generate_all, query_from_record, query_ordinal
from .retrieval import build_index, evaluate, load_index, save_index
from .train import Adapter, TrainError, load_adapter, save_adapter
from .train import train as train_adapter

_INDEX_FILES = ("index/entries.jsonl", "index/vectors.bin", "index/meta.json")

_CLUSTER_FIELDS = {"table_id": str, "k": int, "labels": list[int], "point_distances": list[float]}
_GOLD_FIELDS = {"query": str, "gold_table_id": str}


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


def _quiet(_: str) -> None:
    pass


# inputs named by config key come from outside the workspace; with no
# gold file, eval scores the held-out queries of queries.jsonl instead
_SOURCE, _GOLD = "corpus.path", "eval.gold_path"


@dataclass(frozen=True)
class _Stage:
    fn: Callable[[_Run], None]
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    hashed: tuple[str, ...]  # the effective_dict sections whose change reruns it
    trains: bool = False  # skipped by a full run with train.enabled false


@dataclass(frozen=True)
class StagePlan:
    """A stage's files and config hash under one run's config."""

    inputs: list[Path]
    outputs: list[Path]
    config_hash: str


def plan_stages(cfg: PipelineConfig) -> dict[str, StagePlan]:
    """_STAGE_TABLE resolved under cfg; adapter.bin is an input only with training on."""
    ws, effective = cfg.workspace, cfg.effective_dict()
    where = {_SOURCE: cfg.corpus_path, _GOLD: cfg.eval.gold_path or ws / "queries.jsonl",
             "adapter.bin": ws / "adapter.bin" if cfg.train_enabled else None}
    return {
        name: StagePlan(
            inputs=[p for p in (where.get(f, ws / f) for f in st.reads) if p is not None],
            outputs=[ws / f for f in st.writes],
            config_hash=sha256_json({section: effective[section] for section in st.hashed}),
        )
        for name, st in _STAGE_TABLE.items()
    }


@dataclass(frozen=True)
class QuerySplit:
    """queries.jsonl as one run reads it."""

    # what mine, train and index see: the queries outside the held-out set
    training: list[SyntheticQuery]
    # scored by eval when no gold file is configured
    heldout: list[SyntheticQuery]


@dataclass
class _Run:
    """What the stages of one run share: the config, the log, the
    embedding cache and the artifacts that later stages read.

    The stage that writes an artifact runs before every stage that reads
    it, and once its atomic write has returned it hands the run what the
    file holds, so a run parses no file that it wrote. An artifact that
    several stages read (the corpus, the partial tables, the query split
    and the adapter) is set on the property of its name and kept until
    the run ends; that property parses the file an earlier run wrote, once,
    on the first stage that reads it, with every damage check. An
    artifact with a single reader waits in handed, keyed by that reader,
    which takes it, or drops it when found fresh, so no stage holds it
    longer than a parse would."""

    cfg: PipelineConfig
    log: Log
    swept: bool = False
    handed: dict[str, object] = field(default_factory=dict)

    @property
    def ws(self) -> Path:
        return self.cfg.workspace

    def sweep(self) -> None:
        """Delete, once per run, the temp files a killed run left half-way
        through an atomic write. The embedding cache is left alone, as
        variant runs share it under their own locks."""
        if not self.swept:
            for directory in (self.ws, self.ws / "index"):
                if directory != self.cfg.cache_dir:
                    sweep_temp_files(directory)
            self.swept = True

    @functools.cached_property
    def plans(self) -> dict[str, StagePlan]:
        return plan_stages(self.cfg)

    @functools.cached_property
    def writers(self) -> dict[Path, str]:
        """The stage that writes each workspace file; a file from outside has none."""
        return {path: st for st, plan in self.plans.items() for path in plan.outputs}

    @functools.cached_property
    def cache(self) -> EmbeddingCache:
        return EmbeddingCache(self.cfg.cache_dir, self.cfg.embedding.model_name)

    @functools.cached_property
    def corpus(self) -> Corpus:
        """corpus.jsonl's tables, unless ingest set them in this run."""
        return load_corpus(self.ws / "corpus.jsonl")

    @functools.cached_property
    def pts(self) -> list[PartialTable]:
        return _read_some(self.ws / "kpts.jsonl", PT_FIELDS, kpt_from_record, "pt_id")

    @functools.cached_property
    def queries(self) -> QuerySplit:
        return _query_split(self.cfg, _read_some(self.ws / "queries.jsonl", QUERY_FIELDS,
                                                 query_from_record, "query_id"))

    @functools.cached_property
    def base_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """The base embeddings of the partial tables and of the training
        queries, each in its list's order; mine and train share them."""
        cfg, cache = self.cfg.embedding, self.cache
        return (embed_texts(cfg, [pt.text for pt in self.pts], cache),
                embed_texts(cfg, [q.text for q in self.queries.training], cache))

    @functools.cached_property
    def adapter(self) -> Adapter | None:
        if not self.cfg.train_enabled:
            return None
        return load_adapter(str(self.ws / "adapter.bin"), expected_dim=self.cfg.embedding.dim)


def _query_split(cfg: PipelineConfig, queries: list[SyntheticQuery]) -> QuerySplit:
    """queries as the stages after genq see them: all for training when a
    gold file is configured, else split by split_queries."""
    if cfg.eval.gold_path is not None:
        return QuerySplit(queries, [])
    return QuerySplit(*split_queries(queries, cfg.eval.holdout_per_pt))


def _read_some(path: Path, fields: dict, parse: Callable[[dict], object], key: str) -> list:
    """read_records of a file whose writer never leaves it empty and
    writes one record per value of the field key, so that a file with no
    record, or a second record of one value, is damage."""
    seen: set[str] = set()

    def parse_once(rec: dict) -> object:
        if rec[key] in seen:
            raise ValueError(f"repeated {key} {rec[key]!r}")
        seen.add(rec[key])
        return parse(rec)

    records = read_records(path, fields, parse_once)
    if not records:
        raise ArtifactError(path, "no records")
    return records


def run_pipeline(
    cfg: PipelineConfig, stage: str = "all", log: Log = _quiet
) -> list[StageResult]:
    """Run one stage or the whole ordered pipeline under the workspace lock."""
    if stage != "all" and stage not in STAGES:
        raise StageError(2, f"unknown stage {stage!r}; expected one of {STAGES} or 'all'")
    run = _Run(cfg, log)
    # _run_one finds an input's writer by its path as written, so a source
    # that names a stage's output so would leave that stage outdated by itself
    for setting, source in ((_SOURCE, cfg.corpus_path), (_GOLD, cfg.eval.gold_path)):
        inside = source and cfg.workspace / os.path.relpath(source, cfg.workspace)
        if writer := run.writers.get(inside):
            raise StageError(2, f"{setting}: {source} is a file that stage '{writer}' "
                                f"writes; name a file outside the stages' outputs")
    cfg.workspace.mkdir(parents=True, exist_ok=True)
    results = []
    with WorkspaceLock(cfg.workspace) as lock:
        try:
            manifest = Manifest(cfg.workspace, lock.touch())
        except ArtifactError as exc:
            raise StageError(3, f"{exc}; remove {exc.path} and rerun") from exc
        stages = STAGES if stage == "all" else (stage,)
        for st in stages:
            if stage == "all" and _STAGE_TABLE[st].trains and not cfg.train_enabled:
                log(f"[{st}] skipped (train.enabled is false)")
                results.append(StageResult(st, "skipped", 0.0))
                continue
            results.append(_run_one(run, st, manifest))
        manifest.save_stamps()
    return results


def _run_one(run: _Run, stage: str, manifest: Manifest) -> StageResult:
    """Run the stage unless it is fresh, and record it in the manifest.

    A missing input that a stage P writes exits 3 naming P. So does, once
    the stage is found not fresh, an input whose writer P is outdated:
    P's last entry is missing, of another format or config hash, or lists
    an input since rewritten (see Manifest.is_outdated). One level
    suffices: P's entry ties P's outputs to P's inputs, so inputs that
    each come from a current writer also agree with each other. A file
    that no longer hashes as its writer recorded it was damaged outside
    the pipeline; the stage that reads it reports it, naming the writer.
    """
    plan = run.plans[stage]
    for path in plan.inputs:
        producer = run.writers.get(path)
        if producer and not path.exists():
            raise StageError(3, f"stage '{stage}': missing {manifest.key(path)}; "
                                f"run stage '{producer}' first")
    if manifest.is_fresh(stage, plan.config_hash):
        run.handed.pop(stage, None)
        run.log(f"[{stage}] fresh (cache hit), nothing to do")
        return StageResult(stage, "fresh", 0.0)
    for path in plan.inputs:
        producer = run.writers.get(path)
        if producer and manifest.is_outdated(producer, run.plans[producer].config_hash):
            raise StageError(3, f"stage '{stage}': {manifest.key(path)} was made from older "
                             f"inputs or settings; run stage '{producer}' first")
    # swept only by a run that runs a stage, so a no-op run pays nothing
    run.sweep()
    started = time.monotonic()
    try:
        _STAGE_FNS[stage](run)
    except StageError as exc:
        raise StageError(exc.exit_code, f"stage '{stage}': {exc}") from exc
    except ProviderError as exc:
        raise StageError(4, f"stage '{stage}': provider failure: {exc}") from exc
    except FileNotFoundError as exc:  # a missing source corpus
        raise StageError(2, f"stage '{stage}': {exc}") from exc
    except (OSError, TrainError) as exc:  # a full disk or a denied permission; training diverged
        raise StageError(1, f"stage '{stage}': {exc}") from exc
    except CacheDimError as exc:  # the cache is sound, so nothing to remove
        raise StageError(3, f"stage '{stage}': {exc}") from exc
    except ArtifactError as exc:
        producer = run.writers.get(exc.path)
        if producer is None and exc.path in plan.inputs:  # the corpus or a gold file
            raise StageError(2, f"stage '{stage}': {exc}") from exc
        remedy = (
            f"rerun stage '{producer}'" if producer
            else f"remove the embedding cache {exc.path.parent} and rerun stage '{stage}'"
        )
        raise StageError(3, f"stage '{stage}': {exc}; {remedy}") from exc
    wall = time.monotonic() - started
    manifest.record(stage, plan.config_hash, plan.inputs, plan.outputs, wall)
    run.log(f"[{stage}] done in {wall:.2f}s")
    return StageResult(stage, "ran", wall)


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
        group = sorted(by_pt[pt_id], key=lambda q: query_ordinal(q.query_id))
        n_held = min(holdout_per_pt, len(group) - 1)
        start = int.from_bytes(hashlib.sha256(pt_id.encode("utf-8")).digest()[:8], "big")
        held_pos = {(start + j) % len(group) for j in range(n_held)}
        for pos, q in enumerate(group):
            (heldout if pos in held_pos else training).append(q)
    return training, heldout


def _write_json(path: Path, obj: dict) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _stage_ingest(run: _Run) -> None:
    corpus = load_corpus(run.cfg.corpus_path)
    records = [table_to_record(t) for t in corpus.tables]
    write_jsonl(run.ws / "corpus.jsonl", records)
    run.corpus = corpus  # the tables the copy parses back to
    run.log(f"[ingest] {len(records)} tables")


def _stage_embed(run: _Run) -> None:
    texts = [serialize_instance(t, i) for t in run.corpus.tables for i in range(len(t.instances))]
    vectors = embed_texts(run.cfg.embedding, texts, run.cache)
    write_matrix_bin(run.ws / "instance_embeddings.bin", vectors)
    run.handed["cluster"] = vectors
    run.log(f"[embed] {len(texts)} instances at dim {run.cfg.embedding.dim}")


def _stage_cluster(run: _Run) -> None:
    matrix = run.handed.pop("cluster", None)
    if matrix is None:
        matrix = read_matrix_bin(run.ws / "instance_embeddings.bin")
    counts = [len(t.instances) for t in run.corpus.tables]
    if sum(counts) != len(matrix):
        raise ArtifactError(run.ws / "instance_embeddings.bin",
                            f"{len(matrix)} rows, but corpus.jsonl has {sum(counts)}")
    # embed writes each table's rows together, in corpus order
    tables = [matrix[end - n : end] for n, end in zip(counts, np.cumsum(counts))]
    assignments = cluster_tables(tables, run.cfg.clustering)
    records = [
        {
            "table_id": t.table_id,
            "k": a.k,
            "labels": [int(x) for x in a.labels],
            "point_distances": [float(x) for x in a.point_distances],
            "inertia": a.inertia,
            "iterations_run": a.iterations_run,
            "inertia_history": a.inertia_history,
        }
        for t, a in zip(run.corpus.tables, assignments)
    ]
    write_jsonl(run.ws / "clusters.jsonl", records)
    run.handed["kpt"] = {t.table_id: ClusterLabels(a.k, a.labels, a.point_distances)
                         for t, a in zip(run.corpus.tables, assignments)}
    run.log(f"[cluster] {len(records)} tables clustered")


def _labels_from_record(rec: dict, rows: dict[str, int]) -> tuple[str, ClusterLabels]:
    """(table id, clustering) of a clusters.jsonl record, given each corpus
    table's row count; one of a table the corpus lacks, or that does not
    label each row with a cluster in range(k) and each such cluster with a
    row (as cluster's empty-cluster repair ensures), raises ValueError."""
    table_id, k = rec["table_id"], rec["k"]
    if table_id not in rows:
        raise ValueError(f"table {table_id!r} is not in corpus.jsonl")
    labels = np.asarray(rec["labels"], dtype=np.intp)
    distances = np.asarray(rec["point_distances"], dtype=np.float64)
    m = rows[table_id]
    if not len(labels) == len(distances) == m:
        raise ValueError(f"table {table_id!r} has {m} rows, but {len(labels)} labels "
                         f"and {len(distances)} point distances")
    if k < 1 or np.any((labels < 0) | (labels >= k)):
        raise ValueError(f"table {table_id!r}: labels must lie in range(k) for k = {k}")
    if len(empty := np.flatnonzero(np.bincount(labels, minlength=k) == 0)):
        raise ValueError(f"table {table_id!r}: cluster {empty[0]} of k = {k} has no row")
    return table_id, ClusterLabels(k=k, labels=labels, point_distances=distances)


def _stage_kpt(run: _Run) -> None:
    cfg = run.cfg
    assignments = run.handed.pop("kpt", None)
    if assignments is None:
        rows = {t.table_id: len(t.instances) for t in run.corpus.tables}
        parse = functools.partial(_labels_from_record, rows=rows)
        assignments = dict(_read_some(run.ws / "clusters.jsonl", _CLUSTER_FIELDS, parse,
                                      "table_id"))
    pts = []
    for t in run.corpus.tables:
        assignment = assignments.get(t.table_id)
        if assignment is None and cfg.kpt.strategy != "first_rows":
            raise ArtifactError(run.ws / "clusters.jsonl", f"no clustering of {t.table_id!r}")
        pts.extend(build_kpts(t, assignment, cfg.kpt))
    write_jsonl(run.ws / "kpts.jsonl", [vars(pt) for pt in pts])
    run.pts = pts
    run.log(f"[kpt] {len(pts)} partial tables ({cfg.kpt.strategy})")


def _stage_genq(run: _Run) -> None:
    pts = run.pts
    generated, skipped = generate_all(pts, run.cfg.genq)
    if not generated:
        # recorded, an empty queries.jsonl would only send mine back here
        raise StageError(4, f"the chat provider gave no usable questions for any of the "
                            f"{len(pts)} partial tables")
    for pt_id in skipped:
        run.log(f"[genq] warning: no usable queries for {pt_id}, skipped")
    write_jsonl(run.ws / "queries.jsonl", [vars(q) for q in generated])
    run.queries = _query_split(run.cfg, generated)
    run.log(f"[genq] {len(generated)} queries over {len(pts) - len(skipped)} partial tables")


def _stage_mine(run: _Run) -> None:
    cfg, pts = run.cfg, run.pts
    pt_vecs, q_vecs = run.base_vectors
    triples, skipped = mine_all(run.queries.training, q_vecs, pts, cfg.mining, pt_vecs)
    if not triples:
        # a negative comes from another source table, so one table gives none
        raise StageError(2, "no query has a partial table of another source table to take "
                            "as a negative, so there is nothing to train on; set "
                            "train.enabled=false or use a corpus of at least two tables")
    for query_id in skipped:
        run.log(f"[mine] warning: no eligible negatives for {query_id}, skipped")
    write_jsonl(run.ws / "triples.jsonl", [vars(t) for t in triples])
    run.handed["train"] = triples
    run.log(f"[mine] {len(triples)} triples ({cfg.mining.strategy}, h={cfg.mining.h})")


def _triple_from_record(
    rec: dict, queries: dict[str, SyntheticQuery], tables: dict[str, str]
) -> TrainingTriple:
    """The triple of a triples.jsonl record, given the training queries and
    each partial table's source table; one that names an unknown id, or
    whose positive or a negative is not one mine would pick, raises ValueError."""
    triple = triple_from_record(rec)
    query = queries.get(triple.query_id)
    if query is None:
        raise ValueError(f"query {triple.query_id!r} is not a training query of queries.jsonl")
    for pt_id in (triple.positive_pt_id, *triple.negative_pt_ids):
        if pt_id not in tables:
            raise ValueError(f"partial table {pt_id!r} is not in kpts.jsonl")
    if triple.positive_pt_id != query.pt_id:
        raise ValueError(f"positive {triple.positive_pt_id!r} is not the partial table "
                         f"{query.pt_id!r} of query {query.query_id!r}")
    for pt_id in triple.negative_pt_ids:
        if tables[pt_id] == query.table_id:
            raise ValueError(f"negative {pt_id!r} comes from the query's own table "
                             f"{query.table_id!r}")
    return triple


def _stage_train(run: _Run) -> None:
    cfg, ws = run.cfg, run.ws
    pt_ids = [pt.pt_id for pt in run.pts]
    query_ids = [q.query_id for q in run.queries.training]
    triples = run.handed.pop("train", None)
    if triples is None:
        triples = _read_some(ws / "triples.jsonl", TRIPLE_FIELDS, functools.partial(
            _triple_from_record, queries=dict(zip(query_ids, run.queries.training)),
            tables={pt.pt_id: pt.table_id for pt in run.pts}), "query_id")
    pt_vecs, q_vecs = run.base_vectors
    vectors = dict(zip(pt_ids + query_ids, [*pt_vecs, *q_vecs]))

    adapter, report = train_adapter(triples, vectors, cfg.train)
    save_adapter(adapter, str(ws / "adapter.bin"))
    run.adapter = adapter
    _write_json(ws / "train_report.json", {k: v for k, v in vars(report).items() if k != "log"})
    write_jsonl(ws / "train_log.jsonl", report.log)
    run.log(
        f"[train] mean loss {report.initial_loss:.4f} -> {report.final_loss:.4f} "
        f"over {report.steps} steps"
    )


def _stage_index(run: _Run) -> None:
    cfg, pts = run.cfg, run.pts
    queries_by_pt: dict[str, list[SyntheticQuery]] = {}
    for q in run.queries.training:
        queries_by_pt.setdefault(q.pt_id, []).append(q)
    index = build_index(pts, queries_by_pt, cfg.embedding, cache=run.cache, adapter=run.adapter,
                        config=cfg.retrieval)
    save_index(index, run.ws / "index")
    run.handed["eval"] = index
    run.log(f"[index] {len(index.pt_ids)} entries ({cfg.retrieval.mode}, "
            f"{cfg.retrieval.fusion} fusion)")


def _gold_pairs(run: _Run, tables: list[str]) -> list[tuple[str, str]]:
    """(query, gold table id) pairs: the held-out queries, or the rows of
    the gold file, each naming one of the index's tables."""
    gold_path = run.cfg.eval.gold_path
    known = set(tables)
    if gold_path is None:
        for q in run.queries.heldout:
            if q.table_id not in known:
                raise ArtifactError(run.ws / "queries.jsonl", f"held-out query {q.query_id!r} "
                                    f"names table {q.table_id!r}, which is not in the index")
        return [(q.text, q.table_id) for q in run.queries.heldout]

    def pair(rec: dict) -> tuple[str, str]:
        if rec["gold_table_id"] not in known:
            raise ValueError(f"gold table id {rec['gold_table_id']!r} is not in the index")
        return rec["query"], rec["gold_table_id"]

    return read_records(gold_path, _GOLD_FIELDS, pair)


def _stage_eval(run: _Run) -> None:
    cfg = run.cfg
    index = run.handed.pop("eval", None)
    if index is None:
        index = load_index(run.ws / "index", adapter=run.adapter)
    gold = _gold_pairs(run, index.tables)
    if not gold:
        cause = (f"{cfg.eval.gold_path} holds none" if cfg.eval.gold_path else
                 "each partial table has only one question, which training keeps")
        raise StageError(2, f"no evaluation queries: {cause}")
    report = evaluate(index, gold, cfg.embedding, ks=cfg.eval.ks, cache=run.cache)
    _write_json(run.ws / "report.json", report.to_json())
    recalls = " ".join(f"R@{k}={v}" for k, v in sorted(report.recall.items()))
    run.log(f"[eval] {report.query_count} queries: {recalls}")


# stage: function, files read, files written, config sections hashed
_STAGE_TABLE = {
    "ingest": _Stage(_stage_ingest, (_SOURCE,), ("corpus.jsonl",), ("corpus",)),
    "embed": _Stage(_stage_embed, ("corpus.jsonl",), ("instance_embeddings.bin",), ("embedding",)),
    "cluster": _Stage(_stage_cluster, ("corpus.jsonl", "instance_embeddings.bin"),
                      ("clusters.jsonl",), ("clustering", "seed", "embedding")),
    "kpt": _Stage(_stage_kpt, ("corpus.jsonl", "clusters.jsonl"), ("kpts.jsonl",), ("kpt", "seed")),
    "genq": _Stage(_stage_genq, ("kpts.jsonl",), ("queries.jsonl",), ("genq", "chat")),
    "mine": _Stage(_stage_mine, ("kpts.jsonl", "queries.jsonl"), ("triples.jsonl",),
                   ("mining", "eval", "seed", "embedding"), trains=True),
    "train": _Stage(_stage_train, ("triples.jsonl", "kpts.jsonl", "queries.jsonl"),
                    ("adapter.bin", "train_report.json", "train_log.jsonl"),
                    ("train", "seed", "embedding"), trains=True),
    "index": _Stage(_stage_index, ("kpts.jsonl", "queries.jsonl", "adapter.bin"), _INDEX_FILES,
                    ("retrieval", "train", "eval", "embedding")),
    "eval": _Stage(_stage_eval, (*_INDEX_FILES, "adapter.bin", _GOLD), ("report.json",),
                   ("eval", "retrieval", "embedding")),
}
STAGES = tuple(_STAGE_TABLE)
# looked up by _run_one at call time, so a wrapper set here takes effect
_STAGE_FNS = {name: st.fn for name, st in _STAGE_TABLE.items()}


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
            if part in MINING_STRATEGIES:
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
            vcfg = replace(
                cfg,
                kpt=replace(cfg.kpt, strategy=variant.kpt_strategy),
                mining=replace(cfg.mining, strategy=variant.mining_strategy),
                train_enabled=variant.use_adapter,
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
    # under the lock, so a run's temp-file sweep cannot take this write's file
    with WorkspaceLock(cfg.workspace):
        _write_json(cfg.workspace / "compare_report.json", out)
    return out
