"""Workloads, timed phases and output checks of the tabret benchmark.

Every workload generates its corpus with ``synthdata.build_corpus`` from
the run's seed, writes a config file next to it, and drives the library
through its public entry points: ``config.load_config``,
``pipeline.run_pipeline``, ``retrieval.load_index`` and
``retrieval.search``. The program sees only the corpus file and the
config. All files live under ``.bench_work/`` in the checkout and are
removed when the run ends.

An untraced run repeats one cycle while another one still fits in
``--seconds`` (and at least ``min_cycles`` times), so that every metric
is sampled across the whole run and a slow stretch of a shared machine
touches all of them alike. One cycle:

- set-up, three times: generate the corpus, write it and the config,
  and load the config (on ``http`` the stub provider is started once,
  before the first cycle, as a provider would already be running);
- a cold build, ``run_pipeline(cfg, "all")`` on an empty workspace and
  cache (on ``serve`` only every second cycle: the cycles between reuse
  the workspace, so its read-side samples spread over the whole run);
- no-op runs on that workspace, where every stage is fresh;
- two re-index runs that flip ``retrieval.fusion`` to mean and back,
  rerunning index and eval on a warm cache;
- a closed loop of ``retrieval.search`` calls with one client: every
  tenth call sends a new text (a cache miss that embeds and writes),
  the others repeat an earlier text (a cache hit). The hit and miss
  latencies differ up to fortyfold (on ``http``). With one new text in
  two the median would sit between the two modes and jump between
  them; with one in ten the median lies among the hits and p99 at the
  miss path's 90th percentile, clear of the rare stalls of a loopback
  round trip on a shared machine.

The run ends by checking that ``search`` agrees with ``report.json`` on
every held-out query. A cycle whose predicted length no longer fits
does not start; on ``serve`` one whose build would not fit runs without
it.

Timings are medians over the run's samples, each corrected for the
host's speed at the time it was taken (see ``hostspeed``): on a shared
2-vCPU Xeon guest the same code ran up to 1.85x slower from one minute
to the next, more than any bound could absorb. The raw wall time
medians are printed next to them on ``#`` lines.

A traced run repeats the workload's focus untraced, then once with the
layers wrapped (see ``tracing``), and reports per-layer numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from tabret import config, pipeline, retrieval, synthdata
from tabret.corpus import write_corpus
from tabret.embed import EmbeddingCache
from tabret.fsio import read_jsonl
from tabret.querygen import query_from_record
from tabret.train import load_adapter

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent

DIM = 64
TOP_K = 10
SETUP_REPS = 3
NEW_TEXT_EVERY = 10
NOOP_REPS = 10
STUB_DELAY_MS = 5.0
TRACE_BASELINE_BUILDS = 2
NPROC = len(os.sched_getaffinity(0))
# kept free at the end of a run for the held-out check and clean-up
RESERVE_S = 2.0

# a timed interval: perf_counter at its start and at its end
Interval = tuple[float, float]


def timed(fn: Callable[..., Any], *args: Any) -> tuple[Interval, Any]:
    started = time.perf_counter()
    out = fn(*args)
    return (started, time.perf_counter()), out


def seconds(iv: Interval) -> float:
    return iv[1] - iv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tables: int
    rows: int
    per_family: int
    n_q: int
    # held-out queries per partial table, scored by eval
    holdout: int
    # searches per cycle; cycles repeat while another one fits in
    # --seconds, and at least min_cycles run
    searches: int
    min_cycles: int
    # a cold build every build_every cycles; the others reuse the workspace
    build_every: int = 1
    train: bool = True
    http: bool = False
    # what the traced run covers: one cold build ("build"), or one
    # cycle's no-op, re-index and search work on a built workspace
    focus: str = "build"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tall",
            why="few tables with many rows (k = k_max): embedding, CRC-64 and k-means dominate",
            tables=24, rows=150, per_family=5, n_q=5, holdout=4,
            searches=500, min_cycles=2,
        ),
        Workload(
            name="wide",
            why="many tables with few rows (k <= 2): mining, training and ranking dominate",
            tables=150, rows=12, per_family=15, n_q=3, holdout=2,
            searches=500, min_cycles=2,
        ),
        Workload(
            name="serve",
            why="800 partial tables; the traced run covers no-op, re-index and search on the read side",
            tables=400, rows=12, per_family=40, n_q=2, holdout=1,
            searches=500, min_cycles=2, build_every=2, focus="serve",
        ),
        Workload(
            name="http",
            why="embedding and chat over HTTP to a localhost stub with a fixed delay, training off",
            tables=40, rows=30, per_family=5, n_q=5, holdout=4,
            searches=500, min_cycles=2, train=False, http=True,
        ),
    )
}

END_TO_END = [
    ("build_s", "s"),
    ("noop_s", "s"),
    ("reindex_s", "s"),
    ("search_p50_ms", "ms"),
    ("search_p99_ms", "ms"),
    ("recall_at_1", "%"),
    ("recall_at_5", "%"),
    ("recall_at_10", "%"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_share", "ratio"),
]

_STAGE_METRICS = [(f"pipeline.{stage}.s", "s") for stage in pipeline.STAGES]

PER_LAYER = [
    ("fsio.crc64.calls", "count"), ("fsio.crc64.bytes", "B"), ("fsio.crc64.s", "s"),
    ("fsio.sha256_file.calls", "count"), ("fsio.sha256_file.bytes", "B"),
    ("fsio.sha256_file.s", "s"),
    ("fsio.manifest_is_fresh.calls", "count"), ("fsio.manifest_is_fresh.s", "s"),
    ("fsio.atomic_write.calls", "count"), ("fsio.atomic_write.bytes", "B"),
    ("fsio.atomic_write.s", "s"),
    ("fsio.read_jsonl.records", "count"), ("fsio.read_jsonl.s", "s"),
    ("fsio.matrix_read.bytes", "B"), ("fsio.matrix_read.s", "s"),
    ("fsio.matrix_write.bytes", "B"), ("fsio.matrix_write.s", "s"),
    ("embed.embed_texts.calls", "count"), ("embed.embed_texts.s", "s"),
    ("embed.mock_embed.calls", "count"), ("embed.mock_embed.s", "s"),
    ("embed.cache_get.calls", "count"), ("embed.cache_get.s", "s"),
    ("embed.cache_put.calls", "count"), ("embed.cache_put.bytes", "B"),
    ("embed.cache_put.s", "s"), ("embed.cache_hit_ratio", "ratio"),
    ("cluster.cluster_table.calls", "count"), ("cluster.cluster_table.s", "s"),
    ("cluster.kmeans.calls", "count"), ("cluster.kmeans.s", "s"),
    ("cluster.lloyd_iterations", "count"),
    ("kpt.build_kpts.calls", "count"), ("kpt.build_kpts.s", "s"),
    ("querygen.generate_all.s", "s"), ("querygen.questions", "count"),
    ("querygen.chat_complete.calls", "count"), ("querygen.chat_complete.s", "s"),
    ("httpjson.post_json.calls", "count"), ("httpjson.post_json.s", "s"),
    ("httpjson.post_json.p50_ms", "ms"), ("httpjson.post_json.p99_ms", "ms"),
    ("httpjson.attempts", "count"), ("httpjson.retries", "count"),
    ("httpjson.failures", "count"),
    ("mining.mine_all.queries", "count"), ("mining.mine_all.s", "s"),
    ("mining.pairs_scored", "count"),
    ("train.train.s", "s"), ("train.mean_loss.s", "s"),
    ("train.loss_and_grad.calls", "count"), ("train.loss_and_grad.s", "s"),
    ("train.adam_steps", "count"),
    ("train.adapter_apply.calls", "count"), ("train.adapter_apply.s", "s"),
    ("retrieval.build_index.s", "s"), ("retrieval.evaluate.s", "s"),
    ("retrieval.load_index.s", "s"),
    ("retrieval.search.calls", "count"), ("retrieval.search.s", "s"),
    ("retrieval.rank_tables.calls", "count"), ("retrieval.rank_tables.s", "s"),
    ("config.load_config.s", "s"), ("corpus.load_corpus.s", "s"),
    *_STAGE_METRICS,
    ("pipeline.stages_fresh", "count"),
    ("bench.pipeline_s", "s"),
    ("bench.trace_overhead", "ratio"),
]


class CheckError(Exception):
    """An output of the program is not what it must be."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Tally:
    """Counts operations; an exception or failed check fails the operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn: Callable[..., Any], *args: Any) -> Any:
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the run goes on; every failure is counted and shown
            self.failed += 1
            code = getattr(exc, "exit_code", None)
            suffix = f" (exit code {code})" if code is not None else ""
            print(f"# FAILED {label}{suffix}\n{traceback.format_exc()}", file=sys.stderr)
            return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tree_digest(directory: Path) -> dict[str, str]:
    """sha256 of every file under directory except the manifest and lock."""
    out = {}
    for path in sorted(directory.rglob("*")):
        rel = path.relative_to(directory).as_posix()
        if path.is_file() and rel not in ("manifest.jsonl", ".lock"):
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


class StubProvider:
    """The stub HTTP provider, run as a child process."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub_provider.py"),
             "--dim", str(DIM), "--delay-ms", str(STUB_DELAY_MS)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 30)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("port "):
                raise RuntimeError(f"stub provider did not start (said {line!r})")
            self.endpoint = f"http://127.0.0.1:{int(line.split()[1])}"
        except BaseException:
            self.stop()
            raise

    def served(self) -> int:
        with urllib.request.urlopen(self.endpoint + "/stats", timeout=10) as resp:
            return int(json.loads(resp.read())["requests"])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def write_inputs(w: Workload, seed: int, directory: Path, endpoint: str | None) -> Path:
    """Corpus and config for one workload and seed; returns the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    corpus = synthdata.build_corpus(w.tables, w.rows, w.per_family, seed)
    write_corpus(corpus, directory / "corpus.jsonl")
    embedding: dict[str, Any] = {"kind": "mock", "model_name": f"mock-{DIM}", "dim": DIM}
    cfg: dict[str, Any] = {
        "corpus": {"path": "corpus.jsonl"},
        "workspace": "workspace",
        "seed": seed,
        "embedding": embedding,
        "genq": {"n_q": w.n_q},
        "train": {"enabled": w.train},
        "eval": {"holdout_per_pt": w.holdout},
    }
    if endpoint is not None:
        embedding.update(kind="http", model_name=f"stub-{DIM}", endpoint=endpoint,
                         batch_size=16, max_parallel_requests=NPROC)
        cfg["chat"] = {"kind": "http", "model_name": "stub-chat", "endpoint": endpoint,
                       "max_parallel_requests": NPROC}
    path = directory / "config.yaml"
    # JSON is a subset of the YAML the config loader reads
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


class Run:
    """One benchmark run of one workload."""

    def __init__(self, w: Workload, seed: int, seconds: float, work: Path) -> None:
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tally = Tally()
        self.stub: StubProvider | None = None
        self.config_path: Path | None = None
        self.notes: list[str] = []
        self.setups = 0
        self.builds = 0
        self.corpus_digest: str | None = None
        self.reference_digest: dict[str, str] | None = None
        self.stub_per_build: int | None = None

    # ---- set-up -------------------------------------------------------

    def start_stub(self) -> StubProvider:
        self.stub = StubProvider()
        return self.stub

    def setup_once(self) -> tuple[Interval, Path]:
        """Timed set-up: the inputs in a new directory; returns the config path."""
        directory = self.work / f"inputs-{self.setups}"
        self.setups += 1
        started = time.perf_counter()
        path = write_inputs(self.w, self.seed, directory,
                            self.stub.endpoint if self.stub else None)
        config.load_config(path)
        elapsed = (started, time.perf_counter())
        digest = hashlib.sha256((directory / "corpus.jsonl").read_bytes()).hexdigest()
        self.corpus_digest = self.corpus_digest or digest
        check(digest == self.corpus_digest, "the same seed generated different corpora")
        return elapsed, path

    def close(self) -> None:
        """Count the stub's requests as operations and stop it."""
        stub, self.stub = self.stub, None
        if stub is not None:
            try:
                self.tally.attempted += stub.served()
            finally:
                stub.stop()

    def load(self, workspace: Path, *overrides: str) -> config.PipelineConfig:
        return config.load_config(self.config_path, [f"workspace={workspace}", *overrides])

    def stub_served(self) -> int:
        return self.stub.served() if self.stub is not None else 0

    # ---- pipeline operations -------------------------------------------

    def cold_build(self) -> tuple[Interval, Path, list]:
        ws = self.work / f"ws-{self.builds}"
        self.builds += 1
        cfg = self.load(ws)
        served_before = self.stub_served()
        elapsed, results = timed(pipeline.run_pipeline, cfg, "all")
        self._check_build(cfg, results)
        if self.stub is not None:
            served = self.stub_served() - served_before
            if self.stub_per_build is None:
                self.stub_per_build = served
            check(served == self.stub_per_build,
                  f"cold build made {served} provider requests, an earlier one {self.stub_per_build}")
        return elapsed, ws, results

    def _check_build(self, cfg: config.PipelineConfig, results: list) -> None:
        for r in results:
            skipped = r.stage in ("mine", "train") and not cfg.train_enabled
            check(r.status == ("skipped" if skipped else "ran"),
                  f"cold build: stage {r.stage} is {r.status}")
        ws = cfg.workspace
        digest = tree_digest(ws)
        if self.reference_digest is None:
            self.reference_digest = digest
        check(digest == self.reference_digest,
              "artifacts differ from the first build: "
              + ", ".join(sorted(k for k in digest.keys() | self.reference_digest.keys()
                                 if digest.get(k) != self.reference_digest.get(k))))
        report = json.loads((ws / "report.json").read_text())
        ranks = report["ranks"]
        for k in cfg.eval.ks:
            expected = round(100.0 * sum(1 for r in ranks if r <= k) / len(ranks), 2)
            check(report["recall"][f"R@{k}"] == expected, f"R@{k} disagrees with the ranks")
        if cfg.train_enabled:
            tr = json.loads((ws / "train_report.json").read_text())
            losses = [tr["initial_loss"], tr["final_loss"], *tr["epoch_mean_losses"]]
            check(all(math.isfinite(x) for x in losses), f"non-finite training loss {losses}")

    def noop(self, ws: Path) -> tuple[Interval, list]:
        cfg = self.load(ws)
        elapsed, results = timed(pipeline.run_pipeline, cfg, "all")
        for r in results:
            check(r.status in ("fresh", "skipped"), f"no-op run: stage {r.stage} is {r.status}")
        return elapsed, results

    def reindex(self, ws: Path, fusion: str) -> tuple[Interval, list]:
        cfg = self.load(ws, f"retrieval.fusion={fusion}")
        elapsed, results = timed(pipeline.run_pipeline, cfg, "all")
        for r in results:
            want = ("ran",) if r.stage in ("index", "eval") else ("fresh", "skipped")
            check(r.status in want, f"re-index run: stage {r.stage} is {r.status}")
        return elapsed, results

    def reindex_pair(self, ws: Path) -> tuple[list[Interval], list]:
        """Flip fusion to mean and back, so the workspace ends as built."""
        times, results = [], []
        for fusion in ("mean", "max"):
            out = self.tally.run(f"reindex {fusion}", self.reindex, ws, fusion)
            if out is not None:
                times.append(out[0])
                results.extend(out[1])
        return times, results

    # ---- search ----------------------------------------------------------

    def open_index(self, ws: Path) -> tuple:
        cfg = self.load(ws)
        adapter = (load_adapter(str(ws / "adapter.bin"), expected_dim=DIM)
                   if cfg.train_enabled else None)
        index = retrieval.load_index(ws / "index", adapter=adapter)
        cache = EmbeddingCache(cfg.cache_dir, cfg.embedding.model_name)
        return cfg, index, cache

    def search_stream(self, ws: Path, count: int, pass_index: int) -> list[Interval]:
        """Closed loop, one client: every tenth call a new text, else a repeat."""
        opened = self.tally.run("load index", self.open_index, ws)
        if opened is None:
            return []
        cfg, index, cache = opened
        bases = [rec["text"] for rec in read_jsonl(ws / "queries.jsonl")]
        rng = random.Random(f"{self.seed}:stream:{pass_index}")
        seen: dict[str, list] = {}
        order: list[str] = []
        latencies: list[Interval] = []
        n_tables = len(set(index.table_ids))

        def one(i: int) -> None:
            if i % NEW_TEXT_EVERY == 0:
                text = f"{rng.choice(bases)} ref {pass_index}-{i}"
            else:
                text = rng.choice(order)
            elapsed, result = timed(retrieval.search, index, text, cfg.embedding, TOP_K, cache)
            latencies.append(elapsed)
            check(len(result) == min(TOP_K, n_tables), f"search returned {len(result)} tables")
            scores = [s for _, s in result]
            check(scores == sorted(scores, reverse=True), "search results are not ranked")
            if text in seen:
                check(result == seen[text], f"repeated query ranked differently: {text!r}")
            else:
                seen[text] = result
                order.append(text)

        for i in range(count):
            self.tally.run("search", one, i)
        return latencies

    def check_heldout(self, ws: Path) -> None:
        """search top-k must place each held-out query's gold table where
        report.json ranks it (or leave it out when ranked below k)."""
        opened = self.tally.run("load index", self.open_index, ws)
        if opened is None:
            return
        cfg, index, cache = opened
        queries = [query_from_record(r) for r in read_jsonl(ws / "queries.jsonl")]
        _, heldout = pipeline.split_queries(queries, cfg.eval.holdout_per_pt)
        ranks = json.loads((ws / "report.json").read_text())["ranks"]

        def one(q: Any, rank: int) -> None:
            ids = [t for t, _ in retrieval.search(index, q.text, cfg.embedding, TOP_K, cache)]
            got = ids.index(q.table_id) + 1 if q.table_id in ids else None
            want = rank if rank <= TOP_K else None
            check(got == want, f"{q.query_id}: search puts gold at {got}, report.json at {rank}")

        aligned = len(heldout) == len(ranks)
        self.tally.run("held-out count", check, aligned,
                       f"report.json has {len(ranks)} ranks for {len(heldout)} held-out queries")
        if not aligned:
            return
        for q, rank in zip(heldout, ranks):
            self.tally.run(f"held-out search {q.query_id}", one, q, rank)

    # ---- phases ----------------------------------------------------------

    def builds_for(self, budget_s: float, min_builds: int) -> tuple[list[float], Path | None]:
        """Cold builds until budget_s has passed and min_builds have run;
        keeps only the last workspace."""
        times: list[float] = []
        last: Path | None = None
        started = time.perf_counter()
        while len(times) < min_builds or time.perf_counter() - started < budget_s:
            out = self.tally.run("cold build", self.cold_build)
            if out is None:
                break
            times.append(seconds(out[0]))
            if last is not None:
                shutil.rmtree(last)
            last = out[1]
        return times, last

    def serve_work(self, ws: Path, pass_index: int) -> tuple[list, dict[str, list[Interval]]]:
        """No-op runs, a re-index pair and a search loop on a built workspace.
        Returns the runs' stage results and the samples of each kind."""
        results: list = []
        noops: list[Interval] = []
        for _ in range(NOOP_REPS):
            out = self.tally.run("no-op run", self.noop, ws)
            if out is not None:
                noops.append(out[0])
                results.extend(out[1])
        reindexes, reindexed = self.reindex_pair(ws)
        latencies = self.search_stream(ws, self.w.searches, pass_index)
        return results + reindexed, {"noop": noops, "reindex": reindexes, "search": latencies}

    def measure(self) -> dict[str, float]:
        """The untraced run: every end-to-end metric."""
        samples: dict[str, list[Interval]] = {
            k: [] for k in ("setup", "build", "noop", "reindex", "search")}
        ws: Path | None = None
        if self.w.http and self.tally.run("start stub", self.start_stub) is None:
            return {}
        deadline = time.perf_counter() + self.seconds - RESERVE_S
        # raw seconds of each cycle's build and of the rest of each cycle
        build_s: list[float] = []
        rest_s: list[float] = []
        cycle = 0
        probe = hostspeed.SpeedProbe().start()
        try:
            while True:
                build_now = ws is None or cycle % self.w.build_every == 0
                if cycle >= self.w.min_cycles:
                    left = deadline - time.perf_counter()
                    rest = statistics.mean(rest_s)
                    if build_now and rest + statistics.mean(build_s) > left:
                        build_now = False
                    if rest > left:
                        break
                cycle_started = time.perf_counter()
                setups = [self.tally.run("set-up", self.setup_once) for _ in range(SETUP_REPS)]
                if None in setups:
                    break
                samples["setup"].extend(iv for iv, _ in setups)
                built_s = 0.0
                if build_now:
                    self.config_path = setups[-1][1]
                    built = self.tally.run("cold build", self.cold_build)
                    if built is None:
                        break
                    samples["build"].append(built[0])
                    built_s = seconds(built[0])
                    build_s.append(built_s)
                    if ws is not None:
                        shutil.rmtree(ws)
                    ws = built[1]
                for key, values in self.serve_work(ws, cycle)[1].items():
                    samples[key].extend(values)
                rest_s.append(time.perf_counter() - cycle_started - built_s)
                cycle += 1
        finally:
            probe.stop()
        if ws is None:
            return {}
        self.check_heldout(ws)
        report = json.loads((ws / "report.json").read_text())
        metrics: dict[str, float] = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for k in (1, 5, 10):
            metrics[f"recall_at_{k}"] = float(report["recall"][f"R@{k}"])
        raw: dict[str, float] = {}
        for key in ("setup", "build", "noop", "reindex"):
            if samples[key]:
                metrics[f"{key}_s"] = statistics.median(
                    probe.corrected(*iv) for iv in samples[key])
                raw[f"{key}_s"] = statistics.median(seconds(iv) for iv in samples[key])
        lat = samples["search"]
        if lat:
            n = len(lat)
            corrected = [probe.corrected(*iv) for iv in lat]
            wall = [seconds(iv) for iv in lat]
            for q in (50, 99):
                metrics[f"search_p{q}_ms"] = 1000.0 * percentile(corrected, q / 100)
                raw[f"search_p{q}_ms"] = 1000.0 * percentile(wall, q / 100)
            self.notes.append(f"search: {n} samples, closed loop, one client; "
                              f"p99 leaves {n - math.ceil(0.99 * n)} samples beyond it")
        self.notes.append("samples: " + ", ".join(f"{k} {len(v)}" for k, v in samples.items())
                          + f" in {cycle} cycles")
        factors = [d / hostspeed.REFERENCE_PROBE_S for d in probe.durations]
        self.notes.append(
            f"host speed: {len(factors)} probes, slower than the reference by "
            f"{statistics.median(factors):.3f}x (median), "
            f"{percentile(factors, 0.1):.3f}x to {percentile(factors, 0.9):.3f}x (p10 to p90)")
        self.notes.extend(f"raw wall time {name:14s} {value:.6f} (corrected {metrics[name]:.6f})"
                          for name, value in raw.items())
        return metrics

    def measure_traced(self) -> dict[str, float]:
        """The traced run: the workload's focus untraced, then once traced."""
        if self.w.http and self.tally.run("start stub", self.start_stub) is None:
            return {}
        out = self.tally.run("set-up", self.setup_once)
        if out is None:
            return {}
        self.config_path = out[1]
        if self.w.focus == "build":
            times, ws = self.builds_for(0.5 * self.seconds, TRACE_BASELINE_BUILDS)
            if ws is None:
                return {}
            untraced_s = statistics.median(times)

            def traced() -> tuple[list, float, float]:
                elapsed, _, results = self.cold_build()
                return results, seconds(elapsed), seconds(elapsed)
        else:
            ws = self.builds_for(0.0, 1)[1]
            if ws is None:
                return {}
            started = time.perf_counter()
            self.serve_work(ws, 0)
            untraced_s = time.perf_counter() - started

            def traced() -> tuple[list, float, float]:
                started = time.perf_counter()
                results, samples = self.serve_work(ws, 1)
                return (results, sum(seconds(iv) for iv in samples["reindex"]),
                        time.perf_counter() - started)

        tracer = tracing.Tracer()
        instr = tracing.Instrumentation(tracer)
        if self.tally.run("install tracing", instr.install) is None:
            return {}
        served_before = self.stub_served()
        try:
            out = self.tally.run("traced run", traced)
        finally:
            instr.restore()
        if out is None:
            return {}
        results, pipeline_s, traced_s = out
        if self.stub is not None and instr.counts_attempts:
            served = self.stub_served() - served_before
            attempts = tracer.counters["httpjson.attempts"]
            self.tally.run("stub request count", check, served == attempts,
                           f"stub served {served} requests, httpjson made {attempts} attempts")
        self.tally.run("stage self time", check_stage_self_time, tracer)
        metrics = layer_metrics(tracer, results)
        metrics["bench.pipeline_s"] = pipeline_s
        metrics["bench.trace_overhead"] = traced_s / untraced_s - 1.0
        stage_sum = sum(metrics[name] for name, _ in _STAGE_METRICS)
        self.notes.append(
            f"traced {traced_s:.4f} s against untraced {untraced_s:.4f} s; stage times sum to "
            f"{stage_sum:.4f} s of {pipeline_s:.4f} s in run_pipeline")
        return metrics


def check_stage_self_time(tracer: tracing.Tracer) -> None:
    """The self times of a stage's direct children fit inside the stage."""
    selfs = tracing.self_times(tracer.spans)
    inside: dict[int, float] = {}
    for sp, own in zip(tracer.spans, selfs):
        if sp.parent is not None and tracer.spans[sp.parent].name.startswith("pipeline.stage."):
            inside[sp.parent] = inside.get(sp.parent, 0.0) + own
    for sid, total in inside.items():
        stage = tracer.spans[sid]
        check(total <= stage.end - stage.start + 1e-9,
              f"{stage.name}: children self time {total:.6f} s exceeds the stage")


def layer_metrics(tracer: tracing.Tracer, results: list) -> dict[str, float]:
    """Per-layer metrics: span counts and self times, counters, stage times."""
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    post_ms: list[float] = []
    post_failures = 0
    for sp, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
        calls[sp.name] = calls.get(sp.name, 0) + 1
        secs[sp.name] = secs.get(sp.name, 0.0) + own
        if sp.name == "httpjson.post_json":
            post_ms.append(1000.0 * (sp.end - sp.start))
            post_failures += sp.error
    c = tracer.counters
    lookups = calls.get("embed.cache_get", 0)
    posts = calls.get("httpjson.post_json", 0)
    derived = {
        "embed.cache_hit_ratio": c["embed.cache_get.hits"] / lookups if lookups else 0.0,
        "httpjson.post_json.p50_ms": percentile(post_ms, 0.5) if post_ms else 0.0,
        "httpjson.post_json.p99_ms": percentile(post_ms, 0.99) if post_ms else 0.0,
        "httpjson.retries": c["httpjson.attempts"] - posts,
        "httpjson.failures": post_failures,
        "pipeline.stages_fresh": sum(1 for r in results if r.status == "fresh"),
    }
    for stage in pipeline.STAGES:
        derived[f"pipeline.{stage}.s"] = sum(r.wall_time_s for r in results if r.stage == stage)
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif name in c:
            out[name] = c[name]
        elif stat == "calls":
            out[name] = calls.get(base, 0)
        elif stat == "s":
            out[name] = secs.get(base, 0.0)
        else:
            out[name] = 0
    return out
