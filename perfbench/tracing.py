"""In-memory spans around tabret's layers, installed by patching call sites.

A traced run replaces each instrumented function *where it is looked
up*: ``pipeline`` imports most stage helpers by name, ``crc64`` is bound
into ``fsio``, ``embed`` and ``train``, ``embed_texts`` and
``adapter_apply`` into ``retrieval``, ``post_json`` into ``embed`` and
``querygen``. Patching only the defining module would miss those calls.
``Instrumentation.restore`` puts every original object back, so untraced
runs measure unpatched code. A call site the program no longer has is
skipped, and the metrics of that span read 0.

A span records its name, its parent, start and end on one monotonic
clock, and whether it raised. A span opened on a worker thread with no
open span of its own takes as parent the innermost open span of the
thread that created the tracer (the pool's caller). Self time is the
span's duration minus the union of the intervals its children cover,
so concurrent children are not subtracted twice.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: bool = False


class Tracer:
    """Collects spans and named counters for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        if stack:
            parent: int | None = stack[-1].sid
        else:
            owner = self._owner_stack
            parent = owner[-1].sid if owner else None
        with self._lock:
            sp = Span(sid=len(self.spans), parent=parent, name=name, start=self.clock())
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            sp.end = self.clock()
            stack.pop()

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            parent = spans[sp.parent]
            lo, hi = max(sp.start, parent.start), min(sp.end, parent.end)
            if hi > lo:
                children.setdefault(sp.parent, []).append((lo, hi))
    return [
        (sp.end - sp.start) - _union_length(children.get(sp.sid, [])) for sp in spans
    ]


class Instrumentation:
    """Installs traced wrappers at every call site; ``restore`` undoes it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[Callable[[], None]] = []
        # whether HTTP attempts are counted (httpjson sends through requests)
        self.counts_attempts = False

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        # vars() gives the raw class attribute, so restoring a method
        # puts back the plain function rather than a bound one
        original = vars(owner)[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every patched object, newest first."""
        while self._undo:
            self._undo.pop()()

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(
        self,
        owners: tuple[Any, ...],
        attr: str,
        name: str,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Wrap attr in every owner that has it, each around its own object."""
        for owner in owners:
            if attr in vars(owner):
                self._set(owner, attr, self.wrap(name, vars(owner)[attr], after))

    def install(self) -> "Instrumentation":
        """Patch every call site; on any error undo what was patched."""
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def _install(self) -> None:
        from tabret import cluster, config, embed, fsio, httpjson, pipeline
        from tabret import querygen, retrieval, train

        add = self.tracer.add
        tracer = self.tracer

        def count_bytes(key: str, size: Callable[[tuple, Any], int]) -> Callable:
            return lambda args, result: add(key, size(args, result))

        self.patch((fsio, embed, train), "crc64", "fsio.crc64",
                   count_bytes("fsio.crc64.bytes", lambda a, r: len(a[0])))
        self.patch((fsio,), "sha256_file", "fsio.sha256_file",
                   count_bytes("fsio.sha256_file.bytes", lambda a, r: os.path.getsize(a[0])))
        self.patch((fsio, train, retrieval), "atomic_write_bytes", "fsio.atomic_write",
                   count_bytes("fsio.atomic_write.bytes", lambda a, r: len(a[1])))
        self.patch((pipeline, retrieval), "read_matrix_bin", "fsio.matrix_read",
                   count_bytes("fsio.matrix_read.bytes", lambda a, r: os.path.getsize(a[0])))
        self.patch((pipeline, retrieval), "write_matrix_bin", "fsio.matrix_write",
                   count_bytes("fsio.matrix_write.bytes", lambda a, r: 16 + 8 * a[1].size))
        self.patch((fsio.Manifest,), "is_fresh", "fsio.manifest_is_fresh")

        # read_jsonl is a generator; the traced copy drains it inside its
        # span so the span covers the reading and parsing. Every caller
        # iterates the result exactly once, so draining early is safe.
        def drained(read_jsonl: Callable) -> Callable:
            @functools.wraps(read_jsonl)
            def traced_read_jsonl(*args: Any) -> Iterator[dict]:
                with tracer.span("fsio.read_jsonl"):
                    records = list(read_jsonl(*args))
                add("fsio.read_jsonl.records", len(records))
                return iter(records)

            return traced_read_jsonl

        for owner in (fsio, pipeline, retrieval):
            if "read_jsonl" in vars(owner):
                self._set(owner, "read_jsonl", drained(vars(owner)["read_jsonl"]))

        self.patch((embed.EmbeddingCache,), "get", "embed.cache_get",
                   lambda a, r: add("embed.cache_get.hits", r is not None))
        self.patch((embed.EmbeddingCache,), "put", "embed.cache_put",
                   count_bytes("embed.cache_put.bytes", lambda a, r: 4 + 8 * len(a[2]) + 8))
        self.patch((embed,), "mock_embed", "embed.mock_embed")
        self.patch((pipeline, retrieval), "embed_texts", "embed.embed_texts")
        self.patch((embed, querygen), "post_json", "httpjson.post_json")
        if "requests" in vars(httpjson):
            self._set(httpjson, "requests", _CountingRequests(httpjson.requests, add))
            self.counts_attempts = True

        self.patch((pipeline,), "cluster_table", "cluster.cluster_table",
                   lambda a, r: add("cluster.lloyd_iterations", r.iterations_run))
        self.patch((cluster,), "kmeans", "cluster.kmeans")
        self.patch((pipeline,), "build_kpts", "kpt.build_kpts")
        self.patch((pipeline,), "generate_all", "querygen.generate_all",
                   lambda a, r: add("querygen.questions", len(r[0])))
        self.patch((querygen,), "chat_complete", "querygen.chat_complete")
        self.patch((pipeline,), "mine_all", "mining.mine_all", _count_mining(add))
        self.patch((pipeline,), "train_adapter", "train.train",
                   lambda a, r: add("train.adam_steps", r[1].steps))
        self.patch((train,), "mean_loss", "train.mean_loss")
        self.patch((train,), "loss_and_grad", "train.loss_and_grad")
        self.patch((retrieval,), "adapter_apply", "train.adapter_apply")
        self.patch((retrieval,), "rank_tables", "retrieval.rank_tables")
        self.patch((retrieval,), "search", "retrieval.search")
        self.patch((pipeline,), "build_index", "retrieval.build_index")
        self.patch((pipeline,), "evaluate", "retrieval.evaluate")
        self.patch((pipeline, retrieval), "load_index", "retrieval.load_index")
        self.patch((pipeline,), "load_corpus", "corpus.load_corpus")
        self.patch((config,), "load_config", "config.load_config")
        self.patch((pipeline,), "run_pipeline", "pipeline.run_pipeline")

        # stage spans parent the layer spans of each stage
        stage_fns = vars(pipeline).get("_STAGE_FNS", {})
        for stage, fn in list(stage_fns.items()):
            self._undo.append(functools.partial(stage_fns.__setitem__, stage, fn))
            stage_fns[stage] = self.wrap(f"pipeline.stage.{stage}", fn)


def _count_mining(add: Callable[[str, float], None]) -> Callable[[tuple, Any], None]:
    """Queries mined and (query, candidate) pairs scored by the hard miner."""

    def after(args: tuple, result: Any) -> None:
        queries, _, pts, cfg = args[:4]
        add("mining.mine_all.queries", len(queries))
        if cfg.strategy != "hard":
            return
        per_table = Counter(pt.table_id for pt in pts)
        add("mining.pairs_scored", sum(len(pts) - per_table[q.table_id] for q in queries))

    return after


class _CountingRequests:
    """Stands in for the ``requests`` module inside httpjson and counts
    every HTTP attempt, retries included."""

    def __init__(self, real: Any, add: Callable[[str, float], None]) -> None:
        self._real = real
        self._add = add
        self.RequestException = real.RequestException

    def post(self, *args: Any, **kwargs: Any) -> Any:
        self._add("httpjson.attempts")
        return self._real.post(*args, **kwargs)
