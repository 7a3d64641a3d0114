"""Self-tests of the benchmark harness.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from tabret import cluster, config, corpus, embed, fsio, httpjson, pipeline  # noqa: E402
from tabret import querygen, retrieval, train  # noqa: E402
from tabret.httpjson import post_json  # noqa: E402


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 29])
def test_corpus_shape_per_workload(tmp_path, name, seed):
    w = bench.WORKLOADS[name]
    endpoint = "http://127.0.0.1:9" if w.http else None
    cfg = config.load_config(bench.write_inputs(w, seed, tmp_path, endpoint))
    tables = corpus.load_corpus(cfg.corpus_path).tables
    assert len(tables) == w.tables
    assert {len(t.instances) for t in tables} == {w.rows}
    r, k_max = cfg.clustering.r, cfg.clustering.k_max
    partial_tables = w.tables * cluster.adaptive_k(w.rows, cfg.clustering)
    tall_partial_tables = bench.WORKLOADS["tall"].tables * k_max
    if name == "tall":
        assert w.rows >= 2 * r * k_max and partial_tables == tall_partial_tables
    if name == "wide":
        assert w.rows <= 2 * r and partial_tables > 2 * tall_partial_tables
    if name == "serve":
        assert partial_tables >= 800
    assert cfg.seed == seed and cfg.train_enabled == w.train
    assert (cfg.embedding.kind == "http") == w.http == (cfg.genq.provider.kind == "http")


def test_same_seed_same_corpus_other_seed_differs(tmp_path):
    w = bench.WORKLOADS["tall"]

    def digest(seed, sub):
        path = bench.write_inputs(w, seed, tmp_path / sub, None).parent / "corpus.jsonl"
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert digest(5, "a") == digest(5, "b") != digest(6, "c")


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_children_once():
    # parent [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 8]
    tr = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 8, 10]))
    with tr.span("parent"):
        with tr.span("a"):
            with tr.span("g"):
                pass
        with tr.span("b"):
            pass
    names = [s.name for s in tr.spans]
    own = dict(zip(names, tracing.self_times(tr.spans)))
    assert own == {"parent": 4, "a": 2, "g": 1, "b": 3}
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]


def test_self_time_counts_overlapping_children_by_union():
    spans = [
        tracing.Span(0, None, "p", 0.0, 10.0),
        tracing.Span(1, 0, "c", 1.0, 6.0),
        tracing.Span(2, 0, "c", 3.0, 7.0),
        tracing.Span(3, 0, "c", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == [10.0 - 6.0 - 1.0, 5.0, 4.0, 3.0]


def test_worker_thread_span_takes_callers_open_span_as_parent():
    tr = tracing.Tracer()
    with tr.span("caller"):
        worker = threading.Thread(target=lambda: tr.span("worker").__enter__())
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert tr.spans[1].name == "worker" and tr.spans[1].parent == 0


def test_failed_span_is_marked():
    tr = tracing.Tracer()
    with pytest.raises(KeyError):
        with tr.span("boom"):
            raise KeyError("x")
    assert tr.spans[0].error and tr.spans[0].end >= tr.spans[0].start


_PATCHED = [
    (fsio, "crc64"), (embed, "crc64"), (train, "crc64"), (fsio, "sha256_file"),
    (fsio, "atomic_write_bytes"), (train, "atomic_write_bytes"),
    (retrieval, "atomic_write_bytes"), (fsio, "read_jsonl"), (pipeline, "read_jsonl"),
    (retrieval, "read_jsonl"), (pipeline, "read_matrix_bin"), (retrieval, "read_matrix_bin"),
    (pipeline, "write_matrix_bin"), (retrieval, "write_matrix_bin"),
    (fsio.Manifest, "is_fresh"), (embed.EmbeddingCache, "get"), (embed.EmbeddingCache, "put"),
    (embed, "mock_embed"), (pipeline, "embed_texts"), (retrieval, "embed_texts"),
    (embed, "post_json"), (querygen, "post_json"), (httpjson, "requests"),
    (pipeline, "cluster_table"), (cluster, "kmeans"), (pipeline, "build_kpts"),
    (pipeline, "generate_all"), (querygen, "chat_complete"), (pipeline, "mine_all"),
    (pipeline, "train_adapter"), (train, "mean_loss"), (train, "loss_and_grad"),
    (retrieval, "adapter_apply"), (retrieval, "rank_tables"), (retrieval, "search"),
    (pipeline, "build_index"), (pipeline, "evaluate"), (pipeline, "load_index"),
    (retrieval, "load_index"), (pipeline, "load_corpus"), (config, "load_config"),
    (pipeline, "run_pipeline"),
]


def test_install_patches_every_call_site_and_restore_undoes_it():
    before = {(id(o), a): vars(o)[a] for o, a in _PATCHED}
    stage_fns = dict(pipeline._STAGE_FNS)
    instr = tracing.Instrumentation(tracing.Tracer()).install()
    try:
        for owner, attr in _PATCHED:
            assert vars(owner)[attr] is not before[(id(owner), attr)], (owner, attr)
        assert all(pipeline._STAGE_FNS[s] is not fn for s, fn in stage_fns.items())
    finally:
        instr.restore()
    for owner, attr in _PATCHED:
        assert vars(owner)[attr] is before[(id(owner), attr)], (owner, attr)
    assert pipeline._STAGE_FNS == stage_fns


def _tiny():
    return bench.Workload(name="tiny", why="test", tables=6, rows=24, per_family=5, n_q=3,
                          holdout=1, searches=20, min_cycles=1)


def test_traced_build_writes_the_same_artifacts_and_counts_layers(tmp_path):
    run = bench.Run(_tiny(), 3, 1.0, tmp_path)
    run.config_path = run.setup_once()[1]
    run.cold_build()  # untraced reference digest
    tracer = tracing.Tracer()
    instr = tracing.Instrumentation(tracer).install()
    try:
        interval, ws, results = run.cold_build()  # raises CheckError on any difference
    finally:
        instr.restore()
    elapsed = bench.seconds(interval)
    metrics = bench.layer_metrics(tracer, results)
    assert set(metrics) == {name for name, _ in bench.PER_LAYER}
    assert metrics["cluster.kmeans.calls"] == 6
    assert metrics["embed.mock_embed.calls"] > 0 and metrics["fsio.crc64.bytes"] > 0
    assert metrics["httpjson.post_json.calls"] == 0
    assert metrics["cluster.lloyd_iterations"] == sum(
        rec["iterations_run"] for rec in fsio.read_jsonl(ws / "clusters.jsonl"))
    stage_sum = sum(metrics[f"pipeline.{s}.s"] for s in pipeline.STAGES)
    assert 0 < stage_sum <= elapsed
    bench.check_stage_self_time(tracer)
    assert run.tally.failed == 0


def test_stub_provider_answers_and_counts(tmp_path):
    stub = bench.StubProvider()
    try:
        body = post_json(stub.endpoint + "/v1/embeddings", {"model": "m", "input": ["a b", ""]})
        assert [len(d["embedding"]) for d in body["data"]] == [bench.DIM, bench.DIM]
        prompt = querygen.PROMPT_TEMPLATE.replace("{table_chunk}", "sku | zone\nsku: x1 | zone: n")
        prompt = prompt.replace("{questions_per_chunk}", "2").replace("{lang}", "en")
        chat = post_json(stub.endpoint + "/v1/chat/completions",
                         {"messages": [{"role": "user", "content": prompt}]})
        content = json.loads(chat["choices"][0]["message"]["content"])
        assert content == {"questions": ["Which table has sku x1?", "Which table has zone n?"]}
        assert stub.served() == 2
    finally:
        stub.stop()
    assert stub.proc.returncode is not None


def test_host_speed_correction_takes_out_probe_time_and_scales_by_nearby_probes():
    probe = hostspeed.SpeedProbe()
    ref = hostspeed.REFERENCE_PROBE_S
    # the host runs the probe twice as slow as the reference around t = 10 s
    # and at the reference speed around t = 20 s
    probe.starts = [10.0, 10.01, 20.0, 20.01]
    probe.durations = [2 * ref, 2 * ref, ref, ref]
    assert probe.factor(10.0, 10.02) == pytest.approx(2.0)
    assert probe.factor(20.0, 20.0) == pytest.approx(1.0)
    # both probes of a stretch fall inside [start, end): their time comes out
    assert probe.corrected(9.95, 10.05) == pytest.approx((0.1 - 4 * ref) / 2)
    assert probe.corrected(19.95, 20.05) == pytest.approx(0.1 - 2 * ref)
    # no probe near the interval: the run's mean speed
    assert probe.factor(15.0, 15.001) == pytest.approx(1.5)


def test_speed_probe_samples_while_started_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.SpeedProbe().start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert len(probe.durations) >= 5
    assert all(d > 0 for d in probe.durations) and probe.starts == sorted(probe.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert bench.percentile(values, 0.5) == 500
    assert bench.percentile(values, 0.99) == 990
    assert bench.percentile([7.0], 0.99) == 7.0


def test_benchmark_json_declares_what_the_runner_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in bench.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == bench.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
