"""scripts/stage_peaks.py: one figure per stage of a cold build and of a
re-index, for each measure."""

import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from tabret import pipeline

from test_pipeline import CONFIG_BODY, write_tiny_corpus

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stage_peaks.py"


@pytest.fixture
def peaks_script(monkeypatch):
    # the script pins BLAS threads in the environment when imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    spec = importlib.util.spec_from_file_location("stage_peaks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_stage_of_a_cold_build_gets_each_figure(peaks_script, tmp_path):
    # 6 tables of 12 rows at dim 32: 72 instance vectors, 18 KiB
    write_tiny_corpus(tmp_path / "corpus.jsonl")
    (tmp_path / "config.yaml").write_text(CONFIG_BODY, encoding="utf-8")
    stage_fns = dict(pipeline._STAGE_FNS)
    figures = {
        measure: peaks_script.stage_figures(tmp_path / "config.yaml", tmp_path / measure, measure)
        for measure in peaks_script.MEASURES
    }
    assert not tracemalloc.is_tracing()
    assert pipeline._STAGE_FNS == stage_fns
    for by_stage in figures.values():
        assert list(by_stage) == list(pipeline.STAGES)
    traced = figures["tracemalloc_peak_mb"]
    assert all(mb >= 0.0 for mb in traced.values())
    assert traced["embed"] >= 72 * 32 * 8 / 2**20
    rss = list(figures["rss_high_water_mb"].values())
    assert rss == sorted(rss) and rss[0] > 0.0


def test_the_second_child_of_each_measure_re_indexes_the_build(
    peaks_script, tmp_path, capsys, monkeypatch
):
    # the children's side of main: the first builds the measure's
    # workspace, the second re-indexes it, running index and eval only
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the checkout first
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    write_tiny_corpus(inputs / "corpus.jsonl")
    (inputs / "config.yaml").write_text(CONFIG_BODY, encoding="utf-8")
    for measure in peaks_script.MEASURES:
        argv = [str(SCRIPT.parent.parent), str(tmp_path), "--workload", "serve", "--seed", "1",
                "--measure", measure]
        runs = []
        for _ in ("build", "reindex"):
            assert peaks_script.main(argv) == 0
            runs.append(json.loads(capsys.readouterr().out))
        assert [list(run["stages"]) for run in runs] == [list(pipeline.STAGES), ["index", "eval"]]
        assert all(mb >= 0.0 for run in runs for mb in run["stages"].values())
    assert runs[1]["stages"]["eval"] >= runs[1]["stages"]["index"] >= runs[1]["rss_before_build_mb"]
