"""scripts/stage_peaks.py: one figure per stage of a cold build, for each measure."""

import importlib.util
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
