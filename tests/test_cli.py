"""CLI surface: exit codes, command plumbing, output channels."""

import json
from pathlib import Path

import pytest

from tabret.cli import main

from test_pipeline import CONFIG_BODY, write_tiny_corpus


@pytest.fixture
def project(tmp_path) -> Path:
    write_tiny_corpus(tmp_path / "corpus.jsonl")
    (tmp_path / "config.yaml").write_text(CONFIG_BODY, encoding="utf-8")
    return tmp_path


class TestRunCommand:
    def test_full_run_exit_zero(self, project, capsys):
        code = main(["run", "--config", str(project / "config.yaml")])
        assert code == 0
        captured = capsys.readouterr()
        # progress goes to stderr; stdout stays clean for piping
        assert captured.out == ""
        assert "[ingest]" in captured.err
        assert "[eval]" in captured.err
        assert (project / "ws" / "report.json").exists()

    def test_single_stage(self, project, capsys):
        code = main(["run", "--config", str(project / "config.yaml"), "--stage", "ingest"])
        assert code == 0
        assert (project / "ws" / "corpus.jsonl").exists()
        assert not (project / "ws" / "instance_embeddings.bin").exists()

    def test_set_overrides_are_applied(self, project):
        code = main(
            [
                "run",
                "--config",
                str(project / "config.yaml"),
                "--set",
                "train.epochs=2",
                "--set",
                "workspace=ws2",
            ]
        )
        assert code == 0
        report = json.loads((project / "ws2" / "train_report.json").read_text())
        assert len(report["epoch_mean_losses"]) == 2

    def test_missing_config_exits_2(self, project, capsys):
        code = main(["run", "--config", str(project / "nope.yaml")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_value_exits_2(self, project, capsys):
        code = main(
            ["run", "--config", str(project / "config.yaml"), "--set", "mining.h=0"]
        )
        assert code == 2
        assert "mining" in capsys.readouterr().err

    def test_removed_clustering_tol_exits_2(self, project, capsys):
        config = project / "config.yaml"
        body = config.read_text().replace("  n_init: 2\n", "  n_init: 2\n  tol: 1.0e-6\n")
        assert "tol:" in body
        config.write_text(body)
        assert main(["run", "--config", str(config)]) == 2
        assert "clustering.tol: unknown key" in capsys.readouterr().err

    def test_missing_prerequisite_exits_3(self, project, capsys):
        code = main(
            ["run", "--config", str(project / "config.yaml"), "--stage", "cluster"]
        )
        assert code == 3
        assert "run stage 'ingest' first" in capsys.readouterr().err

    def test_torn_manifest_line_then_run_exits_zero(self, project):
        config = str(project / "config.yaml")
        assert main(["run", "--config", config]) == 0
        with (project / "ws" / "manifest.jsonl").open("a") as fh:
            fh.write('{"stage": "ev')
        assert main(["run", "--config", config]) == 0

    def test_corrupt_adapter_exits_3(self, project, capsys):
        config = str(project / "config.yaml")
        assert main(["run", "--config", config]) == 0
        adapter = project / "ws" / "adapter.bin"
        raw = bytearray(adapter.read_bytes())
        raw[20] ^= 0x01
        adapter.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["run", "--config", config, "--stage", "eval"]) == 3
        err = capsys.readouterr().err
        assert "checksum mismatch" in err and "rerun stage 'train'" in err

    def test_provider_failure_exits_4(self, project, capsys, monkeypatch):
        import tabret.embed as embed_module
        from tabret.httpjson import ProviderError

        def boom(url, body, headers=None, timeout=None):
            raise ProviderError("connection refused")

        monkeypatch.setattr(embed_module, "post_json", boom)
        code = main(
            [
                "run",
                "--config",
                str(project / "config.yaml"),
                "--set",
                "embedding.kind=http",
                "--set",
                "embedding.endpoint=http://dead.test",
            ]
        )
        assert code == 4
        assert "provider failure" in capsys.readouterr().err


    def test_non_finite_embedding_exits_4_and_caches_nothing(self, project, capsys, monkeypatch):
        import tabret.embed as embed_module

        def nan_vectors(url, body, headers=None, timeout=None):
            # a provider whose JSON says NaN (at the config's dim 32),
            # parsed as a response would be
            data = [{"index": i, "embedding": [float("nan")] * 32} for i in range(len(body["input"]))]
            return json.loads(json.dumps({"data": data}))

        monkeypatch.setattr(embed_module, "post_json", nan_vectors)
        code = main(
            [
                "run",
                "--config",
                str(project / "config.yaml"),
                "--set",
                "embedding.kind=http",
                "--set",
                "embedding.endpoint=http://nan.test",
            ]
        )
        assert code == 4
        assert "non-finite" in capsys.readouterr().err
        indexes = list((project / "ws").rglob("*.idx.jsonl"))
        assert all(p.read_text() == "" for p in indexes)
        assert not (project / "ws" / "instance_embeddings.bin").exists()


class TestCompareCommand:
    def test_table_on_stdout(self, project, capsys):
        code = main(
            [
                "compare",
                "--config",
                str(project / "config.yaml"),
                "--strategies",
                "kpt_random+hard+no-adapter,first_rows+hard+no-adapter",
            ]
        )
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert out_lines[0].split() == ["variant", "R@1", "R@5", "R@10", "queries"]
        assert out_lines[1].startswith("kpt_random-hard-no-adapter")
        assert out_lines[2].startswith("first_rows-hard-no-adapter")
        assert (project / "ws" / "compare_report.json").exists()

    def test_bad_strategy_exits_2(self, project, capsys):
        code = main(
            [
                "compare",
                "--config",
                str(project / "config.yaml"),
                "--strategies",
                "middle_rows",
            ]
        )
        assert code == 2
        assert "sampling strategy" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_and_prints(self, capsys):
        code = main(["gradcheck", "--dim", "5", "--triples", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "1e-4" in out

    def test_bad_step_fails(self, capsys):
        # a huge finite-difference step cannot match the analytic
        # gradient, so the command must signal failure
        code = main(["gradcheck", "--dim", "4", "--triples", "1", "--step", "0.5"])
        assert code == 1
