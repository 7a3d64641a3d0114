"""CLI surface: exit codes, command plumbing, output channels."""

import json
import shutil
from pathlib import Path

import pytest

import tabret.cli as cli_module
import tabret.pipeline as pipeline_module
from tabret.cli import main
from tabret.config import load_config
from tabret.fsio import WorkspaceLock, read_matrix_bin, write_matrix_bin
from tabret.pipeline import split_queries
from tabret.querygen import query_from_record
from tabret.train import TrainError

from test_fsio import LINE_FAULTS, full_disk_for, inject_fault, needs_dev_full
from test_pipeline import CONFIG_BODY, _entries, _tree, write_tiny_corpus


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

    def test_ctrl_c_exits_130_without_a_traceback(self, project, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "run_pipeline", interrupted)
        assert main(["run", "--config", str(project / "config.yaml")]) == 130
        assert capsys.readouterr().err == "interrupted; run the same command again to resume\n"

    def test_run_interrupted_in_a_stage_resumes_after_it(self, project, capsys, monkeypatch):
        def interrupted(run):
            raise KeyboardInterrupt

        monkeypatch.setitem(pipeline_module._STAGE_FNS, "kpt", interrupted)
        config = ["run", "--config", str(project / "config.yaml")]
        assert main(config) == 130
        monkeypatch.undo()
        capsys.readouterr()
        assert main(config) == 0
        err = capsys.readouterr().err
        assert all(f"[{st}] fresh" in err for st in ("ingest", "embed", "cluster"))
        assert "[kpt] done" in err

    def test_seeds_equal_modulo_2_to_the_64_are_one_build(self, project, capsys):
        # every stage draws from the seed's low 64 bits, and so does the hash
        config = ["run", "--config", str(project / "config.yaml")]
        assert main([*config, "--set", "seed=-1"]) == 0
        capsys.readouterr()
        assert main([*config, "--set", f"seed={2**64 - 1}"]) == 0
        err = capsys.readouterr().err
        assert [st for st in pipeline_module.STAGES if f"[{st}] fresh" not in err] == []

    def test_training_failure_exits_1_naming_the_stage(self, project, capsys, monkeypatch):
        def diverges(*args):
            raise TrainError("non-finite loss or gradient at triple q4")

        monkeypatch.setattr(pipeline_module, "train_adapter", diverges)
        assert main(["run", "--config", str(project / "config.yaml")]) == 1
        err = capsys.readouterr().err
        assert err.endswith("error: stage 'train': non-finite loss or gradient at triple q4\n")

    def test_locked_workspace_exits_1(self, project, capsys):
        with WorkspaceLock(project / "ws"):
            assert main(["run", "--config", str(project / "config.yaml")]) == 1
        err = capsys.readouterr().err
        assert f"error: workspace is locked by another run ({project / 'ws' / '.lock'})\n" == err
        assert main(["run", "--config", str(project / "config.yaml")]) == 0

    @needs_dev_full
    @pytest.mark.parametrize("name, stage", [("clusters.jsonl", "stage 'cluster': "),
                                             ("manifest.jsonl", "")])
    def test_full_disk_exits_1_naming_the_file_and_a_rerun_completes(
        self, project, capsys, monkeypatch, name, stage
    ):
        # a stage's own write names the stage; the manifest, written
        # after the stage, names only the file
        config = ["run", "--config", str(project / "config.yaml")]
        full_disk_for(monkeypatch, name)
        assert main(config) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("[")]
        assert errors == [f"error: {stage}[Errno 28] No space left on device: "
                          f"'{project / 'ws' / name}'"]
        monkeypatch.undo()
        assert main(config) == 0
        assert main([*config, "--set", "workspace=clean"]) == 0
        assert _tree(project / "ws") == _tree(project / "clean")
        assert _entries(project / "ws") == _entries(project / "clean")

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

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("chat.timeout=0", "chat: timeout must be a positive number of seconds"),
            ("chat.timeout=-1.5", "chat: timeout must be a positive number of seconds"),
            ("chat.timeout=.inf", "chat: timeout must be a positive number of seconds"),
            ("embedding.max_input_chars=0", "embedding: max_input_chars must be >= 1"),
            ("embedding.max_input_chars=-4", "embedding: max_input_chars must be >= 1"),
            ("embedding.max_parallel_requests=0", "embedding: max_parallel_requests must be >= 1"),
            ("chat.max_parallel_requests=0", "chat: max_parallel_requests must be >= 1"),
            ("embedding.dim=4", "embedding: mock embedding dim must be >= 8, got 4"),
            ("train.learning_rate=.nan", "train: learning_rate must be a positive finite number"),
            ("train.learning_rate=-0.5", "train: learning_rate must be a positive finite number"),
            ("train.adam_eps=-1", "train: adam_eps must be a positive finite number"),
            ("train.adam_beta1=1.0", "train: adam_beta1 and adam_beta2 must lie in [0, 1)"),
            ("train.adam_beta2=-0.1", "train: adam_beta1 and adam_beta2 must lie in [0, 1)"),
            ("train.tau=.inf", "train: tau must be a positive finite number"),
            ("train.tau=.nan", "train: tau must be a positive finite number"),
            ("workspace=corpus.jsonl", "corpus.jsonl is not a directory"),
            ("workspace=corpus.jsonl/ws", "corpus.jsonl is not a directory"),
            ("cache_dir=corpus.jsonl", "corpus.jsonl is not a directory"),
            ("genq.n_q=1", "genq.n_q >= 2 and eval.holdout_per_pt >= 1"),
            ("eval.holdout_per_pt=0", "genq.n_q >= 2 and eval.holdout_per_pt >= 1"),
        ],
    )
    def test_provider_setting_that_breaks_a_run_exits_2_at_load(
        self, project, capsys, setting, message
    ):
        code = main(["run", "--config", str(project / "config.yaml"), "--set", setting])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (project / "ws").exists()

    def test_max_retries_below_one_exits_2_naming_genq(self, project, capsys):
        code = main(
            ["run", "--config", str(project / "config.yaml"), "--set", "genq.max_retries=0"]
        )
        assert code == 2
        assert "genq: max_retries must be >= 1" in capsys.readouterr().err
        assert not (project / "ws").exists()

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
        indexes = list((project / "ws").rglob("*.idx"))
        assert all(p.stat().st_size == 0 for p in indexes)
        assert not (project / "ws" / "instance_embeddings.bin").exists()


def _cut_middle_line(path: Path) -> int:
    """Cut the middle line of a JSON Lines file in half; return its number."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) >= 3
    mid = len(lines) // 2
    lines[mid] = lines[mid][: len(lines[mid]) // 2] + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return mid + 1


class TestBadJsonLines:
    """A bad line in any JSON Lines file ends the run with an exit code and
    the file's path and line, never a traceback."""

    def test_bad_partial_table_line_exits_3_naming_kpt(self, project, capsys):
        config = str(project / "config.yaml")
        assert main(["run", "--config", config]) == 0
        line = _cut_middle_line(project / "ws" / "kpts.jsonl")
        capsys.readouterr()
        assert main(["run", "--config", config, "--stage", "genq"]) == 3
        err = capsys.readouterr().err
        assert f"kpts.jsonl:{line}: invalid JSON" in err and "rerun stage 'kpt'" in err

    def test_bad_workspace_corpus_line_exits_3_naming_ingest(self, project, capsys):
        config = str(project / "config.yaml")
        assert main(["run", "--config", config, "--stage", "ingest"]) == 0
        line = _cut_middle_line(project / "ws" / "corpus.jsonl")
        capsys.readouterr()
        assert main(["run", "--config", config, "--stage", "embed"]) == 3
        err = capsys.readouterr().err
        assert f"corpus.jsonl:{line}: invalid JSON" in err and "rerun stage 'ingest'" in err
        assert main(["run", "--config", config, "--stage", "ingest"]) == 0
        assert main(["run", "--config", config, "--stage", "embed"]) == 0

    def test_bad_source_corpus_line_still_exits_2(self, project, capsys):
        line = _cut_middle_line(project / "corpus.jsonl")
        code = main(["run", "--config", str(project / "config.yaml"), "--stage", "ingest"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"corpus.jsonl:{line}: invalid JSON" in err and "rerun" not in err

    def test_non_utf8_partial_table_line_exits_3_naming_kpt(self, project, capsys):
        config = str(project / "config.yaml")
        assert main(["run", "--config", config]) == 0
        kpts = project / "ws" / "kpts.jsonl"
        raw = bytearray(kpts.read_bytes())
        raw[raw.index(b"\n") + 5] = 0xFF  # inside line 2
        kpts.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["run", "--config", config, "--stage", "genq"]) == 3
        err = capsys.readouterr().err
        assert "kpts.jsonl:2: invalid UTF-8" in err and "rerun stage 'kpt'" in err

    def test_bad_manifest_line_exits_3_until_the_manifest_is_removed(self, project, capsys):
        config = str(project / "config.yaml")
        assert main(["run", "--config", config]) == 0
        manifest = project / "ws" / "manifest.jsonl"
        line = _cut_middle_line(manifest)
        capsys.readouterr()
        assert main(["run", "--config", config]) == 3
        err = capsys.readouterr().err
        assert f"manifest.jsonl:{line}:" in err and f"remove {manifest} and rerun" in err
        manifest.unlink()
        assert main(["run", "--config", config]) == 0

    def test_cache_entry_past_the_bin_exits_3_until_the_cache_is_removed(self, project, capsys):
        config = str(project / "config.yaml")
        assert main(["run", "--config", config]) == 0
        (index,) = (project / "ws").rglob("*.v3.idx")
        end = index.with_suffix(".bin").stat().st_size
        with index.open("ab") as fh:
            fh.write(bytes(32) + end.to_bytes(8, "little"))
        capsys.readouterr()
        flip = ["run", "--config", config, "--set", "retrieval.fusion=mean"]
        assert main(flip) == 3
        err = capsys.readouterr().err
        assert f"{index}: an entry points at offset {end}, past the end" in err
        assert f"remove the embedding cache {index.parent} and rerun stage 'index'" in err
        for path in index.parent.iterdir():
            path.unlink()
        assert main(flip) == 0

    @pytest.mark.parametrize(
        "line, problem",
        [
            ('{"key": "K"}', "field 'offset': missing"),
            ('{"key": "K", "offset": "0"}', "field 'offset': expected int"),
            ('{"key": "K", "offset": -5}', "offset -5 is outside"),
            ('{"key": 3, "offset": 0}', "field 'key': expected str"),
        ],
    )
    def test_bad_old_cache_index_line_exits_3(self, project, capsys, line, problem):
        """A format-2 index line that the migration cannot take ends the run
        with exit 3 and the remedy, never a traceback."""
        config = str(project / "config.yaml")
        assert main(["run", "--config", config]) == 0
        (new_bin,) = (project / "ws").rglob("*.v3.bin")
        stem = new_bin.name.removesuffix(".v3.bin")
        old_idx = new_bin.with_name(f"{stem}.v2.idx.jsonl")
        new_bin.with_name(f"{stem}.v2.bin").write_bytes(bytes(64))
        old_idx.write_text(line.replace("K", "0" * 64) + "\n")
        capsys.readouterr()
        assert main(["run", "--config", config, "--set", "retrieval.fusion=mean"]) == 3
        err = capsys.readouterr().err
        assert f"{old_idx}:1: {problem}" in err and "Traceback" not in err
        assert f"remove the embedding cache {new_bin.parent} and rerun stage 'index'" in err

    def test_bad_gold_line_exits_2(self, project, capsys):
        gold = project / "gold.jsonl"
        gold.write_text(
            '{"query": "part 0 model 1", "gold_table_id": "t00"}\n["t03"]\n', encoding="utf-8"
        )
        code = main(["run", "--config", str(project / "config.yaml"),
                     "--set", "eval.gold_path=gold.jsonl"])
        assert code == 2
        assert "gold.jsonl:2: expected a JSON object" in capsys.readouterr().err

    def test_non_utf8_jsonl_corpus_exits_2_naming_file_and_line(self, project, capsys):
        corpus = project / "corpus.jsonl"
        raw = bytearray(corpus.read_bytes())
        raw[raw.index(b"\n") + 5] = 0xFF  # inside line 2
        corpus.write_bytes(bytes(raw))
        code = main(["run", "--config", str(project / "config.yaml"), "--stage", "ingest"])
        assert code == 2
        assert f"{corpus}:2: invalid UTF-8" in capsys.readouterr().err

    def test_lone_surrogate_in_a_jsonl_corpus_exits_2_naming_file_and_line(self, project, capsys):
        corpus = project / "corpus.jsonl"
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        table = json.loads(lines[1])
        table["rows"][0][0] = "bolt \ud800"
        lines[1] = json.dumps(table) + "\n"  # ASCII, so the surrogate is a \ud800 escape
        corpus.write_text("".join(lines), encoding="utf-8")
        code = main(["run", "--config", str(project / "config.yaml"), "--stage", "ingest"])
        assert code == 2
        assert f"{corpus}:2: lone surrogate '\\ud800' is not Unicode text" in capsys.readouterr().err
        assert not (project / "ws" / "corpus.jsonl").exists()

    def test_lone_surrogate_in_a_chat_reply_exits_4(self, project, capsys, monkeypatch):
        import tabret.querygen as querygen_module

        def reply(url, body, headers=None, timeout=None):
            content = json.dumps({"questions": ["Which part is \ud800?", "Which part is x?"]})
            return json.loads(json.dumps({"choices": [{"message": {"content": content}}]}))

        monkeypatch.setattr(querygen_module, "post_json", reply)
        code = main(["run", "--config", str(project / "config.yaml"),
                     "--set", "chat.kind=http", "--set", "chat.endpoint=http://chat.test"])
        assert code == 4
        assert "chat reply holds a lone surrogate '\\ud800'" in capsys.readouterr().err
        assert not (project / "ws" / "queries.jsonl").exists()


REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def demo_built(tmp_path_factory) -> Path:
    """The demo project, built once; tests run it on copies of its workspace."""
    root = tmp_path_factory.mktemp("demo")
    for name in ("config.yaml", "corpus.jsonl"):
        shutil.copy(REPO / "data" / "demo" / name, root)
    assert main(["run", "--config", str(root / "config.yaml")]) == 0
    return root


@pytest.fixture
def demo(demo_built, tmp_path):
    """Runs tabret on a fresh copy of the built demo workspace."""
    workspace = tmp_path / "workspace"
    shutil.copytree(demo_built / "workspace", workspace)

    def run(*args: str) -> int:
        config = str(demo_built / "config.yaml")
        return main(["run", "--config", config, "--set", f"workspace={workspace}", *args])

    run.workspace = workspace
    return run


def _demo_tables() -> list[dict]:
    return [json.loads(line) for line in (REPO / "data" / "demo" / "corpus.jsonl").open()]


def _write_corpus(path: Path, tables: list[dict]) -> str:
    path.write_text("".join(json.dumps(t) + "\n" for t in tables), encoding="utf-8")
    return f"corpus.path={path}"


class TestOutdatedInputs:
    """A single-stage run whose input was made from older inputs or settings
    exits 3, naming the stage to run first."""

    @staticmethod
    def assert_outdated(capsys, run, stage: str, artifact: str, producer: str, *args: str):
        capsys.readouterr()
        assert run("--stage", stage, *args) == 3
        err = capsys.readouterr().err
        assert (
            f"stage '{stage}': {artifact} was made from older inputs or settings; "
            f"run stage '{producer}' first"
        ) in err

    def test_train_after_regenerated_queries_names_mine(self, demo, capsys):
        assert demo("--stage", "genq", "--set", "genq.n_q=3") == 0
        self.assert_outdated(
            capsys, demo, "train", "triples.jsonl", "mine", "--set", "genq.n_q=3"
        )

    def test_kpt_after_ingesting_a_shorter_table_names_cluster(self, demo, capsys, tmp_path):
        tables = _demo_tables()
        tables[0]["rows"] = tables[0]["rows"][:-3]
        corpus = _write_corpus(tmp_path / "shorter.jsonl", tables)
        assert demo("--stage", "ingest", "--set", corpus) == 0
        self.assert_outdated(capsys, demo, "kpt", "clusters.jsonl", "cluster", "--set", corpus)

    def test_eval_after_rebuilding_partial_tables_names_index(self, demo, capsys, tmp_path):
        tables = [{**t, "table_id": "z" + t["table_id"]} for t in _demo_tables()]
        corpus = _write_corpus(tmp_path / "renamed.jsonl", tables)
        for stage in ("ingest", "embed", "cluster", "kpt", "genq"):
            assert demo("--stage", stage, "--set", corpus) == 0, stage
        self.assert_outdated(
            capsys, demo, "eval", "index/entries.jsonl", "index", "--set", corpus
        )

    def test_cluster_after_renaming_a_table_names_embed(self, demo, capsys, tmp_path):
        # every row count is kept, so only the manifest can tell
        tables = _demo_tables()
        tables[1]["table_id"] = "renamed"
        corpus = _write_corpus(tmp_path / "renamed.jsonl", tables)
        assert demo("--stage", "ingest", "--set", corpus) == 0
        self.assert_outdated(
            capsys, demo, "cluster", "instance_embeddings.bin", "embed", "--set", corpus
        )
        assert demo("--stage", "embed", "--set", corpus) == 0
        assert demo("--stage", "cluster", "--set", corpus) == 0

    def test_eval_under_other_index_settings_names_index(self, demo, capsys):
        self.assert_outdated(
            capsys, demo, "eval", "index/entries.jsonl", "index", "--set", "retrieval.fusion=mean"
        )
        assert demo("--stage", "index", "--set", "retrieval.fusion=mean") == 0
        assert demo("--stage", "eval", "--set", "retrieval.fusion=mean") == 0

    def test_damaged_input_is_left_to_its_reader(self, demo, capsys):
        # kpts.jsonl no longer hashes as kpt recorded it: damage, not a rewrite
        kpts = demo.workspace / "kpts.jsonl"
        kpts.write_text(kpts.read_text().replace('"text": "', '"text": "X', 1))
        capsys.readouterr()
        assert demo("--stage", "mine") == 0
        assert "was made from older" not in capsys.readouterr().err

    def test_noop_and_full_runs_are_unaffected(self, demo, capsys):
        assert demo() == 0
        assert "[eval] fresh" in capsys.readouterr().err


def _replace_line(path: Path, line_no: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[line_no - 1] = json.dumps(edit(json.loads(lines[line_no - 1]))) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


class TestDamagedRecords:
    """A workspace record that parses but lacks a field, or holds one of
    the wrong type, exits 3 naming its file, its line and the stage to rerun."""

    @pytest.mark.parametrize(
        "name, field, value, stage, producer",
        [
            ("kpts.jsonl", "row_indices", ["1"], "genq", "kpt"),
            ("queries.jsonl", "text", None, "mine", "genq"),
            ("triples.jsonl", "negative_pt_ids", "table_01#kpt_random#0", "train", "mine"),
            ("clusters.jsonl", "k", 2.0, "kpt", "cluster"),
            ("index/entries.jsonl", "table_id", 7, "eval", "index"),
        ],
    )
    def test_ill_typed_field_exits_3(self, demo, capsys, name, field, value, stage, producer):
        _replace_line(demo.workspace / name, 2, lambda rec: {**rec, field: value})
        capsys.readouterr()
        assert demo("--stage", stage) == 3
        err = capsys.readouterr().err
        assert f"{name}:2: field {field!r}: expected " in err
        assert err.rstrip().endswith(f"; rerun stage '{producer}'")

    def test_partial_table_without_table_id_exits_3_naming_kpt(self, demo, capsys):
        _replace_line(demo.workspace / "kpts.jsonl", 4, lambda rec: {"pt_id": "x"})
        capsys.readouterr()
        assert demo("--stage", "genq") == 3
        err = capsys.readouterr().err
        assert "kpts.jsonl:4: field 'table_id': missing; rerun stage 'kpt'" in err

    @pytest.mark.parametrize(
        "name, edit, stage, problem, producer",
        [
            ("kpts.jsonl", lambda rec: {**rec, "strategy": "bogus"}, "genq",
             "unknown strategy 'bogus'", "kpt"),
            ("clusters.jsonl", lambda rec: {**rec, "labels": rec["labels"][:-1]}, "kpt",
             "labels and ", "cluster"),
            ("clusters.jsonl", lambda rec: {**rec, "labels": [rec["k"]] * len(rec["labels"])},
             "kpt", "labels must lie in range(k)", "cluster"),
            ("clusters.jsonl", lambda rec: {**rec, "labels": [0] * len(rec["labels"])},
             "kpt", "cluster 1 of k = 3 has no row", "cluster"),
            ("clusters.jsonl", lambda rec: {**rec, "table_id": "nope"}, "kpt",
             "table 'nope' is not in corpus.jsonl", "cluster"),
            ("queries.jsonl", lambda rec: {**rec, "query_id": rec["query_id"].replace("#q", "-q")},
             "mine", "does not end in #q<ordinal>", "genq"),
            ("queries.jsonl", lambda rec: {**rec, "query_id": rec["query_id"][:-1] + "x"},
             "eval", "does not end in #q<ordinal>", "genq"),
            ("triples.jsonl", lambda rec: {**rec, "query_id": "nope#q0"}, "train",
             "query 'nope#q0' is not a training query of queries.jsonl", "mine"),
            ("triples.jsonl", lambda rec: {**rec, "positive_pt_id": "nope#f"}, "train",
             "partial table 'nope#f' is not in kpts.jsonl", "mine"),
            ("triples.jsonl",
             lambda rec: {**rec, "negative_pt_ids": [*rec["negative_pt_ids"][1:], "nope#f"]},
             "train", "partial table 'nope#f' is not in kpts.jsonl", "mine"),
            ("triples.jsonl", lambda rec: {**rec, "positive_pt_id": rec["negative_pt_ids"][0]},
             "train", "is not the partial table ", "mine"),
            ("triples.jsonl",
             lambda rec: {**rec, "negative_pt_ids": [rec["positive_pt_id"],
                                                     *rec["negative_pt_ids"][1:]]},
             "train", "comes from the query's own table ", "mine"),
        ],
        ids=["bogus-strategy", "labels-one-short", "label-out-of-range", "empty-cluster",
             "table-the-corpus-lacks", "query-id-without-ordinal",
             "query-ordinal-not-a-number", "triple-of-an-unknown-query",
             "triple-with-an-unknown-positive", "triple-with-an-unknown-negative",
             "triple-whose-positive-is-another-partial-table",
             "triple-with-a-negative-from-the-query-table"],
    )
    def test_invalid_value_exits_3(self, demo, capsys, name, edit, stage, problem, producer):
        _replace_line(demo.workspace / name, 2, edit)
        capsys.readouterr()
        assert demo("--stage", stage) == 3
        err = capsys.readouterr().err
        assert f"{name}:2: " in err and problem in err
        assert err.rstrip().endswith(f"; rerun stage '{producer}'")

    @pytest.mark.parametrize(
        "name, key, stage, producer",
        [("clusters.jsonl", "table_id", "kpt", "cluster"),
         ("kpts.jsonl", "pt_id", "genq", "kpt"), ("kpts.jsonl", "pt_id", "index", "kpt"),
         ("queries.jsonl", "query_id", "mine", "genq"),
         ("triples.jsonl", "query_id", "train", "mine")],
    )
    def test_repeated_id_exits_3(self, demo, capsys, name, key, stage, producer):
        # a copy of the first line appended: one id twice
        path = demo.workspace / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines + lines[:1]), encoding="utf-8")
        capsys.readouterr()
        assert demo("--stage", stage) == 3
        err = capsys.readouterr().err
        repeated = json.loads(lines[0])[key]
        assert f"{name}:{len(lines) + 1}: repeated {key} {repeated!r}; " in err
        assert err.rstrip().endswith(f"; rerun stage '{producer}'")

    @pytest.mark.parametrize(
        "name, damage, stage, problem, producer",
        [
            ("instance_embeddings.bin",
             lambda path: write_matrix_bin(path, read_matrix_bin(path)[:-1]),
             "cluster", "rows, but corpus.jsonl has ", "embed"),
            ("clusters.jsonl",
             lambda path: path.write_text("".join(path.read_text().splitlines(True)[1:])),
             "kpt", "no clustering of 'table_00'", "cluster"),
            # no writer leaves these empty, so an empty one is damage
            *[(name, lambda path: path.write_text(""), stage, "no records", producer)
              for name, producer, stages in (
                  ("triples.jsonl", "mine", ("train",)),
                  ("kpts.jsonl", "kpt", ("genq", "mine", "train", "index")),
                  ("queries.jsonl", "genq", ("mine", "train", "index", "eval")))
              for stage in stages],
        ],
        ids=["instance-rows-disagree-with-the-corpus", "table-missing-from-clusters",
             "emptied-triples", "emptied-kpts-genq", "emptied-kpts-mine", "emptied-kpts-train",
             "emptied-kpts-index", "emptied-queries-mine", "emptied-queries-train",
             "emptied-queries-index", "emptied-queries-eval"],
    )
    def test_file_that_disagrees_exits_3(self, demo, capsys, name, damage, stage, problem,
                                         producer):
        damage(demo.workspace / name)
        capsys.readouterr()
        assert demo("--stage", stage) == 3
        err = capsys.readouterr().err
        assert f"error: stage '{stage}': " in err
        assert f"{name}: " in err and problem in err
        assert err.rstrip().endswith(f"; rerun stage '{producer}'")

    def test_heldout_query_naming_no_indexed_table_exits_3_naming_genq(self, demo, capsys):
        queries = demo.workspace / "queries.jsonl"
        records = [json.loads(line) for line in queries.read_text().splitlines()]
        queries.write_text("".join(json.dumps({**r, "table_id": "nope"}) + "\n" for r in records))
        assert demo("--stage", "index") == 0
        capsys.readouterr()
        assert demo("--stage", "eval") == 3
        err = capsys.readouterr().err
        assert "error: stage 'eval': " in err and "queries.jsonl: held-out query '" in err
        assert "names table 'nope', which is not in the index; rerun stage 'genq'" in err

    def test_triple_of_a_heldout_query_exits_3_naming_mine(self, demo, demo_built, capsys):
        # held-out queries must never feed training
        lines = (demo.workspace / "queries.jsonl").read_text().splitlines()
        holdout = load_config(demo_built / "config.yaml").eval.holdout_per_pt
        _, heldout = split_queries([query_from_record(json.loads(x)) for x in lines], holdout)
        held_id = heldout[0].query_id
        _replace_line(demo.workspace / "triples.jsonl", 2, lambda rec: {**rec, "query_id": held_id})
        capsys.readouterr()
        assert demo("--stage", "train") == 3
        err = capsys.readouterr().err
        assert f"triples.jsonl:2: query {held_id!r} is not a training query of queries.jsonl" in err
        assert err.rstrip().endswith("; rerun stage 'mine'")

    @pytest.mark.parametrize("fault", LINE_FAULTS)
    @pytest.mark.parametrize(
        "name, stage, producer", [("kpts.jsonl", "genq", "kpt"), ("queries.jsonl", "mine", "genq")]
    )
    def test_line_that_is_no_record_exits_3(self, demo, capsys, name, stage, producer, fault):
        line = inject_fault(demo.workspace / name, fault)
        capsys.readouterr()
        assert demo("--stage", stage) == 3
        err = capsys.readouterr().err
        assert f"{name}:{line}: {LINE_FAULTS[fault][1]}" in err
        assert err.rstrip().endswith(f"; rerun stage '{producer}'")

    def test_index_meta_with_an_unknown_fusion_exits_3_naming_index(self, demo, capsys):
        meta = demo.workspace / "index" / "meta.json"
        meta.write_text(meta.read_text().replace('"fusion": "max"', '"fusion": "bogus"'))
        capsys.readouterr()
        assert demo("--stage", "eval") == 3
        err = capsys.readouterr().err
        assert 'meta.json: fusion is "bogus", expected "max" or "mean"; rerun stage ' \
               "'index'" in err

    def test_index_without_entries_exits_3_naming_index(self, demo, capsys):
        index = demo.workspace / "index"
        (index / "entries.jsonl").write_text("")
        write_matrix_bin(index / "vectors.bin", read_matrix_bin(index / "vectors.bin")[:0])
        capsys.readouterr()
        assert demo("--stage", "eval") == 3
        err = capsys.readouterr().err
        assert f"{index / 'entries.jsonl'}: an index needs at least one entry; " \
               "rerun stage 'index'" in err

    @pytest.mark.parametrize(
        "old, new, problem",
        [
            ('"has_adapter": true', '"has_adapter": false', "has_adapter is false, expected true"),
            ('"dim": 128', '"dim": 64', "dim is 64, expected 128"),
            ('"fusion": "max",', '"x": 0,', "fusion is missing"),
            ('"fusion": "max"', '"fusion": ["max"]', 'fusion is ["max"]'),
            ('"representation_mode": "pt_only"', '"x": 0', "representation_mode is missing"),
            ('"representation_mode": "pt_only"', '"representation_mode": null',
             "representation_mode is null"),
        ],
    )
    def test_index_meta_that_disagrees_with_the_run_exits_3_naming_index(
        self, demo, capsys, old, new, problem
    ):
        meta = demo.workspace / "index" / "meta.json"
        assert old in meta.read_text()
        meta.write_text(meta.read_text().replace(old, new))
        capsys.readouterr()
        assert demo("--stage", "eval") == 3
        err = capsys.readouterr().err
        assert f"error: stage 'eval': {meta}: {problem}" in err
        assert err.rstrip().endswith("; rerun stage 'index'")

    def test_repeated_index_entry_exits_3_naming_index(self, demo, capsys):
        entries = demo.workspace / "index" / "entries.jsonl"
        first = json.loads(entries.read_text().splitlines()[0])
        _replace_line(entries, 2, lambda rec: {**rec, "pt_id": first["pt_id"]})
        capsys.readouterr()
        assert demo("--stage", "eval") == 3
        err = capsys.readouterr().err
        assert "entries.jsonl: pt_id entries must be unique; rerun stage 'index'" in err

    @pytest.mark.parametrize("body", ["{not json", "[1, 2]"])
    def test_index_meta_that_is_no_json_object_exits_3_naming_index(self, demo, capsys, body):
        (demo.workspace / "index" / "meta.json").write_text(body)
        capsys.readouterr()
        assert demo("--stage", "eval") == 3
        err = capsys.readouterr().err
        assert "meta.json: " in err and err.rstrip().endswith("; rerun stage 'index'")


class TestNothingToPassOn:
    """A stage that would leave the next one nothing to read exits without
    recording, so rerunning the stage the next one names cannot loop."""

    def test_one_table_corpus_exits_2_naming_a_remedy(self, demo, capsys, tmp_path):
        corpus = _write_corpus(tmp_path / "one.jsonl", _demo_tables()[:1])
        for _ in range(2):
            capsys.readouterr()
            assert demo("--set", corpus) == 2
            err = capsys.readouterr().err
            assert "error: stage 'mine': no query has a partial table of another " in err
            assert "set train.enabled=false or use a corpus of at least two tables" in err
        assert demo("--set", corpus, "--set", "train.enabled=false") == 0

    def test_genq_without_a_usable_question_exits_4(self, project, capsys, monkeypatch):
        import tabret.querygen as querygen_module

        def reply(url, body, headers=None, timeout=None):
            return {"choices": [{"message": {"content": "no questions here"}}]}

        monkeypatch.setattr(querygen_module, "post_json", reply)
        args = ["run", "--config", str(project / "config.yaml"),
                "--set", "chat.kind=http", "--set", "chat.endpoint=http://chat.test"]
        for _ in range(2):
            capsys.readouterr()
            assert main(args) == 4
            err = capsys.readouterr().err
            assert "stage 'genq': the chat provider gave no usable questions for any " in err
        assert not (project / "ws" / "queries.jsonl").exists()


class TestGoldFile:
    """A gold file the index cannot score exits 2, naming the file and line."""

    @pytest.mark.parametrize(
        "row, problem",
        [
            ({"query": "what is in stock", "gold_table_id": "no_such_table"},
             "gold table id 'no_such_table' is not in the index"),
            ({"query": ["x"], "gold_table_id": "table_00"},
             "field 'query': expected str"),
        ],
    )
    def test_unusable_gold_row_exits_2(self, demo, capsys, tmp_path, row, problem):
        gold = tmp_path / "gold.jsonl"
        good = {"query": "alloy valve assembly", "gold_table_id": "table_00"}
        gold.write_text(json.dumps(good) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert demo("--set", f"eval.gold_path={gold}") == 2
        assert f"{gold}:2: {problem}" in capsys.readouterr().err


def _empty_corpus(tmp_path: Path) -> tuple[list[str], str]:
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    return [f"corpus.path={path}"], f"stage 'ingest': {path}: holds no table"


def _bad_last_table(tmp_path: Path, table: dict, problem: str) -> tuple[list[str], str]:
    """The demo corpus with one more table, which ingest rejects at its line."""
    path = tmp_path / "bad.jsonl"
    tables = [*_demo_tables(), table]
    return [_write_corpus(path, tables)], f"stage 'ingest': {path}:{len(tables)}: {problem}"


def _rowless_jsonl_table(tmp_path: Path) -> tuple[list[str], str]:
    table = {"table_id": "empty_t", "header": ["a"], "rows": []}
    return _bad_last_table(tmp_path, table, "table 'empty_t' has no rows")


def _headerless_table(tmp_path: Path) -> tuple[list[str], str]:
    table = {"table_id": "bare_t", "header": [], "rows": [[]]}
    return _bad_last_table(tmp_path, table, "table 'bare_t': header must be non-empty")


def _row_wider_than_header(tmp_path: Path) -> tuple[list[str], str]:
    table = {"table_id": "wide_t", "header": ["a"], "rows": [["1", "2"]]}
    return _bad_last_table(tmp_path, table, "table 'wide_t' row 0: 2 cells under a 1-column header")


def _repeated_table_id(tmp_path: Path) -> tuple[list[str], str]:
    table = _demo_tables()[0]
    return _bad_last_table(tmp_path, table, f"duplicate table_id {table['table_id']!r}")


def _empty_gold(tmp_path: Path) -> tuple[list[str], str]:
    path = tmp_path / "gold.jsonl"
    path.write_text("", encoding="utf-8")
    return [f"eval.gold_path={path}"], f"stage 'eval': no evaluation queries: {path} holds none"


def _directory_as_corpus(tmp_path: Path) -> tuple[list[str], str]:
    return [f"corpus.path={tmp_path}"], f"corpus.path: {tmp_path} is a directory, expected a file"


def _directory_as_gold(tmp_path: Path) -> tuple[list[str], str]:
    return [f"eval.gold_path={tmp_path}"], (
        f"eval.gold_path: {tmp_path} is a directory, expected a file")


class TestUnusableInput:
    """A corpus or gold path that gives nothing to run on exits 2, naming
    the path (and, in a JSON Lines file, the line): a directory when the
    config loads, a file at the stage that reads it."""

    @pytest.mark.parametrize(
        "make_input",
        [_empty_corpus, _rowless_jsonl_table, _headerless_table, _row_wider_than_header,
         _repeated_table_id, _empty_gold, _directory_as_corpus, _directory_as_gold],
    )
    def test_unusable_input_exits_2_naming_its_path(self, demo, capsys, tmp_path, make_input):
        settings, problem = make_input(tmp_path)
        capsys.readouterr()
        assert demo(*(arg for setting in settings for arg in ("--set", setting))) == 2
        assert problem in capsys.readouterr().err


class TestSourceThatAStageWrites:
    """A corpus or gold file that a stage writes would leave that stage
    outdated by its own output on every run, so the run exits 2 first."""

    @pytest.mark.parametrize(
        "setting, name, writer",
        [("corpus.path", "corpus.jsonl", "ingest"),
         ("eval.gold_path", "workspace/queries.jsonl", "genq")],
    )
    def test_exits_2_naming_the_setting_the_file_and_its_writer(
        self, tmp_path, capsys, setting, name, writer
    ):
        # the demo layout; its corpus is the workspace's own with the
        # project directory as the workspace
        for file in ("config.yaml", "corpus.jsonl"):
            shutil.copy(REPO / "data" / "demo" / file, tmp_path)
        corpus = (tmp_path / "corpus.jsonl").read_bytes()
        setting_value = "workspace=." if setting == "corpus.path" else f"{setting}={name}"
        args = ["run", "--config", str(tmp_path / "config.yaml"), "--set", setting_value]
        for _ in range(2):
            capsys.readouterr()
            assert main(args) == 2
            assert (f"error: {setting}: {tmp_path.resolve() / name} is a file that stage "
                    f"'{writer}' writes; ") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "corpus.jsonl"]
        assert (tmp_path / "corpus.jsonl").read_bytes() == corpus


class TestEmbeddingDim:
    def test_other_dim_under_the_same_model_name_exits_3_naming_the_setting(self, demo, capsys):
        # the mock's vectors depend on dim, and the cache keys them by
        # (model_name, text): the cache is sound, but holds dim 128
        capsys.readouterr()
        assert demo("--set", "embedding.dim=64") == 3
        err = capsys.readouterr().err
        assert ("the cache holds 'mock-128''s vectors at dim 128, not embedding.dim 64; "
                "each dim needs its own embedding.model_name") in err
        assert "error: stage 'embed': " in err and "remove" not in err
        assert demo("--set", "embedding.dim=64", "--set", "embedding.model_name=mock-64") == 0


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

    @pytest.mark.parametrize("flag, value, message", [
        ("--step", "0", "argument --step: must be finite and nonzero, got 0"),
        ("--step", "nan", "argument --step: must be finite and nonzero, got nan"),
        ("--step", "inf", "argument --step: must be finite and nonzero, got inf"),
        ("--step", "-inf", "argument --step: must be finite and nonzero, got -inf"),
        ("--triples", "0", "argument --triples: must be >= 1, got 0"),
        ("--dim", "1", "argument --dim: must be >= 2, got 1: at dim 1 every adapted vector "
                       "is +1 or -1, so the loss is flat in W and nothing is checked"),
        ("--dim", "0", "argument --dim: must be >= 2, got 0"),
        ("--dim", "-1", "argument --dim: must be >= 2, got -1"),
        ("--dim", "two", "argument --dim: invalid _dim value: 'two'"),
    ])
    def test_an_argument_that_checks_nothing_exits_2_naming_the_flag(
        self, capsys, monkeypatch, flag, value, message
    ):
        # before the fix, a NaN step, no triple or dim 1 printed a 0.000e+00 error and exited 0
        monkeypatch.setattr(cli_module, "gradient_check", pytest.fail)
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", f"{flag}={value}"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_a_seed_is_taken_modulo_2_64(self, capsys):
        lines = []
        for seed in ("-1", "18446744073709551615"):
            assert main(["gradcheck", "--dim", "3", "--triples", "1", f"--seed={seed}"]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]

    def test_a_non_finite_error_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "gradient_check", lambda **_: float("nan"))
        assert main(["gradcheck"]) == 1
        assert "max relative error: nan" in capsys.readouterr().out
