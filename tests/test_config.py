"""Config loading: strict validation, overrides, env-only secrets."""

import re
from pathlib import Path

import pytest
import yaml

from tabret.cluster import ClusteringConfig
from tabret.config import ConfigError, _settings, load_config
from tabret.embed import ProviderConfig
from tabret.httpjson import auth_headers
from tabret.kpt import KptConfig
from tabret.mining import MiningConfig
from tabret.querygen import ChatConfig, GenConfig
from tabret.retrieval import RetrievalConfig
from tabret.pipeline import STAGES, plan_stages

REPO = Path(__file__).resolve().parents[1]


def write_config(tmp_path: Path, body: str) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(body, encoding="utf-8")
    return path


MINIMAL = "corpus:\n  path: corpus.jsonl\n"


class TestDefaults:
    def test_minimal_config_gets_documented_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.seed == 0
        assert cfg.embedding.kind == "mock"
        assert cfg.embedding.dim == 64
        assert cfg.clustering.r == 10
        assert cfg.clustering.k_max == 5
        assert cfg.clustering.n_init == 10
        assert cfg.kpt.s == 5
        assert cfg.kpt.strategy == "kpt_random"
        assert cfg.genq.n_q == 5
        assert cfg.genq.temperature == 0.4
        assert cfg.genq.max_tokens == 1024
        assert cfg.mining.h == 8
        assert cfg.mining.strategy == "hard"
        assert cfg.train.tau == 0.01
        assert cfg.train.epochs == 2
        assert cfg.train.accumulation_steps == 32
        assert cfg.train.learning_rate == 1e-3
        assert cfg.train_enabled is True
        assert cfg.retrieval.mode == "pt_only"
        assert cfg.retrieval.fusion == "max"
        assert cfg.eval.holdout_per_pt == 1
        assert cfg.eval.ks == (1, 5, 10)

    def test_corpus_path_required(self, tmp_path):
        with pytest.raises(ConfigError, match="corpus.path"):
            load_config(write_config(tmp_path, "seed: 3\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(write_config(tmp_path, "corpus: [unclosed\n"))

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL + "workspace: ws\n"))
        assert cfg.corpus_path == tmp_path / "corpus.jsonl"
        assert cfg.workspace == tmp_path / "ws"
        # cache defaults inside the workspace
        assert cfg.cache_dir == tmp_path / "ws" / "embed_cache"

    def test_absolute_paths_kept(self, tmp_path):
        body = f"corpus:\n  path: {tmp_path}/other/c.jsonl\n"
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.corpus_path == tmp_path / "other" / "c.jsonl"

    def test_seed_is_taken_modulo_2_to_the_64(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL + "seed: -1\n"))
        assert cfg.seed == cfg.train.seed == 2**64 - 1

    def test_seed_propagates_to_stage_configs(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL + "seed: 42\n"))
        assert cfg.clustering.seed == 42
        assert cfg.kpt.seed == 42
        assert cfg.mining.seed == 42
        assert cfg.train.seed == 42


class TestStrictness:
    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="config.sed: unknown key"):
            load_config(write_config(tmp_path, MINIMAL + "sed: 1\n"))

    def test_unknown_section_key_names_path(self, tmp_path):
        body = MINIMAL + "clustering:\n  r: 5\n  kmax: 3\n"
        with pytest.raises(ConfigError, match="clustering.kmax: unknown key"):
            load_config(write_config(tmp_path, body))

    def test_wrong_type_names_path(self, tmp_path):
        body = MINIMAL + "clustering:\n  r: many\n"
        with pytest.raises(ConfigError, match="clustering.r: expected int"):
            load_config(write_config(tmp_path, body))

    def test_bool_is_not_an_int(self, tmp_path):
        body = MINIMAL + "seed: true\n"
        with pytest.raises(ConfigError, match="expected int"):
            load_config(write_config(tmp_path, body))

    def test_section_must_be_mapping(self, tmp_path):
        body = MINIMAL + "clustering: 5\n"
        with pytest.raises(ConfigError, match="config.clustering: expected dict"):
            load_config(write_config(tmp_path, body))

    def test_domain_validation_wrapped_with_section(self, tmp_path):
        body = MINIMAL + "mining:\n  strategy: softest\n"
        with pytest.raises(ConfigError, match="mining:"):
            load_config(write_config(tmp_path, body))

    def test_enum_fields_checked(self, tmp_path):
        for body, fragment in [
            (MINIMAL + "corpus_format: parquet\n", "unknown key"),
            (MINIMAL + "kpt:\n  strategy: best_rows\n", "kpt: strategy must be one of"),
            (MINIMAL + "retrieval:\n  mode: rows\n", "retrieval: mode must be one of"),
            (MINIMAL + "retrieval:\n  fusion: sum\n", "retrieval: fusion must be one of"),
        ]:
            with pytest.raises(ConfigError, match=fragment):
                load_config(write_config(tmp_path, body))

    @pytest.mark.parametrize("value", [0, -5])
    def test_genq_max_tokens_below_1_rejected(self, tmp_path, value):
        # an http chat provider would be sent the value as it is
        body = MINIMAL + f"genq:\n  max_tokens: {value}\n"
        with pytest.raises(ConfigError, match="genq: max_tokens must be >= 1"):
            load_config(write_config(tmp_path, body))

    def test_eval_ks_must_be_ints(self, tmp_path):
        body = MINIMAL + "eval:\n  ks: [1, five]\n"
        with pytest.raises(ConfigError, match="eval.ks"):
            load_config(write_config(tmp_path, body))


class TestNullDefaults:
    def test_null_gold_path_in_file(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL + "eval:\n  gold_path: null\n"))
        assert cfg.eval.gold_path is None

    def test_null_gold_path_override(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "eval:\n  gold_path: gold.jsonl\n")
        cfg = load_config(path, overrides=["eval.gold_path=null"])
        assert cfg.eval.gold_path is None

    def test_null_stays_an_error_where_the_default_is_not_null(self, tmp_path):
        body = MINIMAL + "clustering:\n  r: null\n"
        with pytest.raises(ConfigError, match="clustering.r: expected int"):
            load_config(write_config(tmp_path, body))


class TestFloatCoercion:
    def test_dotless_exponent_strings_parse(self, tmp_path):
        # YAML 1.1 reads "2e-3" as a string; the loader must still
        # accept it as the float it visibly is
        body = MINIMAL + "train:\n  learning_rate: 2e-3\n"
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.train.learning_rate == 2e-3

    def test_integer_values_widen_to_float(self, tmp_path):
        body = MINIMAL + "genq:\n  temperature: 1\n"
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.genq.temperature == 1.0

    def test_non_numeric_string_still_rejected(self, tmp_path):
        body = MINIMAL + "train:\n  tau: warm\n"
        with pytest.raises(ConfigError, match="train.tau: expected float"):
            load_config(write_config(tmp_path, body))


class TestOverrides:
    def test_dotted_set_overrides(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "seed: 1\n")
        cfg = load_config(path, overrides=["seed=9", "train.epochs=7"])
        assert cfg.seed == 9
        assert cfg.train.epochs == 7

    def test_override_creates_missing_sections(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        cfg = load_config(path, overrides=["clustering.k_max=2"])
        assert cfg.clustering.k_max == 2

    def test_override_values_parse_as_yaml(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        cfg = load_config(path, overrides=["train.enabled=false", "genq.temperature=0.9"])
        assert cfg.train_enabled is False
        assert cfg.genq.temperature == 0.9

    def test_override_exponent_float(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        cfg = load_config(path, overrides=["train.learning_rate=5e-4"])
        assert cfg.train.learning_rate == 5e-4

    def test_malformed_override_rejected(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        with pytest.raises(ConfigError, match="--set"):
            load_config(path, overrides=["seed"])

    def test_override_through_scalar_rejected(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "seed: 1\n")
        with pytest.raises(ConfigError, match="not a mapping"):
            load_config(path, overrides=["seed.inner=2"])

    def test_overridden_unknown_key_still_strict(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path, overrides=["clustering.kmax=3"])


class TestSecrets:
    def test_tokens_come_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMBED_TOKEN", "sk-embed-secret")
        monkeypatch.setenv("CHAT_TOKEN", "sk-chat-secret")
        body = (
            "corpus:\n  path: corpus.jsonl\n"
            "embedding:\n  kind: http\n  endpoint: http://e.test\n"
            "  auth_token_env: EMBED_TOKEN\n"
            "chat:\n  kind: http\n  endpoint: http://c.test\n"
            "  auth_token_env: CHAT_TOKEN\n"
        )
        cfg = load_config(write_config(tmp_path, body))
        assert auth_headers(cfg.embedding.auth_token_env) == {
            "Authorization": "Bearer sk-embed-secret"
        }
        assert auth_headers(cfg.genq.provider.auth_token_env) == {
            "Authorization": "Bearer sk-chat-secret"
        }
        # no config object holds a token
        for shown in (repr(cfg), repr(cfg.embedding), repr(cfg.genq.provider)):
            assert "sk-embed-secret" not in shown
            assert "sk-chat-secret" not in shown

    def test_token_is_read_when_the_request_is_built(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EMBED_TOKEN", raising=False)
        body = MINIMAL + "embedding:\n  auth_token_env: EMBED_TOKEN\n"
        cfg = load_config(write_config(tmp_path, body))
        monkeypatch.setenv("EMBED_TOKEN", "sk-set-after-load")
        assert auth_headers(cfg.embedding.auth_token_env) == {
            "Authorization": "Bearer sk-set-after-load"
        }

    def test_unset_env_var_leaves_token_empty(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MISSING_TOKEN", raising=False)
        body = MINIMAL + "embedding:\n  auth_token_env: MISSING_TOKEN\n"
        cfg = load_config(write_config(tmp_path, body))
        assert auth_headers(cfg.embedding.auth_token_env) is None

    def test_effective_dict_never_contains_token_values(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMBED_TOKEN", "sk-embed-secret")
        body = MINIMAL + "embedding:\n  auth_token_env: EMBED_TOKEN\n"
        cfg = load_config(write_config(tmp_path, body))
        flat = repr(cfg.effective_dict())
        assert "sk-embed-secret" not in flat
        assert cfg.effective_dict()["embedding"]["auth_token_env"] == "EMBED_TOKEN"

    def test_manifest_hash_independent_of_secret_value(self, tmp_path, monkeypatch):
        body = MINIMAL + "embedding:\n  auth_token_env: EMBED_TOKEN\n"
        path = write_config(tmp_path, body)
        monkeypatch.setenv("EMBED_TOKEN", "first-value")
        h1 = hashes(load_config(path))["embed"]
        monkeypatch.setenv("EMBED_TOKEN", "rotated-value")
        h2 = hashes(load_config(path))["embed"]
        assert h1 == h2


def hashes(cfg) -> dict[str, str]:
    """Each stage's manifest config hash under cfg."""
    return {stage: plan.config_hash for stage, plan in plan_stages(cfg).items()}


class TestStageHashes:
    def test_stable_across_loads(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "seed: 5\n")
        a = hashes(load_config(path))
        b = hashes(load_config(path))
        assert list(a) == ["ingest", "embed", "cluster", "kpt", "genq", "mine", "train", "index",
                           "eval"]
        assert a == b

    def test_sensitive_to_owning_section_only(self, tmp_path):
        base = hashes(load_config(write_config(tmp_path, MINIMAL)))
        changed = hashes(load_config(
            write_config(tmp_path, MINIMAL + "clustering:\n  k_max: 3\n")
        ))
        assert base["cluster"] != changed["cluster"]
        # a clustering change cannot invalidate embedding work
        assert base["embed"] == changed["embed"]

    def test_seed_invalidates_seeded_stages_not_embed(self, tmp_path):
        a = hashes(load_config(write_config(tmp_path, MINIMAL + "seed: 1\n")))
        b = hashes(load_config(write_config(tmp_path, MINIMAL + "seed: 2\n")))
        assert a["kpt"] != b["kpt"]
        assert a["embed"] == b["embed"]


# every key set, each to a value other than its default; the paths are
# absolute so that the ingest hash does not depend on where the test runs
ALL_KEYS = """\
corpus:
  path: /corpus/tables
workspace: /runs/ws
cache_dir: /runs/cache
seed: 11
embedding:
  kind: http
  model_name: e5-small
  dim: 384
  endpoint: http://embed.invalid
  batch_size: 16
  max_input_chars: 4096
  auth_token_env: EMBED_TOKEN
  max_parallel_requests: 2
chat:
  kind: http
  model_name: qwen-chat
  endpoint: http://chat.invalid
  auth_token_env: CHAT_TOKEN
  timeout: 30.5
  max_parallel_requests: 3
clustering:
  r: 7
  k_max: 4
  max_iters: 50
  n_init: 3
kpt:
  strategy: cb_centroid
  s: 3
  first_rows_k: 6
genq:
  n_q: 4
  temperature: 0.7
  max_tokens: 512
  lang: de
  max_retries: 2
mining:
  strategy: random
  h: 5
train:
  enabled: false
  tau: 0.05
  epochs: 3
  accumulation_steps: 8
  learning_rate: 2.0e-3
  adam_beta1: 0.8
  adam_beta2: 0.99
  adam_eps: 1.0e-7
  shuffle: false
retrieval:
  mode: pt_plus_queries
  fusion: mean
eval:
  gold_path: /gold/gold.jsonl
  holdout_per_pt: 2
  ks: [1, 3]
"""

# A changed hash makes every existing workspace rebuild its stages, so a
# change here must be deliberate. The demo's ingest hash includes the
# absolute corpus path of the checkout and is left out.
DEMO_HASHES = {
    "embed": "c28606ec96d801f29baccf6e07391db9190105700df56adc39508bed83f90a56",
    "cluster": "d3d071e8f29969c041491843645dd2f3dfb9095068e80c44e0261bba0d0a4fca",
    "kpt": "a072bb85de1ee263f2c83b5fcf103b9bd9d63110f65955050164064c262c8733",
    "genq": "dd7c78f5a9436777fc3c886623228bea8ce873d508550b41ca642bb0e3d4f31a",
    "mine": "43085ee092af429eee990cb7b2fc88f85c8f82a2fa60a8676e5b5da199dc7ac2",
    "train": "a470dc25bad13fe054a6b0920a892b6d4d6ba4f1fb86472fbb85c98ee4972b56",
    "index": "dfd8391052e69c10a8dceed6face848ce8a9dc638e8d32e2b740d0770f9ed6af",
    "eval": "c38b6eecb7dd8f6db032324870e13ed3a7b7d631e7992f75e2b788df81014340",
}
ALL_KEYS_HASHES = {
    "ingest": "8cbddf2b124c69643f30ffe6907c89cbf999fe75677acac8297cbc7be1c085b2",
    "embed": "703f106c061f3d9fe87b0c9b925a9b4c9da59e223049b8f8964564bacccc614b",
    "cluster": "3e89d5082a53d1c83dcec5d909988036a1332ca4b53b5351d59d82b18703b65c",
    "kpt": "49bec53d05cacf625ca92f3849304b09561c1453bb3ce92f5d4854f7ff6e2e72",
    "genq": "c3bf05ef29a40920bbf6ef0387de7046dd0be4b5013ddfb3383bdedd0398fd41",
    "mine": "c5a6192d349292c51a8151194a2842253eaa1c78cef7f245e09dee3fee71e15d",
    "train": "f64a81e4d5daf19f5c395b50ebd2582d777d063f61638256929d6f29c87f0123",
    "index": "445ca98eed5e82e1072ca1790ea4a555c8cc4eb863d0d20940dca5ddf9660922",
    "eval": "e1ce78d5e083550ea693fe7a3dd64571f70183461523ea39e2d71b9445248eaf",
}


class TestGoldenStageHashes:
    def test_demo_config(self):
        cfg = load_config(REPO / "data" / "demo" / "config.yaml")
        demo = hashes(cfg)
        assert {st: demo[st] for st in STAGES[1:]} == DEMO_HASHES

    def test_every_key_set(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ALL_KEYS))
        assert hashes(cfg) == ALL_KEYS_HASHES


# the dataclass of each effective_dict section that it renders whole;
# corpus, train and eval also hold keys read outside their dataclass
SECTION_CLASSES = {
    "embedding": ProviderConfig,
    "chat": ChatConfig,
    "clustering": ClusteringConfig,
    "kpt": KptConfig,
    "genq": GenConfig,
    "mining": MiningConfig,
    "retrieval": RetrievalConfig,
}


class TestOneDeclarationPerSetting:
    def test_section_keys_are_their_dataclass_fields(self, tmp_path):
        effective = load_config(write_config(tmp_path, ALL_KEYS)).effective_dict()
        sections = {k for k, v in effective.items() if isinstance(v, dict)}
        assert sections - {"corpus", "train", "eval"} == set(SECTION_CLASSES)
        for section, cls in SECTION_CLASSES.items():
            names = {key for key, _, _ in _settings(cls)} - {"seed"}
            assert set(effective[section]) == names, section


def _dotted_keys(mapping: dict) -> set[str]:
    """Each key of a config mapping, a section's keys as section.key."""
    keys = set()
    for key, value in mapping.items():
        keys |= {f"{key}.{sub}" for sub in value} if isinstance(value, dict) else {key}
    return keys


class TestReadme:
    @staticmethod
    def block() -> str:
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1]
        return re.search(r"```yaml\n(.*?)```", section, re.S).group(1)

    def test_configuration_block_names_every_key(self, tmp_path):
        documented = _dotted_keys(yaml.safe_load(self.block()))
        effective = load_config(write_config(tmp_path, MINIMAL)).effective_dict()
        accepted = _dotted_keys(effective) - {"corpus.format"} | {"workspace", "cache_dir"}
        assert documented == accepted

    def test_configuration_block_shows_the_defaults(self, tmp_path):
        block = self.block()
        # the cache_dir default is a placeholder; it lives under the workspace
        body = "".join(
            line for line in block.splitlines(keepends=True) if not line.startswith("cache_dir:")
        )
        documented = load_config(write_config(tmp_path, body))
        minimal = load_config(write_config(tmp_path, MINIMAL))
        assert documented.effective_dict() == minimal.effective_dict()

