"""Pipeline configuration: one YAML file, validated strictly.

Unknown keys are errors (they are almost always typos), every error
names the offending field path, and relative paths resolve against the
config file's directory. Auth tokens never live in the file: a section
names an environment variable (auth_token_env) and the value is read
from the environment at load time. Config hashes for the stage manifest
are computed over the effective settings with secrets excluded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import yaml

from .cluster import ClusteringConfig
from .corpus import CORPUS_FORMATS
from .embed import ProviderConfig
from .fsio import sha256_json
from .kpt import STRATEGIES, KptConfig
from .mining import MiningConfig
from .querygen import ChatConfig, GenConfig
from .retrieval import FUSIONS, REPRESENTATION_MODES
from .train import TrainConfig


class ConfigError(ValueError):
    """Invalid configuration; the message carries the field path."""


@dataclass(frozen=True)
class EvalConfig:
    gold_path: Path | None = None
    holdout_per_pt: int = 1
    ks: tuple[int, ...] = (1, 5, 10)

    def __post_init__(self) -> None:
        if self.holdout_per_pt < 0:
            raise ValueError("holdout_per_pt must be >= 0")
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValueError("ks must be positive integers")


@dataclass(frozen=True)
class PipelineConfig:
    corpus_path: Path
    corpus_format: str
    workspace: Path
    cache_dir: Path
    seed: int
    embedding: ProviderConfig
    embedding_auth_env: str
    chat_auth_env: str
    clustering: ClusteringConfig
    kpt: KptConfig
    kpt_strategy: str
    genq: GenConfig
    mining: MiningConfig
    train: TrainConfig
    train_enabled: bool
    retrieval_mode: str
    fusion: str
    eval: EvalConfig = field(default_factory=EvalConfig)

    def effective_dict(self) -> dict:
        """Plain-data view used for manifest hashing; no resolved secrets."""
        emb, chat = self.embedding, self.genq.provider
        return {
            "corpus": {"path": str(self.corpus_path), "format": self.corpus_format},
            "seed": self.seed,
            "embedding": {
                **_fields(emb, "kind", "model_name", "dim", "endpoint", "batch_size"),
                **_fields(emb, "max_input_chars", "max_parallel_requests"),
                "auth_token_env": self.embedding_auth_env,
            },
            "chat": {
                **_fields(chat, "kind", "model_name", "endpoint", "timeout"),
                **_fields(chat, "max_parallel_requests"),
                "auth_token_env": self.chat_auth_env,
            },
            "clustering": _fields(self.clustering, "r", "k_max", "max_iters", "n_init"),
            "kpt": {"strategy": self.kpt_strategy, **_fields(self.kpt, "s", "first_rows_k")},
            "genq": _fields(self.genq, "n_q", "temperature", "max_tokens", "lang", "max_retries"),
            "mining": _fields(self.mining, "strategy", "h"),
            "train": {
                "enabled": self.train_enabled,
                **_fields(self.train, "tau", "epochs", "accumulation_steps", "learning_rate"),
                **_fields(self.train, "adam_beta1", "adam_beta2", "adam_eps", "shuffle"),
            },
            "retrieval": {"mode": self.retrieval_mode, "fusion": self.fusion},
            "eval": {
                "gold_path": str(self.eval.gold_path) if self.eval.gold_path else None,
                "holdout_per_pt": self.eval.holdout_per_pt,
                "ks": list(self.eval.ks),
            },
        }

    def stage_config_hash(self, stage: str) -> str:
        effective = self.effective_dict()
        slices = _STAGE_SECTIONS[stage]
        return sha256_json({name: effective[name] for name in slices})


# sections whose settings feed each stage; a stage re-runs when any of
# these change (upstream artifact changes are caught by input hashes)
_STAGE_SECTIONS: dict[str, tuple[str, ...]] = {
    "ingest": ("corpus",),
    "embed": ("embedding",),
    "cluster": ("clustering", "seed", "embedding"),
    "kpt": ("kpt", "seed"),
    "genq": ("genq", "chat"),
    "mine": ("mining", "eval", "seed", "embedding"),
    "train": ("train", "seed", "embedding"),
    "index": ("retrieval", "train", "eval", "embedding"),
    "eval": ("eval", "retrieval", "embedding"),
}


def _fields(obj: Any, *names: str) -> dict:
    return {name: getattr(obj, name) for name in names}


def _expect_mapping(obj: Any, path: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(obj).__name__}")
    return dict(obj)


class _Section:
    """One config mapping with typed, consumed-once key access."""

    def __init__(self, raw: dict, path: str) -> None:
        self.raw = dict(raw)
        self.path = path

    def take(self, key: str, kind: type, default: Any) -> Any:
        if key not in self.raw:
            return default
        value = self.raw.pop(key)
        if kind is dict and value is None:
            return {}
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if kind is float and isinstance(value, str):
            # YAML 1.1 reads exponent floats without a dot ("2e-3") as
            # strings; accept any string that parses as a float
            try:
                value = float(value)
            except ValueError:
                pass
        if kind is Path:
            if not isinstance(value, str) or not value:
                raise ConfigError(f"{self.path}.{key}: expected a non-empty path string")
            return Path(value)
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ConfigError(
                f"{self.path}.{key}: expected {kind.__name__}, got {type(value).__name__}"
            )
        return value

    def section(self, key: str) -> "_Section":
        return _Section(_expect_mapping(self.take(key, dict, {}), key), key)

    def finish(self) -> None:
        if self.raw:
            stray = sorted(self.raw)[0]
            raise ConfigError(f"{self.path}.{stray}: unknown key")

    def build(self, cls: type, **kwargs: Any) -> Any:
        """cls(**kwargs) with its ValueError named by this section, which then ends."""
        try:
            obj = cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {exc}") from exc
        self.finish()
        return obj


def _apply_overrides(data: dict, overrides: list[str]) -> None:
    for item in overrides:
        key, sep, raw_value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set {item!r}: expected key.path=value")
        try:
            value = yaml.safe_load(raw_value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"--set {key}: unparseable value: {exc}") from exc
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = node[part] = {}
            if not isinstance(nxt, dict):
                raise ConfigError(f"--set {key}: {part} is not a mapping")
            node = nxt
        node[parts[-1]] = value


def _resolve(base: Path, p: Path) -> Path:
    return p if p.is_absolute() else base / p


def load_config(path: str | Path, overrides: list[str] | None = None) -> PipelineConfig:
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        data = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{config_path}: invalid YAML: {exc}") from exc
    data = _expect_mapping(data, str(config_path))
    if overrides:
        _apply_overrides(data, overrides)
    base = config_path.parent.resolve()

    top = _Section(data, "config")
    corpus = top.section("corpus")
    corpus_path = corpus.take("path", Path, None)
    if corpus_path is None:
        raise ConfigError("corpus.path: required")
    corpus_format = corpus.take("format", str, "jsonl")
    if corpus_format not in CORPUS_FORMATS:
        raise ConfigError(f"corpus.format: must be one of {CORPUS_FORMATS}")
    corpus.finish()

    workspace = _resolve(base, top.take("workspace", Path, Path("workspace")))
    cache_dir = _resolve(base, top.take("cache_dir", Path, workspace / "embed_cache"))
    seed = top.take("seed", int, 0)

    emb = top.section("embedding")
    emb_auth_env = emb.take("auth_token_env", str, "")
    embedding = emb.build(
        ProviderConfig,
        kind=emb.take("kind", str, "mock"),
        model_name=emb.take("model_name", str, "mock-embedder"),
        dim=emb.take("dim", int, 64),
        endpoint=emb.take("endpoint", str, ""),
        batch_size=emb.take("batch_size", int, 32),
        max_input_chars=emb.take("max_input_chars", int, 8192),
        auth_token=os.environ.get(emb_auth_env) if emb_auth_env else None,
        max_parallel_requests=emb.take("max_parallel_requests", int, 8),
    )

    chat_raw = top.section("chat")
    chat_auth_env = chat_raw.take("auth_token_env", str, "")
    chat = chat_raw.build(
        ChatConfig,
        kind=chat_raw.take("kind", str, "mock"),
        model_name=chat_raw.take("model_name", str, "mock-chat"),
        endpoint=chat_raw.take("endpoint", str, ""),
        auth_token=os.environ.get(chat_auth_env) if chat_auth_env else None,
        timeout=chat_raw.take("timeout", float, 120.0),
        max_parallel_requests=chat_raw.take("max_parallel_requests", int, 4),
    )

    clu = top.section("clustering")
    clustering = clu.build(
        ClusteringConfig,
        r=clu.take("r", int, 10),
        k_max=clu.take("k_max", int, 5),
        max_iters=clu.take("max_iters", int, 100),
        seed=seed,
        n_init=clu.take("n_init", int, 10),
    )

    kpt_raw = top.section("kpt")
    kpt_strategy = kpt_raw.take("strategy", str, "kpt_random")
    if kpt_strategy not in STRATEGIES:
        raise ConfigError(f"kpt.strategy: must be one of {STRATEGIES}")
    kpt_cfg = kpt_raw.build(
        KptConfig,
        s=kpt_raw.take("s", int, 5),
        first_rows_k=kpt_raw.take("first_rows_k", int, 10),
        seed=seed,
    )

    gen_raw = top.section("genq")
    genq = gen_raw.build(
        GenConfig,
        n_q=gen_raw.take("n_q", int, 5),
        temperature=gen_raw.take("temperature", float, 0.4),
        max_tokens=gen_raw.take("max_tokens", int, 1024),
        lang=gen_raw.take("lang", str, "en"),
        max_retries=gen_raw.take("max_retries", int, 3),
        provider=chat,
    )

    mine_raw = top.section("mining")
    mining = mine_raw.build(
        MiningConfig,
        h=mine_raw.take("h", int, 8),
        strategy=mine_raw.take("strategy", str, "hard"),
        seed=seed,
    )

    train_raw = top.section("train")
    train_enabled = train_raw.take("enabled", bool, True)
    train_cfg = train_raw.build(
        TrainConfig,
        tau=train_raw.take("tau", float, 0.01),
        epochs=train_raw.take("epochs", int, 2),
        accumulation_steps=train_raw.take("accumulation_steps", int, 32),
        learning_rate=train_raw.take("learning_rate", float, 1e-3),
        adam_beta1=train_raw.take("adam_beta1", float, 0.9),
        adam_beta2=train_raw.take("adam_beta2", float, 0.999),
        adam_eps=train_raw.take("adam_eps", float, 1e-8),
        seed=seed,
        shuffle=train_raw.take("shuffle", bool, True),
    )

    ret_raw = top.section("retrieval")
    retrieval_mode = ret_raw.take("mode", str, "pt_only")
    if retrieval_mode not in REPRESENTATION_MODES:
        raise ConfigError(f"retrieval.mode: must be one of {REPRESENTATION_MODES}")
    fusion = ret_raw.take("fusion", str, "max")
    if fusion not in FUSIONS:
        raise ConfigError(f"retrieval.fusion: must be one of {FUSIONS}")
    ret_raw.finish()

    eval_raw = top.section("eval")
    gold_path = eval_raw.take("gold_path", Path, None)
    ks_raw = eval_raw.take("ks", list, [1, 5, 10])
    if not all(isinstance(k, int) and not isinstance(k, bool) for k in ks_raw):
        raise ConfigError("eval.ks: must be a list of integers")
    eval_cfg = eval_raw.build(
        EvalConfig,
        gold_path=_resolve(base, gold_path) if gold_path else None,
        holdout_per_pt=eval_raw.take("holdout_per_pt", int, 1),
        ks=tuple(ks_raw),
    )
    top.finish()

    return PipelineConfig(
        corpus_path=_resolve(base, corpus_path),
        corpus_format=corpus_format,
        workspace=workspace,
        cache_dir=cache_dir,
        seed=seed,
        embedding=embedding,
        embedding_auth_env=emb_auth_env,
        chat_auth_env=chat_auth_env,
        clustering=clustering,
        kpt=kpt_cfg,
        kpt_strategy=kpt_strategy,
        genq=genq,
        mining=mining,
        train=train_cfg,
        train_enabled=train_enabled,
        retrieval_mode=retrieval_mode,
        fusion=fusion,
        eval=eval_cfg,
    )


def variant_config(
    cfg: PipelineConfig,
    kpt_strategy: str,
    mining_strategy: str,
    use_adapter: bool,
    workspace: Path,
) -> PipelineConfig:
    """Derive a comparison-variant config sharing the embedding cache."""
    return replace(
        cfg,
        kpt_strategy=kpt_strategy,
        mining=replace(cfg.mining, strategy=mining_strategy),
        train_enabled=use_adapter,
        workspace=workspace,
    )
