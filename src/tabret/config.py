"""Pipeline configuration: one YAML file, validated strictly.

Unknown keys are errors (they are almost always typos), every error
names the offending field path, and relative paths resolve against the
config file's directory; an input file's path (corpus.path,
eval.gold_path) must not name a directory, nor workspace or cache_dir a
file. Auth tokens never live in the file or in a config object: a
provider section names an environment variable (auth_token_env), which
httpjson reads when it sends a request. effective_dict gives the
settings, one entry per section, for the stage manifest's config hashes
(which sections feed which stage is pipeline's to say).

Each section is one dataclass that declares its settings once: its int,
float, str and bool fields are the section's keys, types and defaults,
loaded and hashed from the same field list, and its __post_init__
checks their values. Beyond those fields, corpus.path, train.enabled,
eval.gold_path and eval.ks are read here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import yaml

from .cluster import ClusteringConfig
from .embed import ProviderConfig
from .kpt import KptConfig
from .mining import MiningConfig
from .querygen import ChatConfig, GenConfig
from .retrieval import RetrievalConfig
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
    workspace: Path
    cache_dir: Path
    seed: int
    embedding: ProviderConfig
    clustering: ClusteringConfig
    kpt: KptConfig
    genq: GenConfig
    mining: MiningConfig
    train: TrainConfig
    train_enabled: bool
    retrieval: RetrievalConfig
    eval: EvalConfig = field(default_factory=EvalConfig)

    def effective_dict(self) -> dict:
        """Plain-data view used for manifest hashing."""
        gold_path = self.eval.gold_path
        return {
            # the one corpus format, kept in the hash so that built workspaces stay fresh
            "corpus": {"path": str(self.corpus_path), "format": "jsonl"},
            "seed": self.seed,
            "embedding": _values(self.embedding),
            "chat": _values(self.genq.provider),
            "clustering": _values(self.clustering),
            "kpt": _values(self.kpt),
            "genq": _values(self.genq),
            "mining": _values(self.mining),
            "train": {"enabled": self.train_enabled, **_values(self.train)},
            "retrieval": _values(self.retrieval),
            "eval": {
                **_values(self.eval),
                "gold_path": str(gold_path) if gold_path else None,
                "ks": list(self.eval.ks),
            },
        }


# annotations are strings under `from __future__ import annotations`
_SCALARS = {kind.__name__: kind for kind in (int, float, str, bool)}


@functools.cache
def _settings(cls: type) -> tuple[tuple[str, type, Any], ...]:
    """(key, type, default) of each int, float, str or bool field of a section
    dataclass; other fields (paths, lists, nested sections) are given."""
    return tuple(
        (f.name, _SCALARS[f.type], f.default) for f in fields(cls) if f.type in _SCALARS
    )


def _values(section: Any) -> dict:
    """A section's settings as hashed: all but the seed, which is hashed once."""
    return {key: getattr(section, key) for key, _, _ in _settings(type(section)) if key != "seed"}


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
        if value is None and default is None:
            return None
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

    def build(self, cls: type, **given: Any) -> Any:
        """cls from the given values and its other settings taken from this
        section, with its ValueError named by this section, which then ends."""
        for key, kind, default in _settings(cls):
            if key not in given:
                given[key] = self.take(key, kind, default)
        try:
            obj = cls(**given)
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


def _file(base: Path, key: str, p: Path) -> Path:
    """The resolved path of an input file, which need not exist yet; a
    directory there is an error, so no stage hashes or reads one."""
    path = _resolve(base, p)
    if path.is_dir():
        raise ConfigError(f"{key}: {path} is a directory, expected a file")
    return path


def _directory(base: Path, key: str, p: Path) -> Path:
    """The resolved path of a directory the run makes; a file there or at
    its nearest existing parent is an error, so no stage fails to make it."""
    path = _resolve(base, p)
    existing = next(q for q in (path, *path.parents) if q.exists())
    if not existing.is_dir():
        raise ConfigError(f"{key}: {existing} is not a directory")
    return path


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
    corpus.finish()

    workspace = _directory(base, "workspace", top.take("workspace", Path, Path("workspace")))
    cache_dir = _directory(base, "cache_dir", top.take("cache_dir", Path, workspace / "embed_cache"))
    seed = top.take("seed", int, 0) % 2**64  # stages draw from its low 64 bits

    embedding = top.section("embedding").build(ProviderConfig)
    chat = top.section("chat").build(ChatConfig)
    clustering = top.section("clustering").build(ClusteringConfig, seed=seed)
    kpt_cfg = top.section("kpt").build(KptConfig, seed=seed)
    genq = top.section("genq").build(GenConfig, provider=chat)
    mining = top.section("mining").build(MiningConfig, seed=seed)

    train_raw = top.section("train")
    train_enabled = train_raw.take("enabled", bool, True)
    train_cfg = train_raw.build(TrainConfig, seed=seed)

    retrieval = top.section("retrieval").build(RetrievalConfig)

    eval_raw = top.section("eval")
    gold_path = eval_raw.take("gold_path", Path, None)
    ks = eval_raw.take("ks", list, EvalConfig.ks)
    if not all(isinstance(k, int) and not isinstance(k, bool) for k in ks):
        raise ConfigError("eval.ks: must be a list of integers")
    eval_cfg = eval_raw.build(
        EvalConfig, gold_path=_file(base, "eval.gold_path", gold_path) if gold_path else None,
        ks=tuple(ks),
    )
    top.finish()
    # split_queries keeps one query of each partial table for training
    if gold_path is None and (genq.n_q < 2 or eval_cfg.holdout_per_pt < 1):
        raise ConfigError("eval: no query to score; without eval.gold_path, eval needs "
                          "genq.n_q >= 2 and eval.holdout_per_pt >= 1, as one question of "
                          "each partial table stays in training")

    return PipelineConfig(
        corpus_path=_file(base, "corpus.path", corpus_path), workspace=workspace,
        cache_dir=cache_dir, seed=seed, embedding=embedding, clustering=clustering, kpt=kpt_cfg,
        genq=genq, mining=mining, train=train_cfg, train_enabled=train_enabled,
        retrieval=retrieval, eval=eval_cfg,
    )

