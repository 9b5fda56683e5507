"""The pipeline's Config, and the ``key = value`` parser of any settings dataclass."""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


class ConfigError(ValueError):
    pass


_TYPE_NAMES = {"int": "an int", "float": "a number", "bool": "a bool", "str": "a string"}


def _has_type(value, kind: str) -> bool:
    """Whether ``value`` fits a Config field declared ``kind``. Python counts
    a bool as an int; here it fits only a bool field."""
    if isinstance(value, bool):
        return kind == "bool"
    return isinstance(value, {"int": int, "float": (int, float), "bool": (), "str": str}[kind])


@dataclass
class Config:
    corpus: str = ""
    output_dir: str = ""
    lexicon_dir: str = ""  # empty: builtin lexicon
    sentiment_model: str = ""  # empty: leave records unlabeled
    host_allowlist: str = ""  # comma separated; empty: any host
    window_hours: float = 12.0
    baseline: str = "auto"  # "auto" or a positive float literal
    baseline_stat: str = "mean"
    alpha: float = 0.25
    pagerank_tol: float = 1e-10
    pagerank_max_iter: int = 10000
    vocab_size: int = 10000
    embed_enabled: bool = False
    embed_dim: int = 32
    embed_epochs: int = 20
    embed_negatives: int = 5
    predict_enabled: bool = False
    hidden_size: int = 64
    predict_epochs: int = 10
    predict_lr: float = 0.01
    max_words: int = 50
    ensemble_trees: int = 100
    seed: int = 0

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ConfigError(f"{f.name} must be {_TYPE_NAMES[f.type]}, got {value!r}")
        numbers = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.type == "float"}
        if self.baseline != "auto":
            try:
                numbers["baseline"] = float(self.baseline)
            except ValueError:
                raise ConfigError("baseline must be 'auto' or a number") from None
        for name, value in numbers.items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        checks = [
            (0 < self.window_hours <= 24 * 14, "window_hours must be in (0, 336]"),
            (0 < self.alpha < 1, "alpha must be in (0, 1)"),
            (self.pagerank_tol > 0, "pagerank_tol must be positive"),
            (self.pagerank_max_iter >= 1, "pagerank_max_iter must be >= 1"),
            (self.vocab_size >= 1, "vocab_size must be >= 1"),
            (self.embed_dim >= 1, "embed_dim must be >= 1"),
            (self.embed_epochs >= 1, "embed_epochs must be >= 1"),
            (self.embed_negatives >= 0, "embed_negatives must be >= 0"),
            (self.hidden_size >= 1, "hidden_size must be >= 1"),
            (self.predict_epochs >= 1, "predict_epochs must be >= 1"),
            (self.predict_lr > 0, "predict_lr must be positive"),
            (self.max_words >= 0, "max_words must be >= 0"),
            (self.ensemble_trees >= 1, "ensemble_trees must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
            (self.baseline_stat in ("mean", "median"), "baseline_stat must be mean or median"),
            (numbers.get("baseline", 1.0) > 0, "baseline must be positive"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        if self.predict_enabled and not self.embed_enabled:
            raise ConfigError("predict_enabled requires embed_enabled")

    def hosts(self) -> list[str] | None:
        items = [h.strip() for h in self.host_allowlist.split(",") if h.strip()]
        return items or None


def _coerce(kind: str, name: str, raw: str):
    """The value ``raw`` spells for a settings field declared ``kind``; an
    ``int | None`` field takes ``none``."""
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    if kind == "int | None" and raw.lower() == "none":
        return None
    try:
        if kind in ("int", "int | None"):
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"{name}: expected {'an integer' if 'int' in kind else 'a number'}, "
                          f"got {raw!r}") from None
    return raw


def load_config(path, cls=Config):
    """The ``cls`` settings dataclass (Config, SynthSpec) a key-value file
    gives: ``key = value`` lines, # comments, defaults for keys not given."""
    settings = cls()
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{n}: expected 'key = value'")
            key, _, raw = line.partition("=")
            try:
                apply_overrides(settings, {key.strip(): raw})
            except ConfigError as exc:
                raise ConfigError(f"{path}:{n}: {exc}") from None
    return settings


def apply_overrides(settings, overrides: dict[str, str]):
    """Set fields of the settings dataclass ``settings`` from their text
    values; flag overrides win over file values."""
    kinds = {f.name: f.type for f in dataclasses.fields(settings)}
    for key, raw in overrides.items():
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(settings, key, _coerce(kinds[key], key, raw))
    return settings
