"""Model and training configuration.

Configs are flat dataclasses. On disk they are plain ``key = value`` text
('#' starts a comment); command-line flags override file values. Two named
presets exist: "toy" (desk-scale, fits the memorization runs) and "full"
(full-scale reference hyperparameters).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError


@dataclass
class ModelConfig:
    d_model: int = 64
    heads: int = 2
    encoder_blocks: int = 2
    decoder_blocks: int = 2
    ff_size: int = 256
    dropout: float = 0.0
    max_seq: int = 32
    # Vocabulary sizes come from the built artifacts, not the config file.
    token_vocab: int = 0
    pos_vocab: int = 0
    dep_vocab: int = 0
    ent_vocab: int = 0
    cond_vocab: int = 0

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads

    def validate(self) -> None:
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model: {self.d_model} is not divisible by heads={self.heads}")
        if self.d_model % 2 != 0:
            raise ConfigError(f"d_model: {self.d_model} must be even for the positional encoding")
        for field in ("d_model", "heads", "encoder_blocks", "decoder_blocks",
                      "ff_size", "max_seq", "token_vocab", "pos_vocab",
                      "dep_vocab", "ent_vocab", "cond_vocab"):
            value = getattr(self, field)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ConfigError(f"{field}: {value!r} must be a positive integer")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout: {self.dropout} outside [0, 1)")


@dataclass
class TrainConfig:
    batch_size: int = 16
    steps: int = 2000
    peak_lr: float = 1e-3
    warmup_steps: int = 50
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-6
    weight_decay: float = 0.01
    checkpoint_fraction: float = 0.05  # of the corpus viewed between checkpoints
    checkpoint_every_steps: int | None = None  # explicit override
    seed: int = 0
    precision: str = "narrow"  # "narrow" = float32, "wide" = float64
    subword_temperature: float | None = None  # None: deterministic tokenization
    log_every: int = 50

    def validate(self) -> None:
        for field in ("batch_size", "steps"):
            value = getattr(self, field)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ConfigError(f"{field}: {value!r} must be a positive integer")
        for field in ("peak_lr", "checkpoint_fraction"):
            if not 0 < getattr(self, field) < math.inf:
                raise ConfigError(f"{field}: {getattr(self, field)} must be finite and positive")
        if self.checkpoint_every_steps is not None and self.checkpoint_every_steps < 1:
            raise ConfigError(f"checkpoint_every_steps: {self.checkpoint_every_steps} must be None or >= 1")
        if self.log_every < 0:
            raise ConfigError(f"log_every: {self.log_every} must be >= 0")
        temp = self.subword_temperature
        if temp is not None and not 0 <= temp < math.inf:
            raise ConfigError(f"subword_temperature: {temp} must be None, or finite and >= 0")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps: {self.warmup_steps} must be >= 0")
        for field in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, field) < 1.0:
                raise ConfigError(f"{field}: {getattr(self, field)} outside [0, 1)")
        # eps keeps LAMB's division finite where a block's second moment is 0
        if not self.eps > 0:
            raise ConfigError(f"eps: {self.eps} must be positive")
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay: {self.weight_decay} must be >= 0")
        if self.precision not in ("narrow", "wide"):
            raise ConfigError(f"precision: {self.precision!r} is not 'narrow' or 'wide'")


# Preset values. "full" carries the full-scale hyperparameters; "toy" is
# sized so training, gradient checks, and memorization finish on a desktop.
PRESETS: dict[str, tuple[dict, dict]] = {
    "toy": (
        dict(d_model=64, heads=2, encoder_blocks=2, decoder_blocks=2,
             ff_size=256, dropout=0.0, max_seq=32),
        dict(batch_size=16, steps=2000, peak_lr=1e-3, warmup_steps=50,
             checkpoint_fraction=100.0),
    ),
    "full": (
        dict(d_model=1024, heads=16, encoder_blocks=2, decoder_blocks=16,
             ff_size=3072, dropout=0.1, max_seq=128),
        dict(batch_size=480, steps=200_000, peak_lr=1e-3, warmup_steps=500,
             checkpoint_fraction=0.05),
    ),
}

_MODEL_FIELDS = {f.name: f for f in dataclasses.fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}
_FILE_EXCLUDED = {"token_vocab", "pos_vocab", "dep_vocab", "ent_vocab", "cond_vocab"}


def _coerce(field_name: str, raw: str):
    field = _MODEL_FIELDS.get(field_name) or _TRAIN_FIELDS[field_name]
    text = raw.strip()
    if text.lower() in ("none", "null"):
        return None
    try:
        if field.type in ("int", int):
            return int(text)
        if field.type in ("float", float):
            return float(text)
        if "int" in str(field.type):
            return int(text)
        if "float" in str(field.type):
            return float(text)
    except ValueError:
        raise ConfigError(f"{field_name}: cannot parse {raw!r}") from None
    return text


def parse_config_text(text: str, source: str) -> dict:
    """Parse flat ``key = value`` lines into typed values. An error names
    ``source`` and the line."""
    values: dict = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            if "=" not in stripped:
                raise ConfigError(f"expected 'key = value', got {line.rstrip()!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key in _FILE_EXCLUDED or (key not in _MODEL_FIELDS and key not in _TRAIN_FIELDS):
                raise ConfigError(f"{key}: unknown configuration field")
            values[key] = _coerce(key, raw)
        except ConfigError as e:
            raise ConfigError(f"{source}:{lineno}: {e}") from None
    return values


def load_config(source: str, overrides: dict | None = None) -> tuple[ModelConfig, TrainConfig]:
    """Build configs from a preset name or a config file path, then apply
    flag overrides. Vocabulary sizes stay at 0 until bound to artifacts."""
    if source in PRESETS:
        model_kw, train_kw = (dict(d) for d in PRESETS[source])
    else:
        try:
            with open(source, "rb") as f:
                raw = f.read()
        except OSError as e:
            raise ConfigError(f"cannot read config {source}: {e}") from None
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            line = raw.count(b"\n", 0, e.start) + 1
            raise ConfigError(f"{source}:{line}: byte {raw[e.start]:#04x} is not UTF-8 ({e.reason})") from None
        values = parse_config_text(text, source)
        model_kw = {k: v for k, v in values.items() if k in _MODEL_FIELDS}
        train_kw = {k: v for k, v in values.items() if k in _TRAIN_FIELDS}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key in _MODEL_FIELDS:
            model_kw[key] = value
        elif key in _TRAIN_FIELDS:
            train_kw[key] = value
        else:
            raise ConfigError(f"{key}: unknown configuration field")
    model_cfg = ModelConfig(**model_kw)
    train_cfg = TrainConfig(**train_kw)
    train_cfg.validate()
    return model_cfg, train_cfg


def config_hash(model_cfg: ModelConfig) -> str:
    """Stable hash of the architecture; checkpoints refuse to load into a
    differently shaped model."""
    blob = json.dumps(dataclasses.asdict(model_cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
