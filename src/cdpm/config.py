"""Run configuration: key-value file format plus command-line overrides.

The file holds one `section.key = value` assignment per line; `#` starts a
comment. Command-line `--set section.key=value` assignments win over file
values, and `--seed` wins over both.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import alignment
from .augment import AugmentationConfig
from .losses import LossWeights, TripletConfig
from .model import ModelConfig


class ConfigError(ValueError):
    """Raised for unknown keys or unparsable values."""


@dataclass(frozen=True)
class Config:
    # data
    data_root: str = ""
    profile: str = "market"  # sets the selection-threshold default
    # model structure
    parts: int = 6
    feature_dim: int = 512
    holistic_dim: int = 512
    attention_reduction: int = 16
    refinement: bool = True
    alignment: bool = True
    mgf: bool = False
    # objectives
    lambda1: float = 1.0
    lambda2: float = 1.0
    margin: float = 0.4
    identities_per_batch: int = 6
    images_per_identity: int = 8
    # selection
    threshold: float = -1.0  # negative = use the profile default
    # training
    seed: int = 0
    epoch_scale: float = 1.0
    batch_size: int = 48
    momentum: float = 0.9
    cache_images: bool = True
    # augmentation
    translation_copies: int = 5
    flip_probability: float = 0.5
    erase_probability: float = 0.5

    @property
    def selection_threshold(self) -> float:
        if self.threshold >= 0:
            return self.threshold
        return 0.60 if self.profile == "market" else 0.35

    def model_config(self, classes: int) -> ModelConfig:
        return ModelConfig(
            classes=classes,
            parts=self.parts,
            feature_dim=self.feature_dim,
            holistic_dim=self.holistic_dim,
            attention_reduction=self.attention_reduction,
            with_refinement=self.refinement,
            with_alignment=self.alignment,
            with_mgf=self.mgf,
        )

    def loss_weights(self) -> LossWeights:
        return LossWeights(lambda1=self.lambda1, lambda2=self.lambda2)

    def triplet_config(self) -> TripletConfig:
        return TripletConfig(
            identities_per_batch=self.identities_per_batch,
            images_per_identity=self.images_per_identity,
            margin=self.margin,
        )

    def augmentation_config(self) -> AugmentationConfig:
        return AugmentationConfig(
            translation_copies=self.translation_copies,
            flip_probability=self.flip_probability,
            erase_probability=self.erase_probability,
        )


#: file/CLI key -> Config field
KEY_MAP = {
    "data.root": "data_root",
    "data.profile": "profile",
    "model.parts": "parts",
    "model.feature_dim": "feature_dim",
    "model.holistic_dim": "holistic_dim",
    "model.attention_reduction": "attention_reduction",
    "model.refinement": "refinement",
    "model.alignment": "alignment",
    "model.mgf": "mgf",
    "loss.lambda1": "lambda1",
    "loss.lambda2": "lambda2",
    "loss.margin": "margin",
    "triplet.identities_per_batch": "identities_per_batch",
    "triplet.images_per_identity": "images_per_identity",
    "select.threshold": "threshold",
    "train.seed": "seed",
    "train.epoch_scale": "epoch_scale",
    "train.batch_size": "batch_size",
    "train.momentum": "momentum",
    "train.cache_images": "cache_images",
    "augment.translation_copies": "translation_copies",
    "augment.flip_probability": "flip_probability",
    "augment.erase_probability": "erase_probability",
}

_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _convert(key: str, field_name: str, raw: str):
    raw = raw.strip()
    kind = _FIELD_TYPES[field_name]
    try:
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"cannot parse {key} = {raw!r} as {kind}") from e


def apply_assignments(cfg: Config, assignments: dict[str, str]) -> Config:
    updates = {}
    for key, raw in assignments.items():
        field_name = KEY_MAP.get(key)
        if field_name is None:
            raise ConfigError(f"unknown config key {key!r}")
        updates[field_name] = _convert(key, field_name, raw)
    return replace(cfg, **updates)


def parse_config_text(text: str) -> dict[str, str]:
    assignments: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, raw = line.split("=", 1)
        assignments[key.strip()] = raw.strip()
    return assignments


def load_config(
    path: str | Path | None,
    overrides: dict[str, str] | None = None,
    seed: int | None = None,
) -> Config:
    """Defaults, then file values, then --set overrides, then --seed.

    A value the run would refuse (a negative loss weight, a probability or
    threshold outside [0, 1], more parts than map rows, multi-granularity
    features with other than 6 parts) is a ConfigError.
    """
    cfg = Config()
    if path is not None:
        try:
            text = Path(path).read_text("utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8: {e}") from e
        cfg = apply_assignments(cfg, parse_config_text(text))
    if overrides:
        cfg = apply_assignments(cfg, overrides)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    try:
        cfg.loss_weights()
        cfg.augmentation_config()
        alignment.SelectionConfig(cfg.selection_threshold)
        alignment.uniform_layout(alignment.MAP_HEIGHT, cfg.parts)
        cfg.model_config(classes=1)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return cfg


def save_config(path: str | Path, cfg: Config) -> None:
    """Write every key explicitly, in KEY_MAP order."""
    lines = []
    for key, field_name in KEY_MAP.items():
        value = getattr(cfg, field_name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
