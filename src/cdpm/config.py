"""Run configuration: key-value file format plus command-line overrides.

The file holds one `section.key = value` assignment per line; `#` starts a
comment. Command-line `--set section.key=value` assignments win over file
values, and `--seed` wins over both. Each key names one field of the run's
own dataclasses (`SelectionConfig`, `ModelConfig`, `TrainSettings` and the
settings nested in it), whose `__post_init__` checks its range.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

from . import alignment
from .model import ModelConfig
from .training import TrainSettings


class ConfigError(ValueError):
    """Raised for unknown keys, unparsable values or values out of range."""


@dataclass(frozen=True)
class Config:
    data_root: str = ""
    selection: alignment.SelectionConfig = alignment.SelectionConfig()
    model: ModelConfig = ModelConfig(classes=1)  # classes come from the dataset
    train: TrainSettings = TrainSettings()

    def model_config(self, classes: int) -> ModelConfig:
        return replace(self.model, classes=classes)


#: file/CLI key -> attribute path from Config
KEY_MAP = {
    "data.root": "data_root",
    "model.parts": "model.parts",
    "model.feature_dim": "model.feature_dim",
    "model.holistic_dim": "model.holistic_dim",
    "model.attention_reduction": "model.attention_reduction",
    "model.refinement": "model.with_refinement",
    "model.alignment": "model.with_alignment",
    "model.mgf": "model.with_mgf",
    "loss.lambda1": "train.weights.lambda1",
    "loss.lambda2": "train.weights.lambda2",
    "loss.margin": "train.triplet.margin",
    "triplet.identities_per_batch": "train.triplet.identities_per_batch",
    "triplet.images_per_identity": "train.triplet.images_per_identity",
    "select.threshold": "selection.threshold",
    "train.seed": "train.seed",
    "train.epoch_scale": "train.epoch_scale",
    "train.batch_size": "train.batch_size",
    "train.momentum": "train.momentum",
    "augment.translation_copies": "train.augmentation.translation_copies",
    "augment.flip_probability": "train.augmentation.flip_probability",
    "augment.erase_probability": "train.augmentation.erase_probability",
}


def _lookup(cfg: Config, path: str):
    obj = cfg
    for name in path.split(".") if path else ():
        obj = getattr(obj, name)
    return obj


def _convert(key: str, owner, field_name: str, raw: str):
    raw = raw.strip()
    kind = next(f.type for f in fields(owner) if f.name == field_name)
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


def _rebuild(obj, path: str, updates: dict[str, dict]):
    """`obj` with its nested dataclasses rebuilt first, then its own updates,
    each dataclass built once with all of its new values."""
    changes = dict(updates.get(path, {}))
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            changes[f.name] = _rebuild(value, f"{path}.{f.name}".lstrip("."), updates)
    return replace(obj, **changes)


def apply_assignments(cfg: Config, assignments: dict[str, str]) -> Config:
    updates: dict[str, dict] = {}  # owner path -> field -> value
    for key, raw in assignments.items():
        path = KEY_MAP.get(key)
        if path is None:
            raise ConfigError(f"unknown config key {key!r}")
        owner, _, name = path.rpartition(".")
        updates.setdefault(owner, {})[name] = _convert(
            key, _lookup(cfg, owner), name, raw
        )
    try:
        return _rebuild(cfg, "", updates)
    except ValueError as e:
        raise ConfigError(str(e)) from e


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
    """Defaults, then file values, then --set overrides, then --seed, applied
    together; a file that cannot be read, or a value the run's dataclasses
    refuse, is a ConfigError."""
    assignments: dict[str, str] = {}
    if path is not None:
        try:
            text = Path(path).read_text("utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8: {e}") from e
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e.strerror or e}") from e
        assignments.update(parse_config_text(text))
    assignments.update(overrides or {})
    if seed is not None:
        assignments["train.seed"] = str(seed)
    return apply_assignments(Config(), assignments)


def save_config(path: str | Path, cfg: Config) -> None:
    """Write every key explicitly, in KEY_MAP order."""
    lines = []
    for key, attr in KEY_MAP.items():
        value = _lookup(cfg, attr)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
