"""Engine configuration.

A single JSON document configures every stage. Unknown keys are
rejected rather than ignored; a typo should fail loudly, not silently
run with defaults. The PLANFORGE_CONFIG environment variable supplies a
config path when the command line does not.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields, is_dataclass

from .benchgen import CatalogConfig
from .decoder import DecoderConfig
from .errors import ConfigError
from .rltf import TrainConfig
from .simkit import SimConstants


@dataclass(frozen=True)
class EngineConfig:
    registry: str = "default"
    out_dir: str = "out"
    catalog: CatalogConfig = CatalogConfig()
    decoder: DecoderConfig = DecoderConfig()
    train: TrainConfig = TrainConfig()
    sim: SimConstants = SimConstants()


def _fits(value, default) -> bool:
    """A value fits a field of the default's type; an int also fits a float field."""
    if type(default) is float and type(value) is int:
        return True
    return type(value) is type(default)


def _from_dict(cls, raw, path: str):
    """Build ``cls`` from a partial document. A field whose default is a
    dataclass is a nested section; a null section keeps its defaults."""
    where = path or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    values = {}
    for key, value in raw.items():
        default = defaults[key]
        name = f"{path}.{key}" if path else key
        if is_dataclass(default):
            if value is not None:
                values[key] = _from_dict(type(default), value, name)
        elif _fits(value, default):
            values[key] = value
        else:
            raise ConfigError(f"{name} must be {type(default).__name__}, got {type(value).__name__}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in {where}: {exc}") from exc


def config_from_json(doc) -> EngineConfig:
    return _from_dict(EngineConfig, doc, "")


def config_to_json(cfg: EngineConfig) -> dict:
    return asdict(cfg)


def load_config(path: str | None = None) -> EngineConfig:
    """Config from an explicit path, PLANFORGE_CONFIG, or defaults."""
    if path is None:
        path = os.environ.get("PLANFORGE_CONFIG")
    if path is None:
        return EngineConfig()
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_json(doc)


def config_sha256(cfg: EngineConfig) -> str:
    canon = json.dumps(config_to_json(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
