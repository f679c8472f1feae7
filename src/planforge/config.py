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
from dataclasses import dataclass, field, fields

from .benchgen import CatalogConfig
from .decoder import DecoderConfig
from .errors import ConfigError
from .rltf import TrainConfig
from .simkit import SimConstants


@dataclass(frozen=True)
class EngineConfig:
    registry: str = "default"
    out_dir: str = "out"
    catalog: CatalogConfig = field(default=CatalogConfig())
    decoder: DecoderConfig = field(default=DecoderConfig())
    train: TrainConfig = field(default=TrainConfig())
    sim: SimConstants = field(default=SimConstants())


def _fits(value, default) -> bool:
    """A value fits a field of the default's type; an int also fits a float field."""
    if type(default) is float and type(value) is int:
        return True
    return type(value) is type(default)


def _from_dict(cls, raw: dict, section: str):
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(unknown)}")
    for key, value in raw.items():
        if not _fits(value, defaults[key]):
            expected = type(defaults[key]).__name__
            raise ConfigError(f"{section}.{key} must be {expected}, got {type(value).__name__}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in {section}: {exc}") from exc


def config_from_json(doc: dict) -> EngineConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    allowed = {"registry", "out_dir", "catalog", "decoder", "train", "sim"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in config: {', '.join(unknown)}")

    def section(key: str, cls, default):
        raw = doc.get(key)
        if raw is None:
            return default
        if not isinstance(raw, dict):
            raise ConfigError(f"{key} must be an object")
        return _from_dict(cls, raw, key)

    registry = doc.get("registry", "default")
    out_dir = doc.get("out_dir", "out")
    if not isinstance(registry, str):
        raise ConfigError("registry must be a string")
    if not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string")

    train_raw = doc.get("train")
    if isinstance(train_raw, dict) and "sampling" in train_raw:
        train_raw = dict(train_raw)
        sampling_raw = train_raw.pop("sampling")
        if not isinstance(sampling_raw, dict):
            raise ConfigError("train.sampling must be an object")
        sampling = _from_dict(
            DecoderConfig, {"sampling": "stochastic", **sampling_raw}, "train.sampling"
        )
        bare = _from_dict(TrainConfig, train_raw, "train")
        train = TrainConfig(**{**_asdict_flat(bare), "sampling": sampling})
    else:
        train = section("train", TrainConfig, TrainConfig())

    return EngineConfig(
        registry=registry,
        out_dir=out_dir,
        catalog=section("catalog", CatalogConfig, CatalogConfig()),
        decoder=section("decoder", DecoderConfig, DecoderConfig()),
        train=train,
        sim=section("sim", SimConstants, SimConstants()),
    )


def _asdict_flat(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def config_to_json(cfg: EngineConfig) -> dict:
    train = _asdict_flat(cfg.train)
    train["sampling"] = _asdict_flat(cfg.train.sampling)
    return {
        "registry": cfg.registry,
        "out_dir": cfg.out_dir,
        "catalog": _asdict_flat(cfg.catalog),
        "decoder": _asdict_flat(cfg.decoder),
        "train": train,
        "sim": _asdict_flat(cfg.sim),
    }


def load_config(path: str | None = None) -> EngineConfig:
    """Config from an explicit path, PLANFORGE_CONFIG, or defaults."""
    if path is None:
        path = os.environ.get("PLANFORGE_CONFIG")
    if path is None:
        return EngineConfig()
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_json(doc)


def config_sha256(cfg: EngineConfig) -> str:
    canon = json.dumps(config_to_json(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
