from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from planforge.cli import main
from planforge.config import (
    EngineConfig,
    config_from_json,
    config_sha256,
    config_to_json,
    load_config,
)
from planforge.errors import ConfigError


def test_round_trip_is_identity() -> None:
    cfg = EngineConfig()
    assert config_from_json(config_to_json(cfg)) == cfg


def test_round_trip_keeps_a_value_in_every_section() -> None:
    doc = {
        "registry": "tools.json",
        "out_dir": "elsewhere",
        "catalog": {"seed": 3},
        "decoder": {"beam_size": 4, "max_tools_per_branch": 3},
        "train": {"epochs": 2, "sampling": {"temperature": 1.5, "top_p": 0.8}},
        "sim": {"gamma": 0.7},
    }
    cfg = config_from_json(doc)
    assert cfg.catalog.seed == 3
    assert (cfg.decoder.beam_size, cfg.decoder.max_tools_per_branch) == (4, 3)
    assert cfg.train.epochs == 2
    assert (cfg.train.sampling.temperature, cfg.train.sampling.top_p) == (1.5, 0.8)
    assert cfg.sim.gamma == 0.7
    assert config_from_json(config_to_json(cfg)) == cfg


def test_partial_documents_keep_defaults() -> None:
    cfg = config_from_json({"decoder": {"beam_size": 5}, "train": {"lr": 0.01}})
    assert cfg.decoder.beam_size == 5
    assert cfg.decoder.max_tools_per_branch == 6
    assert cfg.train.lr == 0.01
    assert cfg.train.epochs == 12
    assert cfg.train.sampling == EngineConfig().train.sampling
    assert cfg.catalog == EngineConfig().catalog


def test_train_sampling_is_a_partial_section() -> None:
    cfg = config_from_json({"train": {"sampling": {"top_k": 3}}})
    assert cfg.train.sampling.top_k == 3
    assert cfg.train.sampling.temperature == 0.9
    assert cfg.train.epochs == 12


def test_null_section_means_defaults() -> None:
    assert config_from_json({"decoder": None, "sim": None}) == EngineConfig()
    assert config_from_json({"train": {"sampling": None}}) == EngineConfig()


@pytest.mark.parametrize(
    "section, key",
    [
        ("decoder", "sampling"),
        ("decoder", "temperature"),
        ("decoder", "top_k"),
        ("decoder", "top_p"),
        ("decoder", "seed"),
        ("train.sampling", "beam_size"),
        ("train.sampling", "seed"),
        ("train.sampling", "sampling"),
    ],
)
def test_deleted_walker_keys_are_rejected(section, key) -> None:
    doc: dict = {key: 0}
    for name in reversed(section.split(".")):
        doc = {name: doc}
    with pytest.raises(ConfigError, match=rf"^unknown key\(s\) in {section}: {key}$"):
        config_from_json(doc)


def test_unknown_keys_are_rejected() -> None:
    with pytest.raises(ConfigError):
        config_from_json({"decoder": {"beam_widht": 5}})
    with pytest.raises(ConfigError):
        config_from_json({"unknown_section": {}})


def test_bad_values_are_wrapped() -> None:
    with pytest.raises(ConfigError):
        config_from_json({"decoder": {"beam_size": 0}})
    with pytest.raises(ConfigError):
        config_from_json({"train": {"sampling": {"top_p": 1.5}}})


def test_scalar_types_must_match_the_defaults() -> None:
    with pytest.raises(ConfigError, match="train.epochs must be int, got str"):
        config_from_json({"train": {"epochs": "3"}})
    with pytest.raises(ConfigError, match="decoder.beam_size must be int, got bool"):
        config_from_json({"decoder": {"beam_size": True}})
    with pytest.raises(ConfigError):
        config_from_json({"train": {"epochs": 3.0}})
    with pytest.raises(ConfigError):
        config_from_json({"train": {"sampling": {"temperature": "hot"}}})
    with pytest.raises(ConfigError):
        config_from_json({"sim": {"beta": [0.8]}})


@pytest.mark.parametrize(
    "doc",
    [
        {"sim": {"gamma": 0}},
        {"sim": {"gamma": 1.5}},
        {"sim": {"gamma": math.nan}},
        {"sim": {"gamma": -0.1}},
        {"sim": {"beta": 0.0}},
        {"sim": {"beta": math.inf}},
        {"sim": {"beta": math.nan}},
        {"sim": {"language_mismatch": -0.5}},
        {"sim": {"language_mismatch": 1.01}},
        {"sim": {"language_mismatch": math.nan}},
        {"catalog": {"image_image": -1}},
        {"catalog": {"text_text_text": -3}},
        {"catalog": {"samples_per_task": 0}},
        {"catalog": {"samples_per_task": -2}},
    ],
)
def test_out_of_range_constants_are_config_errors(doc) -> None:
    with pytest.raises(ConfigError, match=r"^bad value in (sim|catalog): "):
        config_from_json(doc)


def test_range_edges_are_accepted() -> None:
    cfg = config_from_json({
        "sim": {"beta": 1, "gamma": 1e-9, "language_mismatch": 0},
        "catalog": {"image_image": 0, "samples_per_task": 1},
    })
    assert (cfg.sim.beta, cfg.sim.gamma, cfg.sim.language_mismatch) == (1, 1e-9, 0)
    assert (cfg.catalog.image_image, cfg.catalog.samples_per_task) == (0, 1)


def test_int_is_accepted_for_a_float_field() -> None:
    cfg = config_from_json({"train": {"lr": 1}, "sim": {"beta": 1}})
    assert cfg.train.lr == 1
    assert cfg.sim.beta == 1


def test_readme_config_example_loads() -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    cfg = config_from_json(json.loads(blocks[0]))
    assert cfg.sim.beta == 0.8
    assert cfg.decoder.beam_size == 30


def test_input_document_is_not_mutated() -> None:
    doc = {"train": {"sampling": {"top_k": 4}, "lr": 0.2}}
    snapshot = json.loads(json.dumps(doc))
    config_from_json(doc)
    assert doc == snapshot


def test_load_config_precedence(tmp_path, monkeypatch) -> None:
    explicit = tmp_path / "a.json"
    explicit.write_text(json.dumps({"out_dir": "explicit"}))
    from_env = tmp_path / "b.json"
    from_env.write_text(json.dumps({"out_dir": "from-env"}))

    monkeypatch.setenv("PLANFORGE_CONFIG", str(from_env))
    assert load_config(str(explicit)).out_dir == "explicit"
    assert load_config(None).out_dir == "from-env"
    monkeypatch.delenv("PLANFORGE_CONFIG")
    assert load_config(None) == EngineConfig()


def test_config_sha_tracks_content() -> None:
    base = EngineConfig()
    assert config_sha256(base) == config_sha256(EngineConfig())
    changed = config_from_json({"decoder": {"beam_size": 2}})
    assert config_sha256(changed) != config_sha256(base)


@pytest.mark.parametrize(
    "doc, section",
    [
        ({"decoder": {"max_tools_per_branch": 0}}, "decoder"),
        ({"decoder": {"max_tools_per_branch": -1}}, "decoder"),
        ({"train": {"sampling": {"max_tools_per_branch": 0}}}, "train.sampling"),
        ({"train": {"sampling": {"max_tools_per_branch": -1}}}, "train.sampling"),
    ],
)
def test_tool_cap_below_one_is_a_config_error(doc, section) -> None:
    with pytest.raises(
        ConfigError, match=rf"^bad value in {section}: max_tools_per_branch must be positive$"
    ):
        config_from_json(doc)


def test_tool_cap_of_one_is_accepted() -> None:
    cfg = config_from_json({
        "decoder": {"max_tools_per_branch": 1},
        "train": {"sampling": {"max_tools_per_branch": 1}},
    })
    assert cfg.decoder.max_tools_per_branch == cfg.train.sampling.max_tools_per_branch == 1


def test_tool_cap_below_one_exits_1_with_one_line(tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"decoder": {"max_tools_per_branch": -1}}))
    assert main(["--config", str(config), "--out", str(tmp_path / "x"), "gen"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"] == "bad value in decoder: max_tools_per_branch must be positive"


@pytest.mark.parametrize(
    "train",
    [
        {"epochs": -1},
        {"pretrain_epochs": -1},
        {"rollouts_per_task": 0},
        {"rollouts_per_task": -3},
        {"lr": -0.1},
        {"lr": math.nan},
        {"lr": math.inf},
        {"pretrain_lr": -1},
        {"pretrain_lr": math.nan},
        {"pretrain_lr": math.inf},
        {"epsilon": -0.1},
        {"epsilon": 1.5},
        {"epsilon": math.nan},
        {"epsilon_decay": 1.01},
        {"epsilon_decay": math.nan},
        {"baseline_momentum": -0.5},
        {"baseline_momentum": math.nan},
        {"sampling": {"temperature": math.nan}},
        {"sampling": {"temperature": math.inf}},
    ],
)
def test_out_of_range_train_settings_are_config_errors(train) -> None:
    with pytest.raises(ConfigError, match=r"^bad value in train(\.sampling)?: "):
        config_from_json({"train": train})


def test_train_range_edges_are_accepted_and_defaults_keep_their_hash() -> None:
    edges = {
        "epochs": 0, "pretrain_epochs": 0, "rollouts_per_task": 1, "lr": 0, "pretrain_lr": 0,
        "epsilon": 1, "epsilon_decay": 0, "baseline_momentum": 1,
        "sampling": {"temperature": 1e-9},
    }
    cfg = config_from_json({"train": edges})
    assert (cfg.train.epochs, cfg.train.rollouts_per_task, cfg.train.epsilon) == (0, 1, 1)
    assert config_sha256(EngineConfig()) == (
        "6c4eed49dde5f00c8aee7f165273e281f0d34e620a443b8c75a91890fb8b02f0"
    )


def test_nan_learning_rate_exits_1_before_training(tmp_path, capsys) -> None:
    """Python's json reads NaN, so the range check is what stops a run
    that would write a checkpoint full of NaN."""
    config = tmp_path / "config.json"
    config.write_text('{"train": {"lr": NaN}}')
    out = tmp_path / "run"
    catalog = str(tmp_path / "catalog.json")
    assert main(["--config", str(config), "--out", str(out), "train", "--catalog", catalog]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"] == "bad value in train: lr must be finite and >= 0, got nan"
    assert not (out / "checkpoint.json").exists()
