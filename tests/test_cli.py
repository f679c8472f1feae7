"""End-to-end runs of the command line interface on a small catalog."""

from __future__ import annotations

import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from statistics import fmean

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from planforge.benchgen import catalog_from_json
from planforge.cli import _dumps, _json_array, _task_text, main
from planforge.context import context_levels, context_to_json
from planforge.decoder import initial_state, step_frontier
from planforge.executor import execute_task
from planforge.plan_ir import MetricSlot, Sample, TaskCategory, TaskSpec, task_to_json
from planforge.registry import default_registry
from planforge.simkit import (
    IMAGE_CORRUPTIONS,
    MAX_EXPR_DEPTH,
    TEXT_CORRUPTIONS,
    Language,
    Modality,
    Payload,
    SemanticId,
)

SRC = Path(__file__).resolve().parents[1] / "src"

TINY_CONFIG = {
    "catalog": {
        "image_image": 5,
        "image_text": 5,
        "text_image": 5,
        "text_text": 5,
        "image_text_text": 5,
        "text_text_text": 5,
        "samples_per_task": 2,
    },
    "train": {"epochs": 2, "rollouts_per_task": 2, "pretrain_epochs": 25},
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    out = root / "out"
    base = ["--config", str(config), "--out", str(out)]
    assert main(base + ["gen"]) == 0
    catalog = out / "catalog.json"
    assert main(base + ["train", "--catalog", str(catalog)]) == 0
    return {"base": base, "root": root, "out": out, "catalog": catalog}


def test_gen_outputs(ws) -> None:
    out = ws["out"]
    tasks = json.loads((out / "catalog.json").read_text())
    assert len(tasks) == 30
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 0
    assert "config_sha256" in manifest
    per_task = out / "tasks" / f"{tasks[0]['id']}.json"
    assert json.loads(per_task.read_text()) == tasks[0]


def test_gen_is_reproducible_and_seed_sensitive(ws, tmp_path) -> None:
    base = ws["base"][:2]  # keep --config, replace --out
    rerun = tmp_path / "rerun"
    assert main(base + ["--out", str(rerun), "gen"]) == 0
    assert (rerun / "catalog.json").read_bytes() == (ws["out"] / "catalog.json").read_bytes()

    reseeded = tmp_path / "seeded"
    assert main(base + ["--out", str(reseeded), "--seed", "3", "gen"]) == 0
    assert (reseeded / "catalog.json").read_bytes() != (ws["out"] / "catalog.json").read_bytes()
    manifest = json.loads((reseeded / "manifest.json").read_text())
    assert manifest["seed"] == 3


def test_oracle_single_task(ws, tmp_path, capsys) -> None:
    out = tmp_path / "oracle"
    code = main(
        ws["base"][:2]
        + ["--out", str(out), "oracle", "--catalog", str(ws["catalog"]), "--task", "ii-000"]
    )
    assert code == 0
    lines = (out / "oracle.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest ")
    assert lines[1] == "task_id,depth,best_reward,plans_examined"
    task_id, depth, reward, examined = lines[2].split(",")
    assert task_id == "ii-000"
    assert float(reward) == 1.0
    plans = json.loads((out / "oracle_plans.json").read_text())
    assert "ii-000" in plans["plans"]


def test_plan_prints_tool_arrows(ws, tmp_path, capsys) -> None:
    out = tmp_path / "plan"
    code = main(
        ws["base"][:2]
        + ["--out", str(out), "plan", "--catalog", str(ws["catalog"]), "--task", "ii-000"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("ii-000: ")
    plans = json.loads((out / "plans.json").read_text())
    assert set(plans["plans"]) == {"ii-000"}
    assert "log_prob" in plans["plans"]["ii-000"]


def _oracle_plan_file(ws, tmp_path) -> str:
    """Write ii-000's oracle plan to a file and return its path."""
    oracle_out = tmp_path / "o"
    main(
        ws["base"][:2]
        + ["--out", str(oracle_out), "oracle", "--catalog", str(ws["catalog"]), "--task", "ii-000"]
    )
    plan_doc = json.loads((oracle_out / "oracle_plans.json").read_text())["plans"]["ii-000"]
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan_doc))
    return str(plan_file)


def test_exec_runs_a_stored_plan(ws, tmp_path, capsys) -> None:
    exec_out = tmp_path / "exec"
    code = main(
        ws["base"][:2]
        + [
            "--out", str(exec_out),
            "exec", "--catalog", str(ws["catalog"]), "--task", "ii-000",
            "--plan", _oracle_plan_file(ws, tmp_path),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "mean score 1.000000 over 2 samples" in stdout
    records = [json.loads(line) for line in (exec_out / "trace.jsonl").read_text().splitlines()]
    assert len(records) == 2
    assert all(r["score"] == 1.0 and r["error"] is None for r in records)


def test_exec_rejects_invalid_plan(ws, tmp_path, capsys) -> None:
    plan_file = tmp_path / "bad_plan.json"
    plan_file.write_text(
        json.dumps({"nodes": [{"id": 0, "tool": "Text Summarization", "inputs": [{"task": 0}]}], "output": 0})
    )
    code = main(
        ws["base"][:2]
        + [
            "--out", str(tmp_path / "exec"),
            "exec", "--catalog", str(ws["catalog"]), "--task", "ii-000",
            "--plan", str(plan_file),
        ]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "InvalidPlan"
    assert any(v["code"] == "modality" for v in err["error"]["violations"])


def test_unknown_task_is_an_engine_error(ws, tmp_path, capsys) -> None:
    code = main(
        ws["base"][:2]
        + [
            "--out", str(tmp_path / "x"),
            "exec", "--catalog", str(ws["catalog"]), "--task", "zz-999",
            "--plan", str(tmp_path / "missing.json"),
        ]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "EngineError"
    assert "zz-999" in err["error"]["message"]


def test_oracle_rejects_negative_max_depth(ws, tmp_path, capsys) -> None:
    code = main(
        ws["base"][:2]
        + [
            "--out", str(tmp_path / "o"),
            "oracle", "--catalog", str(ws["catalog"]), "--task", "ii-000", "--max-depth", "-1",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == {
        "type": "EngineError",
        "message": "--max-depth must be >= 0, got -1",
    }
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["oracle", "--catalog", "{missing}"],
        ["train", "--catalog", "{missing}"],
        ["eval", "--catalog", "{catalog}", "--checkpoint", "{missing}"],
        ["exec", "--catalog", "{catalog}", "--task", "ii-000", "--plan", "{missing}"],
        ["exec", "--catalog", "{catalog}", "--task", "ii-000", "--plan", "{garbled}"],
    ],
)
def test_unreadable_input_file_is_an_engine_error(ws, tmp_path, capsys, command) -> None:
    missing = tmp_path / "missing.json"
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    paths = {"{missing}": str(missing), "{garbled}": str(garbled), "{catalog}": str(ws["catalog"])}
    argv = ws["base"][:2] + ["--out", str(tmp_path / "x")] + [paths.get(a, a) for a in command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "EngineError"
    assert str(missing if "{missing}" in command else garbled) in error["message"]


@pytest.mark.parametrize("command", ["gen", "exec"])
def test_unwritable_out_is_a_one_line_engine_error(ws, tmp_path, capsys, command) -> None:
    """`--out` naming a file, or a directory under one, fails before any write."""
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    if command == "gen":
        out, argv = blocker, ["gen"]
    else:
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(
            json.dumps({"nodes": [{"id": 0, "tool": "Colorization", "inputs": [{"task": 0}]}], "output": 0})
        )
        out = blocker / "sub"
        argv = ["exec", "--catalog", str(ws["catalog"]), "--task", "ii-000", "--plan", str(plan_file)]
    assert main(ws["base"][:2] + ["--out", str(out)] + argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "EngineError"
    assert error["message"].startswith(f"cannot write {out}")
    assert blocker.read_text() == "a file, not a directory"


def _with_quality(catalog: list, quality) -> list:
    return _with_input_field(catalog, "quality", quality)


def _with_input_field(catalog: list, key: str, value) -> list:
    catalog[0]["dataset"][0]["inputs"][0][key] = value
    return catalog


def _task(catalog: list, task_id: str) -> dict:
    return next(task for task in catalog if task["id"] == task_id)


def _three_inputs(catalog: list) -> list:
    """ii-000 with three image inputs, corruption chains and sample inputs."""
    task = _task(catalog, "ii-000")
    task["input_signature"] *= 3
    task["corruption_chains"] *= 3
    for sample in task["dataset"]:
        sample["inputs"] *= 3
    return catalog


def _no_chains(catalog: list) -> list:
    _task(catalog, "ii-000")["corruption_chains"] = []
    return catalog


def _one_itt_input(catalog: list) -> list:
    sample = _task(catalog, "itt-000")["dataset"][0]
    sample["inputs"] = sample["inputs"][:1]
    return catalog


def _text_ii_input(catalog: list) -> list:
    text = {"corruptions": [], "expr": "x0", "language": "en", "modality": "Text", "quality": 1.0}
    _task(catalog, "ii-000")["dataset"][0]["inputs"] = [text]
    return catalog


def _text_ii_reference(catalog: list) -> list:
    text = {"corruptions": [], "expr": "x0", "language": "en", "modality": "Text", "quality": 1.0}
    _task(catalog, "ii-000")["dataset"][0]["reference"] = text
    return catalog


def _duplicate_task_id(catalog: list) -> list:
    return catalog + [_task(catalog, "ii-000")]


def _deep_exprs(depth: int):
    """A function giving the catalog with each ii-000 sample's input expr
    nested ``depth`` deep."""
    def deepen(catalog: list) -> list:
        for sample in _task(catalog, "ii-000")["dataset"]:
            sample["inputs"][0]["expr"] = "(f " * depth + "x00000" + ")" * depth
        return catalog
    return deepen


def _checkpoint(version=1, token="x", value=1.0, **context) -> dict:
    """A one-entry checkpoint that loads, with the given parts swapped in."""
    fields = {"task_category": "image_to_image", "prev_tool": "*", "branch_modality": "Image", "hint": "end"}
    return {"version": version, "params": [{"context": {**fields, **context}, "token": token, "value": value}]}


# (command, file the command reads, what the error names, document or a
# function of the ws catalog document giving it). The registry file is
# named by the config; exec runs ii-000's oracle plan unless the plan is
# the document.
MALFORMED_DOCUMENTS = [
    ("exec", "--plan", "plan", {"nodes": [{"id": "x", "tool": "Fill Mask"}], "output": 0}),
    ("exec", "--plan", "plan", {"nodes": "oops"}),
    ("exec", "--plan", "plan", {"nodes": [{"id": 0, "tool": ["Fill Mask"], "inputs": [{"task": 0}]}], "output": 0}),
    ("exec", "--plan", "plan", [{"nodes": []}]),
    ("eval", "--catalog", "task", [{"id": "t"}]),
    ("eval", "--catalog", "catalog", {"not": "a list"}),
    ("eval", "--catalog", "catalog", 7),
    ("eval", "--catalog", "task", lambda catalog: _with_quality(catalog, 1.5)),
    ("eval", "--catalog", "task", lambda catalog: _with_quality(catalog, 0.0)),
    ("eval", "--catalog", "task", lambda catalog: _with_quality(catalog, "0.5")),
    ("eval", "--checkpoint", "checkpoint", {"params": [{"context": {}, "token": "x", "value": 1.0}]}),
    ("eval", "--checkpoint", "checkpoint", {"params": [{"context": {"task_category": [], "prev_tool": None, "branch_modality": "Image", "hint": None}, "token": "x", "value": 1.0}]}),
    ("eval", "--checkpoint", "checkpoint", {"params": [{"context": {"task_category": "a", "prev_tool": None, "branch_modality": "Image", "hint": None}, "token": "x", "value": "high"}]}),
    ("parse", "registry", "registry", [{"name": "Fill Mask"}]),
    ("parse", "registry", "registry", {"not": "a list"}),
    ("parse", "registry", "registry", [{"name": ["Fill Mask"], "inputs": ["Text"], "output": "Text", "semantic": "RemoveMask"}]),
    ("exec", "--plan", "plan", {"nodes": [{"id": 0.7, "tool": "Image Deblurring", "inputs": [{"task": 0.2}]}], "output": 0.9}),
    ("exec", "--plan", "plan", {"nodes": [{"id": True, "tool": "Image Deblurring", "inputs": [{"task": False}]}], "output": True}),
    ("eval", "--checkpoint", "checkpoint", _checkpoint(value="nan")),
    ("eval", "--checkpoint", "checkpoint", _checkpoint(value="inf")),
    ("eval", "--checkpoint", "checkpoint", _checkpoint(value=math.nan)),
    ("eval", "--checkpoint", "checkpoint", _checkpoint(value=-math.inf)),
    ("eval", "--checkpoint", "checkpoint", _checkpoint(value=10**400)),
    ("eval", "--checkpoint", "checkpoint", _checkpoint(value="2.5")),
    ("eval", "--checkpoint", "checkpoint", _checkpoint(value=True)),
    ("eval", "--checkpoint", "checkpoint", _checkpoint(prev_tool=7)),
    ("eval", "--checkpoint", "checkpoint", _checkpoint(hint=None)),
    ("eval", "--checkpoint", "checkpoint", _checkpoint(token=7)),
    ("eval", "--checkpoint", "checkpoint", _checkpoint(token=None)),
    ("eval", "--checkpoint", "checkpoint", _checkpoint(version=7)),
    ("eval", "--checkpoint", "checkpoint", _checkpoint(version="1")),
    ("eval", "--catalog", "task", lambda catalog: [{**catalog[0], "dataset": []}] + catalog[1:]),
    ("oracle", "--catalog", "task", lambda catalog: [{**catalog[0], "dataset": []}] + catalog[1:]),
    ("eval", "--catalog", "task", _three_inputs),
    ("oracle", "--catalog", "task", _three_inputs),
    ("eval", "--catalog", "task", _no_chains),
    ("oracle", "--catalog", "task", _no_chains),
    ("eval", "--catalog", "task", _one_itt_input),
    ("eval", "--catalog", "task", _text_ii_input),
    ("oracle", "--catalog", "catalog", _duplicate_task_id),
    ("eval", "--catalog", "catalog", _duplicate_task_id),
    ("parse", "registry", "registry", {}),
    ("eval", "--catalog", "task", lambda catalog: _with_input_field(catalog, "modality", "Audio")),
    ("eval", "--catalog", "task", lambda catalog: _with_input_field(catalog, "expr", "x1\tx2")),
    ("eval", "--catalog", "task", lambda catalog: _with_input_field(catalog, "expr", 7)),
    ("eval", "--catalog", "catalog", {}),
    ("eval", "--catalog", "catalog", "x"),
    ("eval", "--catalog", "catalog", 1),
    ("eval", "--catalog", "catalog", None),
    ("parse", "registry", "registry", [{"name": "<bos>", "inputs": ["Text"], "output": "Text", "semantic": "RemoveMask"}]),
    ("parse", "registry", "registry", [{"name": "<end>", "inputs": ["Text"], "output": "Text", "semantic": "RemoveMask"}]),
    ("parse", "registry", "registry", [{"name": "*", "inputs": ["Text"], "output": "Text", "semantic": "RemoveMask"}]),
    ("eval", "--catalog", "task", lambda catalog: _with_quality(catalog, True)),
    ("eval", "--catalog", "task", _text_ii_reference),
    ("oracle", "--catalog", "task", _text_ii_reference),
    ("exec", "--catalog", "task", _deep_exprs(500)),
    ("oracle", "--catalog", "task", _deep_exprs(500)),
    ("eval", "--catalog", "task", _deep_exprs(500)),
]


@pytest.mark.parametrize("command, flag, what, document", MALFORMED_DOCUMENTS)
def test_malformed_document_is_a_one_line_error(ws, tmp_path, capsys, command, flag, what, document) -> None:
    if callable(document):
        document = document(json.loads(ws["catalog"].read_text()))
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document))
    if command == "parse":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"registry": str(path)}))
        argv = ["--config", str(config), "--out", str(tmp_path / "x"), "parse", "--text", "module: Fill Mask"]
    else:
        files = {"--catalog": str(ws["catalog"]), flag: str(path)}
        argv = ws["base"][:2] + ["--out", str(tmp_path / "x"), command, "--task", "ii-000"]
        if command == "exec":
            argv += ["--plan", files.pop("--plan", None) or _oracle_plan_file(ws, tmp_path)]
        for name, value in files.items():
            argv += [name, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "MalformedDocument"
    assert error["message"].startswith(f"malformed {what}: ")
    assert not (tmp_path / "x").exists()


def test_exec_runs_a_task_of_the_deepest_expr(ws, tmp_path, capsys) -> None:
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(_deep_exprs(MAX_EXPR_DEPTH)(json.loads(ws["catalog"].read_text()))))
    out = tmp_path / "exec"
    argv = ws["base"][:2] + ["--out", str(out), "exec", "--catalog", str(catalog), "--task", "ii-000"]
    assert main(argv + ["--plan", _oracle_plan_file(ws, tmp_path)]) == 0
    records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert len(records) == 2 and all(r["error"] is None for r in records)


@pytest.mark.parametrize("command", ["oracle", "eval"])
def test_quality_underflow_scores_zero(ws, tmp_path, command) -> None:
    # Every plan for a text-text-to-text task joins its two inputs, and
    # 1e-200 * 1e-200 underflows to 0.0.
    catalog = json.loads(ws["catalog"].read_text())
    for sample in _task(catalog, "ttt-000")["dataset"]:
        for payload in sample["inputs"]:
            payload["quality"] = 1e-200
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    out = tmp_path / "x"
    argv = ws["base"][:2] + ["--out", str(out), command, "--catalog", str(path)]
    assert main(argv + ["--task", "ttt-000"]) == 0
    if command == "oracle":
        assert (out / "oracle.csv").read_text().splitlines()[-1].split(",")[2] == "0.000000"
    else:
        report = json.loads((out / "report.json").read_text())["report"]
        assert report["per_task"] == [{"task_id": "ttt-000", "reward": 0.0}]


def test_checkpoint_cases_start_from_a_loadable_checkpoint(ws, tmp_path) -> None:
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(_checkpoint()))
    argv = ws["base"][:2] + ["--out", str(tmp_path / "x"), "eval", "--task", "ii-000"]
    assert main(argv + ["--catalog", str(ws["catalog"]), "--checkpoint", str(path)]) == 0


def _overflowing_checkpoint(catalog_path: Path, task_id: str) -> dict:
    """Finite weights whose two levels sum to inf on the task's first step."""
    task = next(t for t in catalog_from_json(json.loads(catalog_path.read_text())) if t.id == task_id)
    frontier = step_frontier(initial_state(task), task, default_registry(), 1)
    params = [
        {"context": context_to_json(level), "token": frontier.actions[0], "value": 1e308}
        for level in context_levels(frontier.context)
    ]
    return {"version": 1, "params": params}


def _saturated_checkpoint(ws) -> dict:
    """The trained checkpoint with every value set to 1e308: wherever a
    context has both levels, its logit sums to inf."""
    doc = json.loads((ws["out"] / "checkpoint.json").read_text())
    return {**doc, "params": [{**entry, "value": 1e308} for entry in doc["params"]]}


@pytest.mark.parametrize(
    "command", ["plan", "train", "compare", "eval-saturated", "plan-saturated"]
)
def test_non_finite_output_is_a_one_line_error_and_no_file(ws, tmp_path, capsys, command) -> None:
    """Finite inputs can overflow: a checkpoint whose two levels sum to inf
    gives an infinite logit, and train.lr 1e308 over four epochs makes the
    trained weights infinite, in train and in compare. Scores under an
    infinite logit are NaN and rank nothing, so the policy refuses the
    logit where it arises: in `plan` and `eval` while decoding, in `train`
    and `compare` while taking a gradient. Nothing is written or printed."""
    out = tmp_path / "x"
    config = tmp_path / "config.json"
    checkpoint = tmp_path / "checkpoint.json"
    if command == "plan":
        config.write_text(json.dumps(TINY_CONFIG))
        checkpoint.write_text(json.dumps(_overflowing_checkpoint(ws["catalog"], "ii-000")))
        argv = ["plan", "--task", "ii-000", "--checkpoint", str(checkpoint)]
    elif command.endswith("-saturated"):
        config.write_text(json.dumps(TINY_CONFIG))
        checkpoint.write_text(json.dumps(_saturated_checkpoint(ws)))
        argv = [command.split("-")[0], "--split", "test", "--checkpoint", str(checkpoint)]
    else:
        config.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], "epochs": 4, "lr": 1e308}}))
        argv = [command]
    assert main(["--config", str(config), "--out", str(out), *argv, "--catalog", str(ws["catalog"])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "EngineError"
    assert error["message"].startswith("policy logit inf is not finite")
    assert not out.exists()


def test_missing_registry_file_is_an_engine_error(tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    missing = tmp_path / "registry.json"
    config.write_text(json.dumps({"registry": str(missing)}))
    code = main(["--config", str(config), "parse", "--text", "module: Fill Mask"])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "EngineError"
    assert str(missing) in error["message"]


def test_parse_with_an_empty_registry_finds_no_tools(tmp_path, capsys) -> None:
    registry = tmp_path / "registry.json"
    registry.write_text("[]")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"registry": str(registry)}))
    code = main(["--config", str(config), "parse", "--text", "module: Foo Bar, then Fill Mask"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sequence"] == []
    assert doc["dropped"] == [
        {"reason": "not in registry", "text": "Foo Bar"},
        {"reason": "not in registry", "text": "Fill Mask"},
    ]


# `planforge oracle` rows on a small seeded catalog: four one-input tasks
# and four two-input tasks of tight depth 2. Any change to a reward or to
# the number of plans the exhaustive search examines shows up here.
GOLDEN_CONFIG = {
    "catalog": {
        "image_image": 1,
        "image_text": 1,
        "text_image": 1,
        "text_text": 1,
        "image_text_text": 2,
        "text_text_text": 2,
        "samples_per_task": 2,
    }
}
GOLDEN_ORACLE_ROWS = [
    "ii-000,3,1.000000,79",
    "it-000,5,1.000000,2649",
    "ti-000,3,1.000000,49",
    "tt-000,3,1.000000,79",
    "itt-000,2,1.000000,13923",
    "itt-001,2,1.000000,13923",
    "ttt-000,2,0.900000,4366",
    "ttt-001,2,0.900000,4366",
]


def test_oracle_golden_rows(tmp_path) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GOLDEN_CONFIG))
    base = ["--config", str(config), "--seed", "0", "--out", str(tmp_path)]
    assert main(base + ["gen"]) == 0
    assert main(base + ["oracle", "--catalog", str(tmp_path / "catalog.json")]) == 0
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert lines[1:] == ["task_id,depth,best_reward,plans_examined"] + GOLDEN_ORACLE_ROWS


def test_parse_emits_json(capsys) -> None:
    code = main(["parse", "--text", "module: Fill Mask, module: Style Transfer"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sequence"] == ["Fill Mask"]
    assert doc["dropped"] == [{"reason": "not in registry", "text": "Style Transfer"}]


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000, b"{not json"],
    ids=["not-utf8", "deeply-nested", "garbled"],
)
def test_unreadable_config_is_a_one_line_config_error(tmp_path, capsys, content) -> None:
    config = tmp_path / "config.json"
    config.write_bytes(content)
    assert main(["--config", str(config), "--out", str(tmp_path / "x"), "gen"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert str(config) in error["message"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag", ["--catalog", "--plan", "--checkpoint"])
def test_deeply_nested_input_file_is_an_engine_error(ws, tmp_path, capsys, flag) -> None:
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    files = {"--catalog": str(ws["catalog"]), flag: str(deep)}
    argv = ws["base"][:2] + ["--out", str(tmp_path / "x")]
    if flag == "--plan":
        argv += ["exec", "--task", "ii-000", "--plan", files.pop("--plan")]
    else:
        argv += ["eval", "--task", "ii-000"]
    for name, value in files.items():
        argv += [name, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "EngineError"
    assert str(deep) in error["message"]


def test_parse_reads_text_file(tmp_path, capsys) -> None:
    text = tmp_path / "plan.txt"
    text.write_text("module: Fill Mask, module: Style Transfer", encoding="utf-8")
    assert main(["parse", "--file", str(text)]) == 0
    assert json.loads(capsys.readouterr().out)["sequence"] == ["Fill Mask"]


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_parse_unreadable_file_is_an_engine_error(tmp_path, capsys, kind) -> None:
    path = tmp_path / "plan.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"module: Fill Mask \xff\xfe")
    assert main(["parse", "--file", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "EngineError"
    assert str(path) in error["message"]


def test_train_writes_checkpoint_and_history(ws) -> None:
    out = ws["out"]
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["version"] == 1
    assert checkpoint["params"]
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[1] == "epoch,mean_reward,baseline,epsilon"
    assert len(lines) == 4  # manifest comment + header + two epochs


def test_eval_with_checkpoint(ws, tmp_path, capsys) -> None:
    out = tmp_path / "eval"
    code = main(
        ws["base"][:2]
        + [
            "--out", str(out),
            "eval", "--catalog", str(ws["catalog"]), "--split", "test",
            "--checkpoint", str(ws["out"] / "checkpoint.json"),
        ]
    )
    assert code == 0
    assert "overall" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert len(report["report"]["per_task"]) == 6
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[1] == "metric,eval"


def test_compare_reports_all_schemas(ws, tmp_path, capsys) -> None:
    out = tmp_path / "compare"
    code = main(
        ws["base"][:2] + ["--out", str(out), "compare", "--catalog", str(ws["catalog"])]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "few: n/a" in stdout
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[1] == "metric,zero,few,supervised,rltf"
    assert ",n/a," in csv_lines[-1]
    assert (out / "history.csv").exists()
    assert (out / "checkpoint.json").exists()


def test_eval_overall_averages_only_populated_slots(tmp_path, capsys) -> None:
    # ii-000 of the stock catalog lands in the vit slot alone; the empty
    # clip and bert slots must not pull overall towards zero.
    out = tmp_path / "stock"
    assert main(["--out", str(out), "gen"]) == 0
    code = main(["--out", str(out), "eval", "--catalog", str(out / "catalog.json"), "--task", "ii-000"])
    assert code == 0
    assert "overall 0.810000 on 1 tasks" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["clip"] is None and report["bert"] is None
    assert report["overall"] == report["vit"]
    assert math.isclose(report["vit"], 0.81)
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[2:] == ["clip,n/a", "bert,n/a", "vit,0.810000", "overall,0.810000"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)


@given(st.lists(_JSON, max_size=4))
@example([])
@example([{"id": "ii-000", "dataset": [{"inputs": []}]}])
def test_json_array_assembles_the_dumps_of_the_list(docs) -> None:
    """`gen` encodes each task once and builds catalog.json from the
    per-task strings; the assembled string is the list's own encoding."""
    assert _json_array([_dumps(doc) for doc in docs]) == json.dumps(docs, indent=2, sort_keys=True)


# Strings that need escapes in JSON (quotes, backslashes, non-ASCII and
# control characters), and the markers `_task_text` splits its dumps at.
_TRICKY = st.sampled_from(
    ['"', "\\", "Stra\u00dfe", "\u65e5\u672c", "\x00", "\n", "\x1f", "null"]
    + ['"dataset": [', '\n  "dataset": []']
)
_STRINGS = _TRICKY | st.text(max_size=6)
_EXPRS = st.recursive(
    _STRINGS,
    lambda children: st.tuples(st.sampled_from(["summ", "de", "class"]), children)
    | st.tuples(st.sampled_from(["qa", "vqa"]), children, children),
    max_leaves=4,
)
# 1, 1.0 and True are equal qualities that encode differently.
_QUALITIES = st.sampled_from([1, 1.0, True, 0.5]) | st.floats(
    min_value=0.0, max_value=1.0, exclude_min=True
)


@st.composite
def _payloads(draw, modality: Modality) -> Payload:
    image = modality is Modality.IMAGE
    language = Language.NONE if image else draw(st.sampled_from([Language.EN, Language.DE]))
    legal = IMAGE_CORRUPTIONS if image else TEXT_CORRUPTIONS
    corruptions = tuple(draw(st.lists(st.sampled_from(legal), max_size=2)))
    return Payload(modality, draw(_EXPRS), language, corruptions, draw(_QUALITIES))


def _task_spec(task_id: str, description: str, samples: tuple[Sample, ...]) -> TaskSpec:
    signature = tuple(p.modality for p in samples[0].inputs)
    return TaskSpec(
        id=task_id,
        description=description,
        category=TaskCategory.TEXT_TEXT_TO_TEXT if len(signature) == 2 else TaskCategory.TEXT_TO_TEXT,
        input_signature=signature,
        output_modality=samples[0].reference.modality,
        corruption_chains=tuple(p.corruptions for p in samples[0].inputs),
        reference_builder=(SemanticId.QA, SemanticId.SUMMARIZE),
        metric_slot=MetricSlot.BERT,
        dataset=samples,
    )


@st.composite
def _tasks(draw) -> TaskSpec:
    """One or two inputs, one to three samples, each payload's shape drawn
    from few enough values that samples of a task often share templates."""
    image, text = Modality.IMAGE, Modality.TEXT
    signature = draw(st.sampled_from([(image,), (text,), (image, text), (text, text)]))
    out = draw(st.sampled_from(Modality))
    samples = draw(
        st.lists(
            st.builds(Sample, st.tuples(*(_payloads(m) for m in signature)), _payloads(out)),
            min_size=1,
            max_size=3,
        )
    )
    return _task_spec(draw(_STRINGS), draw(_STRINGS), tuple(samples))


_T, _EN, _DE = Modality.TEXT, Language.EN, Language.DE


@given(_tasks())
@example(
    _task_spec(
        "null",
        '"dataset": [',
        (
            Sample((Payload(_T, "a", _EN, (), 1),), Payload(_T, ("summ", ("qa", "a", "b")), _DE, (), 1.0)),
            Sample((Payload(_T, "c", _EN, (), 1.0),), Payload(_T, ("summ", ("qa", "c", "d")), _DE, (), 1)),
            Sample((Payload(_T, '\\"\n', _EN, (), 0.25),), Payload(_T, "\u00e9", _DE, (), 1.0)),
        ),
    )
)
def test_task_text_is_the_dumps_of_the_task_document(task) -> None:
    """`gen` writes each task from per-shape templates; the text is the
    task document's own encoding."""
    assert _task_text(task) == _dumps(task_to_json(task))


def test_task_text_of_the_stock_catalog(catalog) -> None:
    for task in catalog:
        assert _task_text(task) == _dumps(task_to_json(task))


def test_gen_writes_each_task_as_in_the_catalog(ws) -> None:
    catalog = json.loads(ws["catalog"].read_text())
    assert ws["catalog"].read_text() == json.dumps(catalog, indent=2, sort_keys=True) + "\n"
    for doc in catalog:
        text = (ws["out"] / "tasks" / f"{doc['id']}.json").read_text()
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_readme_library_example_prints_the_task_reward(capsys) -> None:
    """The README's library blocks run as written, in order and in one
    namespace. The first prints the mean of `execute_task`'s scores for the
    plan it decodes; the second prints the parsed tool sequence and that a
    remote peer scoring every token 0 decodes the uniform policy's plan."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    first, second = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    names: dict = {}
    exec(first, names)
    task_id, reward = capsys.readouterr().out.split()
    assert task_id == names["task"].id
    scores = [score for _, score in execute_task(names["best"].plan, names["task"], names["registry"])]
    assert float(reward) == fmean(scores)
    exec(second, names)
    assert capsys.readouterr().out.splitlines() == ["('Image Deblurring', 'Colorization')", "True"]
    assert all(name in names["prompt"] for name in names["registry"].names())
    assert not names["peer"].is_alive()


def _python(tmp_path, *args: str) -> subprocess.CompletedProcess:
    """`python ARGS` in a fresh process and directory, importing this checkout."""
    env = {key: value for key, value in os.environ.items() if key != "PLANFORGE_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )


def test_python_dash_m_runs_the_command_line(tmp_path) -> None:
    proc = _python(tmp_path, "-m", "planforge", "parse", "--text", "module: Image Deblurring, module: Colorization")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"dropped": [], "sequence": ["Image Deblurring", "Colorization"]}


def test_import_planforge_binds_and_loads_nothing_else(tmp_path) -> None:
    """The package's surface is its modules: the package itself holds only
    its docstring and `__version__`."""
    probe = (
        "import json, sys, planforge; print(json.dumps(["
        "[n for n in vars(planforge) if not n.startswith('_')], "
        "[m for m in sys.modules if m.startswith('planforge.')], planforge.__version__]))"
    )
    proc = _python(tmp_path, "-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], "0.1.0"]


def _readme_session() -> list[tuple[str, list[list[str]]]]:
    """The numbered steps of the README's "A full session" block, as
    (comment text, commands split into argv lists)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"A full session:\n\n```sh\n(.*?)```", readme, flags=re.DOTALL).group(1)
    steps: list[tuple[str, list[list[str]]]] = []
    for line in block.replace("\\\n", " ").splitlines():
        if re.match(r"# \d+\. ", line):
            steps.append((line[2:], []))
        elif line.startswith("#"):
            steps[-1] = (steps[-1][0] + " " + line.lstrip("# "), steps[-1][1])
        elif line.strip():
            steps[-1][1].append(shlex.split(line))
    return steps


def test_readme_session_runs_as_written(tmp_path, monkeypatch, capsys) -> None:
    # Steps 1-5 of the README session, in a fresh directory with the
    # default config: every command exits 0 and writes the files its
    # comment names.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PLANFORGE_CONFIG", raising=False)
    steps = _readme_session()[:5]
    assert [comment.split(".")[0] for comment, _ in steps] == ["1", "2", "3", "4", "5"]
    named = set()
    for comment, commands in steps:
        for argv in commands:
            if argv[0] == "planforge":
                assert main(argv[1:]) == 0, argv
            else:
                assert argv[:2] == ["python3", "-c"], argv
                exec(argv[2], {})
        named.update(re.findall(r"[\w<>/]+\.(?:jsonl|json|csv)", comment))
    assert named == {
        "catalog.json", "tasks/<id>.json", "manifest.json", "oracle.csv",
        "oracle_plans.json", "plans.json", "trace.jsonl",
    }
    for name in named:
        assert (tmp_path / "run" / name.replace("<id>", "ii-000")).is_file(), name
    assert (tmp_path / "run" / "plan.json").is_file()
    out = capsys.readouterr().out
    assert "ii-000: mean score 1.000000 over 20 samples" in out
    assert json.loads(out.splitlines()[-1]) == {
        "dropped": [],
        "sequence": ["Image Deblurring", "Colorization"],
    }
