"""Mutated input documents at the command line.

A small generated catalog, one of its oracle plans, a trained checkpoint
and a config are each mutated: one or two JSON subtrees are replaced,
deleted or duplicated. The commands that read the document then run
in-process. Whatever the document holds, no exception escapes `main`,
the exit code is 0, 1 or 2, and a non-zero exit writes a first stderr
line that is one JSON object and leaves no output directory.
"""

from __future__ import annotations

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from planforge.cli import main

CONFIG = {
    "catalog": {
        "image_image": 0,
        "image_text": 5,
        "text_image": 0,
        "text_text": 1,
        "image_text_text": 1,
        "text_text_text": 0,
        "samples_per_task": 2,
        "max_chain_length": 1,
    },
    "train": {"epochs": 1, "rollouts_per_task": 2, "pretrain_epochs": 2},
}
TASK = "it-000"

# The commands that read each document; the other documents stay as made.
READERS = {
    "catalog": ("oracle", "eval", "plan", "exec", "train"),
    "plan": ("exec",),
    "checkpoint": ("eval", "plan"),
    "config": ("gen", "oracle", "eval", "train"),
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    base = ["--config", str(config), "--out", str(root)]
    with redirect_stdout(io.StringIO()):
        assert main(base + ["gen"]) == 0
        assert main(base + ["oracle", "--catalog", str(root / "catalog.json"), "--task", TASK]) == 0
        assert main(base + ["train", "--catalog", str(root / "catalog.json")]) == 0
    plans = json.loads((root / "oracle_plans.json").read_text())["plans"]
    return {
        "catalog": json.loads((root / "catalog.json").read_text()),
        "plan": plans[TASK],
        "checkpoint": json.loads((root / "checkpoint.json").read_text()),
        "config": CONFIG,
    }


def _paths(doc, path: tuple = ()) -> list[tuple]:
    """The path to every subtree of a JSON document, its root included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    return [path] + [p for key, value in items for p in _paths(value, path + (key,))]


def _at(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


_VALUES = st.sampled_from(
    [None, True, False, 0, 1, -1, 2, 0.5, -0.0, 1e308, float("nan"), "", "x", "Text", [], {}]
)


@st.composite
def _mutated(draw, doc):
    """The document with one or two subtrees replaced (by a small value or
    a copy of another of its subtrees), deleted or duplicated."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        paths = _paths(doc)
        path = draw(st.sampled_from(paths))
        op = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        new = copy.deepcopy(draw(st.one_of(_VALUES, st.sampled_from(paths).map(lambda p: _at(doc, p)))))
        if not path:
            doc = {"replace": new, "delete": None, "duplicate": [doc, doc]}[op]
            continue
        parent, key = _at(doc, path[:-1]), path[-1]
        if op == "replace":
            parent[key] = new
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[draw(st.sampled_from(sorted(parent)))] = copy.deepcopy(parent[key])
    return doc


@st.composite
def _runs(draw, documents):
    kind = draw(st.sampled_from(sorted(READERS)))
    return kind, draw(st.sampled_from(READERS[kind])), draw(_mutated(documents[kind]))


def _argv(command: str, files: dict) -> list[str]:
    task = ["--catalog", files["catalog"], "--task", TASK]
    return {
        "gen": [],
        "oracle": task,
        "eval": task + ["--checkpoint", files["checkpoint"]],
        "plan": task + ["--checkpoint", files["checkpoint"]],
        "exec": task + ["--plan", files["plan"]],
        "train": ["--catalog", files["catalog"]],
    }[command]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_document_gives_an_exit_code_and_a_json_error(documents, data) -> None:
    kind, command, doc = data.draw(_runs(documents))
    with tempfile.TemporaryDirectory() as workdir:
        files = {}
        for name, original in documents.items():
            path = Path(workdir) / f"{name}.json"
            path.write_text(json.dumps(doc if name == kind else original))
            files[name] = str(path)
        out = Path(workdir) / "out"
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["--config", files["config"], "--out", str(out), command, *_argv(command, files)])
        assert code in (0, 1, 2)
        if code:
            assert isinstance(json.loads(err.getvalue().splitlines()[0]), dict)
            assert not out.exists()
