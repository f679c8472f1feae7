from __future__ import annotations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from planforge.benchgen import build_task
from planforge.context import BOS, END_TOKEN, SHARED_PREV
from planforge.decoder import initial_state, step_frontier
from planforge.errors import BadArity, DuplicateName, SemanticMismatch
from planforge.plan_ir import TaskCategory
from planforge.registry import (
    ToolRegistry,
    ToolSpec,
    compatible_successors,
    default_registry,
    registry_from_json,
)
from planforge.simkit import SEMANTIC_SIGNATURES, Modality, SemanticId

REG = default_registry()


def test_default_registry_has_fourteen_tools() -> None:
    assert len(REG) == 14
    assert REG.names()[:3] == (
        "Image Classification",
        "Colorization",
        "Object Detection",
    )
    assert "Visual Question Answering" in REG
    vqa = REG.get("Visual Question Answering")
    assert vqa.inputs == (Modality.IMAGE, Modality.TEXT)
    assert vqa.output == Modality.TEXT
    assert REG.get("Colorization").output is Modality.IMAGE


def test_text_successors_in_registry_order() -> None:
    names = [t.name for t in compatible_successors(REG, Modality.TEXT)]
    assert names == [
        "Text to Image Generation",
        "Sentiment Analysis",
        "Question Answering",
        "Text Summarization",
        "Machine Translation",
        "Fill Mask",
    ]


def test_image_successors_key_on_first_input() -> None:
    names = [t.name for t in compatible_successors(REG, Modality.IMAGE)]
    assert "Visual Question Answering" in names
    assert "Question Answering" not in names
    assert len(names) == 8


def test_used_tools_are_excluded() -> None:
    used = {"Text Summarization", "Fill Mask"}
    names = {t.name for t in compatible_successors(REG, Modality.TEXT, used)}
    assert names.isdisjoint(used)
    assert len(names) == 4


@given(st.sets(st.sampled_from(sorted(REG.names()))))
def test_successor_invariants(used: set[str]) -> None:
    for modality in (Modality.TEXT, Modality.IMAGE):
        out = compatible_successors(REG, modality, used)
        for spec in out:
            assert spec.name in REG
            assert spec.name not in used
            assert spec.inputs[0] is modality


def test_register_tool_rejects_duplicates() -> None:
    spec = ToolSpec("Image Deblurring II", (Modality.IMAGE,), Modality.IMAGE, SemanticId.REMOVE_BLUR)
    bigger = ToolRegistry(REG.tools + (spec,))
    assert len(bigger) == 15
    with pytest.raises(DuplicateName):
        ToolRegistry(bigger.tools + (spec,))


def test_tool_spec_validates_against_semantic() -> None:
    with pytest.raises(BadArity):
        ToolSpec("No Inputs", (), Modality.TEXT, SemanticId.QA)
    with pytest.raises(SemanticMismatch):
        ToolSpec("Broken QA", (Modality.TEXT,), Modality.TEXT, SemanticId.QA)
    with pytest.raises(SemanticMismatch):
        ToolSpec("Broken Caption", (Modality.TEXT,), Modality.TEXT, SemanticId.CAPTION)
    with pytest.raises(SemanticMismatch):
        ToolSpec("Wrong Output", (Modality.TEXT,), Modality.TEXT, SemanticId.GENERATE)
    for token in (BOS, END_TOKEN, SHARED_PREV):
        with pytest.raises(ValueError, match="decoder token"):
            ToolSpec(token, (Modality.TEXT,), Modality.TEXT, SemanticId.REMOVE_MASK)


def test_registry_json_round_trip() -> None:
    doc = [
        {
            "name": spec.name,
            "inputs": [m.value for m in spec.inputs],
            "output": spec.output.value,
            "semantic": spec.semantic.value,
        }
        for spec in REG
    ]
    back = registry_from_json(doc)
    assert back.names() == REG.names()
    assert [t.semantic for t in back] == [t.semantic for t in REG]


_SPECS = [
    ToolSpec(f"{semantic.value} {i}", *SEMANTIC_SIGNATURES[semantic], semantic)
    for semantic in SemanticId
    for i in range(2)
]


@st.composite
def _registries_and_used(draw):
    """A registry of a random pick of specs, and a random used set."""
    specs = draw(st.lists(st.sampled_from(_SPECS), unique=True, max_size=len(_SPECS)))
    registry = ToolRegistry(tuple(specs))
    names = sorted(registry.names()) + ["Not Registered"]
    used = draw(st.frozensets(st.sampled_from(names)))
    return registry, used


@given(_registries_and_used())
def test_slot_tables_match_whole_registry_scans(case) -> None:
    """compatible_successors and step_frontier's end_ok read per-modality
    tables; they must agree with scanning every registered tool."""
    registry, used = case
    for modality in Modality:
        assert compatible_successors(registry, modality, used) == tuple(
            spec for spec in registry if spec.name not in used and spec.inputs[0] is modality
        )

    for category in (TaskCategory.IMAGE_TEXT_TO_TEXT, TaskCategory.TEXT_TEXT_TO_TEXT):
        task = build_task("x-000", category, ((), ()), (), samples_per_task=1)
        state = initial_state(task)._replace(used=used)
        frontier = step_frontier(state, task, registry, 6)
        end_ok = frontier is not None and END_TOKEN in frontier.actions
        # Two live branches: parking is legal only if a join could take the head.
        assert end_ok == any(
            len(spec.inputs) == 2
            and spec.name not in used
            and spec.inputs[1] is state.branches[0].modality
            for spec in registry
        )
