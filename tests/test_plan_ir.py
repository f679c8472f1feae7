from __future__ import annotations

import hashlib
import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from planforge.errors import ArityNotOne, CycleDetected, ModalityBreak, UnknownTool
from planforge.plan_ir import (
    NodeOutput,
    PlanGraph,
    PlanNode,
    TaskInput,
    canonical_json,
    from_linear_sequence,
    is_nonlinear,
    plan_from_json,
    plan_hash,
    plan_to_json,
    topological_stages,
    validate_plan,
)
from planforge.simkit import Modality

I = Modality.IMAGE
T = Modality.TEXT


def _vqa_plan() -> PlanGraph:
    """Two branches joined at VQA, then sentiment."""
    return PlanGraph(
        nodes=(
            PlanNode(0, "Image Denoising", (TaskInput(0),)),
            PlanNode(1, "Fill Mask", (TaskInput(1),)),
            PlanNode(2, "Visual Question Answering", (NodeOutput(0), NodeOutput(1))),
            PlanNode(3, "Sentiment Analysis", (NodeOutput(2),)),
        ),
        output_node=3,
    )


def test_from_linear_sequence_builds_chain(registry) -> None:
    plan = from_linear_sequence(["Image Denoising", "Image Captioning"], registry)
    assert tuple(n.tool for n in plan.nodes) == ("Image Denoising", "Image Captioning")
    assert plan.nodes[0].input_refs == (TaskInput(0),)
    assert plan.nodes[1].input_refs == (NodeOutput(0),)
    assert plan.output_node == 1
    assert not is_nonlinear(plan)


def test_from_linear_sequence_errors(registry) -> None:
    with pytest.raises(UnknownTool):
        from_linear_sequence(["Image Sharpening"], registry)
    with pytest.raises(ArityNotOne):
        from_linear_sequence(["Question Answering"], registry)
    with pytest.raises(ModalityBreak) as exc:
        from_linear_sequence(["Image Captioning", "Colorization"], registry)
    assert exc.value.position == 1


def test_valid_linear_plan_passes(registry) -> None:
    plan = from_linear_sequence(["Image Deblurring", "Image Classification"], registry)
    report = validate_plan(plan, registry, (I,), T)
    assert report.ok
    assert report.violations == ()


def test_valid_nonlinear_plan_passes(registry) -> None:
    plan = _vqa_plan()
    assert is_nonlinear(plan)
    report = validate_plan(plan, registry, (I, T), T)
    assert report.ok


def _codes(report) -> set[str]:
    return {v.code for v in report.violations}


def test_validation_violation_codes(registry) -> None:
    empty = PlanGraph(nodes=(), output_node=0)
    assert _codes(validate_plan(empty, registry, (I,), I)) == {"empty"}

    dup = PlanGraph(
        nodes=(
            PlanNode(0, "Image Denoising", (TaskInput(0),)),
            PlanNode(0, "Colorization", (TaskInput(0),)),
        ),
        output_node=0,
    )
    assert "duplicate-id" in _codes(validate_plan(dup, registry, (I,), I))

    unknown = PlanGraph(nodes=(PlanNode(0, "Nope", (TaskInput(0),)),), output_node=0)
    assert "unknown-tool" in _codes(validate_plan(unknown, registry, (I,), I))

    reuse = PlanGraph(
        nodes=(
            PlanNode(0, "Image Denoising", (TaskInput(0),)),
            PlanNode(1, "Image Denoising", (NodeOutput(0),)),
        ),
        output_node=1,
    )
    assert "tool-reuse" in _codes(validate_plan(reuse, registry, (I,), I))

    arity = PlanGraph(
        nodes=(PlanNode(0, "Visual Question Answering", (TaskInput(0),)),),
        output_node=0,
    )
    assert "arity" in _codes(validate_plan(arity, registry, (I, T), T))

    bad_refs = PlanGraph(
        nodes=(PlanNode(0, "Image Denoising", (TaskInput(3),)),),
        output_node=9,
    )
    got = _codes(validate_plan(bad_refs, registry, (I,), I))
    assert {"bad-task-ref", "bad-output"} <= got

    cyclic = PlanGraph(
        nodes=(
            PlanNode(0, "Image Denoising", (NodeOutput(1),)),
            PlanNode(1, "Image Deblurring", (NodeOutput(0),)),
        ),
        output_node=1,
    )
    assert "cycle" in _codes(validate_plan(cyclic, registry, (I,), I))

    wrong_wire = PlanGraph(
        nodes=(
            PlanNode(0, "Image Captioning", (TaskInput(0),)),
            PlanNode(1, "Colorization", (NodeOutput(0),)),
        ),
        output_node=1,
    )
    assert "modality" in _codes(validate_plan(wrong_wire, registry, (I,), I))

    unused = PlanGraph(
        nodes=(PlanNode(0, "Fill Mask", (TaskInput(1),)),),
        output_node=0,
    )
    assert "unused-input" in _codes(validate_plan(unused, registry, (I, T), T))

    wrong_out = from_linear_sequence(["Image Denoising"], registry)
    assert "output-modality" in _codes(validate_plan(wrong_out, registry, (I,), T))

    fed = PlanGraph(
        nodes=(
            PlanNode(0, "Image Denoising", (TaskInput(0),)),
            PlanNode(1, "Image Deblurring", (NodeOutput(0),)),
        ),
        output_node=0,
    )
    assert "output-consumed" in _codes(validate_plan(fed, registry, (I,), I))


def test_dangling_intermediate_is_allowed(registry) -> None:
    # A node nobody reads is wasteful but legal; only the output node
    # is barred from feeding anything.
    plan = PlanGraph(
        nodes=(
            PlanNode(0, "Image Denoising", (TaskInput(0),)),
            PlanNode(1, "Image Captioning", (NodeOutput(0),)),
            PlanNode(2, "Object Detection", (NodeOutput(0),)),
        ),
        output_node=1,
    )
    assert validate_plan(plan, registry, (I,), T).ok


def test_topological_stages_longest_path() -> None:
    plan = _vqa_plan()
    assert topological_stages(plan) == [[0, 1], [2], [3]]
    with pytest.raises(CycleDetected):
        topological_stages(
            PlanGraph(
                nodes=(
                    PlanNode(0, "Image Denoising", (NodeOutput(1),)),
                    PlanNode(1, "Image Deblurring", (NodeOutput(0),)),
                ),
                output_node=1,
            )
        )


def test_plan_json_round_trip(registry) -> None:
    plan = _vqa_plan()
    doc = plan_to_json(plan)
    assert plan_from_json(doc) == plan
    assert doc["output"] == 3
    assert doc["nodes"][2]["inputs"] == [{"node": 0}, {"node": 1}]


def test_plan_hash_tracks_structure(registry) -> None:
    a = from_linear_sequence(["Image Denoising", "Image Deblurring"], registry)
    b = from_linear_sequence(["Image Denoising", "Image Deblurring"], registry)
    c = from_linear_sequence(["Image Deblurring", "Image Denoising"], registry)
    assert plan_hash(a) == plan_hash(b)
    assert plan_hash(a) != plan_hash(c)


def test_validate_never_raises_on_fuzzed_plans(registry) -> None:
    """validate_plan reports garbage, it does not crash on it."""
    rng = random.Random(7)
    names = list(registry.names()) + ["Bogus Tool"]
    for _ in range(10_000):
        n = rng.randint(1, 5)
        nodes = []
        for node_id in range(n):
            tool = rng.choice(names)
            arity = rng.randint(1, 2)
            refs = []
            for _ in range(arity):
                if rng.random() < 0.5:
                    refs.append(TaskInput(rng.randint(-1, 2)))
                else:
                    refs.append(NodeOutput(rng.randint(-1, n)))
            nodes.append(PlanNode(rng.randint(0, n), tool, tuple(refs)))
        plan = PlanGraph(tuple(nodes), output_node=rng.randint(-1, n))
        report = validate_plan(plan, registry, (I, T), T)
        assert isinstance(report.ok, bool)


def _reference_plan_hash(plan: PlanGraph) -> str:
    """plan_hash as first written: json.dumps of the plan document."""
    canon = json.dumps(plan_to_json(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


_ids = st.integers(min_value=-(2**40), max_value=2**40)
_tool_names = st.one_of(
    st.text(),
    st.sampled_from(
        ['Say "hi"', "back\\slash", "Übersetzung", "翻訳", "tab\tnew\nline", "\x00", "😀"]
    ),
)
_refs = st.one_of(st.builds(TaskInput, _ids), st.builds(NodeOutput, _ids))
_nodes = st.builds(PlanNode, _ids, _tool_names, st.lists(_refs, min_size=1, max_size=2).map(tuple))
_plans = st.builds(PlanGraph, st.lists(_nodes, max_size=6).map(tuple), _ids)


@given(_plans)
@example(_vqa_plan())
@example(PlanGraph((PlanNode(0, 'A "quoted" \\ é name', (TaskInput(0),)),), 0))
def test_plan_hash_matches_json_dumps(plan) -> None:
    """The directly formatted canonical string is byte-for-byte json.dumps."""
    assert plan_hash(plan) == _reference_plan_hash(plan)


def _one_tool(name: str) -> PlanGraph:
    return PlanGraph((PlanNode(0, name, (TaskInput(0),)),), 0)


@given(_plans, _plans)
@example(_one_tool("A, b"), _one_tool("A,b"))
@example(_one_tool("A"), PlanGraph(_one_tool("A").nodes + (PlanNode(1, "B", (NodeOutput(0),)),), 1))
def test_canonical_json_orders_plans_as_json_dumps(a, b) -> None:
    """The oracle breaks ties on canonical_json; it orders plans as the
    json.dumps document with sorted keys, spaces and all, does."""
    spaced = [json.dumps(plan_to_json(plan), sort_keys=True) for plan in (a, b)]
    assert (canonical_json(a) < canonical_json(b)) == (spaced[0] < spaced[1])


def test_plan_hash_golden_digest() -> None:
    """The value trace.jsonl publishes and the beam breaks ties with."""
    assert plan_hash(_vqa_plan()) == (
        "431992fb92c9a0db297b7fcdc8917531759b01d505069bf4385d2f076fdfdc47"
    )
