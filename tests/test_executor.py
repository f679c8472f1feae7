from __future__ import annotations

import math
import random
from dataclasses import replace

from planforge.executor import execute, execute_task, trace_record
from planforge.plan_ir import (
    NodeOutput,
    PlanGraph,
    PlanNode,
    Sample,
    TaskInput,
    from_linear_sequence,
    plan_hash,
)
from planforge.simkit import (
    Corruption,
    Language,
    Modality,
    apply_chain,
    make_leaf,
    payload_to_json,
    similarity,
)

I = Modality.IMAGE
T = Modality.TEXT


def test_linear_restoration_trace(registry) -> None:
    leaf = make_leaf(I, "x00001")
    corrupted = apply_chain(leaf, (Corruption.GRAY, Corruption.BLUR, Corruption.NOISE))
    plan = from_linear_sequence(
        ["Image Denoising", "Image Deblurring", "Colorization"], registry
    )
    trace = execute(plan, (corrupted,), registry)
    assert trace.error is None
    assert trace.final is not None
    assert trace.final.quality == 1.0
    assert trace.stages == ((0,), (1,), (2,))
    assert set(trace.node_outputs) == {0, 1, 2}


def test_stage_error_reports_lowest_node_and_stops(registry) -> None:
    # Node 0 hits the language guard in stage one, node 1 succeeds in
    # the same stage, stage two is never attempted.
    german = make_leaf(T, "q", Language.DE)
    plan = PlanGraph(
        nodes=(
            PlanNode(0, "Machine Translation", (TaskInput(0),)),
            PlanNode(1, "Fill Mask", (TaskInput(1),)),
            PlanNode(2, "Question Answering", (NodeOutput(0), NodeOutput(1))),
        ),
        output_node=2,
    )
    trace = execute(plan, (german, make_leaf(T, "d")), registry)
    assert trace.error is not None
    assert trace.error.node == 0
    assert trace.error.kind == "LanguageGuard"
    assert trace.final is None
    assert 1 in trace.node_outputs
    assert 2 not in trace.node_outputs


def test_execute_task_scores_each_sample(catalog, registry) -> None:
    task = next(t for t in catalog if len(t.input_signature) == 1)
    seq = [registry.get(n.tool).name for n in _gold_chain(task, registry)]
    plan = from_linear_sequence(seq, registry)
    results = execute_task(plan, task, registry)
    assert len(results) == len(task.dataset)
    s0 = task.dataset[0]
    expected = similarity(execute(plan, s0.inputs, registry).final, s0.reference)
    for trace, score in results:
        assert trace.error is None
        assert 0.0 < score <= 1.0
        assert math.isclose(score, expected)


def _gold_chain(task, registry):
    from planforge.benchgen import oracle_best_plan, required_oracle_depth

    return oracle_best_plan(task, registry, required_oracle_depth(task)).best_plan.nodes


def test_failed_sample_scores_zero(catalog, registry) -> None:
    german = make_leaf(T, "q", Language.DE)
    sample = Sample(inputs=(german,), reference=make_leaf(T, "q"))
    task = replace(next(t for t in catalog if t.id.startswith("tt-")), dataset=(sample,))
    plan = from_linear_sequence(["Machine Translation"], registry)
    [(_, score)] = execute_task(plan, task, registry)
    assert score == 0.0


def test_trace_record_shape(registry) -> None:
    leaf = make_leaf(I, "x")
    plan = from_linear_sequence(["Image Captioning"], registry)
    trace = execute(plan, (leaf,), registry)
    record = trace_record("ii-000", plan, 0.5, trace)
    assert set(record) == {"task_id", "plan_hash", "score", "final_payload", "error"}
    assert record["task_id"] == "ii-000"
    assert record["score"] == 0.5
    assert record["plan_hash"] == plan_hash(plan)
    assert record["error"] is None
    assert record["final_payload"]["modality"] == "Text"

    bad = execute(plan, (make_leaf(T, "t"),), registry)
    record = trace_record("ii-000", plan, 0.0, bad)
    assert record["final_payload"] is None
    assert record["error"]["kind"] == "ModalityMismatch"


def _relabel(plan: PlanGraph, mapping: dict[int, int]) -> PlanGraph:
    nodes = tuple(
        PlanNode(
            mapping[n.id],
            n.tool,
            tuple(
                NodeOutput(mapping[r.node]) if isinstance(r, NodeOutput) else r
                for r in n.input_refs
            ),
        )
        for n in plan.nodes
    )
    return PlanGraph(nodes, output_node=mapping[plan.output_node])


def test_intra_stage_order_does_not_change_results(registry) -> None:
    """Node ids decide evaluation order inside a stage; results must not."""
    img = apply_chain(make_leaf(I, "i"), (Corruption.NOISE,))
    question = apply_chain(make_leaf(T, "q"), (Corruption.MASK,))
    plan = PlanGraph(
        nodes=(
            PlanNode(0, "Image Denoising", (TaskInput(0),)),
            PlanNode(1, "Fill Mask", (TaskInput(1),)),
            PlanNode(2, "Visual Question Answering", (NodeOutput(0), NodeOutput(1))),
        ),
        output_node=2,
    )
    baseline = execute(plan, (img, question), registry)
    rng = random.Random(3)
    ids = [n.id for n in plan.nodes]
    for _ in range(10):
        shuffled = ids[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(ids, shuffled))
        permuted = _relabel(plan, mapping)
        trace = execute(permuted, (img, question), registry)
        assert trace.error is None
        assert payload_to_json(trace.final) == payload_to_json(baseline.final)
