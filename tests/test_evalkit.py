from __future__ import annotations

import json
import math
from statistics import fmean

from planforge.benchgen import oracle_best_plan, required_oracle_depth
from planforge.decoder import DecoderConfig
from planforge.evalkit import (
    ReportTable,
    assign_slot,
    comparison_to_csv,
    evaluate,
    report_to_json,
    task_reward,
)
from planforge.executor import execute_task
from planforge.plan_ir import MetricSlot, TaskCategory
from planforge.policy import PolicyParams, TabularPolicy
from planforge.simkit import Modality, SemanticId

I = Modality.IMAGE
T = Modality.TEXT


def test_slot_routing() -> None:
    assert assign_slot((SemanticId.GENERATE,), I) is MetricSlot.CLIP
    assert assign_slot((SemanticId.SUMMARIZE, SemanticId.GENERATE), I) is MetricSlot.CLIP
    assert assign_slot((SemanticId.CAPTION,), T) is MetricSlot.BERT
    assert assign_slot((), T) is MetricSlot.BERT
    assert assign_slot((), I) is MetricSlot.VIT


def test_catalog_tasks_carry_their_routed_slot(catalog) -> None:
    for task in catalog:
        assert task.metric_slot is assign_slot(task.reference_builder, task.output_modality)
    by_category = {t.category: t.metric_slot for t in catalog}
    assert by_category[TaskCategory.IMAGE_TO_IMAGE] is MetricSlot.VIT
    assert by_category[TaskCategory.TEXT_TO_IMAGE] is MetricSlot.CLIP
    assert by_category[TaskCategory.IMAGE_TEXT_TO_TEXT] is MetricSlot.BERT


def test_task_reward_is_sample_mean(catalog, registry) -> None:
    task = list(catalog)[0]
    plan = oracle_best_plan(task, registry, required_oracle_depth(task)).best_plan
    scores = [score for _, score in execute_task(plan, task, registry)]
    assert task_reward(plan, task, registry) == fmean(scores)


def test_evaluate_aggregates_slot_means(catalog, registry) -> None:
    tasks = list(catalog)[:6] + [
        next(t for t in catalog if t.metric_slot is MetricSlot.CLIP),
        next(t for t in catalog if t.metric_slot is MetricSlot.BERT),
    ]
    table = evaluate(TabularPolicy(PolicyParams()), tasks, registry, DecoderConfig())
    assert len(table.per_task) == len(tasks)
    rewards = dict(table.per_task)
    by_slot = {slot: [] for slot in MetricSlot}
    for task in tasks:
        by_slot[task.metric_slot].append(rewards[task.id])
    for slot in MetricSlot:
        expected = fmean(by_slot[slot]) if by_slot[slot] else 0.0
        assert math.isclose(getattr(table, slot.value), expected)
    assert math.isclose(
        table.overall, fmean([table.clip, table.bert, table.vit])
    )
    assert table.failures == ()


def test_report_json_shape() -> None:
    table = ReportTable(
        clip=0.5, bert=0.25, vit=1.0, overall=0.5833,
        per_task=(("ii-000", 1.0),), failures=("tt-001",),
    )
    doc = report_to_json(table)
    assert doc["per_task"] == [{"task_id": "ii-000", "reward": 1.0}]
    assert doc["failures"] == ["tt-001"]


def test_comparison_csv_format() -> None:
    table = ReportTable(
        clip=0.5, bert=0.25, vit=1.0, overall=7 / 12,
        per_task=(), failures=(),
    )
    text = comparison_to_csv(
        {"zero": table, "few": None, "rltf": table}, {"seed": 0}
    )
    lines = text.splitlines()
    assert lines[0] == '# manifest {"seed": 0}'
    assert lines[1] == "metric,zero,few,rltf"
    assert lines[2] == "clip,0.500000,n/a,0.500000"
    assert lines[5] == "overall,0.583333,n/a,0.583333"
    assert text.endswith("\n")
    # The manifest line stays machine-readable.
    assert json.loads(lines[0].removeprefix("# manifest ")) == {"seed": 0}
