"""Metric slots and evaluation reports.

Every task lands in exactly one metric slot based on what its reference
recipe produces: generated images are scored in the clip slot, text
outputs in the bert slot, everything else (restored images) in the vit
slot. A report carries the per-slot mean rewards plus the average of
the slots that hold at least one task; a slot no task landed in has no
mean and is reported as null (n/a in CSV).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from statistics import fmean

from .decoder import DecoderConfig, Policy, beam_search
from .errors import NoFeasiblePlan
from .executor import sample_scores
from .plan_ir import MetricSlot, TaskSpec
from .registry import ToolRegistry
from .simkit import DEFAULT_CONSTANTS, Modality, SemanticId, SimConstants


def assign_slot(
    reference_builder: tuple[SemanticId, ...], output_modality: Modality
) -> MetricSlot:
    if reference_builder and reference_builder[-1] is SemanticId.GENERATE:
        return MetricSlot.CLIP
    if output_modality is Modality.TEXT:
        return MetricSlot.BERT
    return MetricSlot.VIT


@dataclass(frozen=True, slots=True)
class ReportTable:
    clip: float | None
    bert: float | None
    vit: float | None
    overall: float
    per_task: tuple[tuple[str, float], ...]
    failures: tuple[str, ...]


def task_reward(
    plan, task: TaskSpec, registry: ToolRegistry, constants: SimConstants = DEFAULT_CONSTANTS
) -> float:
    """The plan's mean score over the task's dataset.

    The mean is over all n sample scores, not one score per relabel
    class: ``fmean([s] * n)`` is not always ``s``, and this keeps the
    reward bit-equal to the mean of `execute_task`'s scores.
    """
    return fmean(sample_scores(plan, task, registry, constants))


def evaluate(
    policy: Policy,
    tasks: list[TaskSpec] | tuple[TaskSpec, ...],
    registry: ToolRegistry,
    cfg: DecoderConfig,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> ReportTable:
    """Decode the top plan per task and score it on the task's dataset.

    Tasks the decoder cannot solve score zero and are listed as
    failures rather than aborting the whole run. Overall is the mean of
    the populated slots, 0.0 when there are no tasks.
    """
    per_task: list[tuple[str, float]] = []
    failures: list[str] = []
    by_slot: dict[MetricSlot, list[float]] = {slot: [] for slot in MetricSlot}
    for task in tasks:
        try:
            top = next(beam_search(policy, task, registry, cfg))
            reward = task_reward(top.plan, task, registry, constants)
        except NoFeasiblePlan:
            reward = 0.0
            failures.append(task.id)
        per_task.append((task.id, reward))
        by_slot[task.metric_slot].append(reward)

    slot_mean = {slot: (fmean(values) if values else None) for slot, values in by_slot.items()}
    populated = [mean for mean in slot_mean.values() if mean is not None]
    return ReportTable(
        clip=slot_mean[MetricSlot.CLIP],
        bert=slot_mean[MetricSlot.BERT],
        vit=slot_mean[MetricSlot.VIT],
        overall=fmean(populated) if populated else 0.0,
        per_task=tuple(per_task),
        failures=tuple(failures),
    )


def report_to_json(table: ReportTable) -> dict:
    return {
        "clip": table.clip,
        "bert": table.bert,
        "vit": table.vit,
        "overall": table.overall,
        "per_task": [{"task_id": task_id, "reward": reward} for task_id, reward in table.per_task],
        "failures": list(table.failures),
    }


def comparison_to_csv(tables: dict[str, ReportTable | None], manifest: dict) -> str:
    """CSV with one column per schema; absent schemas and empty slots render as n/a."""
    schemas = list(tables)
    lines = [f"# manifest {json.dumps(manifest, sort_keys=True)}"]
    lines.append("metric," + ",".join(schemas))

    def cell(table: ReportTable | None, attr: str) -> str:
        value = None if table is None else getattr(table, attr)
        return "n/a" if value is None else f"{value:.6f}"

    for attr, label in (("clip", "clip"), ("bert", "bert"), ("vit", "vit"), ("overall", "overall")):
        lines.append(label + "," + ",".join(cell(tables[s], attr) for s in schemas))
    return "\n".join(lines) + "\n"
