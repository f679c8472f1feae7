"""Plan execution over the symbolic simulator."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EngineError
from .plan_ir import PlanGraph, Sample, TaskInput, TaskSpec, plan_hash, topological_stages
from .registry import ToolRegistry
from .simkit import (
    DEFAULT_CONSTANTS,
    Payload,
    SimConstants,
    apply_tool,
    payload_to_json,
    relabel_key,
    similarity,
)


@dataclass(frozen=True, slots=True)
class ExecError:
    node: int
    kind: str
    message: str


@dataclass(frozen=True, slots=True)
class ExecutionTrace:
    node_outputs: dict[int, Payload]
    final: Payload | None
    stages: tuple[tuple[int, ...], ...]
    error: ExecError | None


def execute(
    plan: PlanGraph,
    task_inputs: tuple[Payload, ...],
    registry: ToolRegistry,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> ExecutionTrace:
    """Run a plan stage by stage.

    Every node in a stage is attempted. On failure the trace carries the
    error from the lowest failing node id and execution stops after that
    stage; outputs of nodes that did succeed stay in the trace.
    """
    stages = tuple(tuple(stage) for stage in topological_stages(plan))
    outputs: dict[int, Payload] = {}
    error: ExecError | None = None

    for stage in stages:
        for node_id in stage:
            node = plan.node(node_id)
            spec = registry.get(node.tool)
            payloads = tuple(
                task_inputs[ref.index] if isinstance(ref, TaskInput) else outputs[ref.node]
                for ref in node.input_refs
            )
            try:
                outputs[node_id] = apply_tool(spec.semantic, payloads, constants)
            except EngineError as exc:
                if error is None or node_id < error.node:
                    error = ExecError(node=node_id, kind=type(exc).__name__, message=str(exc))
        if error is not None:
            break

    final = outputs.get(plan.output_node) if error is None else None
    return ExecutionTrace(node_outputs=outputs, final=final, stages=stages, error=error)


def _run(
    plan: PlanGraph, sample: Sample, registry: ToolRegistry, constants: SimConstants
) -> tuple[ExecutionTrace, float]:
    """Execute the plan on one sample and score it. A failed run scores 0."""
    trace = execute(plan, sample.inputs, registry, constants)
    if trace.error is not None or trace.final is None:
        return trace, 0.0
    return trace, similarity(trace.final, sample.reference, constants)


def execute_task(
    plan: PlanGraph,
    task: TaskSpec,
    registry: ToolRegistry,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> list[tuple[ExecutionTrace, float]]:
    """Execute the plan on every sample. Failed runs score 0."""
    return [_run(plan, sample, registry, constants) for sample in task.dataset]


def relabel_classes(task: TaskSpec) -> tuple[int, ...]:
    """Per sample, the index of the first sample of its relabel class (see `sample_scores`)."""
    first: dict[tuple, int] = {}
    keys = (relabel_key((*sample.inputs, sample.reference)) for sample in task.dataset)
    return tuple(first.setdefault(key, i) for i, key in enumerate(keys))


def sample_scores(
    plan: PlanGraph,
    task: TaskSpec,
    registry: ToolRegistry,
    constants: SimConstants = DEFAULT_CONSTANTS,
    classes: tuple[int, ...] | None = None,
) -> list[float]:
    """`execute_task`'s scores, float for float, from one execution per
    relabel class.

    Samples whose inputs and reference have equal `relabel_key`s differ
    only in the names of their leaves, and the plan scores them the
    same. The first sample of each class (``classes``, computed when not
    given) is executed; the others in the class copy its score.
    """
    classes = relabel_classes(task) if classes is None else classes
    by_class = {i: _run(plan, task.dataset[i], registry, constants)[1] for i in dict.fromkeys(classes)}
    return [by_class[first] for first in classes]


def trace_record(task_id: str, plan: PlanGraph, score: float, trace: ExecutionTrace) -> dict:
    """One JSONL row for an executed sample."""
    return {
        "task_id": task_id,
        "plan_hash": plan_hash(plan),
        "score": score,
        "final_payload": None if trace.final is None else payload_to_json(trace.final),
        "error": None
        if trace.error is None
        else {"node": trace.error.node, "kind": trace.error.kind, "message": trace.error.message},
    }
