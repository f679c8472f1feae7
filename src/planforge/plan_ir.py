"""Plan graphs and task documents.

A plan is a small DAG of tool invocations. Node inputs reference either
a task input slot or another node's output. One node is designated as
the plan output. Tasks bundle a typed input signature, the corruption
chains behind each input, a reference recipe, and a concrete dataset of
samples to execute against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii

from .errors import ArityNotOne, CycleDetected, ModalityBreak, UnknownTool, reading
from .registry import ToolRegistry
from .simkit import (
    Corruption,
    Modality,
    Payload,
    SemanticId,
    member_of,
    payload_from_json,
    payload_to_json,
)


@dataclass(frozen=True, slots=True)
class TaskInput:
    index: int


@dataclass(frozen=True, slots=True)
class NodeOutput:
    node: int


InputRef = TaskInput | NodeOutput


@dataclass(frozen=True, slots=True)
class PlanNode:
    id: int
    tool: str
    input_refs: tuple[InputRef, ...]


@dataclass(frozen=True, slots=True)
class PlanGraph:
    nodes: tuple[PlanNode, ...]
    output_node: int

    def node(self, node_id: int) -> PlanNode:
        for node in self.nodes:
            if node.id == node_id:
                return node
        raise KeyError(node_id)


def _ref_to_json(ref: InputRef) -> dict:
    if isinstance(ref, TaskInput):
        return {"task": ref.index}
    return {"node": ref.node}


def _plan_id(value) -> int:
    # Exact ints only: int() would read 0.7 as 0 and true as 1.
    if type(value) is not int:
        raise TypeError(f"plan ids must be integers, got {value!r}")
    return value


def _ref_from_json(doc: dict) -> InputRef:
    if "task" in doc:
        return TaskInput(_plan_id(doc["task"]))
    if "node" in doc:
        return NodeOutput(_plan_id(doc["node"]))
    raise ValueError(f"bad input ref: {doc}")


def plan_to_json(plan: PlanGraph) -> dict:
    return {
        "nodes": [
            {
                "id": node.id,
                "tool": node.tool,
                "inputs": [_ref_to_json(ref) for ref in node.input_refs],
            }
            for node in plan.nodes
        ],
        "output": plan.output_node,
    }


def _tool_name(value) -> str:
    # validate_plan looks names up in the registry, so it needs a string.
    if not isinstance(value, str):
        raise TypeError(f"tool name must be a string, got {value!r}")
    return value


def plan_from_json(doc: dict) -> PlanGraph:
    with reading("plan"):
        return PlanGraph(
            nodes=tuple(
                PlanNode(
                    id=_plan_id(n["id"]),
                    tool=_tool_name(n["tool"]),
                    input_refs=tuple(_ref_from_json(r) for r in n["inputs"]),
                )
                for n in doc["nodes"]
            ),
            output_node=_plan_id(doc["output"]),
        )


def _ref_canon(ref: InputRef) -> str:
    if isinstance(ref, TaskInput):
        return f'{{"task":{ref.index}}}'
    return f'{{"node":{ref.node}}}'


def plan_hash(plan: PlanGraph) -> str:
    """SHA-256 of the plan's canonical JSON: `plan_to_json` with sorted keys
    and no spaces, ``{"nodes":[{"id":..,"inputs":[..],"tool":..}],"output":..}``.

    The string is formatted directly rather than through `json.dumps` of
    the document. Ids are ints, and tool names go through the string
    encoder `json.dumps` itself uses, so the bytes are the same.
    """
    nodes = ",".join(
        f'{{"id":{node.id},"inputs":[{",".join(map(_ref_canon, node.input_refs))}],'
        f'"tool":{encode_basestring_ascii(node.tool)}}}'
        for node in plan.nodes
    )
    canon = f'{{"nodes":[{nodes}],"output":{plan.output_node}}}'
    return hashlib.sha256(canon.encode()).hexdigest()


def from_linear_sequence(names: list[str] | tuple[str, ...], registry: ToolRegistry) -> PlanGraph:
    """Chain single-input tools into a linear plan over task input 0."""
    if not names:
        raise ValueError("empty tool sequence")
    nodes = []
    prev_output: Modality | None = None
    for i, name in enumerate(names):
        if name not in registry:
            raise UnknownTool(f"not in registry: {name}")
        spec = registry.get(name)
        if len(spec.inputs) != 1:
            raise ArityNotOne(f"{name} takes {len(spec.inputs)} inputs")
        if prev_output is not None and spec.inputs[0] is not prev_output:
            raise ModalityBreak(
                f"{names[i - 1]} emits {prev_output.value}, {name} wants {spec.inputs[0].value}",
                position=i,
            )
        ref: InputRef = TaskInput(0) if i == 0 else NodeOutput(i - 1)
        nodes.append(PlanNode(id=i, tool=name, input_refs=(ref,)))
        prev_output = spec.output
    return PlanGraph(nodes=tuple(nodes), output_node=len(nodes) - 1)


def topological_stages(plan: PlanGraph) -> list[list[int]]:
    """Longest-path layering. Nodes fed only by task inputs sit in stage 0."""
    ids = {node.id for node in plan.nodes}
    deps: dict[int, list[int]] = {
        node.id: [ref.node for ref in node.input_refs if isinstance(ref, NodeOutput)]
        for node in plan.nodes
    }
    level: dict[int, int] = {}

    def walk(node_id: int, trail: set[int]) -> int:
        if node_id in level:
            return level[node_id]
        if node_id in trail:
            raise CycleDetected(f"cycle through node {node_id}")
        trail.add(node_id)
        parents = [d for d in deps[node_id] if d in ids]
        depth = 0 if not parents else 1 + max(walk(p, trail) for p in parents)
        trail.discard(node_id)
        level[node_id] = depth
        return depth

    for node_id in sorted(ids):
        walk(node_id, set())
    if not level:
        return []
    stages: list[list[int]] = [[] for _ in range(max(level.values()) + 1)]
    for node_id in sorted(level):
        stages[level[node_id]].append(node_id)
    return stages


def is_nonlinear(plan: PlanGraph) -> bool:
    """True when the plan joins inputs or runs parallel branches."""
    if any(len(node.input_refs) > 1 for node in plan.nodes):
        return True
    return any(len(stage) > 1 for stage in topological_stages(plan))


@dataclass(frozen=True, slots=True)
class Violation:
    code: str
    node: int | None
    detail: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_plan(
    plan: PlanGraph,
    registry: ToolRegistry,
    input_signature: tuple[Modality, ...],
    output_modality: Modality,
) -> ValidationReport:
    """Static checks. A plan that passes will execute without type errors.

    Dangling intermediate nodes are tolerated; the designated output
    node must be a sink.
    """
    violations: list[Violation] = []

    if not plan.nodes:
        return ValidationReport((Violation("empty", None, "plan has no nodes"),))

    ids = [node.id for node in plan.nodes]
    id_set = set(ids)
    if len(id_set) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        violations.append(Violation("duplicate-id", dupes[0], f"repeated node ids {dupes}"))
        return ValidationReport(tuple(violations))

    seen_tools: dict[str, int] = {}
    refs_ok = True
    for node in plan.nodes:
        if node.tool not in registry:
            violations.append(Violation("unknown-tool", node.id, node.tool))
            refs_ok = False
            continue
        spec = registry.get(node.tool)
        if node.tool in seen_tools:
            violations.append(
                Violation("tool-reuse", node.id, f"{node.tool} already at node {seen_tools[node.tool]}")
            )
        seen_tools.setdefault(node.tool, node.id)
        if len(node.input_refs) != len(spec.inputs):
            violations.append(
                Violation(
                    "arity",
                    node.id,
                    f"{node.tool} takes {len(spec.inputs)} inputs, wired {len(node.input_refs)}",
                )
            )
            refs_ok = False
        for ref in node.input_refs:
            if isinstance(ref, TaskInput) and not 0 <= ref.index < len(input_signature):
                violations.append(Violation("bad-task-ref", node.id, f"task input {ref.index}"))
                refs_ok = False
            if isinstance(ref, NodeOutput) and ref.node not in id_set:
                violations.append(Violation("bad-node-ref", node.id, f"node {ref.node}"))
                refs_ok = False

    if plan.output_node not in id_set:
        violations.append(Violation("bad-output", None, f"output node {plan.output_node} missing"))
        refs_ok = False

    if not refs_ok:
        return ValidationReport(tuple(violations))

    try:
        stages = topological_stages(plan)
    except CycleDetected as exc:
        violations.append(Violation("cycle", None, str(exc)))
        return ValidationReport(tuple(violations))

    # Modality wiring, in dependency order so node outputs are known.
    out_modality: dict[int, Modality] = {}
    for stage in stages:
        for node_id in stage:
            node = plan.node(node_id)
            spec = registry.get(node.tool)
            for slot, (ref, want) in enumerate(zip(node.input_refs, spec.inputs)):
                got = (
                    input_signature[ref.index]
                    if isinstance(ref, TaskInput)
                    else out_modality[ref.node]
                )
                if got is not want:
                    violations.append(
                        Violation(
                            "modality",
                            node_id,
                            f"{node.tool} slot {slot} wants {want.value}, got {got.value}",
                        )
                    )
            out_modality[node_id] = spec.output

    consumed = {
        ref.index
        for node in plan.nodes
        for ref in node.input_refs
        if isinstance(ref, TaskInput)
    }
    for index in range(len(input_signature)):
        if index not in consumed:
            violations.append(Violation("unused-input", None, f"task input {index} never read"))

    if out_modality[plan.output_node] is not output_modality:
        violations.append(
            Violation(
                "output-modality",
                plan.output_node,
                f"plan emits {out_modality[plan.output_node].value}, task wants {output_modality.value}",
            )
        )
    for node in plan.nodes:
        for ref in node.input_refs:
            if isinstance(ref, NodeOutput) and ref.node == plan.output_node:
                violations.append(
                    Violation("output-consumed", node.id, "output node feeds another node")
                )

    return ValidationReport(tuple(violations))


class TaskCategory(str, Enum):
    IMAGE_TO_IMAGE = "image_to_image"
    IMAGE_TO_TEXT = "image_to_text"
    TEXT_TO_IMAGE = "text_to_image"
    TEXT_TO_TEXT = "text_to_text"
    IMAGE_TEXT_TO_TEXT = "image_text_to_text"
    TEXT_TEXT_TO_TEXT = "text_text_to_text"


CATEGORY_SIGNATURES: dict[TaskCategory, tuple[tuple[Modality, ...], Modality]] = {
    TaskCategory.IMAGE_TO_IMAGE: ((Modality.IMAGE,), Modality.IMAGE),
    TaskCategory.IMAGE_TO_TEXT: ((Modality.IMAGE,), Modality.TEXT),
    TaskCategory.TEXT_TO_IMAGE: ((Modality.TEXT,), Modality.IMAGE),
    TaskCategory.TEXT_TO_TEXT: ((Modality.TEXT,), Modality.TEXT),
    TaskCategory.IMAGE_TEXT_TO_TEXT: ((Modality.IMAGE, Modality.TEXT), Modality.TEXT),
    TaskCategory.TEXT_TEXT_TO_TEXT: ((Modality.TEXT, Modality.TEXT), Modality.TEXT),
}


class MetricSlot(str, Enum):
    CLIP = "clip"
    BERT = "bert"
    VIT = "vit"


@dataclass(frozen=True, slots=True)
class Sample:
    inputs: tuple[Payload, ...]
    reference: Payload


@dataclass(frozen=True, slots=True)
class TaskSpec:
    id: str
    description: str
    category: TaskCategory
    input_signature: tuple[Modality, ...]
    output_modality: Modality
    corruption_chains: tuple[tuple[Corruption, ...], ...]
    reference_builder: tuple[SemanticId, ...]
    metric_slot: MetricSlot
    dataset: tuple[Sample, ...] = field(default=())


def sample_to_json(sample: Sample) -> dict:
    return {
        "inputs": [payload_to_json(p) for p in sample.inputs],
        "reference": payload_to_json(sample.reference),
    }


def sample_from_json(doc: dict) -> Sample:
    return Sample(
        inputs=tuple([payload_from_json(p) for p in doc["inputs"]]),
        reference=payload_from_json(doc["reference"]),
    )


def task_to_json(task: TaskSpec) -> dict:
    return {
        "id": task.id,
        "description": task.description,
        "category": task.category.value,
        "input_signature": [m.value for m in task.input_signature],
        "output_modality": task.output_modality.value,
        "corruption_chains": [[c.value for c in chain] for chain in task.corruption_chains],
        "reference_builder": [s.value for s in task.reference_builder],
        "metric_slot": task.metric_slot.value,
        "dataset": [sample_to_json(s) for s in task.dataset],
    }


def task_from_json(doc: dict) -> TaskSpec:
    """A task from its document. A task with no samples is malformed,
    since the oracle and every score read its samples. So is one with
    other than one or two inputs, or with corruption chains or sample
    inputs that do not match its input signature, since the decoder and
    the oracle walk one branch per input, or with a sample reference of
    another modality than its output, which no plan can score above 0."""
    with reading("task"):
        if not doc["dataset"]:
            raise ValueError("dataset is empty")
        task = TaskSpec(
            id=doc["id"],
            description=doc["description"],
            category=member_of(TaskCategory, doc["category"]),
            input_signature=tuple(member_of(Modality, m) for m in doc["input_signature"]),
            output_modality=member_of(Modality, doc["output_modality"]),
            corruption_chains=tuple(
                tuple(member_of(Corruption, c) for c in chain) for chain in doc["corruption_chains"]
            ),
            reference_builder=tuple(member_of(SemanticId, s) for s in doc["reference_builder"]),
            metric_slot=member_of(MetricSlot, doc["metric_slot"]),
            dataset=tuple([sample_from_json(s) for s in doc["dataset"]]),
        )
        arity = len(task.input_signature)
        if arity not in (1, 2):
            raise ValueError(f"input_signature has {arity} entries, tasks take 1 or 2")
        if len(task.corruption_chains) != arity:
            raise ValueError(f"{len(task.corruption_chains)} corruption_chains for {arity} inputs")
        for sample in task.dataset:
            if tuple(p.modality for p in sample.inputs) != task.input_signature:
                raise ValueError("sample inputs do not match input_signature")
            if sample.reference.modality is not task.output_modality:
                raise ValueError("sample reference does not match output_modality")
        return task
