from __future__ import annotations

import math
import random
from dataclasses import replace
from statistics import fmean

import hypothesis.strategies as st
from hypothesis import example, given, settings

import planforge.executor
from planforge.benchgen import CatalogConfig, build_task, category_space
from planforge.decoder import DecoderConfig, apply_action, initial_state, step_frontier, to_plan
from planforge.evalkit import task_reward
from planforge.executor import execute, execute_task, sample_scores, trace_record
from planforge.plan_ir import (
    NodeOutput,
    PlanGraph,
    PlanNode,
    Sample,
    TaskCategory,
    TaskInput,
    from_linear_sequence,
    plan_hash,
)
from planforge.registry import default_registry
from planforge.simkit import (
    TOOL_OPS,
    Corruption,
    Language,
    Modality,
    Payload,
    apply_chain,
    make_leaf,
    payload_to_json,
    relabel_key,
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


# Relabel classes: a plan scores samples that differ only in the names of
# their leaves alike, so `sample_scores` executes one sample per class.

_REGISTRY = default_registry()
_SPACES = {category: category_space(category, CatalogConfig()) for category in TaskCategory}
_CAP = DecoderConfig().max_tools_per_branch
# Leaf names, tool op labels among them: a leaf renamed onto an op label
# must leave its class.
_NAMES = st.one_of(
    st.sampled_from(sorted(TOOL_OPS | {"foo"})), st.text(alphabet="adegnqvx0", min_size=1, max_size=3)
)


def _rename(expr, names: dict[str, str]):
    if isinstance(expr, str):
        return names.get(expr, expr)
    return (expr[0], *(_rename(child, names) for child in expr[1:]))


def _renamed(sample: Sample, names: dict[str, str]) -> Sample:
    def payload(p: Payload) -> Payload:
        return Payload(p.modality, _rename(p.expr, names), p.language, p.corruptions, p.quality)

    return Sample(tuple(map(payload, sample.inputs)), payload(sample.reference))


def _leaves(expr):
    if isinstance(expr, str):
        return [expr]
    return [leaf for child in expr[1:] for leaf in _leaves(child)]


def _op_labels(expr) -> set[str]:
    if isinstance(expr, str):
        return set()
    return {expr[0]}.union(*map(_op_labels, expr[1:]))


@st.composite
def _relabel_cases(draw):
    """A generated task's sample, a plan from a random legal walk, and a
    renaming of the sample's leaves (not always one-to-one)."""
    category = draw(st.sampled_from(list(TaskCategory)))
    chains, builder = draw(st.sampled_from(_SPACES[category]))
    task = build_task("x-000", category, chains, builder, samples_per_task=1)
    state = initial_state(task)
    while (frontier := step_frontier(state, task, _REGISTRY, _CAP)) is not None:
        state = apply_action(state, frontier, draw(st.sampled_from(frontier.actions)), _REGISTRY)
    # A walk that dead-ends gives way to a one-tool plan, which may fail to run.
    plan = to_plan(state) if state.done else from_linear_sequence(["Text Summarization"], _REGISTRY)
    [sample] = task.dataset
    leaves = sorted({leaf for p in (*sample.inputs, sample.reference) for leaf in _leaves(p.expr)})
    names = draw(st.lists(_NAMES, min_size=len(leaves), max_size=len(leaves)))
    return sample, plan, dict(zip(leaves, names))


def _outcome(plan: PlanGraph, sample: Sample):
    trace = execute(plan, sample.inputs, _REGISTRY)
    if trace.error is not None:
        return trace.error.kind, None, 0.0
    return None, trace.final, similarity(trace.final, sample.reference)


_FOO_PLAN = PlanGraph((PlanNode(0, "Question Answering", (TaskInput(0), TaskInput(1))),), 0)
_FOO_SAMPLE = Sample((make_leaf(T, "x1"), make_leaf(T, "x1")), Payload(T, ("foo", "x1"), Language.EN))


@settings(max_examples=200, deadline=None)
@given(_relabel_cases())
@example((_FOO_SAMPLE, _FOO_PLAN, {"x1": "foo"}))
def test_samples_with_equal_relabel_keys_score_alike(case) -> None:
    """A renaming of leaves that keeps the relabel key maps the plan's
    execution across and keeps the score bit for bit; a one-to-one
    renaming onto labels that are no op label keeps the key. The explicit
    example renames a leaf onto an op head of its reference: a key that
    renamed every leaf would put the two samples in one class, but they
    score 0.25 and 2/3 under Question Answering.
    """
    sample, plan, names = case
    moved = _renamed(sample, names)
    payloads, moved_payloads = (*sample.inputs, sample.reference), (*moved.inputs, moved.reference)
    ops = TOOL_OPS.union(*(_op_labels(p.expr) for p in payloads))
    if len(set(names.values())) == len(names) and not ops & set(names.values()):
        assert relabel_key(moved_payloads) == relabel_key(payloads)
    if relabel_key(moved_payloads) != relabel_key(payloads):
        return
    error, final, score = _outcome(plan, sample)
    moved_error, moved_final, moved_score = _outcome(plan, moved)
    assert moved_error == error
    assert moved_score == score
    if final is not None:
        assert moved_final == Payload(
            final.modality, _rename(final.expr, names), final.language, final.corruptions, final.quality
        )


def _walk_plans(task, count: int, seed: int) -> list[PlanGraph]:
    """Distinct plans from seeded random legal walks that complete."""
    rng = random.Random(seed)
    plans: list[PlanGraph] = []
    for _ in range(20 * count):
        state = initial_state(task)
        while (frontier := step_frontier(state, task, _REGISTRY, _CAP)) is not None:
            state = apply_action(state, frontier, rng.choice(frontier.actions), _REGISTRY)
        if state.done and to_plan(state) not in plans:
            plans.append(to_plan(state))
            if len(plans) == count:
                break
    return plans


def _counted_scores(plan, task, monkeypatch) -> tuple[list[float], int]:
    calls = []

    def counting(plan, inputs, *args):
        calls.append(inputs)
        return execute(plan, inputs, *args)

    with monkeypatch.context() as patch:
        patch.setattr(planforge.executor, "execute", counting)
        scores = sample_scores(plan, task, _REGISTRY)
    return scores, len(calls)


def test_sample_scores_are_execute_task_scores_on_a_catalog(catalog, monkeypatch) -> None:
    """A generated task's samples differ only in their leaves: one
    relabel class, one execution per call, the same scores."""
    for index, task in enumerate(catalog):
        assert len({relabel_key((*s.inputs, s.reference)) for s in task.dataset}) == 1
        for plan in _walk_plans(task, 2, index):
            scores, executed = _counted_scores(plan, task, monkeypatch)
            assert scores == [s for _, s in execute_task(plan, task, _REGISTRY)]
            assert executed == 1
            # The mean over all n scores, which is not always the one score.
            assert task_reward(plan, task, _REGISTRY) == fmean(scores)


def test_sample_scores_are_execute_task_scores_across_classes(catalog, monkeypatch) -> None:
    """Samples that differ in quality, corruptions, language or in
    leaves named like ops fall into several classes; each class is
    executed once and every sample keeps its own score."""
    task = next(t for t in catalog if t.category is TaskCategory.TEXT_TEXT_TO_TEXT)
    first, second = task.dataset[:2]
    a, b = first.inputs

    def swap(sample: Sample, index: int, payload: Payload) -> Sample:
        inputs = list(sample.inputs)
        inputs[index] = payload
        return Sample(tuple(inputs), sample.reference)

    samples = (
        first,
        second,
        swap(first, 0, replace(a, quality=0.5)),
        swap(second, 0, replace(second.inputs[0], quality=0.5)),
        swap(first, 1, replace(b, corruptions=b.corruptions + (Corruption.MASK,))),
        swap(first, 1, Payload(T, b.expr, Language.DE)),
        _renamed(first, {a.expr: "qa"}),
        _FOO_SAMPLE,
        _renamed(_FOO_SAMPLE, {"x1": "foo"}),
        _renamed(_FOO_SAMPLE, {"x1": "x2"}),
    )
    hand_made = replace(task, dataset=samples)
    classes = len({relabel_key((*s.inputs, s.reference)) for s in samples})
    assert classes == 7
    for plan in [_FOO_PLAN, *_walk_plans(hand_made, 6, 0)]:
        scores, executed = _counted_scores(plan, hand_made, monkeypatch)
        assert scores == [s for _, s in execute_task(plan, hand_made, _REGISTRY)]
        assert executed == classes
    foo_scores = sample_scores(_FOO_PLAN, replace(task, dataset=samples[7:9]), _REGISTRY)
    assert foo_scores == [0.25, 2 / 3]
