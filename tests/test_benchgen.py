"""Catalog generator and exhaustive oracle.

The oracle expectations in here (plan, reward, nodes examined) were
worked out by hand from the simulator rules before the search code
existed, so they can catch regressions in either half.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import replace
from statistics import fmean

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from planforge import benchgen
from planforge.benchgen import (
    CatalogConfig,
    _apply_builder,
    build_task,
    catalog_from_json,
    category_space,
    describe,
    generate_catalog,
    oracle_best_plan,
    required_oracle_depth,
    split_train_test,
)
from planforge.decoder import replay_steps
from planforge.errors import (
    IllegalCorruption,
    IllegalTranslate,
    InfeasibleCount,
    InvalidPlan,
    ModalityMismatch,
    NoFeasiblePlan,
)
from planforge.evalkit import assign_slot
from planforge.executor import execute
from planforge.plan_ir import (
    CATEGORY_SIGNATURES,
    NodeOutput,
    PlanGraph,
    PlanNode,
    Sample,
    TaskCategory,
    TaskInput,
    TaskSpec,
    is_nonlinear,
    plan_to_json,
    task_to_json,
    topological_stages,
    validate_plan,
)
from planforge.registry import ToolRegistry, default_registry
from planforge.simkit import (
    DEFAULT_CONSTANTS,
    Corruption,
    SemanticId,
    SimConstants,
    apply_chain,
    make_leaf,
    scale_quality,
    similarity,
)

C = Corruption
S = SemanticId

SPACE_SIZES = {
    TaskCategory.IMAGE_TO_IMAGE: 48,
    TaskCategory.IMAGE_TO_TEXT: 192,
    TaskCategory.TEXT_TO_IMAGE: 30,
    TaskCategory.TEXT_TO_TEXT: 29,
    TaskCategory.IMAGE_TEXT_TO_TEXT: 520,
    TaskCategory.TEXT_TEXT_TO_TEXT: 54,
}


def test_category_space_sizes_are_stable() -> None:
    cfg = CatalogConfig()
    for category, size in SPACE_SIZES.items():
        combos = category_space(category, cfg)
        assert len(combos) == size
        assert len(set(combos)) == size


def test_category_space_stops_at_duplicate_free_image_chains() -> None:
    huge, four = CatalogConfig(max_chain_length=10**9), CatalogConfig(max_chain_length=4)
    for category in TaskCategory:
        assert category_space(category, huge) == category_space(category, four)


def test_descriptions_follow_the_templates() -> None:
    assert describe(TaskCategory.IMAGE_TO_IMAGE, ((C.GRAY, C.BLUR, C.NOISE),), ()) == (
        "Given a grayscale blurry noisy image, how to return the regular image step by step?"
    )
    assert describe(TaskCategory.TEXT_TO_TEXT, ((C.MASK,),), (S.TRANSLATE_EN_DE,)) == (
        "Given a clozed English text, how to translate the text in German step by step?"
    )
    assert describe(TaskCategory.IMAGE_TO_TEXT, ((C.LOWRES,),), (S.CAPTION,)) == (
        "Given a low-resolutioned image, how to describe the image in English step by step?"
    )
    assert describe(TaskCategory.TEXT_TO_IMAGE, ((),), (S.SUMMARIZE, S.GENERATE)) == (
        "Given an English text, how to summarize the text in English and then "
        "generate an image step by step?"
    )
    assert describe(
        TaskCategory.TEXT_TEXT_TO_TEXT,
        ((C.MASK, C.TRANSLATE), (C.MASK,)),
        (S.QA, S.SENTIMENT, S.SUMMARIZE),
    ) == (
        "Given a clozed translated German document and a clozed English query, "
        "how to answer the question in English and then classify the sentiment "
        "and then summarize the text in English step by step?"
    )


def test_build_task_dataset_shape() -> None:
    task = build_task(
        "ii-x", TaskCategory.IMAGE_TO_IMAGE, ((C.GRAY, C.BLUR),), (), samples_per_task=5
    )
    assert len(task.dataset) == 5
    content_ids = set()
    for sample in task.dataset:
        (payload,) = sample.inputs
        assert payload.corruptions == (C.GRAY, C.BLUR)
        assert sample.reference.corruptions == ()
        assert sample.reference.quality == 1.0
        content_ids.add(payload.expr)
    assert len(content_ids) == 5


def _per_sample_task(
    task_id: str,
    category: TaskCategory,
    chains: tuple,
    builder: tuple,
    samples_per_task: int = 20,
    constants: SimConstants = DEFAULT_CONSTANTS,
    content_counter=None,
) -> TaskSpec:
    """The reference for `build_task`: every sample runs the chains and the
    recipe on its own leaves."""
    signature, out_modality = CATEGORY_SIGNATURES[category]
    if len(chains) != len(signature):
        raise ValueError("one corruption chain per task input")
    counter = content_counter if content_counter is not None else itertools.count()
    samples = []
    for _ in range(samples_per_task):
        cleans = tuple(make_leaf(modality, f"x{next(counter):05d}") for modality in signature)
        corrupted = tuple(apply_chain(clean, chain) for clean, chain in zip(cleans, chains))
        samples.append(Sample(inputs=corrupted, reference=_apply_builder(cleans, builder, constants)))
    return TaskSpec(
        id=task_id,
        description=describe(category, chains, builder),
        category=category,
        input_signature=signature,
        output_modality=out_modality,
        corruption_chains=chains,
        reference_builder=builder,
        metric_slot=assign_slot(builder, out_modality),
        dataset=tuple(samples),
    )


def _same_tasks(ours, reference) -> None:
    """Equal, and equal as documents, which also tells 1 from 1.0."""
    assert ours == reference
    assert json.dumps([task_to_json(t) for t in ours]) == json.dumps([task_to_json(t) for t in reference])


@pytest.mark.parametrize("constants", [DEFAULT_CONSTANTS, SimConstants(beta=0.3, gamma=0.7, language_mismatch=0.25)])
@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("category", list(TaskCategory))
def test_build_task_matches_the_per_sample_build(category, samples, constants) -> None:
    """`build_task` runs the chains and the recipe once and fills in each
    sample's ids; the category's entry with the longest chains and recipe
    comes out as if each sample had been built on its own leaves, and both
    draw the same ids from the counter."""
    chains, builder = max(
        category_space(category, CatalogConfig()),
        key=lambda combo: (len(combo[1]), sum(map(len, combo[0]))),
    )
    ours, theirs = itertools.count(7), itertools.count(7)
    task = build_task("x-000", category, chains, builder, samples, constants, ours)
    _same_tasks((task,), (_per_sample_task("x-000", category, chains, builder, samples, constants, theirs),))
    assert next(ours) == next(theirs) == 7 + samples * len(chains)


@pytest.mark.parametrize(
    "category, chains, builder, error",
    [
        (TaskCategory.TEXT_TO_TEXT, ((C.TRANSLATE, C.TRANSLATE),), (), IllegalTranslate),
        (TaskCategory.TEXT_TO_TEXT, ((C.BLUR,),), (), IllegalCorruption),
        (TaskCategory.TEXT_TO_TEXT, ((C.MASK,),), (S.CLASSIFY,), ModalityMismatch),
        (TaskCategory.TEXT_TO_TEXT, ((C.MASK,), ()), (), ValueError),
    ],
)
def test_build_task_raises_as_the_per_sample_build(category, chains, builder, error) -> None:
    for build in (build_task, _per_sample_task):
        with pytest.raises(error):
            build("x-000", category, chains, builder, samples_per_task=2)


def test_catalog_matches_the_per_sample_build(monkeypatch) -> None:
    cfg = CatalogConfig(seed=1)
    ours = generate_catalog(cfg)
    monkeypatch.setattr(benchgen, "build_task", _per_sample_task)
    _same_tasks(ours, generate_catalog(cfg))


def test_default_catalog_counts(catalog) -> None:
    assert len(catalog) == 185
    singles = [t for t in catalog if len(t.input_signature) == 1]
    doubles = [t for t in catalog if len(t.input_signature) == 2]
    assert len(singles) == 117
    assert len(doubles) == 68
    assert catalog[0].id == "ii-000"
    assert catalog[-1].id == "ttt-033"
    prefixes = {
        TaskCategory.IMAGE_TO_IMAGE: "ii",
        TaskCategory.IMAGE_TO_TEXT: "it",
        TaskCategory.TEXT_TO_IMAGE: "ti",
        TaskCategory.TEXT_TO_TEXT: "tt",
        TaskCategory.IMAGE_TEXT_TO_TEXT: "itt",
        TaskCategory.TEXT_TEXT_TO_TEXT: "ttt",
    }
    for task in catalog:
        assert task.id.split("-")[0] == prefixes[task.category]
        assert len(task.dataset) == 20


def test_catalog_is_byte_identical_across_runs(catalog) -> None:
    again = generate_catalog(CatalogConfig())
    docs = [task_to_json(t) for t in catalog]
    assert json.dumps(docs) == json.dumps([task_to_json(t) for t in again])
    assert catalog_from_json(docs) == tuple(catalog)


def test_two_input_chain_length_ordering(catalog) -> None:
    # The first input (image for VQA, document for QA) always carries at
    # least as long a chain; QA chains differ by at most one step.
    for task in catalog:
        if len(task.input_signature) != 2:
            continue
        first, second = (len(chain) for chain in task.corruption_chains)
        assert first >= second
        if task.category is TaskCategory.TEXT_TEXT_TO_TEXT:
            assert first - second <= 1


def test_infeasible_catalog_count_is_rejected() -> None:
    with pytest.raises(InfeasibleCount):
        generate_catalog(CatalogConfig(text_text=30))


def test_split_is_stratified_and_deterministic(catalog) -> None:
    train, test, rest = split_train_test(catalog, 0)
    assert (len(train), len(test), len(rest)) == (17, 17, 151)
    ids = [t.id for t in train] + [t.id for t in test] + [t.id for t in rest]
    assert sorted(ids) == sorted(t.id for t in catalog)

    again_train, again_test, _ = split_train_test(catalog, 0)
    assert [t.id for t in again_train] == [t.id for t in train]
    assert [t.id for t in again_test] == [t.id for t in test]

    other_train, _, _ = split_train_test(catalog, 1)
    assert [t.id for t in other_train] != [t.id for t in train]

    by_category = {cat: 0 for cat in TaskCategory}
    for task in catalog:
        by_category[task.category] += 1
    for part in (train, test):
        counts = {cat: 0 for cat in TaskCategory}
        for task in part:
            counts[task.category] += 1
        for cat in TaskCategory:
            assert counts[cat] == int(by_category[cat] * 0.1 + 0.5)


def test_required_oracle_depth() -> None:
    single = build_task("tt-x", TaskCategory.TEXT_TO_TEXT, ((C.MASK,),), (S.TRANSLATE_EN_DE,))
    assert required_oracle_depth(single) == 2
    double = build_task(
        "itt-x", TaskCategory.IMAGE_TEXT_TO_TEXT, ((C.NOISE, C.BLUR), (C.MASK,)), (S.VQA,)
    )
    assert required_oracle_depth(double) == 2


def test_oracle_restoration_example(registry) -> None:
    task = build_task("ii-x", TaskCategory.IMAGE_TO_IMAGE, ((C.GRAY, C.BLUR, C.NOISE),), ())
    result = oracle_best_plan(task, registry, 3)
    assert [n.tool for n in result.best_plan.nodes] == [
        "Image Denoising",
        "Image Deblurring",
        "Colorization",
    ]
    assert result.best_reward == 1.0
    assert result.plans_examined == 79


def test_oracle_translate_example(registry) -> None:
    task = build_task("tt-x", TaskCategory.TEXT_TO_TEXT, ((C.MASK,),), (S.TRANSLATE_EN_DE,))
    result = oracle_best_plan(task, registry, required_oracle_depth(task))
    assert [n.tool for n in result.best_plan.nodes] == ["Fill Mask", "Machine Translation"]
    assert result.best_reward == 1.0
    assert result.plans_examined == 19


def test_oracle_nonlinear_example(registry) -> None:
    task = build_task(
        "itt-x", TaskCategory.IMAGE_TEXT_TO_TEXT, ((C.NOISE, C.BLUR), (C.MASK,)), (S.VQA,)
    )
    result = oracle_best_plan(task, registry, 2, replayable_only=True)
    plan = result.best_plan
    assert is_nonlinear(plan)
    assert result.best_reward == 1.0
    assert [n.tool for n in plan.nodes] == [
        "Image Deblurring",
        "Image Denoising",
        "Fill Mask",
        "Visual Question Answering",
    ]
    assert topological_stages(plan) == [[0, 2], [1], [3]]
    assert validate_plan(plan, registry, task.input_signature, task.output_modality).ok


def test_oracle_reward_grows_with_depth(registry) -> None:
    task = build_task("ii-x", TaskCategory.IMAGE_TO_IMAGE, ((C.GRAY, C.BLUR, C.NOISE),), ())
    with pytest.raises(NoFeasiblePlan):
        oracle_best_plan(task, registry, 0)
    shallow = oracle_best_plan(task, registry, 2)
    deep = oracle_best_plan(task, registry, 3)
    assert shallow.best_reward == pytest.approx(0.9)
    assert deep.best_reward == 1.0
    assert shallow.best_reward < deep.best_reward


def test_oracle_runs_each_tool_dynamics_once(registry, monkeypatch) -> None:
    # The oracle walks a tool-dynamics table: one apply_tool per distinct
    # (tool, input shapes), however many exprs share those shapes.
    from planforge import benchgen

    task = build_task(
        "itt-x", TaskCategory.IMAGE_TEXT_TO_TEXT, ((C.NOISE, C.BLUR), (C.MASK,)), (S.VQA,)
    )
    calls = []
    real = benchgen.apply_tool

    def counting(semantic, inputs, constants):
        calls.append((semantic, tuple((p.modality, p.language, p.corruptions) for p in inputs)))
        return real(semantic, inputs, constants)

    monkeypatch.setattr(benchgen, "apply_tool", counting)
    result = oracle_best_plan(task, registry, 2)
    assert calls and len(calls) == len(set(calls))
    assert {len(inputs) for _, inputs in calls} == {1, 2}
    assert result.plans_examined == 13923
    assert result.best_reward == 1.0


def test_oracle_scores_only_candidates_that_can_still_win(registry, monkeypatch) -> None:
    # A (join, head pair) whose joined quality is below the best score so
    # far has its tails counted, not scored.
    from planforge import benchgen

    task = build_task(
        "itt-x", TaskCategory.IMAGE_TEXT_TO_TEXT, ((C.NOISE, C.BLUR), (C.MASK,)), (S.VQA,)
    )
    calls = 0
    real = benchgen.chain_similarity

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(benchgen, "chain_similarity", counting)
    result = oracle_best_plan(task, registry, 2)
    assert result.plans_examined == 13923
    assert 0 < calls < result.plans_examined
    assert result.best_reward == 1.0


def test_oracle_rejects_empty_dataset(registry) -> None:
    task = build_task("ii-x", TaskCategory.IMAGE_TO_IMAGE, ((C.GRAY,),), (), samples_per_task=0)
    with pytest.raises(ValueError):
        oracle_best_plan(task, registry, 1)


def test_oracle_rejects_negative_depth(registry) -> None:
    task = build_task("ii-x", TaskCategory.IMAGE_TO_IMAGE, ((C.GRAY,),), ())
    with pytest.raises(ValueError, match="max_depth"):
        oracle_best_plan(task, registry, -1)


# A naive reference for oracle_best_plan: list every candidate of the
# canonical plan family independently, execute and score each one,
# build the full (-score, tool count, plan document) key for each, and
# take the argmin, over replayable candidates only when asked.


def _naive_chains(registry, modality, depth):
    """(tool names, output modality) of every well-typed chain of at most
    depth distinct single-input tools starting from modality."""
    unary = [spec for spec in registry if len(spec.inputs) == 1]
    chains = []
    for length in range(depth + 1):
        for specs in itertools.permutations(unary, length):
            head = modality
            for spec in specs:
                if spec.inputs[0] is not head:
                    break
                head = spec.output
            else:
                chains.append((tuple(spec.name for spec in specs), head))
    return chains


def _naive_nodes(names, head, start):
    nodes = []
    for nid, name in enumerate(names, start):
        nodes.append(PlanNode(nid, name, (head,)))
        head = NodeOutput(nid)
    return nodes, head


def _naive_candidates(task, registry, depth):
    out = task.output_modality
    if len(task.input_signature) == 1:
        for names, head in _naive_chains(registry, task.input_signature[0], depth):
            if names and head is out:
                nodes, _ = _naive_nodes(names, TaskInput(0), 0)
                yield PlanGraph(tuple(nodes), nodes[-1].id)
        return
    chains = [_naive_chains(registry, modality, depth) for modality in task.input_signature]
    for a, b in ((0, 1), (1, 0)):
        for join in (spec for spec in registry if len(spec.inputs) == 2):
            tails = [tail for tail, head in _naive_chains(registry, join.output, depth) if head is out]
            for names0, head0 in chains[a]:
                for names1, head1 in chains[b]:
                    if head0 is not join.inputs[0] or head1 is not join.inputs[1]:
                        continue
                    for tail in tails:
                        tools = names0 + names1 + (join.name,) + tail
                        if len(set(tools)) != len(tools):
                            continue
                        nodes0, h0 = _naive_nodes(names0, TaskInput(a), 0)
                        nodes1, h1 = _naive_nodes(names1, TaskInput(b), len(nodes0))
                        join_id = len(nodes0) + len(nodes1)
                        rest, _ = _naive_nodes(tail, NodeOutput(join_id), join_id + 1)
                        nodes = nodes0 + nodes1 + [PlanNode(join_id, join.name, (h0, h1))] + rest
                        yield PlanGraph(tuple(nodes), nodes[-1].id)


def _naive_score(plan, sample, registry):
    trace = execute(plan, sample.inputs, registry)
    return 0.0 if trace.final is None else similarity(trace.final, sample.reference)


def _naive_oracle(task, registry, depth, replayable_only):
    """(best plan or None, number of candidates)."""
    keyed = []
    for plan in _naive_candidates(task, registry, depth):
        score = _naive_score(plan, task.dataset[0], registry)
        document = json.dumps(plan_to_json(plan), sort_keys=True)
        keyed.append(((-score, len(plan.nodes), document), plan))
    keyed.sort(key=lambda entry: entry[0])
    for _, plan in keyed:
        if replayable_only:
            try:
                replay_steps(plan, task, registry)
            except InvalidPlan:
                continue
        return plan, len(keyed)
    return None, len(keyed)


_REGISTRY = default_registry()
_SPACES = {category: category_space(category, CatalogConfig()) for category in TaskCategory}


@st.composite
def _oracle_cases(draw):
    category = draw(st.sampled_from(list(TaskCategory)))
    chains, builder = draw(st.sampled_from(_SPACES[category]))
    depth = draw(st.integers(min_value=1, max_value=2))
    # Generated inputs all have quality 1.0; a user catalog may carry any
    # quality in (0, 1], which the oracle must fold through its chains.
    qualities = tuple(draw(st.sampled_from([1.0, 0.9, 0.5, 0.37])) for _ in chains)
    return category, chains, builder, depth, draw(st.booleans()), qualities


def _with_input_qualities(task, qualities):
    return replace(task, dataset=tuple(
        replace(s, inputs=tuple(replace(p, quality=q) for p, q in zip(s.inputs, qualities)))
        for s in task.dataset
    ))


@settings(max_examples=12, deadline=None)
@given(_oracle_cases())
@example((TaskCategory.IMAGE_TEXT_TO_TEXT, ((C.NOISE, C.BLUR), (C.MASK,)), (S.VQA,), 2, True, (1.0, 1.0)))
@example((TaskCategory.TEXT_TEXT_TO_TEXT, ((C.MASK, C.TRANSLATE), (C.MASK,)), (S.QA, S.SUMMARIZE), 2, False, (1.0, 1.0)))
@example((TaskCategory.TEXT_TEXT_TO_TEXT, ((C.MASK, C.TRANSLATE), (C.MASK,)), (S.QA, S.SUMMARIZE), 2, False, (0.37, 0.9)))
@example((TaskCategory.IMAGE_TO_TEXT, ((C.BLUR, C.NOISE),), (S.CAPTION,), 2, False, (0.5,)))
@example((TaskCategory.IMAGE_TEXT_TO_TEXT, ((C.NOISE, C.BLUR), (C.MASK,)), (S.VQA,), 2, True, (0.37, 0.9)))
@example((TaskCategory.TEXT_TEXT_TO_TEXT, ((C.MASK, C.TRANSLATE), (C.MASK,)), (S.QA, S.SUMMARIZE), 2, True, (0.37, 0.9)))
@example((TaskCategory.IMAGE_TO_TEXT, ((C.BLUR,),), (S.CAPTION,), 1, False, (0.9,)))
@example((TaskCategory.IMAGE_TEXT_TO_TEXT, ((C.NOISE,), (C.MASK,)), (S.VQA,), 1, True, (0.37, 0.9)))
@example((TaskCategory.IMAGE_TO_IMAGE, ((C.GRAY,),), (), 2, False, (0.5,)))
def test_oracle_matches_naive_reference(case) -> None:
    category, chains, builder, depth, replayable_only, qualities = case
    task = build_task("x-000", category, chains, builder, samples_per_task=2)
    task = _with_input_qualities(task, qualities)
    plan, candidates = _naive_oracle(task, _REGISTRY, depth, replayable_only)
    if plan is None:
        with pytest.raises(NoFeasiblePlan):
            oracle_best_plan(task, _REGISTRY, depth, replayable_only=replayable_only)
        return
    result = oracle_best_plan(task, _REGISTRY, depth, replayable_only=replayable_only)
    assert result.best_plan == plan
    assert result.plans_examined == candidates
    assert result.best_steps == (replay_steps(plan, task, _REGISTRY) if replayable_only else None)
    assert result.best_reward == fmean(_naive_score(plan, s, _REGISTRY) for s in task.dataset)


# At the tight depth (3 to 5 tools for a one-input task) the one-input
# walk skips most chains, which depths 1 and 2 above barely reach.

_ONE_INPUT = [
    (category, chains, builder, len(chains[0]) + len(builder))
    for category in TaskCategory
    if len(CATEGORY_SIGNATURES[category][0]) == 1
    for chains, builder in _SPACES[category]
]


@st.composite
def _tight_one_input_cases(draw):
    category, chains, builder, _ = draw(
        st.sampled_from([case for case in _ONE_INPUT if 3 <= case[3] <= 5])
    )
    qualities = (draw(st.sampled_from([1.0, 0.9, 0.5, 0.37])),)
    return category, chains, builder, draw(st.booleans()), qualities


@settings(max_examples=5, deadline=None)
@given(_tight_one_input_cases())
@example((TaskCategory.IMAGE_TO_TEXT, ((C.NOISE, C.BLUR, C.GRAY, C.LOWRES),), (S.CAPTION,), True, (0.37,)))
# Two chains tie on score and tool count, and the plan document breaks
# the tie: a chain whose bound equals the best score must still be walked.
@example((TaskCategory.TEXT_TO_IMAGE, ((),), (S.SENTIMENT, S.TRANSLATE_EN_DE, S.GENERATE), False, (1.0,)))
def test_oracle_matches_naive_reference_at_tight_depth(case) -> None:
    category, chains, builder, replayable_only, qualities = case
    task = build_task("x-000", category, chains, builder, samples_per_task=2)
    task = _with_input_qualities(task, qualities)
    depth = required_oracle_depth(task)
    assert 3 <= depth <= 5
    plan, candidates = _naive_oracle(task, _REGISTRY, depth, replayable_only)
    result = oracle_best_plan(task, _REGISTRY, depth, replayable_only=replayable_only)
    assert result.best_plan == plan
    assert result.plans_examined == candidates
    assert result.best_steps == (replay_steps(plan, task, _REGISTRY) if replayable_only else None)
    assert result.best_reward == fmean(_naive_score(plan, s, _REGISTRY) for s in task.dataset)


# The bounds the oracle skips candidates by. A candidate's score never
# exceeds the quality of a chain it extends, nor (q0 * q1max) * f for a
# join of factor f of chains of quality q0 and q1 <= q1max.

_UNARY = [spec for spec in _REGISTRY if len(spec.inputs) == 1]


@st.composite
def _chain_prefixes(draw):
    """A one-input task whose input has quality q, and one of the chains
    the oracle walks from that input, with every chain of the walk."""
    category, chains, builder, _ = draw(st.sampled_from([case for case in _ONE_INPUT if case[3] <= 3]))
    quality = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    task = _with_input_qualities(build_task("x-000", category, chains, builder, 1), (quality,))
    [start] = task.dataset[0].inputs
    walked = benchgen._enumerate_chains(
        _UNARY,
        start.modality,
        benchgen._shape(start),
        required_oracle_depth(task),
        benchgen._DynamicsTable(DEFAULT_CONSTANTS),
        task.output_modality,
    )
    return task, draw(st.sampled_from(walked)), walked


@settings(max_examples=25, deadline=None)
@given(_chain_prefixes())
def test_no_extension_of_a_chain_scores_above_its_quality(case) -> None:
    task, (prefix, _, _, _, factors), walked = case
    [sample] = task.dataset
    bound = scale_quality(sample.inputs[0].quality, factors)
    extensions = [
        names for names, end, _, _, _ in walked
        if names[: len(prefix)] == prefix and names and end is task.output_modality
    ]
    for names in extensions:
        plan = benchgen._plan(((0, names),), None, ())
        assert _naive_score(plan, sample, _REGISTRY) <= bound


_UNIT = st.floats(min_value=0.0, max_value=1.0)


@given(_UNIT, _UNIT, _UNIT, _UNIT, st.lists(_UNIT, max_size=4), st.lists(_UNIT, max_size=4))
def test_quality_bounds_are_monotone_under_float_rounding(q0, a, b, f, factors, more) -> None:
    q1, q1max = sorted((a, b))
    assert (q0 * q1) * f <= (q0 * q1max) * f
    assert scale_quality(q0, tuple(factors + more)) <= scale_quality(q0, tuple(factors))


# The family size the oracle reports, counted from tool kinds, against
# the naive reference's candidates: on any sub-registry of the stock one,
# so kinds have any size and joins may be missing.


@st.composite
def _family_cases(draw):
    category = draw(st.sampled_from(list(TaskCategory)))
    chains, builder = _SPACES[category][0]
    task = build_task("x-000", category, chains, builder, 1)
    keep = draw(st.lists(st.booleans(), min_size=len(_REGISTRY), max_size=len(_REGISTRY)))
    registry = ToolRegistry(tuple(spec for spec, kept in zip(_REGISTRY, keep) if kept))
    depth = draw(st.integers(0, 4 if len(task.input_signature) == 1 else 2))
    return task, registry, depth


@settings(max_examples=40, deadline=None)
@given(_family_cases())
@example((build_task("x-000", TaskCategory.IMAGE_TO_TEXT, ((C.BLUR,),), (S.CAPTION,), 1), _REGISTRY, 4))
@example((build_task("x-000", TaskCategory.IMAGE_TEXT_TO_TEXT, ((C.NOISE,), (C.MASK,)), (S.VQA,), 1), _REGISTRY, 2))
def test_family_size_matches_a_naive_count(case) -> None:
    task, registry, depth = case
    assert benchgen._family_size(registry, task, depth) == len(list(_naive_candidates(task, registry, depth)))
