from __future__ import annotations

import contextlib
import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import planforge.decoder as decoder_module
from planforge.benchgen import (
    CatalogConfig,
    build_task,
    category_space,
    generate_catalog,
    oracle_best_plan,
    required_oracle_depth,
)
from planforge.context import BOS, END_TOKEN, Context
from planforge.decoder import (
    SAMPLE_RETRIES,
    DecoderConfig,
    ReplayStep,
    RolloutTree,
    SamplerConfig,
    _draw,
    _filtered_distribution,
    _step_cap,
    allowed_tokens,
    apply_action,
    beam_search,
    initial_state,
    replay_steps,
    sample_plan,
    step_frontier,
    to_plan,
)
from planforge.errors import EngineError, InvalidPlan, NoFeasiblePlan
from planforge.plan_ir import (
    TaskCategory,
    TaskInput,
    TaskSpec,
    from_linear_sequence,
    is_nonlinear,
    plan_hash,
    validate_plan,
)
from planforge.plan_ir import MetricSlot
from planforge.policy import (
    GuidedPlanPolicy,
    PolicyParams,
    TabularPolicy,
    score_tokens,
)
from planforge.registry import ToolRegistry, ToolSpec, default_registry
from planforge.simkit import Corruption, Modality, SemanticId

I = Modality.IMAGE
T = Modality.TEXT
C = Corruption
S = SemanticId

MINI = ToolRegistry(
    (
        ToolSpec("Colorization", (I,), I, SemanticId.REMOVE_GRAY),
        ToolSpec("Image Deblurring", (I,), I, SemanticId.REMOVE_BLUR),
        ToolSpec("Image Denoising", (I,), I, SemanticId.REMOVE_NOISE),
    )
)


def _act(state, token, task, registry):
    """apply_action on the uncapped frontier the state offers."""
    return apply_action(state, step_frontier(state, task, registry, len(registry)), token, registry)


def _mini_task() -> TaskSpec:
    return build_task(
        "mini-0",
        TaskCategory.IMAGE_TO_IMAGE,
        ((Corruption.GRAY, Corruption.BLUR, Corruption.NOISE),),
        (),
        samples_per_task=2,
    )


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        DecoderConfig(beam_size=0)
    with pytest.raises(ValueError):
        SamplerConfig(top_k=-1)
    with pytest.raises(ValueError):
        SamplerConfig(temperature=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(top_p=0.0)


def test_no_end_before_any_tool() -> None:
    task = _mini_task()
    frontier = step_frontier(initial_state(task), task, MINI, DecoderConfig().max_tools_per_branch)
    assert frontier.actions == ("Colorization", "Image Deblurring", "Image Denoising")
    assert END_TOKEN not in frontier.actions


def test_decoder_states_refuse_field_assignment() -> None:
    """States are shared between beam candidates, so none may change in place."""
    task = _mini_task()
    state = initial_state(task)
    frontier = step_frontier(state, task, MINI, DecoderConfig().max_tools_per_branch)
    step = ReplayStep(frontier.context, frontier.actions, frontier.actions[0])
    branch = state.branches[0]
    for value in (state, branch, branch.hint, frontier, step):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = None


def test_uniform_beam_enumerates_every_ordering() -> None:
    """30 beams cover the whole 3-tool space: 15 plans, all validated."""
    task = _mini_task()
    policy = TabularPolicy(PolicyParams())
    results = list(beam_search(policy, task, MINI, DecoderConfig(beam_size=30)))
    sequences = {tuple(n.tool for n in dp.plan.nodes) for dp in results}
    assert len(results) == 15
    names = ("Colorization", "Image Deblurring", "Image Denoising")
    full_orderings = {
        seq for seq in sequences if len(seq) == 3
    }
    import itertools

    assert full_orderings == set(itertools.permutations(names))
    for dp in results:
        assert validate_plan(dp.plan, MINI, task.input_signature, task.output_modality).ok


def test_uniform_beam_log_probs_are_exact() -> None:
    task = _mini_task()
    policy = TabularPolicy(PolicyParams())
    results = list(beam_search(policy, task, MINI, DecoderConfig(beam_size=30)))
    # One tool: 1/3 for the tool, then 1/3 against two tools plus end.
    # Two tools: extra 1/3, then end against one leftover tool.
    # Three tools: the final end is forced, so same mass as two tools.
    expected = {1: math.log(1 / 9), 2: math.log(1 / 18), 3: math.log(1 / 18)}
    for dp in results:
        assert dp.log_prob == pytest.approx(expected[len(dp.plan.nodes)])


def test_greedy_beam_is_deterministic() -> None:
    task = _mini_task()
    cfg = DecoderConfig(beam_size=7)
    policy = TabularPolicy(PolicyParams())
    first = [plan_hash(dp.plan) for dp in beam_search(policy, task, MINI, cfg)]
    second = [plan_hash(dp.plan) for dp in beam_search(policy, task, MINI, cfg)]
    assert first == second


def test_max_tools_per_branch_caps_plan_length() -> None:
    task = _mini_task()
    cfg = DecoderConfig(beam_size=30, max_tools_per_branch=2)
    results = list(beam_search(TabularPolicy(PolicyParams()), task, MINI, cfg))
    assert {len(dp.plan.nodes) for dp in results} == {1, 2}


def test_allowed_tokens_word_level(registry) -> None:
    img_task = build_task(
        "ii-x", TaskCategory.IMAGE_TO_IMAGE, ((Corruption.BLUR,),), (), samples_per_task=1
    )
    state = initial_state(img_task)
    cfg = DecoderConfig()
    first = allowed_tokens(state, img_task, registry, cfg)
    assert first == frozenset({"Image", "Colorization", "Object"})
    mid = allowed_tokens(state, img_task, registry, cfg, partial_words=("Image",))
    assert mid == frozenset(
        {"Classification", "Deblurring", "Denoising", "Super", "Captioning"}
    )

    txt_task = build_task(
        "tt-x",
        TaskCategory.TEXT_TO_TEXT,
        ((Corruption.MASK,),),
        (SemanticId.SUMMARIZE,),
        samples_per_task=1,
    )
    after = _act(initial_state(txt_task), "Text Summarization", txt_task, registry)
    tokens = allowed_tokens(after, txt_task, registry, cfg)
    assert END_TOKEN in tokens
    # Question Answering needs a second branch to feed its other slot, so
    # it is gated out on a single-input task.
    assert tokens - {END_TOKEN} == frozenset({"Text", "Sentiment", "Machine", "Fill"})

    ttt_task = build_task(
        "ttt-x",
        TaskCategory.TEXT_TEXT_TO_TEXT,
        ((Corruption.MASK,), (Corruption.MASK,)),
        (SemanticId.QA,),
        samples_per_task=1,
    )
    state = _act(initial_state(ttt_task), "Text Summarization", ttt_task, registry)
    state = _act(state, END_TOKEN, ttt_task, registry)  # park branch 1
    tokens = allowed_tokens(state, ttt_task, registry, cfg)
    assert tokens - {END_TOKEN} == frozenset(
        {"Text", "Sentiment", "Question", "Machine", "Fill"}
    )


def test_guided_beam_recovers_nonlinear_gold(catalog, registry) -> None:
    task = next(t for t in catalog if t.category is TaskCategory.IMAGE_TEXT_TO_TEXT)
    gold = oracle_best_plan(
        task, registry, required_oracle_depth(task), replayable_only=True
    ).best_plan
    assert is_nonlinear(gold)
    top = next(beam_search(GuidedPlanPolicy(gold, registry), task, registry, DecoderConfig()))
    assert plan_hash(top.plan) == plan_hash(gold)


def test_decode_dispatches_on_input_count(catalog, registry) -> None:
    single = next(t for t in catalog if len(t.input_signature) == 1)
    double = next(t for t in catalog if len(t.input_signature) == 2)
    assert list(beam_search(TabularPolicy(PolicyParams()), single, registry, DecoderConfig()))
    assert list(beam_search(TabularPolicy(PolicyParams()), double, registry, DecoderConfig()))
    triple = TaskSpec(
        id="bad",
        description="three inputs",
        category=TaskCategory.TEXT_TEXT_TO_TEXT,
        input_signature=(T, T, T),
        output_modality=T,
        corruption_chains=((), (), ()),
        reference_builder=(SemanticId.QA,),
        metric_slot=MetricSlot.BERT,
        dataset=(),
    )
    with pytest.raises(ValueError):
        next(beam_search(TabularPolicy(PolicyParams()), triple, registry, DecoderConfig()))


def test_replay_reproduces_decoded_plan(catalog, registry) -> None:
    for task in list(catalog)[:3] + [next(t for t in catalog if len(t.input_signature) == 2)]:
        top = next(beam_search(TabularPolicy(PolicyParams()), task, registry, DecoderConfig()))
        steps = replay_steps(top.plan, task, registry)
        state = initial_state(task)
        for step in steps:
            assert step.chosen in step.actions
            state = _act(state, step.chosen, task, registry)
        assert state.done
        assert plan_hash(to_plan(state)) == plan_hash(top.plan)


def test_replay_rejects_foreign_plans(catalog, registry) -> None:
    task = next(t for t in catalog if t.category is TaskCategory.IMAGE_TO_TEXT)
    broken = from_linear_sequence(["Image Captioning", "Text Summarization"], registry)
    steps = replay_steps(broken, task, registry)
    assert [s.chosen for s in steps][:2] == ["Image Captioning", "Text Summarization"]

    two_input = next(t for t in catalog if len(t.input_signature) == 2)
    with pytest.raises(InvalidPlan):
        replay_steps(broken, two_input, registry)


def test_stochastic_top1_is_seed_independent(catalog, registry) -> None:
    cfg = SamplerConfig(top_k=1)
    policy = TabularPolicy(PolicyParams())
    for task in list(catalog)[:5]:
        a, _ = sample_plan(policy, RolloutTree(task, registry, cfg), random.Random(1))
        b, _ = sample_plan(policy, RolloutTree(task, registry, cfg), random.Random(99))
        assert plan_hash(a) == plan_hash(b)


def test_stochastic_sampling_is_reproducible(catalog, registry) -> None:
    cfg = SamplerConfig()
    policy = TabularPolicy(PolicyParams())
    task = list(catalog)[0]

    def sampled_hash() -> str:
        return plan_hash(sample_plan(policy, RolloutTree(task, registry, cfg), random.Random(7))[0])

    a = [sampled_hash() for _ in range(3)]
    b = [sampled_hash() for _ in range(3)]
    assert a == b


def test_infeasible_task_raises() -> None:
    # Image output but only text-to-text tools available.
    lonely = ToolRegistry(
        (ToolSpec("Text Summarization", (T,), T, SemanticId.SUMMARIZE),)
    )
    task = build_task(
        "ti-x", TaskCategory.TEXT_TO_IMAGE, ((),), (SemanticId.GENERATE,), samples_per_task=1
    )
    with pytest.raises(NoFeasiblePlan):
        next(beam_search(TabularPolicy(PolicyParams()), task, lonely, DecoderConfig()))


def _reference_beam(policy, task, registry, cfg) -> list[tuple[str, float]]:
    """Beam search that builds every child, as (plan_hash, log_prob) ranked.

    Invariant checked on the way: all live states at a step have distinct
    paths of equal length, so (-log_prob, path) is a total order on them
    and on their children.
    """
    live = [initial_state(task)]
    finished: dict[str, float] = {}
    for _ in range(_step_cap(task, registry)):
        if not live:
            break
        assert len({len(s.path) for s in live}) == 1
        assert len({s.path for s in live}) == len(live)
        grown = []
        for state in live:
            frontier = step_frontier(state, task, registry, cfg.max_tools_per_branch)
            if frontier is None:
                continue
            scores = policy.score_step(frontier.context, frontier.actions, state)
            for token in frontier.actions:
                child = apply_action(state, frontier, token, registry, lp_delta=scores[token])
                if child.done:
                    plan = to_plan(child)
                    if validate_plan(
                        plan, registry, task.input_signature, task.output_modality
                    ).ok:
                        key = plan_hash(plan)
                        finished[key] = max(finished.get(key, -math.inf), child.log_prob)
                else:
                    grown.append(child)
        grown.sort(key=lambda s: (-s.log_prob, s.path))
        live = grown[: cfg.beam_size]
    return sorted(finished.items(), key=lambda kv: (-kv[1], kv[0]))


class _RandomTable(dict):
    """Tabular policy weights drawn per (context, token) from a seeded stream.

    Weights come from a five-value set, so different paths often tie on
    log-probability and the path tie-break is exercised.
    """

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed

    def get(self, key, default=None):
        ctx, token = key
        return random.Random(f"{self.seed}|{ctx}|{token}").choice((-1.0, -0.5, 0.0, 0.5, 1.0))


_REGISTRY = default_registry()
_SPACES = {category: category_space(category, CatalogConfig()) for category in TaskCategory}


def _case_policy(table_seed: int | None):
    if table_seed is None:
        return TabularPolicy(PolicyParams())
    return TabularPolicy(_RandomTable(table_seed))


@st.composite
def _beam_cases(draw):
    category = draw(st.sampled_from(list(TaskCategory)))
    chains, builder = draw(st.sampled_from(_SPACES[category]))
    beam_size = draw(st.integers(min_value=1, max_value=8))
    table_seed = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)))
    return category, chains, builder, beam_size, table_seed


@settings(max_examples=100, deadline=None)
@given(_beam_cases())
@example((TaskCategory.IMAGE_TEXT_TO_TEXT, ((C.NOISE, C.BLUR), (C.MASK,)), (S.VQA,), 1, None))
@example((TaskCategory.TEXT_TEXT_TO_TEXT, ((C.MASK,), (C.MASK,)), (S.QA,), 8, 7))
@example((TaskCategory.IMAGE_TO_TEXT, ((C.GRAY, C.BLUR),), (S.CAPTION,), 3, 11))
def test_beam_search_matches_reference_beam(case) -> None:
    """Building only the surviving children changes no ranked plan or log-probability."""
    category, chains, builder, beam_size, table_seed = case
    task = build_task("x-000", category, chains, builder, samples_per_task=1)
    policy = _case_policy(table_seed)
    cfg = DecoderConfig(beam_size=beam_size)
    expected = _reference_beam(policy, task, _REGISTRY, cfg)
    if not expected:
        with pytest.raises(NoFeasiblePlan):
            list(beam_search(policy, task, _REGISTRY, cfg))
        return
    got = list(beam_search(policy, task, _REGISTRY, cfg))
    assert [(plan_hash(dp.plan), dp.log_prob) for dp in got] == expected


class _OverflowingTable(_RandomTable):
    """_RandomTable's weights times 1e308: two levels at 1e308 sum to inf,
    and finite logits 3e308 apart give a score that rounds to -inf."""

    def get(self, key, default=None):
        return super().get(key) * 1e308


@settings(max_examples=100, deadline=None)
@given(_beam_cases())
@example((TaskCategory.IMAGE_TEXT_TO_TEXT, ((C.NOISE, C.BLUR), (C.MASK,)), (S.VQA,), 8, None))
@example((TaskCategory.TEXT_TEXT_TO_TEXT, ((C.MASK,), (C.MASK,)), (S.QA,), 8, 7))
def test_policy_step_scores_are_at_most_zero_or_refused(case) -> None:
    """`beam_search` hands out a finished plan once its log-prob is strictly
    above the best survivor's. That is exact only if no step score is
    positive or NaN. On every state the beam reaches, each policy in the
    package scores every action at most 0 (NaN fails the comparison), or,
    under a table whose levels overflow, refuses the step."""
    category, chains, builder, beam_size, table_seed = case
    task = build_task("x-000", category, chains, builder, samples_per_task=1)
    cfg = DecoderConfig(beam_size=beam_size)
    seed = table_seed or 0
    policies = [TabularPolicy(PolicyParams()), TabularPolicy(_RandomTable(seed))]
    with contextlib.suppress(NoFeasiblePlan):
        target = next(beam_search(TabularPolicy(PolicyParams()), task, _REGISTRY, cfg)).plan
        policies.append(GuidedPlanPolicy(target, _REGISTRY))
    overflowing = TabularPolicy(_OverflowingTable(seed))
    live = [initial_state(task)]
    while live:
        grown = []
        for state in live:
            frontier = step_frontier(state, task, _REGISTRY, cfg.max_tools_per_branch)
            if frontier is None:
                continue
            for policy in policies + [overflowing]:
                try:
                    scores = policy.score_step(frontier.context, frontier.actions, state)
                except EngineError as exc:
                    assert policy is overflowing and "is not finite" in str(exc)
                    continue
                assert set(scores) == set(frontier.actions)
                assert all(score <= 0.0 for score in scores.values())
            scores = policies[1].score_step(frontier.context, frontier.actions, state)
            for token in frontier.actions:
                child = apply_action(state, frontier, token, _REGISTRY, lp_delta=scores[token])
                if not child.done:
                    grown.append(child)
        grown.sort(key=lambda s: (-s.log_prob, s.path))
        live = grown[:beam_size]


@settings(max_examples=100, deadline=None)
@given(_beam_cases())
@example((TaskCategory.TEXT_TEXT_TO_TEXT, ((C.MASK,), (C.MASK,)), (S.QA,), 8, 7))
def test_first_plan_is_the_top_of_the_full_ranking(case) -> None:
    """`next` stops the walk early, yet hands out the plan the whole
    ranking puts first, or raises as the whole ranking does."""
    category, chains, builder, beam_size, table_seed = case
    task = build_task("x-000", category, chains, builder, samples_per_task=1)
    policy = _case_policy(table_seed)
    cfg = DecoderConfig(beam_size=beam_size)
    try:
        ranked = list(beam_search(policy, task, _REGISTRY, cfg))
    except NoFeasiblePlan:
        with pytest.raises(NoFeasiblePlan):
            next(beam_search(policy, task, _REGISTRY, cfg))
        return
    assert next(beam_search(policy, task, _REGISTRY, cfg)) == ranked[0]


def test_first_plan_walks_fewer_steps_than_the_full_ranking(catalog, registry, monkeypatch) -> None:
    """On a stock task, taking the top plan makes fewer `step_frontier`
    calls than ranking every plan: the walk stops once the top is certain."""
    calls = []

    def counted(*args):
        calls.append(None)
        return step_frontier(*args)

    monkeypatch.setattr(decoder_module, "step_frontier", counted)
    task = list(catalog)[0]
    list(beam_search(TabularPolicy(PolicyParams()), task, registry, DecoderConfig()))
    full = len(calls)
    calls.clear()
    next(beam_search(TabularPolicy(PolicyParams()), task, registry, DecoderConfig()))
    assert 0 < len(calls) < full


@settings(max_examples=100, deadline=None)
@given(_beam_cases())
@example((TaskCategory.IMAGE_TEXT_TO_TEXT, ((C.NOISE, C.BLUR), (C.MASK,)), (S.VQA,), 8, None))
@example((TaskCategory.TEXT_TEXT_TO_TEXT, ((C.MASK,), (C.MASK,)), (S.QA,), 8, 7))
def test_branch_flags_name_the_consumed_task_inputs(case) -> None:
    """step_frontier reads "every task input consumed" from branch flags.

    Branch i reads task input i with its first tool or as a join's head,
    so on every state the beam reaches, the task inputs the nodes
    reference are the branches that have a head or were consumed.
    """
    category, chains, builder, beam_size, table_seed = case
    task = build_task("x-000", category, chains, builder, samples_per_task=1)
    policy = _case_policy(table_seed)
    cfg = DecoderConfig(beam_size=beam_size)
    live = [initial_state(task)]
    while live:
        grown = []
        for state in live:
            frontier = step_frontier(state, task, _REGISTRY, cfg.max_tools_per_branch)
            if frontier is None:
                continue
            scores = policy.score_step(frontier.context, frontier.actions, state)
            for token in frontier.actions:
                child = apply_action(state, frontier, token, _REGISTRY, lp_delta=scores[token])
                from_nodes = {
                    ref.index
                    for node in child.nodes
                    for ref in node.input_refs
                    if isinstance(ref, TaskInput)
                }
                from_flags = {
                    i for i, b in enumerate(child.branches) if b.head is not None or b.consumed
                }
                assert from_nodes == from_flags
                if not child.done:
                    grown.append(child)
        grown.sort(key=lambda s: (-s.log_prob, s.path))
        live = grown[: cfg.beam_size]


# Uniform-policy decoding of a small seeded catalog: (task, beam size,
# plans found, first 12 hex digits of the top three plan hashes), as
# produced by the beam that built every child.
GOLDEN_BEAM_ROWS = [
    ("ii-000", 4, 9, ["8e93bb4e8404", "8f493b6624fd", "2526e684ecbe"]),
    ("ii-000", 30, 71, ["636661b8d202", "8e93bb4e8404", "8f493b6624fd"]),
    ("it-000", 4, 17, ["7ff8cc98adc6", "c0deae32c5c1", "09d6752a7906"]),
    ("it-000", 30, 111, ["2445576dd93e", "7ff8cc98adc6", "c0deae32c5c1"]),
    ("ti-000", 4, 9, ["af49cb899ee3", "b6c28f3878cc", "112f1ae7e4ee"]),
    ("ti-000", 30, 71, ["c8947b96ec88", "6c17d9c35a2d", "a172e63519a5"]),
    ("tt-000", 4, 15, ["04841c00a299", "2c531965c344", "d0360e13b93b"]),
    ("tt-000", 30, 77, ["04841c00a299", "2c531965c344", "d0360e13b93b"]),
    ("itt-000", 4, 24, ["dc4113c5d234", "284d68dbe5c0", "48bcc89419dd"]),
    ("itt-000", 30, 75, ["760113e8bb03", "0789c2b41746", "42e8ad784519"]),
    ("itt-001", 4, 24, ["dc4113c5d234", "284d68dbe5c0", "48bcc89419dd"]),
    ("itt-001", 30, 75, ["760113e8bb03", "0789c2b41746", "42e8ad784519"]),
    ("ttt-000", 4, 14, ["4e477cfdcd9d", "4841ddda7bbf", "7f73d257fde9"]),
    ("ttt-000", 30, 88, ["4e477cfdcd9d", "21161e7010d6", "4841ddda7bbf"]),
    ("ttt-001", 4, 14, ["4e477cfdcd9d", "4841ddda7bbf", "7f73d257fde9"]),
    ("ttt-001", 30, 88, ["4e477cfdcd9d", "21161e7010d6", "4841ddda7bbf"]),
]


def test_beam_golden_top_plans() -> None:
    catalog = generate_catalog(
        CatalogConfig(
            image_image=1,
            image_text=1,
            text_image=1,
            text_text=1,
            image_text_text=2,
            text_text_text=2,
            samples_per_task=2,
        )
    )
    rows = []
    for task in catalog:
        for beam_size in (4, 30):
            cfg = DecoderConfig(beam_size=beam_size)
            results = list(beam_search(TabularPolicy(PolicyParams()), task, _REGISTRY, cfg))
            rows.append(
                (task.id, beam_size, len(results), [plan_hash(dp.plan)[:12] for dp in results[:3]])
            )
    assert rows == GOLDEN_BEAM_ROWS


@st.composite
def _sample_cases(draw):
    category = draw(st.sampled_from(list(TaskCategory)))
    chains, builder = draw(st.sampled_from(_SPACES[category]))
    table_seed = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)))
    epsilon = draw(st.sampled_from((0.0, 0.3)))
    max_tools = draw(st.integers(min_value=1, max_value=6))
    rng_seed = draw(st.integers(min_value=0, max_value=2**16))
    return category, chains, builder, table_seed, epsilon, max_tools, rng_seed


@settings(max_examples=100, deadline=None)
@given(_sample_cases())
@example((TaskCategory.IMAGE_TEXT_TO_TEXT, ((C.NOISE, C.BLUR), (C.MASK,)), (S.VQA,), None, 0.3, 6, 0))
@example((TaskCategory.TEXT_TEXT_TO_TEXT, ((C.MASK,), (C.MASK,)), (S.QA,), 7, 0.0, 1, 1))
@example((TaskCategory.IMAGE_TO_IMAGE, ((C.GRAY, C.BLUR, C.NOISE),), (), 3, 0.3, 2, 2))
def test_sampled_plans_replay_to_themselves(case) -> None:
    """Training uses the steps `sample_plan` records instead of replaying
    each sampled plan, so those steps must equal the plan's replay.

    The sampler draws from the action set under max_tools_per_branch but
    records the uncapped set, which is what replay scores; at every cap
    the replay must exist, match the recorded steps element by element,
    and rebuild the plan.
    """
    category, chains, builder, table_seed, epsilon, max_tools, rng_seed = case
    task = build_task("x-000", category, chains, builder, samples_per_task=1)
    policy = _case_policy(table_seed)
    cfg = SamplerConfig(max_tools_per_branch=max_tools)
    try:
        tree = RolloutTree(task, _REGISTRY, cfg)
        plan, recorded = sample_plan(policy, tree, random.Random(rng_seed), epsilon)
    except NoFeasiblePlan:
        return
    steps = replay_steps(plan, task, _REGISTRY)
    assert len(recorded) == len(steps)
    for got, want in zip(recorded, steps):
        assert got == want
    state = initial_state(task)
    for step in steps:
        assert step.chosen in step.actions
        state = _act(state, step.chosen, task, _REGISTRY)
    assert state.done
    assert to_plan(state) == plan


@settings(max_examples=100, deadline=None)
@given(_beam_cases(), _sample_cases())
def test_beam_and_sampler_return_only_valid_plans(beam_case, sample_case) -> None:
    """Every plan the walkers hand out passes validate_plan.

    Neither walker validates its plans: they rest on the state machine
    completing only well-formed plans, and validation happens where a
    plan file comes in (``exec --plan``).
    """
    category, chains, builder, beam_size, table_seed = beam_case
    task = build_task("x-000", category, chains, builder, samples_per_task=1)
    policy = _case_policy(table_seed)
    try:
        decoded = list(beam_search(policy, task, _REGISTRY, DecoderConfig(beam_size=beam_size)))
        found = [(task, dp.plan) for dp in decoded]
    except NoFeasiblePlan:
        found = []

    category, chains, builder, table_seed, epsilon, max_tools, rng_seed = sample_case
    task = build_task("x-001", category, chains, builder, samples_per_task=1)
    policy = _case_policy(table_seed)
    cfg = SamplerConfig(max_tools_per_branch=max_tools)
    with contextlib.suppress(NoFeasiblePlan):
        tree = RolloutTree(task, _REGISTRY, cfg)
        plan, _ = sample_plan(policy, tree, random.Random(rng_seed), epsilon)
        found.append((task, plan))

    for task, plan in found:
        assert validate_plan(plan, _REGISTRY, task.input_signature, task.output_modality).ok


@st.composite
def _walk_tasks(draw):
    category = draw(st.sampled_from(list(TaskCategory)))
    chains, builder = draw(st.sampled_from(_SPACES[category]))
    return build_task("x-000", category, chains, builder, samples_per_task=1)


@settings(max_examples=100, deadline=None)
@given(_walk_tasks(), st.data())
def test_random_legal_walks_complete_only_valid_plans(task, data) -> None:
    """Any walk of legal actions that completes gives a valid plan, at
    every per-branch tool cap: the invariant that lets `beam_search`
    and `sample_plan` hand out `to_plan` of a completed state unchecked.

    On the way, each frontier's `uncapped` set is the cap-free frontier,
    the cap removes exactly the single-input tools of a branch at its
    cap, and END completes the plan when `completes` says so and
    otherwise parks exactly the acting branch.

    The state keeps no previous tool, node counter or output node; it
    derives them. So the walk keeps its own record of each branch slot's
    last tool and node (a join continues in the proposer's slot) and
    checks the context's `prev_tool`, that node i has id i, and that a
    completed plan outputs the completing branch's last node.
    """
    for cap in range(1, len(_REGISTRY) + 1):
        state = initial_state(task)
        last_tool = [BOS] * len(state.branches)
        last_node: list[int | None] = [None] * len(state.branches)
        emitted = 0
        while (frontier := step_frontier(state, task, _REGISTRY, cap)) is not None:
            assert frontier.uncapped == step_frontier(state, task, _REGISTRY, len(_REGISTRY)).actions
            acting = frontier.branch_index
            assert frontier.context.prev_tool == last_tool[acting]
            expected = frontier.uncapped
            if state.branches[acting].tool_count >= cap:
                expected = tuple(
                    a for a in expected if a == END_TOKEN or len(_REGISTRY.get(a).inputs) == 2
                )
            assert frontier.actions == expected
            assert frontier.completes == (sum(not b.consumed for b in state.branches) < 2)
            token = data.draw(st.sampled_from(frontier.actions))
            child = apply_action(state, frontier, token, _REGISTRY)
            if token == END_TOKEN and frontier.completes:
                assert child.done
                assert last_node[acting] is not None
                assert to_plan(child).output_node == last_node[acting]
            elif token == END_TOKEN:
                branches = list(state.branches)
                branches[acting] = branches[acting]._replace(parked=True)
                assert not child.done
                assert child.branches == tuple(branches)
            else:
                last_tool[acting], last_node[acting] = token, emitted
                emitted += 1
            assert [node.id for node in child.nodes] == list(range(emitted))
            state = child
        if state.done:
            plan = to_plan(state)
            assert validate_plan(plan, _REGISTRY, task.input_signature, task.output_modality).ok


@settings(max_examples=100, deadline=None)
@given(_beam_cases())
@example((TaskCategory.TEXT_TEXT_TO_TEXT, ((C.MASK,), (C.MASK,)), (S.QA,), 8, 7))
@example((TaskCategory.IMAGE_TO_IMAGE, ((C.GRAY, C.BLUR, C.NOISE),), (), 1, None))
def test_beam_search_returns_distinct_plans(case) -> None:
    """Live states have distinct paths, and distinct paths give distinct
    plans (a node's id and first input fix the token that emitted it),
    so the beam hands out no plan twice without de-duplicating."""
    category, chains, builder, beam_size, table_seed = case
    task = build_task("x-000", category, chains, builder, samples_per_task=1)
    policy = _case_policy(table_seed)
    try:
        decoded = list(beam_search(policy, task, _REGISTRY, DecoderConfig(beam_size=beam_size)))
    except NoFeasiblePlan:
        return
    hashes = [plan_hash(dp.plan) for dp in decoded]
    assert len(set(hashes)) == len(hashes)


class _UnmemoisedPolicy:
    """TabularPolicy without its score memo: every step is scored afresh."""

    def __init__(self, params: PolicyParams) -> None:
        self.params = params

    def score_step(self, ctx, actions, state):
        return score_tokens(self.params, ctx, actions)


@settings(max_examples=100, deadline=None)
@given(_beam_cases(), _sample_cases())
@example(
    (TaskCategory.TEXT_TEXT_TO_TEXT, ((C.MASK,), (C.MASK,)), (S.QA,), 8, 7),
    (TaskCategory.IMAGE_TEXT_TO_TEXT, ((C.NOISE, C.BLUR), (C.MASK,)), (S.VQA,), 3, 0.3, 6, 0),
)
def test_score_memo_changes_no_decode(beam_case, sample_case) -> None:
    """The memoised TabularPolicy decodes exactly as a policy that scores every step.

    One policy object serves the whole beam search and then several
    sampled episodes, so later calls read scores the earlier ones stored.
    """
    category, chains, builder, beam_size, table_seed = beam_case
    memoised = _case_policy(table_seed or 0)
    fresh = _UnmemoisedPolicy(memoised.params)
    task = build_task("x-000", category, chains, builder, samples_per_task=1)
    cfg = DecoderConfig(beam_size=beam_size)
    outcomes = []
    for policy in (memoised, fresh):
        try:
            outcomes.append(
                [(dp.plan, dp.log_prob) for dp in beam_search(policy, task, _REGISTRY, cfg)]
            )
        except NoFeasiblePlan:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]

    # Both walkers read the one table above, so the sample case's own seed is unused.
    category, chains, builder, _, epsilon, max_tools, rng_seed = sample_case
    task = build_task("x-001", category, chains, builder, samples_per_task=1)
    cfg = SamplerConfig(max_tools_per_branch=max_tools)
    outcomes = []
    for policy in (memoised, fresh):
        rng = random.Random(rng_seed)
        plans = []
        for _ in range(3):
            try:
                tree = RolloutTree(task, _REGISTRY, cfg)
                plans.append(sample_plan(policy, tree, rng, epsilon))
            except NoFeasiblePlan:
                plans.append(None)
        outcomes.append(plans)
    assert outcomes[0] == outcomes[1]


def test_random_table_policies_score_non_uniformly() -> None:
    """The tabular policies above read _RandomTable's own get; a copy into a
    plain dict would drop it and score every step uniformly."""
    ctx = Context(TaskCategory.IMAGE_TO_IMAGE.value, BOS, I.value, "fix:Blur")
    actions = list(_REGISTRY.names())
    policy = _case_policy(0)
    for scorer in (policy, _UnmemoisedPolicy(policy.params)):
        assert len(set(scorer.score_step(ctx, actions, None).values())) > 1


def test_draw_never_falls_back_to_a_token_the_filters_removed() -> None:
    """The float sum of a mixture can fall short of the roll. Top-k removes
    `d` here, and the other three sum to 0.9999999999999998, so a roll of
    1 - 2**-53 passes them all: the draw is the last token of positive
    probability, not the mixture's last token."""
    cfg = SamplerConfig(temperature=1.0, top_k=3, top_p=1.0)
    scores = {
        "a": -2.8502044434140115,
        "b": -2.1858088989200004,
        "c": -2.1942416663895004,
        "d": -50.0,
    }
    mixture = _filtered_distribution(scores, list(scores), cfg, 0.0)
    assert mixture[-1] == ("d", 0.0)
    cumulative = 0.0
    for _, p in mixture:
        cumulative += p
    assert cumulative < 1 - 2**-53

    class _LastRoll:
        def random(self) -> float:
            return 1 - 2**-53

    assert _draw(mixture, _LastRoll()) == "c"


def _reference_sample(policy, task, registry, cfg, rng, epsilon=0.0):
    """`sample_plan` without a rollout tree: every episode walks afresh
    from the initial state, and every step is scored and filtered."""
    for _ in range(SAMPLE_RETRIES):
        state, steps = initial_state(task), []
        for _ in range(_step_cap(task, registry)):
            if state.done:
                break
            frontier = step_frontier(state, task, registry, cfg.max_tools_per_branch)
            if frontier is None:
                break
            scores = policy.score_step(frontier.context, frontier.actions, state)
            mixture = _filtered_distribution(scores, frontier.actions, cfg, epsilon)
            token = _draw(mixture, rng)
            steps.append(ReplayStep(frontier.context, frontier.uncapped, token))
            state = apply_action(state, frontier, token, registry)
        if state.done:
            return to_plan(state), steps
    raise NoFeasiblePlan(f"sampling kept dead-ending on {task.id}")


# Rollouts dead-end on this registry: an image branch at its tool cap can
# neither caption nor end, so at cap 1 every walk that does not caption
# first dead-ends, and a table or top-k that never captions raises
# NoFeasiblePlan.
_DEAD_ENDS = ToolRegistry(
    (
        ToolSpec("Image Captioning", (I,), T, S.CAPTION),
        ToolSpec("Image Deblurring", (I,), I, S.REMOVE_BLUR),
        ToolSpec("Image Denoising", (I,), I, S.REMOVE_NOISE),
    )
)
_CAPTION_TASK = build_task(
    "it-000", TaskCategory.IMAGE_TO_TEXT, ((C.BLUR, C.NOISE),), (S.CAPTION,), samples_per_task=1
)


@st.composite
def _tree_cases(draw):
    if draw(st.booleans()):
        task, registry = _CAPTION_TASK, _DEAD_ENDS
    else:
        task, registry = draw(_walk_tasks()), _REGISTRY
    table_seed = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)))
    epsilon = draw(st.sampled_from((0.0, 0.1, 0.3, 1.0)))
    cfg = SamplerConfig(
        max_tools_per_branch=draw(st.integers(min_value=1, max_value=3)),
        top_k=draw(st.sampled_from((0, 1, 2, 5))),
        top_p=draw(st.sampled_from((0.5, 1.0))),
    )
    rng_seed = draw(st.integers(min_value=0, max_value=2**16))
    rollouts = draw(st.integers(min_value=1, max_value=6))
    return task, registry, table_seed, epsilon, cfg, rng_seed, rollouts


def _rollouts(sample, count: int) -> list:
    """`count` calls of `sample`, None for each that raised NoFeasiblePlan."""
    results = []
    for _ in range(count):
        try:
            results.append(sample())
        except NoFeasiblePlan:
            results.append(None)
    return results


@settings(max_examples=60, deadline=None)
@given(_tree_cases())
@example((_CAPTION_TASK, _DEAD_ENDS, 1, 0.0, SamplerConfig(max_tools_per_branch=1, top_k=1), 0, 3))
@example((_CAPTION_TASK, _DEAD_ENDS, None, 0.3, SamplerConfig(max_tools_per_branch=1), 0, 6))
def test_a_shared_rollout_tree_samples_as_fresh_walks(case) -> None:
    """Rollouts through one tree draw the same plans and steps, with the same
    retries, NoFeasiblePlan and final RNG state, as fresh-tree calls and as
    walks that keep no tree; and the shared tree computes each path's
    frontier at most once."""
    task, registry, table_seed, epsilon, cfg, rng_seed, rollouts = case
    policy = _case_policy(table_seed)
    paths = []

    def counting_frontier(state, *args):
        paths.append(state.path)
        return step_frontier(state, *args)

    results = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decoder_module, "step_frontier", counting_frontier)
        tree = RolloutTree(task, registry, cfg)
        rng = random.Random(rng_seed)
        shared = _rollouts(lambda: sample_plan(policy, tree, rng, epsilon), rollouts)
        results.append((shared, rng.getstate()))
    assert paths and len(paths) == len(set(paths))

    for fresh_walk in (
        lambda rng: sample_plan(policy, RolloutTree(task, registry, cfg), rng, epsilon),
        lambda rng: _reference_sample(policy, task, registry, cfg, rng, epsilon),
    ):
        rng = random.Random(rng_seed)
        fresh = _rollouts(lambda: fresh_walk(rng), rollouts)
        results.append((fresh, rng.getstate()))
    assert results[0] == results[1] == results[2]


class _CountingPolicy:
    """Scores as the given policy and records the path of every state it scores."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.scored: list[tuple[str, ...]] = []

    def score_step(self, ctx, actions, state):
        self.scored.append(state.path)
        return self.inner.score_step(ctx, actions, state)


@settings(max_examples=40, deadline=None)
@given(_tree_cases(), st.integers(min_value=0, max_value=2**16), st.sampled_from((0.05, 0.5)))
def test_a_rollout_tree_scores_again_for_a_new_policy_or_epsilon(
    case, other_seed, other_epsilon
) -> None:
    """A tree keeps each node's mixture for the policy object and epsilon that
    drew from it. Three phases share one tree: a policy, then a new policy
    object, then that object at another epsilon. In each phase the policy
    scores every node its rollouts pass through, each node once, and the
    rollouts match fresh-tree calls from the same RNG state."""
    task, registry, table_seed, epsilon, cfg, rng_seed, rollouts = case
    second = _CountingPolicy(_case_policy(other_seed))
    phases = [
        (_CountingPolicy(_case_policy(table_seed)), epsilon),
        (second, epsilon),
        (second, other_epsilon),
    ]
    tree = RolloutTree(task, registry, cfg)
    shared_rng, fresh_rng = random.Random(rng_seed), random.Random(rng_seed)
    for policy, eps in phases:
        policy.scored.clear()
        shared = _rollouts(lambda: sample_plan(policy, tree, shared_rng, eps), rollouts)
        scored = set(policy.scored)
        assert len(scored) == len(policy.scored)
        fresh = _rollouts(
            lambda: sample_plan(policy.inner, RolloutTree(task, registry, cfg), fresh_rng, eps),
            rollouts,
        )
        assert shared == fresh
        assert shared_rng.getstate() == fresh_rng.getstate()
        for result in shared:
            if result is not None:
                chosen = tuple(step.chosen for step in result[1])
                assert {chosen[:i] for i in range(len(chosen))} <= scored

