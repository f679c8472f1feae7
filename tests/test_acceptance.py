"""Acceptance gate.

Each test owns one numbered criterion, prints a single PASS/FAIL line
(run pytest with -s to see them on success), and asserts the stated
tolerance. Shared heavy artifacts (the catalog, the schema comparison
run) are built once per session.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from statistics import fmean

import pytest

from planforge.benchgen import (
    CatalogConfig,
    TEXT_CHAINS,
    generate_catalog,
    oracle_best_plan,
    required_oracle_depth,
    split_train_test,
)
from planforge.context import END_TOKEN
from planforge.decoder import (
    DecoderConfig,
    RolloutTree,
    SamplerConfig,
    allowed_tokens,
    apply_action,
    beam_search,
    initial_state,
    replay_steps,
    sample_plan,
    step_frontier,
)
from planforge.errors import LanguageGuard, NoFeasiblePlan
from planforge.evalkit import evaluate, task_reward
from planforge.executor import execute
from planforge.plan_ir import NodeOutput, PlanGraph, PlanNode, is_nonlinear, task_to_json, validate_plan
from planforge.policy import (
    GuidedPlanPolicy,
    PolicyParams,
    TabularPolicy,
    grad_log_prob,
    log_prob,
    score_tokens,
)
from planforge.registry import compatible_successors
from planforge.rltf import BaselineState, TrainConfig, gold_plans, run_schema_comparison, update_baseline
from planforge.simkit import (
    Corruption,
    IMAGE_CORRUPTIONS,
    Modality,
    SemanticId,
    apply_chain,
    apply_tool,
    make_leaf,
    payload_to_json,
    similarity,
)
from planforge.context import context_levels

RESTORE_OF = {
    Corruption.BLUR: SemanticId.REMOVE_BLUR,
    Corruption.NOISE: SemanticId.REMOVE_NOISE,
    Corruption.GRAY: SemanticId.REMOVE_GRAY,
    Corruption.LOWRES: SemanticId.REMOVE_LOWRES,
    Corruption.MASK: SemanticId.REMOVE_MASK,
    Corruption.TRANSLATE: SemanticId.TRANSLATE_EN_DE,
}


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} ({detail})")
    assert ok, f"criterion {number}: {detail}"


class _SeededPolicy:
    """Deterministic pseudo-random scores, different per seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def score_step(self, ctx, actions, state):
        logits = {}
        for action in actions:
            raw = f"{self.seed}|{ctx}|{action}".encode()
            digest = hashlib.blake2b(raw, digest_size=8).digest()
            logits[action] = int.from_bytes(digest, "big") / 2**64 * 4.0 - 2.0
        top = max(logits.values())
        exps = {a: math.exp(v - top) for a, v in logits.items()}
        total = sum(exps.values())
        return {a: math.log(v / total) for a, v in exps.items()}


@pytest.fixture(scope="module")
def comparison(catalog, registry):
    train_tasks, test_tasks, _ = split_train_test(catalog, 0)
    result = run_schema_comparison(
        train_tasks, test_tasks, registry, TrainConfig(), DecoderConfig()
    )
    return train_tasks, test_tasks, result


def test_criterion_1_decoder_soundness(catalog, registry) -> None:
    started = time.perf_counter()
    rng = random.Random(0)
    invalid = 0
    dead = 0
    emitted = 0
    tasks = list(catalog)
    for i in range(1000):
        task = tasks[i % len(tasks)]
        policy = _SeededPolicy(seed=i)
        beam_size = rng.randint(1, 8)
        max_tools = rng.randint(2, 6)
        cfg = DecoderConfig(beam_size=beam_size, max_tools_per_branch=max_tools)
        sampler = SamplerConfig(
            max_tools_per_branch=max_tools,
            temperature=rng.choice([0.5, 0.9, 1.5]),
            top_k=rng.randint(1, 6),
            top_p=rng.choice([0.3, 0.5, 1.0]),
        )
        try:
            if i % 2 == 0:
                plans = [dp.plan for dp in beam_search(policy, task, registry, cfg)]
            else:
                tree = RolloutTree(task, registry, sampler)
                plans = [sample_plan(policy, tree, random.Random(i))[0]]
        except NoFeasiblePlan:
            dead += 1
            continue
        for plan in plans:
            emitted += 1
            report = validate_plan(plan, registry, task.input_signature, task.output_modality)
            if not report.ok:
                invalid += 1
    elapsed = time.perf_counter() - started
    # A decode may refuse (NoFeasiblePlan) when sampling wedges under a
    # tight tool cap; soundness is about what gets emitted.
    _report(
        1,
        invalid == 0 and emitted >= 1000 and elapsed < 60.0,
        f"{emitted} plans from 1000 decodes, {invalid} invalid, "
        f"{dead} refusals, {elapsed:.1f}s",
    )


def test_criterion_2_trie_fidelity(catalog, registry) -> None:
    from planforge.benchgen import build_task
    from planforge.plan_ir import TaskCategory

    cfg = DecoderConfig()
    from planforge.trie import build_trie, children_after

    continuations = children_after(build_trie(registry.names()), ["Text"])
    ok_a = continuations == frozenset({"Summarization", "to"})

    # Successors offered right after completing Text Summarization, with
    # a second live branch so the join tool is on the table.
    ttt = build_task(
        "ttt-acc",
        TaskCategory.TEXT_TEXT_TO_TEXT,
        ((Corruption.MASK,), (Corruption.MASK,)),
        (SemanticId.QA,),
        samples_per_task=1,
    )
    state = initial_state(ttt)
    for token in ("Text Summarization", END_TOKEN):
        state = apply_action(state, step_frontier(state, ttt, registry, 6), token, registry)
    words = allowed_tokens(state, ttt, registry, cfg) - {END_TOKEN}
    ok_b = words == frozenset({"Text", "Sentiment", "Question", "Machine", "Fill"})
    names = {s.name for s in compatible_successors(registry, Modality.TEXT, {"Text Summarization"})}
    ok_c = names == {
        "Text to Image Generation",
        "Sentiment Analysis",
        "Question Answering",
        "Machine Translation",
        "Fill Mask",
    }
    _report(
        2,
        ok_a and ok_b and ok_c,
        f"continuations of 'Text' {sorted(continuations)}, successors {sorted(words)}",
    )


def test_criterion_3_oracle_equivalence(catalog, registry) -> None:
    started = time.perf_counter()
    subset = [
        t
        for t in catalog
        if len(t.input_signature) == 1 and len(t.corruption_chains[0]) <= 3
    ]
    cfg = DecoderConfig(beam_size=20)
    mismatches = []
    for task in subset:
        oracle = oracle_best_plan(task, registry, required_oracle_depth(task))
        top = next(beam_search(GuidedPlanPolicy(oracle.best_plan, registry), task, registry, cfg))
        reward = task_reward(top.plan, task, registry)
        if reward != oracle.best_reward:
            mismatches.append((task.id, reward, oracle.best_reward))
    elapsed = time.perf_counter() - started
    _report(
        3,
        len(subset) > 50 and not mismatches and elapsed < 300.0,
        f"{len(subset)} tasks, {len(mismatches)} reward mismatches, {elapsed:.1f}s",
    )


def test_criterion_4_reverse_order_optimality() -> None:
    violations = []
    checked = 0

    def run(leaf, chain) -> None:
        nonlocal checked
        corrupted = apply_chain(leaf, chain)
        restores = [RESTORE_OF[c] for c in chain]
        for order in set(itertools.permutations(restores)):
            out = corrupted
            reward = None
            for sem in order:
                try:
                    out = apply_tool(sem, (out,))
                except LanguageGuard:
                    reward = 0.0
                    break
            if reward is None:
                reward = similarity(out, leaf)
            checked += 1
            exact_reverse = list(order) == list(reversed(restores))
            if exact_reverse and reward != 1.0:
                violations.append((chain, order, reward))
            if not exact_reverse and reward > 0.8:
                violations.append((chain, order, reward))

    image_leaf = make_leaf(Modality.IMAGE, "x")
    for k in range(1, 5):
        for chain in itertools.permutations(IMAGE_CORRUPTIONS, k):
            run(image_leaf, chain)
    text_leaf = make_leaf(Modality.TEXT, "t")
    for chain in TEXT_CHAINS:
        if chain:
            run(text_leaf, chain)
    _report(4, not violations, f"{checked} restoration orderings, {len(violations)} violations")


def _random_params_for(plan, task, registry, rng) -> PolicyParams:
    params = PolicyParams()
    for step in replay_steps(plan, task, registry):
        for action in step.actions:
            for level in context_levels(step.context):
                params[(level, action)] = rng.gauss(0.0, 1.0)
    return params


def _ten_plans(catalog, registry):
    singles = [t for t in catalog if len(t.input_signature) == 1][:7]
    doubles = [t for t in catalog if len(t.input_signature) == 2][:3]
    plans = []
    for i, task in enumerate(singles + doubles):
        plan = next(beam_search(_SeededPolicy(i), task, registry, DecoderConfig(beam_size=4))).plan
        plans.append((task, plan))
    return plans


def test_criterion_5_gradient_matches_finite_differences(catalog, registry) -> None:
    rng = random.Random(42)
    h = 1e-5
    points = 0
    worst = 0.0
    for task, plan in _ten_plans(catalog, registry):
        for _ in range(5):
            params = _random_params_for(plan, task, registry, rng)
            points += 1
            grad = grad_log_prob(params, plan, task, registry)
            for key, got in grad.items():
                up = params.copy()
                up[key] = up.get(key, 0.0) + h
                down = params.copy()
                down[key] = down.get(key, 0.0) - h
                fd = (
                    log_prob(up, plan, task, registry)
                    - log_prob(down, plan, task, registry)
                ) / (2 * h)
                rel = abs(got - fd) / max(1.0, abs(fd))
                worst = max(worst, rel)
    _report(
        5,
        points == 50 and worst <= 1e-4,
        f"{points} parameter points x 10 plans, worst relative error {worst:.2e}",
    )


def test_criterion_6_softmax_gradient_identity(catalog, registry) -> None:
    rng = random.Random(7)
    worst = 0.0
    steps_checked = 0
    for task, plan in _ten_plans(catalog, registry):
        params = _random_params_for(plan, task, registry, rng)
        for step in replay_steps(plan, task, registry):
            probs = score_tokens(params, step.context, step.actions)
            total = sum(
                (1.0 if a == step.chosen else 0.0) - math.exp(probs[a])
                for a in step.actions
            )
            worst = max(worst, abs(total))
            steps_checked += 1
    _report(6, worst <= 1e-9, f"{steps_checked} steps, worst |sum| {worst:.2e}")


def test_criterion_7_rltf_convergence(comparison, registry) -> None:
    started = time.perf_counter()
    train_tasks, test_tasks, result = comparison
    trained = TabularPolicy(result.trained_params)
    train_table = evaluate(trained, train_tasks, registry, DecoderConfig())
    train_mean = fmean(reward for _, reward in train_table.per_task)
    oracle_mean = fmean(
        task_reward(plan, task, registry) for task, plan, _ in gold_plans(train_tasks, registry)
    )
    zero_overall = result.tables["zero"].overall
    rltf_overall = result.tables["rltf"].overall
    gain = rltf_overall - zero_overall
    elapsed = time.perf_counter() - started
    _report(
        7,
        train_mean >= 0.95 * oracle_mean and gain >= 0.30 and elapsed < 300.0,
        f"train mean {train_mean:.4f} vs oracle {oracle_mean:.4f}, "
        f"test gain over zero-shot {gain:+.4f}, {elapsed:.1f}s",
    )


def test_criterion_8_schema_ordering(comparison) -> None:
    _, _, result = comparison
    zero = result.tables["zero"].overall
    supervised = result.tables["supervised"].overall
    rltf = result.tables["rltf"].overall
    _report(
        8,
        zero < supervised <= rltf,
        f"zero {zero:.4f} < supervised {supervised:.4f} <= rltf {rltf:.4f}",
    )


def test_criterion_9_catalog_counts(catalog) -> None:
    singles = sum(1 for t in catalog if len(t.input_signature) == 1)
    doubles = sum(1 for t in catalog if len(t.input_signature) == 2)
    first = json.dumps([task_to_json(t) for t in catalog], sort_keys=True)
    second = json.dumps([task_to_json(t) for t in generate_catalog(CatalogConfig())], sort_keys=True)
    _report(
        9,
        len(catalog) == 185 and singles == 117 and doubles == 68 and first == second,
        f"{len(catalog)} tasks ({singles} linear, {doubles} nonlinear), "
        f"byte-identical rerun {first == second}",
    )


def test_criterion_10_parser_round_trip(registry) -> None:
    from planforge.parser import extract_sequence, format_canonical

    rng = random.Random(13)
    names = sorted(registry.names())
    failures = 0
    for _ in range(500):
        k = rng.randint(1, len(names))
        seq = tuple(rng.sample(names, k))
        if extract_sequence(format_canonical(seq, registry), registry).sequence != seq:
            failures += 1

    adversarial = [
        ("module: Image Sharpening, module: Colorization", ["Image Sharpening"]),
        ("module: Style Transfer, module: Super Resolution Plus", ["Style Transfer", "Super Resolution Plus"]),
        ("use Gaussian Blur Removal then module: Fill Mask", ["Gaussian Blur Removal"]),
        ("module: OCR, module: Depth Estimation, module: Object Detection", ["OCR", "Depth Estimation"]),
        ("Speech Recognition might help; module: Machine Translation", ["Speech Recognition"]),
    ]
    leaked = 0
    for text, bogus in adversarial:
        result = extract_sequence(text, registry)
        dropped = {d.text for d in result.dropped}
        for phrase in bogus:
            if phrase in result.sequence or phrase not in dropped:
                leaked += 1
    _report(
        10,
        failures == 0 and leaked == 0,
        f"500 round trips, {failures} failures; "
        f"{sum(len(b) for _, b in adversarial)} bogus phrases, {leaked} leaked",
    )


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


def test_criterion_11_executor_determinism(catalog, registry) -> None:
    rng = random.Random(23)
    doubles = [t for t in catalog if len(t.input_signature) == 2][:20]
    diffs = 0
    for task in doubles:
        plan = next(beam_search(TabularPolicy(PolicyParams()), task, registry, DecoderConfig())).plan
        assert is_nonlinear(plan)
        baseline = [
            (payload_to_json(execute(plan, s.inputs, registry).final), similarity(execute(plan, s.inputs, registry).final, s.reference))
            for s in task.dataset[:3]
        ]
        ids = [n.id for n in plan.nodes]
        for _ in range(10):
            shuffled = ids[:]
            rng.shuffle(shuffled)
            permuted = _relabel(plan, dict(zip(ids, shuffled)))
            for sample, (want_payload, want_score) in zip(task.dataset[:3], baseline):
                trace = execute(permuted, sample.inputs, registry)
                got_payload = payload_to_json(trace.final)
                got_score = similarity(trace.final, sample.reference)
                if got_payload != want_payload or got_score != want_score:
                    diffs += 1
    _report(
        11,
        diffs == 0,
        f"20 nonlinear plans x 10 node orders x 3 samples, {diffs} divergences",
    )


def test_criterion_12_baseline_recurrence() -> None:
    momentum = 0.9
    rewards = [0.3, 0.9, 0.1, 0.7, 0.7, 0.25, 1.0, 0.0, 0.45]
    state = BaselineState()
    for reward in rewards:
        state = update_baseline(state, reward, momentum)
    closed = rewards[0]
    for reward in rewards[1:]:
        closed = momentum * closed + (1 - momentum) * reward
    error = abs(state.value - closed)
    _report(12, error <= 1e-12, f"after {len(rewards)} updates |error| {error:.1e}")
