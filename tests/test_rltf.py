from __future__ import annotations

import math
import random
from collections import Counter
from statistics import fmean

import pytest

import planforge.decoder
import planforge.evalkit
import planforge.policy
import planforge.rltf
from planforge.benchgen import CatalogConfig, build_task, generate_catalog, oracle_best_plan
from planforge.decoder import DecoderConfig, expected_action, replay_steps, sample_plan
from planforge.errors import NoFeasiblePlan
from planforge.evalkit import task_reward
from planforge.plan_ir import TaskCategory, from_linear_sequence, validate_plan
from planforge.policy import (
    PolicyParams,
    TabularPolicy,
    apply_gradient,
    grad_log_prob,
    log_prob,
    pretrain_supervised,
)
from planforge.rltf import (
    BaselineState,
    HistoryRow,
    TrainConfig,
    gold_plans,
    reinforce_step,
    train,
    update_baseline,
)
from planforge.simkit import Corruption, SemanticId

C = Corruption
S = SemanticId


def test_baseline_initializes_to_first_batch_mean() -> None:
    state = update_baseline(BaselineState(), 0.4, momentum=0.9)
    assert state.initialized
    assert state.value == 0.4


def test_baseline_matches_closed_form() -> None:
    momentum = 0.9
    rewards = [0.2, 0.5, 1.0, 0.3, 0.8, 0.05]
    state = BaselineState()
    for r in rewards:
        state = update_baseline(state, r, momentum)
    n = len(rewards)
    closed = momentum ** (n - 1) * rewards[0] + (1 - momentum) * sum(
        momentum ** (n - k - 1) * rewards[k] for k in range(1, n)
    )
    assert abs(state.value - closed) < 1e-12


def _bandit(registry):
    task = build_task(
        "ii-x", TaskCategory.IMAGE_TO_IMAGE, ((C.GRAY, C.BLUR),), (), samples_per_task=3
    )
    good = from_linear_sequence(["Image Deblurring", "Colorization"], registry)
    bad = from_linear_sequence(["Colorization", "Image Deblurring"], registry)
    return task, good, bad


def test_reinforce_step_shifts_mass_toward_reward(registry) -> None:
    task, good, bad = _bandit(registry)
    params = PolicyParams()
    batch = [(replay_steps(good, task, registry), 1.0), (replay_steps(bad, task, registry), 0.64)]
    updated, baseline = reinforce_step(params, batch, BaselineState(), 1.0)
    assert baseline.initialized
    assert math.isclose(baseline.value, (1.0 + 0.64) / 2)
    assert log_prob(updated, good, task, registry) > log_prob(params, good, task, registry)

    # With the baseline carried in, the below-baseline plan is pushed down.
    again, _ = reinforce_step(updated, batch, baseline, 1.0)
    assert log_prob(again, bad, task, registry) < log_prob(updated, bad, task, registry)
    assert log_prob(again, good, task, registry) > log_prob(updated, good, task, registry)


def test_gradients_are_taken_before_the_update(registry) -> None:
    # First batch has zero advantage baseline, so both plans move up;
    # the better one must still end up more likely.
    task, good, bad = _bandit(registry)
    batch = [(replay_steps(good, task, registry), 1.0), (replay_steps(bad, task, registry), 0.2)]
    updated, _ = reinforce_step(PolicyParams(), batch, BaselineState(), 1.0)
    assert log_prob(updated, good, task, registry) > log_prob(updated, bad, task, registry)


def test_zero_learning_rate_changes_nothing(registry) -> None:
    task, good, bad = _bandit(registry)
    params = PolicyParams()
    batch = [(replay_steps(good, task, registry), 1.0), (replay_steps(bad, task, registry), 0.2)]
    updated, _ = reinforce_step(params, batch, BaselineState(), 0.0)
    assert all(v == 0.0 for v in updated.values())


def test_train_records_history_and_decays_epsilon(catalog, registry) -> None:
    tasks = [t for t in catalog if len(t.input_signature) == 1][:3]
    cfg = TrainConfig(epochs=3, rollouts_per_task=2, epsilon=0.2)
    params, history = train(PolicyParams(), tasks, registry, cfg)
    assert len(history) == 3
    assert [row.epoch for row in history] == [0, 1, 2]
    assert math.isclose(history[1].epsilon, 0.2 * 0.9)
    assert math.isclose(history[2].epsilon, 0.2 * 0.9 * 0.9)
    for row in history:
        assert 0.0 <= row.mean_reward <= 1.0
    assert params  # something was learned


def test_gold_plans_are_valid_and_replayable(catalog, registry) -> None:
    tasks = list(catalog)[:4] + [next(t for t in catalog if len(t.input_signature) == 2)]
    labeled = gold_plans(tasks, registry)
    assert [t.id for t, _ in labeled] == [t.id for t in tasks]
    for task, plan in labeled:
        assert validate_plan(plan, registry, task.input_signature, task.output_modality).ok
        steps = replay_steps(plan, task, registry)
        assert steps
        assert math.isfinite(log_prob(PolicyParams(), plan, task, registry))


def test_gold_plan_reward_matches_unconstrained_oracle(catalog, registry) -> None:
    # Restricting the oracle to decoder-replayable plans must not cost
    # reward on the shipped catalog.
    from planforge.benchgen import required_oracle_depth

    tasks = [t for t in catalog if len(t.input_signature) == 2][:5]
    for task in tasks:
        depth = required_oracle_depth(task)
        free = oracle_best_plan(task, registry, depth)
        constrained = oracle_best_plan(task, registry, depth, replayable_only=True)
        assert constrained.best_reward == free.best_reward


def _reference_pretrain(params, labeled, registry, epochs, lr):
    """Supervised pretraining as first written: replay and copy the table every step."""
    current = params.copy()
    for _ in range(epochs):
        for task, plan in labeled:
            current = apply_gradient(current, grad_log_prob(current, plan, task, registry), lr)
    return current


def _reference_train(params, tasks, registry, cfg):
    """The REINFORCE loop as first written: every rollout is executed and replayed."""
    rng = random.Random(cfg.seed)
    epsilon = cfg.epsilon
    baseline = BaselineState()
    current = params.copy()
    history = []
    for epoch in range(cfg.epochs):
        epoch_rewards = []
        for task in tasks:
            batch = []
            for _ in range(cfg.rollouts_per_task):
                try:
                    plan, _ = sample_plan(
                        TabularPolicy(current), task, registry, cfg.sampling, rng, epsilon
                    )
                except NoFeasiblePlan:
                    continue
                batch.append((task, plan, task_reward(plan, task, registry)))
            if not batch:
                continue
            accum = {}
            for task_, plan, reward in batch:
                advantage = reward - baseline.value
                if advantage == 0.0:
                    continue
                for key, g in grad_log_prob(current, plan, task_, registry).items():
                    accum[key] = accum.get(key, 0.0) + g * advantage
            current = apply_gradient(current, accum, cfg.lr / len(batch))
            baseline = update_baseline(
                baseline, fmean(r for _, _, r in batch), cfg.baseline_momentum
            )
            epoch_rewards.extend(r for _, _, r in batch)
        history.append(
            HistoryRow(epoch, fmean(epoch_rewards) if epoch_rewards else 0.0, baseline.value, epsilon)
        )
        epsilon *= cfg.epsilon_decay
    return current, tuple(history)


@pytest.fixture(scope="module")
def small_split(registry):
    catalog = generate_catalog(
        CatalogConfig(
            image_image=2,
            image_text=1,
            text_image=1,
            text_text=1,
            image_text_text=1,
            text_text_text=1,
            samples_per_task=3,
            seed=5,
        )
    )
    tasks = list(catalog)
    return tasks, gold_plans(tasks, registry)


def test_training_matches_the_reference_loop(small_split, registry) -> None:
    tasks, golds = small_split
    cfg = TrainConfig(epochs=4, rollouts_per_task=4, epsilon=0.3, seed=2, pretrain_epochs=6)
    expected_pre = _reference_pretrain(PolicyParams(), golds, registry, cfg.pretrain_epochs, 0.1)
    expected, expected_history = _reference_train(expected_pre, tasks, registry, cfg)

    pre = pretrain_supervised(PolicyParams(), golds, registry, cfg.pretrain_epochs, 0.1)
    assert list(pre.items()) == list(expected_pre.items())
    params, history = train(pre, tasks, registry, cfg)
    assert list(params.items()) == list(expected.items())
    assert history == expected_history


def test_training_executes_each_distinct_episode_once_and_never_replays(
    small_split, registry, monkeypatch
) -> None:
    """Rollouts carry the steps the sampler recorded: `train` executes
    each distinct sampled plan once and replays none. Counting
    `decoder.expected_action` catches a replay made from any module."""
    tasks, golds = small_split
    executed, replayed, sampled, expected = [], [], [], []

    def counting(calls, fn):
        def wrapper(plan, task, *args):
            calls.append((task.id, plan))
            return fn(plan, task, *args)

        return wrapper

    def recording_sample(policy, task, *args):
        plan, steps = sample_plan(policy, task, *args)
        sampled.append((task.id, plan))
        return plan, steps

    def counting_expected(*args):
        expected.append(args)
        return expected_action(*args)

    monkeypatch.setattr(planforge.policy, "replay_steps", counting(replayed, replay_steps))
    assert pretrain_supervised(PolicyParams(), golds, registry, 0) == {}
    assert replayed == []
    params = pretrain_supervised(PolicyParams(), golds, registry, 5)
    assert Counter(replayed) == Counter((task.id, plan) for task, plan in golds)

    monkeypatch.setattr(
        planforge.evalkit, "sample_scores", counting(executed, planforge.evalkit.sample_scores)
    )
    monkeypatch.setattr(planforge.decoder, "expected_action", counting_expected)
    monkeypatch.setattr(planforge.rltf, "sample_plan", recording_sample)
    replayed.clear()
    train(params, tasks, registry, TrainConfig(epochs=4, rollouts_per_task=4, epsilon=0.3))
    assert len(sampled) > len(set(sampled))
    assert Counter(executed) == Counter(set(sampled))
    assert replayed == []
    assert expected == []
