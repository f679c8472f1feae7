"""Reward-driven policy training.

Plans sampled from the current policy are executed on the task's
dataset; the mean similarity is the episode reward. Updates follow the
likelihood-ratio estimator with a moving-average reward baseline:
params gain lr times the batch mean of grad-log-prob weighted by
(reward - baseline). The baseline is refreshed after each batch from
that batch's mean reward.

Exploration is epsilon-greedy at the token level inside the sampler and
decays once per epoch. A supervised pretraining pass over gold plans
gives the policy a warm start; reinforcement then fixes what imitation
got wrong and adapts to the reward surface. `fit` is that sequence:
the oracle's gold plans, with the decoding steps its replay check
already walked, then pretraining on those steps, then reinforcement.

Each episode is compiled into gradient rows once: a gold episode
before the first pretraining epoch, and a sampled plan's episode the
first time that plan is sampled for its task. Every later gradient of
the episode reuses its rows, and a batch takes one gradient per distinct
episode however many of its rollouts sampled it. Each task's rollouts
walk one `RolloutTree` for the whole run, so a state's frontier and
children are computed once, and its sampling mixture once per batch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import fmean

from .benchgen import oracle_best_plan, required_oracle_depth
from .decoder import DecoderConfig, ReplayStep, RolloutTree, SamplerConfig, sample_plan
from .errors import NoFeasiblePlan
from .evalkit import ReportTable, evaluate, task_reward
from .executor import relabel_classes
from .plan_ir import PlanGraph, TaskSpec
from .policy import (
    CompiledEpisode,
    PolicyParams,
    TabularPolicy,
    apply_gradient,
    compile_episode,
    grad_log_prob_episode,
    pretrain_supervised,
)
from .registry import ToolRegistry
from .simkit import DEFAULT_CONSTANTS, SimConstants


@dataclass(frozen=True, slots=True)
class TrainConfig:
    epochs: int = 12
    lr: float = 0.1
    epsilon: float = 0.1
    epsilon_decay: float = 0.9
    baseline_momentum: float = 0.9
    rollouts_per_task: int = 4
    seed: int = 0
    pretrain_epochs: int = 150
    pretrain_lr: float = 0.1
    sampling: SamplerConfig = SamplerConfig()

    def __post_init__(self) -> None:
        # Comparisons with NaN are false, so these also reject NaN.
        lows = {"epochs": 0, "pretrain_epochs": 0, "rollouts_per_task": 1, "lr": 0, "pretrain_lr": 0}
        for name, low in lows.items():
            if not low <= getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must be finite and >= {low}, got {getattr(self, name)}")
        for name in ("epsilon", "epsilon_decay", "baseline_momentum"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")


@dataclass(frozen=True, slots=True)
class BaselineState:
    value: float = 0.0
    initialized: bool = False


def update_baseline(state: BaselineState, batch_mean: float, momentum: float) -> BaselineState:
    if not state.initialized:
        return BaselineState(value=batch_mean, initialized=True)
    return BaselineState(
        value=momentum * state.value + (1.0 - momentum) * batch_mean,
        initialized=True,
    )


@dataclass(frozen=True, slots=True)
class HistoryRow:
    epoch: int
    mean_reward: float
    baseline: float
    epsilon: float


def reinforce_step(
    params: PolicyParams,
    batch: list[tuple[CompiledEpisode, float]],
    baseline: BaselineState,
    lr: float,
    momentum: float = 0.9,
) -> tuple[PolicyParams, BaselineState]:
    """One policy-gradient update from a batch of scored rollouts.

    Each rollout is its episode, compiled by `compile_episode` from the
    steps its sampler recorded, and its reward. Gradients are taken at
    the incoming parameters; the baseline that centers the rewards is
    the one carried in, and the refreshed baseline only affects the next
    call. Rollouts that share an episode object share its gradient,
    taken once; each still adds its own weighted copy, in batch order.
    """
    if not batch:
        return params, baseline
    accum: dict = {}
    grads: dict[int, dict] = {}  # by id: the batch keeps every episode alive
    for episode, reward in batch:
        advantage = reward - baseline.value
        if advantage == 0.0:
            continue
        grad = grads.get(id(episode))
        if grad is None:
            grad = grads[id(episode)] = grad_log_prob_episode(params, episode)
        for key, g in grad.items():
            accum[key] = accum.get(key, 0.0) + g * advantage
    updated = apply_gradient(params, accum, lr / len(batch))
    batch_mean = fmean(reward for _, reward in batch)
    return updated, update_baseline(baseline, batch_mean, momentum)


def train(
    params: PolicyParams,
    tasks: tuple[TaskSpec, ...] | list[TaskSpec],
    registry: ToolRegistry,
    cfg: TrainConfig,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> tuple[PolicyParams, tuple[HistoryRow, ...]]:
    """Epochs of per-task rollout batches. Returns params and history.

    Rollouts carry the steps their sampler recorded, so no plan is replayed.
    A reward depends only on plan and task, and a plan's steps are its
    replay, so each distinct plan sampled for a task is executed and
    compiled once, and its later rollouts reuse both. A task's rollouts
    walk one `RolloutTree`, and its relabel classes are found once.
    """
    rng = random.Random(cfg.seed)
    epsilon = cfg.epsilon
    baseline = BaselineState()
    current = params.copy()
    history: list[HistoryRow] = []
    memos: list[dict[PlanGraph, tuple[CompiledEpisode, float]]] = [{} for _ in tasks]
    trees = [RolloutTree(task, registry, cfg.sampling) for task in tasks]
    classes = [relabel_classes(task) for task in tasks]
    for epoch in range(cfg.epochs):
        epoch_rewards: list[float] = []
        for task, memo, tree, task_classes in zip(tasks, memos, trees, classes):
            batch: list[tuple[CompiledEpisode, float]] = []
            # `current` changes only after the batch, so its rollouts share
            # one score memo, and each tree node is scored once per batch.
            policy = TabularPolicy(current)
            for _ in range(cfg.rollouts_per_task):
                try:
                    plan, steps = sample_plan(
                        policy, task, registry, cfg.sampling, rng, epsilon, tree
                    )
                except NoFeasiblePlan:
                    continue
                if plan not in memo:
                    reward = task_reward(plan, task, registry, constants, task_classes)
                    memo[plan] = compile_episode(steps), reward
                batch.append(memo[plan])
            current, baseline = reinforce_step(
                current, batch, baseline, cfg.lr, cfg.baseline_momentum
            )
            epoch_rewards.extend(reward for _, reward in batch)
        history.append(
            HistoryRow(
                epoch=epoch,
                mean_reward=fmean(epoch_rewards) if epoch_rewards else 0.0,
                baseline=baseline.value,
                epsilon=epsilon,
            )
        )
        epsilon *= cfg.epsilon_decay
    return current, tuple(history)


def gold_plans(
    tasks: tuple[TaskSpec, ...] | list[TaskSpec],
    registry: ToolRegistry,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> list[tuple[TaskSpec, PlanGraph, list[ReplayStep]]]:
    """(task, plan, steps) per task: the oracle plan at the task's tight
    depth, restricted to plans the decoder can actually emit so they are
    usable as imitation targets, and the decoding steps of that plan,
    which the oracle's replay check already walked."""
    golds = []
    for task in tasks:
        result = oracle_best_plan(
            task, registry, required_oracle_depth(task), constants, replayable_only=True
        )
        golds.append((task, result.best_plan, result.best_steps))
    return golds


def fit(
    tasks: tuple[TaskSpec, ...] | list[TaskSpec],
    registry: ToolRegistry,
    cfg: TrainConfig,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> tuple[PolicyParams, PolicyParams, tuple[HistoryRow, ...]]:
    """Pretrain an empty table on the tasks' gold episodes, then reinforce
    it. Returns the pretrained table, the trained table and the history."""
    episodes = [steps for _, _, steps in gold_plans(tasks, registry, constants)]
    supervised = pretrain_supervised(PolicyParams(), episodes, cfg.pretrain_epochs, cfg.pretrain_lr)
    trained, history = train(supervised, tasks, registry, cfg, constants)
    return supervised, trained, history


@dataclass
class ComparisonResult:
    tables: dict[str, ReportTable | None]
    trained_params: PolicyParams
    history: tuple[HistoryRow, ...]


def run_schema_comparison(
    train_tasks: tuple[TaskSpec, ...] | list[TaskSpec],
    test_tasks: tuple[TaskSpec, ...] | list[TaskSpec],
    registry: ToolRegistry,
    cfg: TrainConfig,
    eval_cfg: DecoderConfig,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> ComparisonResult:
    """Zero-shot, supervised, and reinforced policies on the test split.

    The few-shot schema needs in-context examples and has no analogue
    here, so its column is reported as unavailable.
    """
    supervised, trained, history = fit(train_tasks, registry, cfg, constants)
    schemas = {"zero": PolicyParams(), "few": None, "supervised": supervised, "rltf": trained}
    tables = {
        name: None if params is None else evaluate(
            TabularPolicy(params), test_tasks, registry, eval_cfg, constants
        )
        for name, params in schemas.items()
    }
    return ComparisonResult(tables=tables, trained_params=trained, history=history)
