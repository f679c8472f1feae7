"""Constrained plan decoding.

Plans are emitted tool by tool. Each task input starts a branch; a
round-robin scheduler gives every live branch a turn. On its turn a
branch may emit any unused tool whose first input slot matches the
branch modality, may propose a join (a two-input tool consuming another
branch's head), or may emit the end token. With several branches alive
the end token parks the branch so a later join can consume its head;
with one branch left it completes the plan, which is only allowed once
the branch modality matches the task output and every task input has
been consumed.

The same state machine drives beam search, rollout sampling, which
records its episode's steps, and replay of an existing plan as a
decoding episode. Those steps give plans a log-probability under a policy.
Rollouts walk a per-task `RolloutTree`, which keeps each state they reach
so that repeated rollouts rebuild no state, frontier or child.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Protocol, Sequence

from .context import (
    BOS,
    END_TOKEN,
    Context,
    HintState,
    advance_hint,
    hint_token,
    initial_hint_state,
    merge_hint_states,
)
from .errors import InvalidPlan, NoFeasiblePlan
from .plan_ir import (
    InputRef,
    NodeOutput,
    PlanGraph,
    PlanNode,
    TaskInput,
    TaskSpec,
    plan_hash,
)
from .registry import ToolRegistry, compatible_successors
from .simkit import Modality
from .trie import build_trie, children_after


@dataclass(frozen=True, slots=True)
class DecoderConfig:
    """Beam search settings, read by `beam_search`."""

    beam_size: int = 30
    max_tools_per_branch: int = 6

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ValueError("beam_size must be positive")
        if self.max_tools_per_branch < 1:
            raise ValueError("max_tools_per_branch must be positive")


@dataclass(frozen=True, slots=True)
class SamplerConfig:
    """Rollout sampling settings, read by `sample_plan`."""

    max_tools_per_branch: int = 6
    temperature: float = 0.9
    top_k: int = 5
    top_p: float = 0.5

    def __post_init__(self) -> None:
        if self.max_tools_per_branch < 1:
            raise ValueError("max_tools_per_branch must be positive")
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be finite and positive")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")


# Decoder states are tuples: immutable like frozen dataclasses, but built
# and read in C, which is most of a beam step's cost.
class BranchState(NamedTuple):
    head: int | None
    modality: Modality
    tool_count: int
    parked: bool
    consumed: bool
    hint: HintState


class BeamState(NamedTuple):
    branches: tuple[BranchState, ...]
    used: frozenset[str]  # tools in nodes, kept so no frontier rebuilds the set
    nodes: tuple[PlanNode, ...]
    log_prob: float
    rr: int
    done: bool
    path: tuple[str, ...]  # tokens emitted, the beam's tie-break


class StepFrontier(NamedTuple):
    branch_index: int
    context: Context
    actions: tuple[str, ...]
    uncapped: tuple[str, ...]  # actions without the tool cap: what a replay scores
    completes: bool  # one unconsumed branch left: END completes the plan, not parks


class ReplayStep(NamedTuple):
    context: Context
    actions: tuple[str, ...]
    chosen: str


@dataclass(frozen=True, slots=True)
class DecodedPlan:
    plan: PlanGraph
    log_prob: float


class Policy(Protocol):
    """Normalized log-probabilities over a step's actions, given the state it extends.

    Each score is <= 0 and never NaN: `beam_search` hands plans out early
    on that bound. The package's policies normalise their logits with
    `policy._log_normaliser`, which refuses a non-finite logit; a score is
    then finite unless two logits lie so far apart that it rounds to -inf.

    A policy's scores must not change while the object lives: a
    `RolloutTree` keeps the mixture each node was drawn from for the
    policy object that scored it, and reuses it on later visits.
    """

    def score_step(
        self, ctx: Context, actions: Sequence[str], state: BeamState
    ) -> dict[str, float]: ...


def initial_state(task: TaskSpec) -> BeamState:
    branches = tuple(
        BranchState(
            head=None,
            modality=modality,
            tool_count=0,
            parked=False,
            consumed=False,
            hint=initial_hint_state(task.corruption_chains[i]),
        )
        for i, modality in enumerate(task.input_signature)
    )
    return BeamState(
        branches=branches,
        used=frozenset(),
        nodes=(),
        log_prob=0.0,
        rr=0,
        done=False,
        path=(),
    )


def head_ref(state: BeamState, index: int) -> InputRef:
    """Branch `index`'s next input: task input `index` until it emits (branches never move)."""
    head = state.branches[index].head
    return TaskInput(index) if head is None else NodeOutput(head)


def _active_index(state: BeamState) -> int | None:
    n = len(state.branches)
    for offset in range(n):
        idx = (state.rr + offset) % n
        branch = state.branches[idx]
        if not branch.parked and not branch.consumed:
            return idx
    return None


def _partner_index(state: BeamState, acting: int, want: Modality) -> int | None:
    """Lowest-index other live head whose modality fits the second slot."""
    for idx, branch in enumerate(state.branches):
        if idx != acting and not branch.consumed and branch.modality is want:
            return idx
    return None


def step_frontier(
    state: BeamState,
    task: TaskSpec,
    registry: ToolRegistry,
    max_tools_per_branch: int,
) -> StepFrontier | None:
    """Acting branch, its context, and the legal actions. None on dead ends."""
    if state.done:
        return None
    acting = _active_index(state)
    if acting is None:
        return None
    branches, used = state.branches, state.used
    branch = branches[acting]
    # Branch i reads task input i with its first tool or as a join's head,
    # so a live branch that has not emitted still owes its input.
    unconsumed, unread = 0, False
    for b in branches:
        if not b.consumed:
            unconsumed += 1
            if b.head is None:
                unread = True

    tools, joins = [], []
    for spec in compatible_successors(registry, branch.modality, used):
        if len(spec.inputs) == 1:
            tools.append(spec.name)
        elif unconsumed >= 2 and _partner_index(state, acting, spec.inputs[1]) is not None:
            joins.append(spec.name)

    if unconsumed >= 2:
        # Parking only helps if some future join could take this head.
        end_ok = not used.issuperset(registry.joins_into(branch.modality))
    else:
        end_ok = branch.modality is task.output_modality and not unread

    names = tools + joins
    names.sort()
    if end_ok:
        names.append(END_TOKEN)
    uncapped = tuple(names)
    if branch.tool_count < max_tools_per_branch:
        actions = uncapped
    else:
        actions = tuple([a for a in uncapped if a not in tools])
    if not actions:
        return None
    # Node i has id i, so a branch's head names its last tool. `_value_`
    # reads the member's plain str without the `.value` property's call.
    ctx = Context(
        task.category._value_,
        BOS if branch.head is None else state.nodes[branch.head].tool,
        branch.modality._value_,
        hint_token(branch.hint, task.reference_builder),
    )
    return StepFrontier(acting, ctx, actions, uncapped, unconsumed < 2)


def _flagged(branch: BranchState, parked: bool, consumed: bool) -> BranchState:
    """The branch with new flags; `_replace` is slower Python code."""
    return BranchState(
        branch.head, branch.modality, branch.tool_count, parked, consumed, branch.hint
    )


def apply_action(
    state: BeamState,
    frontier: StepFrontier,
    token: str,
    registry: ToolRegistry,
    lp_delta: float = 0.0,
) -> BeamState:
    """Advance the state by one eligible action of its frontier."""
    acting = frontier.branch_index
    branch = state.branches[acting]
    branches = list(state.branches)
    rr = (acting + 1) % len(branches)
    used, nodes, done = state.used, state.nodes, state.done

    if token == END_TOKEN:
        if frontier.completes:
            done, rr = True, state.rr
        else:
            branches[acting] = _flagged(branch, True, branch.consumed)
    else:
        spec = registry.get(token)
        if len(spec.inputs) == 1:
            refs = (head_ref(state, acting),)
            hint = advance_hint(branch.hint, spec.semantic)
            tool_count = branch.tool_count + 1
        else:
            partner_idx = _partner_index(state, acting, spec.inputs[1])
            partner = branches[partner_idx]
            refs = (head_ref(state, acting), head_ref(state, partner_idx))
            hint = advance_hint(merge_hint_states(branch.hint, partner.hint), spec.semantic)
            # The merged branch continues in the proposer's slot with a fresh
            # tool budget; the join itself does not count against any cap.
            tool_count = 0
            branches[partner_idx] = _flagged(partner, partner.parked, True)
        # Positional arguments: keywords slow the tuple constructor down.
        branches[acting] = BranchState(len(nodes), spec.output, tool_count, False, False, hint)
        used, nodes = used | {token}, nodes + (PlanNode(len(nodes), token, refs),)

    return BeamState(
        tuple(branches), used, nodes, state.log_prob + lp_delta, rr, done, state.path + (token,)
    )


def to_plan(state: BeamState) -> PlanGraph:
    """The plan of a completed state. END completes only when one unconsumed
    branch is left and has emitted, so that branch's head is the output."""
    if not state.done:
        raise InvalidPlan("state is not a completed plan")
    (output,) = (b.head for b in state.branches if not b.consumed)
    return PlanGraph(nodes=state.nodes, output_node=output)


def _step_cap(task: TaskSpec, registry: ToolRegistry) -> int:
    return len(registry) + len(task.input_signature) + 2


def beam_search(
    policy: Policy,
    task: TaskSpec,
    registry: ToolRegistry,
    cfg: DecoderConfig,
) -> Iterator[DecodedPlan]:
    """Complete plans, best first by ``(-log_prob, plan_hash)``; the one
    decode entry point. Tasks must have one or two inputs.

    Plans come lazily: ``next(beam_search(...))`` is the top plan, and
    ``list(beam_search(...))`` the whole ranking. The walk runs only as
    far as the plans taken need. Raises NoFeasiblePlan, on the first
    ``next``, when the walk ends with no plan.

    Live states at a step have distinct paths of equal length, so
    ``(-log_prob, path)`` orders their children totally, and a child's
    key follows from its parent and token alone. Each step therefore
    ranks every (state, token) candidate first and builds only the
    ``beam_size`` survivors. An end token that completes a plan becomes
    its plan at once, with no child state, since finished plans are
    never pruned.

    A finished plan waits on a heap until its rank is certain. Every
    step score is <= 0 (see `Policy`), and a float plus a non-positive
    number never rounds upward, so no plan finished later can have a
    log-prob above the best survivor's. After each step's cut, every
    waiting plan whose log-prob is strictly above the best survivor's is
    handed out. Ties wait: a later plan could tie and have a smaller hash.

    Finished plans are well-formed by construction, and distinct paths
    give distinct plans (each node's id and first input fix the token
    that emitted it), so they are neither validated nor de-duplicated.
    """
    arity = len(task.input_signature)
    if arity not in (1, 2):
        raise ValueError(f"tasks with {arity} inputs are not supported")
    live = [initial_state(task)]
    waiting: list[tuple[float, str, DecodedPlan]] = []
    found = False

    for _ in range(_step_cap(task, registry)):
        if not live:
            break
        candidates = []
        for state in live:
            frontier = step_frontier(state, task, registry, cfg.max_tools_per_branch)
            if frontier is None:
                continue
            scores = policy.score_step(frontier.context, frontier.actions, state)
            for token in frontier.actions:
                delta = scores[token]
                if token == END_TOKEN and frontier.completes:
                    # `to_plan` of the completed child: the acting branch
                    # is the one unconsumed branch left.
                    plan = PlanGraph(state.nodes, state.branches[frontier.branch_index].head)
                    log_prob = state.log_prob + delta
                    heapq.heappush(waiting, (-log_prob, plan_hash(plan), DecodedPlan(plan, log_prob)))
                    found = True
                else:
                    # Parent paths have equal length, so (path, token)
                    # sorts like the child's path + (token,).
                    key = -(state.log_prob + delta)
                    candidates.append((key, state.path, token, state, frontier, delta))
        candidates.sort()
        del candidates[cfg.beam_size :]
        if candidates:
            # Read before the survivors are built: a plan taken here may end the walk.
            best = candidates[0][0]
            while waiting and waiting[0][0] < best:
                yield heapq.heappop(waiting)[2]
        live = [
            apply_action(state, frontier, token, registry, lp_delta=delta)
            for _, _, token, state, frontier, delta in candidates
        ]

    if not found:
        raise NoFeasiblePlan(f"beam found no valid plan for {task.id}")
    while waiting:
        yield heapq.heappop(waiting)[2]


def _filtered_distribution(
    scores: dict[str, float],
    actions: Sequence[str],
    cfg: SamplerConfig,
    epsilon: float,
) -> list[tuple[str, float]]:
    """Temperature, top-k, and top-p filtering, then epsilon mixing."""
    logits = [scores[a] / cfg.temperature for a in actions]
    peak = max(logits)
    weights = [math.exp(lg - peak) for lg in logits]
    total = sum(weights)
    probs = sorted(
        ((a, w / total) for a, w in zip(actions, weights)),
        key=lambda kv: (-kv[1], kv[0]),
    )
    if cfg.top_k > 0:
        probs = probs[: cfg.top_k]
    kept: list[tuple[str, float]] = []
    cumulative = 0.0
    for a, p in probs:
        kept.append((a, p))
        cumulative += p
        if cumulative >= cfg.top_p:
            break
    mass = sum(p for _, p in kept)
    renormalized = {a: p / mass for a, p in kept}
    uniform = epsilon / len(actions)
    return [
        (a, (1.0 - epsilon) * renormalized.get(a, 0.0) + uniform)
        for a in actions
    ]


def _draw(mixture: list[tuple[str, float]], rng: random.Random) -> str:
    roll = rng.random()
    cumulative = 0.0
    for a, p in mixture:
        cumulative += p
        if roll <= cumulative:
            return a
    # The float sum can fall short of the roll: take the last token that
    # can be drawn, never one the filters gave probability 0.
    return next(a for a, p in reversed(mixture) if p > 0.0)


class _Node:
    """A state of a rollout tree: its frontier (None when the state is done
    or dead-ends), its children by token with the step that reaches each,
    and the mixture drawn from it in the tree's current generation."""

    __slots__ = ("state", "frontier", "children", "generation", "mixture")

    def __init__(self, state: BeamState, tree: RolloutTree) -> None:
        self.state = state
        self.frontier = None if state.done else step_frontier(
            state, tree.task, tree.registry, tree.cfg.max_tools_per_branch
        )
        self.children: dict[str, tuple[ReplayStep, _Node]] = {}
        self.generation = -1
        self.mixture: list[tuple[str, float]] = []


class RolloutTree:
    """The states `sample_plan` has reached on one task, kept across rollouts.

    A sampled state depends only on its task and path, so each node's
    frontier, and each child's `apply_action`, is computed once per tree.
    A node also keeps the filtered mixture it was last drawn from, for
    the policy object and epsilon of the tree's current generation: a
    rollout with another policy object or epsilon starts a new
    generation, and each node is scored again on its next visit. A
    policy's scores must therefore not change while the object lives.

    The tree supplies `sample_plan` with the task, the registry and the
    sampler config it was built for.
    """

    def __init__(self, task: TaskSpec, registry: ToolRegistry, cfg: SamplerConfig) -> None:
        self.task, self.registry, self.cfg = task, registry, cfg
        self.step_cap = _step_cap(task, registry)
        self.root = _Node(initial_state(task), self)
        self.policy: Policy | None = None
        self.epsilon = 0.0
        self.generation = 0


# Episodes `sample_plan` starts before it gives up on a task.
SAMPLE_RETRIES = 50


def sample_plan(
    policy: Policy, tree: RolloutTree, rng: random.Random, epsilon: float = 0.0
) -> tuple[PlanGraph, list[ReplayStep]]:
    """Sample one plan and its episode's steps (its `replay_steps`); dead ends are retried.

    The walk runs through `tree`, which supplies the task, the registry
    and the sampler config; a caller that samples a task many times
    passes the same tree to each call. Each step draws one
    `rng.random()`, so a shared tree draws the same plans as fresh ones.
    """
    if policy is not tree.policy or epsilon != tree.epsilon:
        tree.policy, tree.epsilon = policy, epsilon
        tree.generation += 1
    generation = tree.generation
    for _ in range(SAMPLE_RETRIES):
        node, steps = tree.root, []
        for _ in range(tree.step_cap):
            frontier = node.frontier
            if frontier is None:
                break
            if node.generation != generation:
                scores = policy.score_step(frontier.context, frontier.actions, node.state)
                node.mixture = _filtered_distribution(scores, frontier.actions, tree.cfg, epsilon)
                node.generation = generation
            token = _draw(node.mixture, rng)
            edge = node.children.get(token)
            if edge is None:
                step = ReplayStep(frontier.context, frontier.uncapped, token)
                child = _Node(apply_action(node.state, frontier, token, tree.registry), tree)
                edge = node.children[token] = (step, child)
            steps.append(edge[0])
            node = edge[1]
        if node.state.done:
            return to_plan(node.state), steps
    raise NoFeasiblePlan(f"sampling kept dead-ending on {tree.task.id}")


def _map_ref(ref: InputRef, id_map: dict[int, int]) -> InputRef | None:
    if isinstance(ref, TaskInput):
        return ref
    mapped = id_map.get(ref.node)
    return None if mapped is None else NodeOutput(mapped)


def expected_action(
    registry: ToolRegistry,
    state: BeamState,
    target: PlanGraph,
) -> str | None:
    """The action the state's acting branch takes toward the target plan.

    Returns None when the state has no acting branch or is not a partial
    canonical decoding of the target. Matching is structural: tools are
    unique within a plan, so nodes pair up by tool name and references
    must agree after id translation.
    """
    branch_index = _active_index(state)
    if branch_index is None:
        return None
    target_by_tool = {node.tool: node for node in target.nodes}
    if len(target_by_tool) != len(target.nodes):
        return None

    id_map: dict[int, int] = {}
    for node in state.nodes:
        match = target_by_tool.get(node.tool)
        if match is None:
            return None
        mapped = tuple(_map_ref(ref, id_map) for ref in node.input_refs)
        if None in mapped or mapped != match.input_refs:
            return None
        id_map[node.id] = match.id

    remaining = [node for node in target.nodes if node.tool not in state.used]
    mapped_head = _map_ref(head_ref(state, branch_index), id_map)
    if mapped_head is None:
        return None

    candidates = [node for node in remaining if node.input_refs[0] == mapped_head]
    if len(candidates) > 1:
        return None
    if candidates:
        node = candidates[0]
        if len(node.input_refs) == 2:
            partner_idx = _partner_index(
                state, branch_index, registry.get(node.tool).inputs[1]
            )
            if partner_idx is None:
                return None
            partner_head = _map_ref(head_ref(state, partner_idx), id_map)
            if partner_head != node.input_refs[1]:
                return None
        return node.tool

    # Head extends nothing: park if a later join wants it, finish if it
    # is the plan output and nothing is left.
    if any(len(n.input_refs) == 2 and n.input_refs[1] == mapped_head for n in remaining):
        return END_TOKEN
    if not remaining and mapped_head == NodeOutput(target.output_node):
        return END_TOKEN
    return None


def replay_steps(
    plan: PlanGraph,
    task: TaskSpec,
    registry: ToolRegistry,
) -> list[ReplayStep]:
    """Reconstruct the decoding episode of a plan that comes without a walk.

    Raises InvalidPlan when no canonical episode produces it. The
    per-branch tool cap does not apply here; replay defines the plan
    family, the cap only bounds search.
    """
    state = initial_state(task)
    steps: list[ReplayStep] = []
    for _ in range(_step_cap(task, registry)):
        if state.done:
            break
        frontier = step_frontier(state, task, registry, len(registry))
        if frontier is None:
            raise InvalidPlan("decoding dead-ends before the plan completes")
        token = expected_action(registry, state, plan)
        if token is None or token not in frontier.actions:
            raise InvalidPlan("plan is not reachable by canonical decoding")
        steps.append(ReplayStep(frontier.context, frontier.actions, token))
        state = apply_action(state, frontier, token, registry)
    if not state.done:
        raise InvalidPlan("replay did not terminate")
    if len(state.nodes) != len(plan.nodes):
        raise InvalidPlan("plan has nodes the episode never emits")
    return steps


def allowed_tokens(
    state: BeamState,
    task: TaskSpec,
    registry: ToolRegistry,
    cfg: DecoderConfig,
    partial_words: tuple[str, ...] = (),
) -> frozenset[str]:
    """Word-level view of what may be emitted next.

    At an action boundary this is the set of first words of eligible
    tool names plus the end token when legal. Midway through a name it
    is the trie continuation set.
    """
    frontier = step_frontier(state, task, registry, cfg.max_tools_per_branch)
    if frontier is None:
        return frozenset()
    names = [a for a in frontier.actions if a != END_TOKEN]
    if not partial_words:
        first = {name.split()[0] for name in names}
        if END_TOKEN in frontier.actions:
            first.add(END_TOKEN)
        return frozenset(first)
    if not names:
        return frozenset()
    return children_after(build_trie(names), partial_words)
