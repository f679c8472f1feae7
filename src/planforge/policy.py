"""Policies over decoding actions.

The trainable policy is tabular: a plain dict from (context, token) to
a logit, implicitly zero. Contexts are scored at two levels, a
shared level with the previous tool wildcarded and the full context;
the effective logit is their sum, so rare full contexts back off to
behavior learned across previous tools. Scores returned to the decoder
are always normalized log-probabilities over the offered action set.
Decoding, `log_prob` and gradients share one logit sum and one
normaliser. The normaliser adds left to right, because the built-in
`sum` of floats is compensated from Python 3.12 on.

Every training gradient, supervised or reinforced, is taken from an
episode compiled once into gradient rows (`compile_episode`): per step,
each offered token's two table keys, and the chosen token.
`grad_log_prob` compiles a plan's replay and takes the same gradient.
Pretraining runs that gradient on a copy of the table whose keys are
interned as ints.

A policy's scores must not change while the policy object lives: the
sampler's rollout trees keep the mixtures they drew from per policy
object (see `decoder.RolloutTree`).
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple, Sequence

from .context import SHARED_PREV, Context, context_from_json, context_levels, context_to_json
from .decoder import BeamState, ReplayStep, expected_action, replay_steps
from .errors import EmptyAllowedSet, EngineError, PeerProtocolError, reading
from .plan_ir import PlanGraph, TaskSpec
from .registry import ToolRegistry


PolicyParams = dict[tuple[Context, str], float]

TokenKeys = tuple[tuple[Context, str], tuple[Context, str]]


def _token_keys(ctx: Context, tokens: Sequence[str]) -> tuple[TokenKeys, ...]:
    general, full = context_levels(ctx)
    return tuple(((general, token), (full, token)) for token in tokens)


def _logit_sums(params: PolicyParams, keys: Sequence[TokenKeys]) -> list[float]:
    """Each token's two levels, summed from int 0: a -0.0 general level reads 0.0."""
    get = params.get
    return [0 + get(general, 0.0) + get(full, 0.0) for general, full in keys]


def _log_normaliser(logits: Sequence[float]) -> float:
    """log(sum(exp(logits))) from the peak, added left to right in any Python.

    A non-finite logit, from a table whose weights overflow, would make
    the scores NaN, which rank nothing, so it is refused."""
    if not all(map(math.isfinite, logits)):
        bad = next(logit for logit in logits if not math.isfinite(logit))
        raise EngineError(f"policy logit {bad!r} is not finite: the table's weights overflow")
    peak = max(logits)
    exp = math.exp
    total = 0.0
    for logit in logits:
        total += exp(logit - peak)
    return peak + math.log(total)


def score_tokens(
    params: PolicyParams, ctx: Context, allowed: Sequence[str]
) -> dict[str, float]:
    """Normalized log-probabilities over the allowed tokens."""
    if not allowed:
        raise EmptyAllowedSet("no tokens to score")
    logits = _logit_sums(params, _token_keys(ctx, allowed))
    log_total = _log_normaliser(logits)
    return {a: logit - log_total for a, logit in zip(allowed, logits)}


def log_prob(
    params: PolicyParams, plan: PlanGraph, task: TaskSpec, registry: ToolRegistry
) -> float:
    """Log-probability of the canonical episode that emits the plan."""
    total = 0.0
    for step in replay_steps(plan, task, registry):
        total += score_tokens(params, step.context, step.actions)[step.chosen]
    return total


def grad_log_prob(
    params: PolicyParams, plan: PlanGraph, task: TaskSpec, registry: ToolRegistry
) -> dict[tuple[Context, str], float]:
    """Gradient of log_prob with respect to every touched table entry."""
    return grad_log_prob_episode(params, compile_episode(replay_steps(plan, task, registry)))


class GradientRow(NamedTuple):
    """One decoding step, compiled for the gradient: per offered token, in
    the step's action order, its two table keys (`_token_keys`); and the
    index of the chosen token."""

    keys: tuple[TokenKeys, ...]
    chosen: int


CompiledEpisode = tuple[GradientRow, ...]


def compile_episode(steps: Sequence[ReplayStep]) -> CompiledEpisode:
    """An episode's gradient rows. They depend only on the steps, not on the
    parameters, so training compiles each episode once and reuses it."""
    return tuple(
        GradientRow(_token_keys(step.context, step.actions), step.actions.index(step.chosen))
        for step in steps
    )


def grad_log_prob_episode(
    params: PolicyParams, episode: CompiledEpisode
) -> dict[tuple[Context, str], float]:
    """Gradient of the log-probability of a compiled episode.

    Per step and token the softmax gradient is (chosen - p), from
    `score_tokens`' logits and normaliser; it lands on both levels of the
    step context, so the per-level gradient sums to zero across tokens.
    """
    exp = math.exp
    grad: dict[tuple[Context, str], float] = {}
    for keys, chosen in episode:
        logits = _logit_sums(params, keys)
        log_total = _log_normaliser(logits)
        for index, logit in enumerate(logits):
            g = (1.0 if index == chosen else 0.0) - exp(logit - log_total)
            if g == 0.0:
                continue
            for key in keys[index]:
                grad[key] = grad.get(key, 0.0) + g
    return grad


def apply_gradient(
    params: PolicyParams, grad: dict[tuple[Context, str], float], scale: float
) -> PolicyParams:
    updated = params.copy()
    _add_gradient(updated, grad, scale)
    return updated


def _add_gradient(
    params: PolicyParams, grad: dict[tuple[Context, str], float], scale: float
) -> None:
    for key, g in grad.items():
        params[key] = params.get(key, 0.0) + scale * g


def pretrain_supervised(
    params: PolicyParams, episodes: Sequence[list[ReplayStep]], epochs: int, lr: float
) -> PolicyParams:
    """Maximize the log-likelihood of gold episodes, one example at a time.

    An episode is a gold plan's decoding steps. Each is compiled once,
    before the first epoch, and every epoch reuses its gradient rows, so
    nothing is replayed and no key is rebuilt. The epochs run on the
    table with each key interned as an int, which hashes in constant
    time; interning is one-to-one and keeps insertion order, so every
    epoch adds the same floats in the same order, and the keys are
    mapped back at the end.
    """
    ids = {key: index for index, key in enumerate(params)}

    def intern(key: tuple[Context, str]) -> int:
        return ids.setdefault(key, len(ids))

    interned = [
        tuple(
            GradientRow(tuple((intern(g), intern(f)) for g, f in row.keys), row.chosen)
            for row in compile_episode(steps)
        )
        for steps in episodes
    ]
    current = dict(enumerate(params.values()))
    for _ in range(epochs):
        for episode in interned:
            _add_gradient(current, grad_log_prob_episode(current, episode), lr)
    keys = list(ids)
    return {keys[index]: value for index, value in current.items()}


def params_to_json(params: PolicyParams) -> dict:
    entries = [
        {"context": context_to_json(ctx), "token": token, "value": value}
        for (ctx, token), value in params.items()
    ]
    entries.sort(key=lambda e: (sorted(e["context"].items()).__repr__(), e["token"]))
    return {"version": 1, "params": entries}


def _finite(value) -> float:
    """A JSON number as a finite float; bools, strings and overflow are refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.nan
        if math.isfinite(number):
            return number
    raise ValueError(f"{value!r} is not a finite number")


def _checkpoint_entry(entry: dict) -> tuple[tuple[Context, str], float]:
    token = entry["token"]
    if not isinstance(token, str):
        raise TypeError(f"token must be a string, got {token!r}")
    return (context_from_json(entry["context"]), token), _finite(entry["value"])


def params_from_json(doc: dict) -> PolicyParams:
    with reading("checkpoint"):
        version = doc["version"]
        if type(version) is not int or version != 1:
            raise ValueError(f"checkpoint version must be 1, got {version!r}")
        return dict(_checkpoint_entry(entry) for entry in doc["params"])


class TabularPolicy:
    """Scores steps from a parameter table, memoised per (context, actions).

    The scores never depend on the state, so each distinct step is scored
    once. The params must not change while the policy is in use, and the
    returned score dicts are shared between calls: treat them as read-only.
    """

    def __init__(self, params: PolicyParams) -> None:
        self.params = params
        self._memo: dict[tuple[Context, tuple[str, ...]], dict[str, float]] = {}

    def score_step(
        self, ctx: Context, actions: Sequence[str], state: BeamState
    ) -> dict[str, float]:
        key = (ctx, tuple(actions))
        scores = self._memo.get(key)
        if scores is None:
            scores = self._memo[key] = score_tokens(self.params, ctx, actions)
        return scores


# The logit GuidedPlanPolicy gives the target's next action; all others get 0.
_GUIDE_LOGIT = 20.0


class GuidedPlanPolicy:
    """Boosts the action the state's acting branch takes toward a fixed target plan.

    Off the canonical path it falls back to uniform scores, so beam
    search under this policy ranks the target first when the target is
    reachable at all.
    """

    def __init__(self, plan: PlanGraph, registry: ToolRegistry) -> None:
        self.plan = plan
        self.registry = registry

    def score_step(
        self, ctx: Context, actions: Sequence[str], state: BeamState
    ) -> dict[str, float]:
        if not actions:
            raise EmptyAllowedSet("no tokens to score")
        token = expected_action(self.registry, state, self.plan)
        logits = [_GUIDE_LOGIT if a == token else 0.0 for a in actions]
        log_total = _log_normaliser(logits)
        return {a: logit - log_total for a, logit in zip(actions, logits)}


class RemotePolicy:
    """Scores steps over a newline-delimited JSON byte stream.

    One request per line: {"context": {...}, "allowed": [...]}. The
    peer answers {"scores": {token: logit}} on one line, or
    {"error": "..."} when it cannot read the request. Returned logits
    are renormalized locally, so the peer does not have to. A reply
    that is not JSON, reports an error, lacks scores or holds a
    non-numeric or non-finite score raises PeerProtocolError.
    """

    def __init__(self, transport) -> None:
        self.transport = transport

    def score_step(
        self, ctx: Context, actions: Sequence[str], state: BeamState
    ) -> dict[str, float]:
        if not actions:
            raise EmptyAllowedSet("no tokens to score")
        request = {"context": context_to_json(ctx), "allowed": list(actions)}
        self.transport.write((json.dumps(request) + "\n").encode())
        self.transport.flush()
        line = self.transport.readline()
        if not line:
            raise ConnectionError("policy peer closed the stream")
        scores = _reply_scores(line)
        logits = [scores.get(a, 0.0) for a in actions]
        log_total = _log_normaliser(logits)
        return {a: logit - log_total for a, logit in zip(actions, logits)}


def _json_object(line: bytes, what: str) -> dict:
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError):
        raise PeerProtocolError(f"{what} is not JSON") from None
    if not isinstance(doc, dict):
        raise PeerProtocolError(f"{what} is not a JSON object")
    return doc


def _reply_scores(line: bytes) -> dict[str, float]:
    doc = _json_object(line, "policy peer reply")
    if "error" in doc:
        raise PeerProtocolError(f"policy peer reported an error: {doc['error']!r}")
    return _finite_scores(doc.get("scores"), "policy peer reply")


def _finite_scores(scores, what: str) -> dict[str, float]:
    """The scores as floats; anything but a dict of finite numbers is refused."""
    if not isinstance(scores, dict):
        raise PeerProtocolError(f"{what} lacks a scores object")
    result = {}
    for token, value in scores.items():
        try:
            result[token] = _finite(value)
        except ValueError:
            raise PeerProtocolError(
                f"{what} gives score {value!r} for {token!r}; want a finite number"
            ) from None
    return result


def _request(line: bytes) -> tuple[Context, list[str]]:
    doc = _json_object(line, "request")
    allowed = doc.get("allowed")
    try:
        ctx = context_from_json(doc.get("context"))
    except (KeyError, TypeError):
        raise PeerProtocolError(
            f"request context must hold string fields {', '.join(Context._fields)}"
        ) from None
    if ctx.prev_tool == SHARED_PREV:
        # No decoder step has it, and its table entries would count twice.
        raise PeerProtocolError(f"request prev_tool {SHARED_PREV!r} names no tool")
    if not isinstance(allowed, list) or not all(isinstance(a, str) for a in allowed):
        raise PeerProtocolError("request allowed must be a list of strings")
    if not allowed or len(set(allowed)) != len(allowed):
        raise PeerProtocolError("request allowed must be a non-empty list of distinct tokens")
    return ctx, allowed


def serve_requests(
    transport, score_fn: Callable[[Context, list[str]], dict[str, float]]
) -> int:
    """Answer RemotePolicy requests until the stream ends. Returns count served.

    A malformed request line, an `allowed` that is empty or repeats a
    token, or a context naming the shared level's `*` as its previous tool
    is answered with {"error": "..."} and counts as served; the loop goes on.
    So is one whose `score_fn` raises `EngineError` or returns anything but
    a dict of finite numbers over exactly the allowed tokens.
    """
    served = 0
    while line := transport.readline():
        try:
            ctx, allowed = _request(line)
            scores = _finite_scores(score_fn(ctx, allowed), "score_fn's result")
            if scores.keys() != set(allowed):
                raise PeerProtocolError("score_fn must score exactly the allowed tokens")
            reply = {"scores": scores}
        except EngineError as exc:
            reply = {"error": str(exc)}
        transport.write((json.dumps(reply, allow_nan=False) + "\n").encode())
        transport.flush()
        served += 1
    return served
