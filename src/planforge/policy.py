"""Policies over decoding actions.

The trainable policy is tabular: a plain dict from (context, token) to
a logit, implicitly zero. Contexts are scored at two levels, a
shared level with the previous tool wildcarded and the full context;
the effective logit is their sum, so rare full contexts back off to
behavior learned across previous tools. Scores returned to the decoder
are always normalized log-probabilities over the offered action set.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Sequence

from .context import Context, context_from_json, context_levels, context_to_json
from .decoder import BeamState, ReplayStep, expected_action, replay_steps
from .errors import EmptyAllowedSet, PeerProtocolError, reading
from .plan_ir import PlanGraph, TaskSpec
from .registry import ToolRegistry


PolicyParams = dict[tuple[Context, str], float]


def _log_softmax(logits: dict[str, float], order: Sequence[str]) -> dict[str, float]:
    peak = max(logits[a] for a in order)
    log_total = peak + math.log(sum(math.exp(logits[a] - peak) for a in order))
    return {a: logits[a] - log_total for a in order}


def _level_log_probs(
    params: PolicyParams, levels: tuple[Context, ...], allowed: Sequence[str]
) -> dict[str, float]:
    """score_tokens given the context's backoff levels, summed in order."""
    logits = {a: sum(params.get((level, a), 0.0) for level in levels) for a in allowed}
    return _log_softmax(logits, allowed)


def score_tokens(
    params: PolicyParams, ctx: Context, allowed: Sequence[str]
) -> dict[str, float]:
    """Normalized log-probabilities over the allowed tokens."""
    if not allowed:
        raise EmptyAllowedSet("no tokens to score")
    return _level_log_probs(params, context_levels(ctx), allowed)


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
    return grad_log_prob_steps(params, replay_steps(plan, task, registry))


def grad_log_prob_steps(
    params: PolicyParams, steps: Sequence[ReplayStep]
) -> dict[tuple[Context, str], float]:
    """Gradient of the log-probability of a replayed episode.

    Per step and token the softmax gradient is (chosen - p); it lands on
    each backoff level of the step context, so both levels of the sum
    contribute and the per-level gradient sums to zero across tokens.
    """
    grad: dict[tuple[Context, str], float] = {}
    for step in steps:
        levels = context_levels(step.context)
        log_probs = _level_log_probs(params, levels, step.actions)
        for token in step.actions:
            g = (1.0 if token == step.chosen else 0.0) - math.exp(log_probs[token])
            if g == 0.0:
                continue
            for level in levels:
                key = (level, token)
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
    params: PolicyParams,
    labeled: Sequence[tuple[TaskSpec, PlanGraph]],
    registry: ToolRegistry,
    epochs: int,
    lr: float = 0.1,
) -> PolicyParams:
    """Maximize the log-likelihood of gold plans, one example at a time.

    Each gold plan is replayed once; its steps do not depend on the
    parameters, so every epoch reuses them.
    """
    current = params.copy()
    if epochs <= 0:
        return current
    episodes = [replay_steps(plan, task, registry) for task, plan in labeled]
    for _ in range(epochs):
        for steps in episodes:
            _add_gradient(current, grad_log_prob_steps(current, steps), lr)
    return current


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


class UniformPolicy:
    def score_step(
        self, ctx: Context, actions: Sequence[str], state: BeamState
    ) -> dict[str, float]:
        if not actions:
            raise EmptyAllowedSet("no tokens to score")
        lp = -math.log(len(actions))
        return {a: lp for a in actions}


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
        logits = {a: _GUIDE_LOGIT if a == token else 0.0 for a in actions}
        return _log_softmax(logits, actions)


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
        logits = {a: scores.get(a, 0.0) for a in actions}
        return _log_softmax(logits, actions)


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
    scores = doc.get("scores")
    if not isinstance(scores, dict):
        raise PeerProtocolError("policy peer reply lacks a scores object")
    result = {}
    for token, value in scores.items():
        try:
            result[token] = _finite(value)
        except ValueError:
            raise PeerProtocolError(
                f"policy peer sent score {value!r} for {token!r}; want a finite number"
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
    if not isinstance(allowed, list) or not all(isinstance(a, str) for a in allowed):
        raise PeerProtocolError("request allowed must be a list of strings")
    return ctx, allowed


def serve_requests(
    transport, score_fn: Callable[[Context, list[str]], dict[str, float]]
) -> int:
    """Answer RemotePolicy requests until the stream ends. Returns count served.

    A malformed request line is answered with {"error": "..."} and counts
    as served; the loop keeps reading.
    """
    served = 0
    while line := transport.readline():
        try:
            ctx, allowed = _request(line)
        except PeerProtocolError as exc:
            reply = {"error": str(exc)}
        else:
            reply = {"scores": score_fn(ctx, allowed)}
        transport.write((json.dumps(reply) + "\n").encode())
        transport.flush()
        served += 1
    return served
