"""Decoding contexts and task-derived hints.

A context is what the policy sees before picking the next tool: the
task category, the previous tool on the acting branch, the branch's
current modality, and a hint string computed from information that is
plainly visible in the task document (the corruption chains named in
the description and the reference recipe).

The hint tracks what is left to do on a branch: ``fix:<Corruption>``
while corruptions remain, ``term:<SemanticId>`` while recipe steps
remain, then ``end``. Policies generalize across tasks through a
shared backoff level where the previous tool is wildcarded.
"""

from __future__ import annotations

from typing import NamedTuple

from .simkit import RESTORES, Corruption, SemanticId

BOS = "<bos>"
END_TOKEN = "<end>"
SHARED_PREV = "*"


class Context(NamedTuple):
    """What the policy sees at a step; a tuple, so table keys hash and compare in C."""

    task_category: str
    prev_tool: str
    branch_modality: str
    hint: str


def context_levels(ctx: Context) -> tuple[Context, Context]:
    """The two backoff levels, general first: the shared level, with the
    previous tool wildcarded, then the context itself. Logits sum across
    them. No tool is named `SHARED_PREV`, so the two levels differ."""
    return (Context(ctx.task_category, SHARED_PREV, ctx.branch_modality, ctx.hint), ctx)


def context_to_json(ctx: Context) -> dict:
    return ctx._asdict()


def context_from_json(doc: dict) -> Context:
    """Raises KeyError for a missing field, TypeError for a non-string one."""
    ctx = Context(*(doc[name] for name in Context._fields))
    for name, value in zip(Context._fields, ctx):
        if not isinstance(value, str):
            raise TypeError(f"context field {name} must be a string, got {value!r}")
    return ctx


class HintState(NamedTuple):
    """Mirror of the corruption stack plus a cursor into the recipe."""

    remaining: tuple[Corruption, ...]
    terminals_done: int = 0


def initial_hint_state(chain: tuple[Corruption, ...]) -> HintState:
    return HintState(remaining=chain)


def advance_hint(state: HintState, semantic: SemanticId) -> HintState:
    """Update after a tool runs, following the simulator's stack rules."""
    remaining = state.remaining
    if semantic in RESTORES:
        target = RESTORES[semantic]
        if remaining and remaining[-1] is target:
            return HintState(remaining[:-1], state.terminals_done)
        if target in remaining:
            idx = len(remaining) - 1 - remaining[::-1].index(target)
            return HintState(remaining[:idx] + remaining[idx + 1 :], state.terminals_done)
        return state
    if semantic is SemanticId.TRANSLATE_EN_DE and remaining and remaining[-1] is Corruption.TRANSLATE:
        return HintState(remaining[:-1], state.terminals_done)
    # Transform: residual corruptions are baked in, one recipe step done.
    return HintState(remaining=(), terminals_done=state.terminals_done + 1)


def merge_hint_states(a: HintState, b: HintState) -> HintState:
    """State of a joined branch, before the join tool itself advances it."""
    return HintState(remaining=(), terminals_done=max(a.terminals_done, b.terminals_done))


def hint_token(state: HintState, recipe: tuple[SemanticId, ...]) -> str:
    # `_value_` is the member's plain str; the `.value` property costs a
    # descriptor call per read.
    if state.remaining:
        return "fix:" + state.remaining[-1]._value_
    if state.terminals_done < len(recipe):
        return "term:" + recipe[state.terminals_done]._value_
    return "end"
