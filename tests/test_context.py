from __future__ import annotations

import pytest

from planforge.context import (
    Context,
    SHARED_PREV,
    advance_hint,
    context_from_json,
    context_levels,
    context_to_json,
    hint_token,
    initial_hint_state,
    merge_hint_states,
)
from planforge.errors import MalformedDocument
from planforge.registry import registry_from_json
from planforge.simkit import Corruption, SemanticId


def test_context_levels_general_first() -> None:
    ctx = Context("image_to_image", "Image Denoising", "Image", "fix:Blur")
    levels = context_levels(ctx)
    assert levels == (Context("image_to_image", SHARED_PREV, "Image", "fix:Blur"), ctx)

    # A context's two levels are always distinct: no tool can be named like
    # the shared level's previous tool.
    star = {"name": SHARED_PREV, "inputs": ["Image"], "output": "Image", "semantic": "RemoveBlur"}
    with pytest.raises(MalformedDocument):
        registry_from_json([star])


def test_context_json_round_trip() -> None:
    ctx = Context("text_to_text", "<bos>", "Text", "term:Summarize")
    assert context_from_json(context_to_json(ctx)) == ctx


def test_hint_walks_stack_then_recipe() -> None:
    chain = (Corruption.GRAY, Corruption.BLUR)
    recipe = (SemanticId.CAPTION,)
    state = initial_hint_state(chain)
    assert hint_token(state, recipe) == "fix:Blur"
    state = advance_hint(state, SemanticId.REMOVE_BLUR)
    assert hint_token(state, recipe) == "fix:Gray"
    state = advance_hint(state, SemanticId.REMOVE_GRAY)
    assert hint_token(state, recipe) == "term:Caption"
    state = advance_hint(state, SemanticId.CAPTION)
    assert hint_token(state, recipe) == "end"


def test_buried_and_absent_restores_mirror_simulator() -> None:
    state = initial_hint_state((Corruption.GRAY, Corruption.BLUR))
    buried = advance_hint(state, SemanticId.REMOVE_GRAY)
    assert buried.remaining == (Corruption.BLUR,)
    absent = advance_hint(state, SemanticId.REMOVE_NOISE)
    assert absent == state


def test_translate_hint_is_a_clean_pop_only_on_top() -> None:
    state = initial_hint_state((Corruption.MASK, Corruption.TRANSLATE))
    popped = advance_hint(state, SemanticId.TRANSLATE_EN_DE)
    assert popped.remaining == (Corruption.MASK,)
    assert popped.terminals_done == 0
    # With no Translate on top, the tool acts as a forward transform.
    forward = advance_hint(popped, SemanticId.TRANSLATE_EN_DE)
    assert forward.remaining == ()
    assert forward.terminals_done == 1


def test_transform_clears_remaining_and_counts_a_step() -> None:
    state = initial_hint_state((Corruption.NOISE,))
    done = advance_hint(state, SemanticId.CLASSIFY)
    assert done.remaining == ()
    assert done.terminals_done == 1


def test_merge_keeps_deepest_recipe_progress() -> None:
    a = advance_hint(initial_hint_state(()), SemanticId.SUMMARIZE)
    b = initial_hint_state((Corruption.MASK,))
    merged = merge_hint_states(a, b)
    assert merged.remaining == ()
    assert merged.terminals_done == 1
