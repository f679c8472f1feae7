"""Payload simulator unit tests.

The quality numbers asserted here (1.0 exact reverse, 0.64 forward
order on a 3-chain, 0.9 no-op restore) were computed by hand from the
beta/gamma constants before the simulator was written.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from planforge.benchgen import _DynamicsTable
from planforge.plan_ir import MetricSlot, TaskCategory
from planforge.errors import (
    ArityMismatch,
    EngineError,
    IllegalCorruption,
    IllegalTranslate,
    LanguageGuard,
    ModalityMismatch,
    QualityUnderflow,
)
from planforge.simkit import (
    DEFAULT_CONSTANTS,
    Corruption,
    IMAGE_CORRUPTIONS,
    MAX_EXPR_DEPTH,
    SEMANTIC_SIGNATURES,
    TEXT_CORRUPTIONS,
    Language,
    Modality,
    Payload,
    SemanticId,
    SimConstants,
    apply_chain,
    apply_corruption,
    apply_tool,
    chain_similarity,
    content_similarity,
    count_down,
    countdown_structure,
    expr_labels,
    label_countdown,
    make_leaf,
    member_of,
    parse_expr,
    payload_from_json,
    payload_to_json,
    serialize_expr,
    similarity,
    structure_similarity,
)

RESTORE_OF = {
    Corruption.BLUR: SemanticId.REMOVE_BLUR,
    Corruption.NOISE: SemanticId.REMOVE_NOISE,
    Corruption.GRAY: SemanticId.REMOVE_GRAY,
    Corruption.LOWRES: SemanticId.REMOVE_LOWRES,
    Corruption.MASK: SemanticId.REMOVE_MASK,
    Corruption.TRANSLATE: SemanticId.TRANSLATE_EN_DE,
}


def test_make_leaf_defaults() -> None:
    img = make_leaf(Modality.IMAGE, "x00001")
    assert img.language is Language.NONE
    assert img.quality == 1.0
    assert img.corruptions == ()
    txt = make_leaf(Modality.TEXT, "x00002")
    assert txt.language is Language.EN


def test_payload_invariants_enforced() -> None:
    with pytest.raises(ValueError):
        Payload(Modality.IMAGE, "x", Language.EN)
    with pytest.raises(ValueError):
        Payload(Modality.TEXT, "x", Language.NONE)
    with pytest.raises(ValueError):
        Payload(Modality.IMAGE, "x", Language.NONE, quality=0.0)
    with pytest.raises(ValueError):
        Payload(Modality.IMAGE, "x", Language.NONE, quality=1.5)
    with pytest.raises(ValueError):
        Payload(Modality.IMAGE, "x", Language.NONE, corruptions=(Corruption.MASK,))


def test_corruptions_stack_in_application_order() -> None:
    leaf = make_leaf(Modality.IMAGE, "x00001")
    out = apply_chain(leaf, (Corruption.GRAY, Corruption.BLUR, Corruption.NOISE))
    # Application order is preserved; the most recent sits on top (last).
    assert out.corruptions == (Corruption.GRAY, Corruption.BLUR, Corruption.NOISE)
    assert out.quality == 1.0
    assert out.expr == "x00001"


def test_illegal_corruptions_rejected() -> None:
    img = make_leaf(Modality.IMAGE, "i")
    txt = make_leaf(Modality.TEXT, "t")
    with pytest.raises(IllegalCorruption):
        apply_corruption(txt, Corruption.BLUR)
    with pytest.raises(IllegalCorruption):
        apply_corruption(img, Corruption.MASK)
    with pytest.raises(IllegalCorruption):
        apply_corruption(img, Corruption.TRANSLATE)
    german = apply_corruption(txt, Corruption.TRANSLATE)
    assert german.language is Language.DE
    with pytest.raises(IllegalTranslate):
        apply_corruption(german, Corruption.TRANSLATE)


def test_exact_reverse_restoration_is_free() -> None:
    leaf = make_leaf(Modality.IMAGE, "x00001")
    out = apply_chain(leaf, (Corruption.GRAY, Corruption.BLUR, Corruption.NOISE))
    for sem in (SemanticId.REMOVE_NOISE, SemanticId.REMOVE_BLUR, SemanticId.REMOVE_GRAY):
        out = apply_tool(sem, (out,))
    assert out.quality == 1.0
    assert out.corruptions == ()
    assert similarity(out, leaf) == 1.0


def test_forward_order_restoration_pays_beta_twice() -> None:
    leaf = make_leaf(Modality.IMAGE, "x00001")
    out = apply_chain(leaf, (Corruption.GRAY, Corruption.BLUR, Corruption.NOISE))
    for sem in (SemanticId.REMOVE_GRAY, SemanticId.REMOVE_BLUR, SemanticId.REMOVE_NOISE):
        out = apply_tool(sem, (out,))
    assert out.corruptions == ()
    assert math.isclose(out.quality, 0.64)


def test_restoring_absent_corruption_costs_gamma() -> None:
    leaf = make_leaf(Modality.IMAGE, "x00001")
    out = apply_tool(SemanticId.REMOVE_BLUR, (leaf,))
    assert out.corruptions == ()
    assert math.isclose(out.quality, 0.9)


def test_buried_restore_removes_most_recent_occurrence() -> None:
    leaf = make_leaf(Modality.IMAGE, "x00001")
    out = apply_chain(leaf, (Corruption.BLUR, Corruption.NOISE, Corruption.BLUR))
    fixed = apply_tool(SemanticId.REMOVE_NOISE, (out,))
    # NOISE is buried under the second BLUR.
    assert fixed.corruptions == (Corruption.BLUR, Corruption.BLUR)
    assert math.isclose(fixed.quality, 0.8)


def test_reverse_restoration_handles_duplicate_kinds() -> None:
    leaf = make_leaf(Modality.IMAGE, "x00001")
    chain = (Corruption.BLUR, Corruption.NOISE, Corruption.BLUR)
    out = apply_chain(leaf, chain)
    for corruption in reversed(chain):
        out = apply_tool(RESTORE_OF[corruption], (out,))
    assert out.quality == 1.0
    assert out.corruptions == ()


def test_only_exact_reverse_reaches_full_quality() -> None:
    """Exhaustive over duplicate-free image chains up to length 4."""
    leaf = make_leaf(Modality.IMAGE, "x00001")
    for k in range(1, 5):
        for chain in itertools.permutations(IMAGE_CORRUPTIONS, k):
            corrupted = apply_chain(leaf, chain)
            restores = [RESTORE_OF[c] for c in chain]
            for order in itertools.permutations(restores):
                out = corrupted
                for sem in order:
                    out = apply_tool(sem, (out,))
                if list(order) == list(reversed(restores)):
                    assert out.quality == 1.0
                else:
                    assert out.quality <= 0.8


def test_translate_clean_pop_restores_english() -> None:
    txt = make_leaf(Modality.TEXT, "q")
    corrupted = apply_chain(txt, (Corruption.MASK, Corruption.TRANSLATE))
    back = apply_tool(SemanticId.TRANSLATE_EN_DE, (corrupted,))
    assert back.language is Language.EN
    assert back.corruptions == (Corruption.MASK,)
    assert back.quality == 1.0
    done = apply_tool(SemanticId.REMOVE_MASK, (back,))
    assert done.quality == 1.0
    assert similarity(done, txt) == 1.0


def test_translate_forward_wraps_and_clears_stack() -> None:
    txt = make_leaf(Modality.TEXT, "q")
    out = apply_tool(SemanticId.TRANSLATE_EN_DE, (txt,))
    assert out.expr == ("de", "q")
    assert out.language is Language.DE
    assert out.quality == 1.0
    masked = apply_corruption(txt, Corruption.MASK)
    out2 = apply_tool(SemanticId.TRANSLATE_EN_DE, (masked,))
    # Forward translation on a still-masked text: the residual is baked in.
    assert out2.corruptions == ()
    assert math.isclose(out2.quality, 0.9)


def test_translate_guard_on_german_without_translate_on_top() -> None:
    txt = make_leaf(Modality.TEXT, "q", Language.DE)
    with pytest.raises(LanguageGuard):
        apply_tool(SemanticId.TRANSLATE_EN_DE, (txt,))


def _tiny(modality: Modality, language: Language, *stack: Corruption) -> Payload:
    return Payload(modality, "x0", language, stack, 1e-200)


@pytest.mark.parametrize(
    "semantic, inputs",
    [
        # A join of two inputs of quality 1e-200.
        (SemanticId.QA, (_tiny(Modality.TEXT, Language.EN),) * 2),
        # A no-op restore, a buried restore and a translation over a residual.
        (SemanticId.REMOVE_BLUR, (_tiny(Modality.IMAGE, Language.NONE),)),
        (SemanticId.REMOVE_BLUR, (_tiny(Modality.IMAGE, Language.NONE, Corruption.BLUR, Corruption.NOISE),)),
        (SemanticId.TRANSLATE_EN_DE, (_tiny(Modality.TEXT, Language.EN, Corruption.MASK),)),
    ],
)
def test_output_quality_underflow_is_an_engine_error(semantic, inputs) -> None:
    with pytest.raises(QualityUnderflow):
        apply_tool(semantic, inputs, SimConstants(beta=1e-200, gamma=1e-200))


def test_transform_wraps_exprs_and_pays_residuals() -> None:
    txt = make_leaf(Modality.TEXT, "d")
    masked = apply_corruption(txt, Corruption.MASK)
    out = apply_tool(SemanticId.SUMMARIZE, (masked,))
    assert out.expr == ("summ", "d")
    assert out.corruptions == ()
    assert math.isclose(out.quality, 0.9)


def test_two_input_transform_multiplies_qualities() -> None:
    img = make_leaf(Modality.IMAGE, "i")
    noisy = apply_corruption(img, Corruption.NOISE)
    softened = apply_tool(SemanticId.REMOVE_BLUR, (noisy,))  # absent, 0.9
    q = make_leaf(Modality.TEXT, "q")
    out = apply_tool(SemanticId.VQA, (softened, q))
    assert out.expr == ("vqa", "i", "q")
    assert out.modality is Modality.TEXT
    # 0.9 input quality, one residual NOISE on the image stack.
    assert math.isclose(out.quality, 0.9 * 0.9)


def test_transform_language_rules() -> None:
    en = make_leaf(Modality.TEXT, "a")
    de = make_leaf(Modality.TEXT, "b", Language.DE)
    img = make_leaf(Modality.IMAGE, "i")
    assert apply_tool(SemanticId.SUMMARIZE, (de,)).language is Language.DE
    assert apply_tool(SemanticId.SENTIMENT, (en,)).language is Language.EN
    assert apply_tool(SemanticId.CAPTION, (img,)).language is Language.EN
    assert apply_tool(SemanticId.GENERATE, (en,)).language is Language.NONE
    assert apply_tool(SemanticId.QA, (en, en)).language is Language.EN
    assert apply_tool(SemanticId.QA, (de, en)).language is Language.DE
    assert apply_tool(SemanticId.VQA, (img, de)).language is Language.DE


def test_apply_tool_arity_and_modality_checks() -> None:
    txt = make_leaf(Modality.TEXT, "t")
    img = make_leaf(Modality.IMAGE, "i")
    with pytest.raises(ArityMismatch):
        apply_tool(SemanticId.QA, (txt,))
    with pytest.raises(ModalityMismatch):
        apply_tool(SemanticId.CLASSIFY, (txt,))
    with pytest.raises(ModalityMismatch):
        apply_tool(SemanticId.VQA, (txt, img))


def test_expr_labels_counts_ops_and_leaves() -> None:
    labels = expr_labels(("qa", "x0", ("summ", "x0")))
    assert labels == {"qa": 1, "summ": 1, "x0": 2}


def test_similarity_terms() -> None:
    ref = make_leaf(Modality.IMAGE, "x")
    residual = apply_corruption(ref, Corruption.NOISE)
    assert math.isclose(similarity(residual, ref), 0.9)

    a = Payload(Modality.TEXT, ("summ", "x0"), Language.EN)
    b = Payload(Modality.TEXT, ("summ", "x1"), Language.EN)
    assert math.isclose(similarity(a, b), 1.0 / 3.0)

    german = Payload(Modality.TEXT, ("summ", "x0"), Language.DE)
    assert math.isclose(similarity(german, a), 0.5)

    image = make_leaf(Modality.IMAGE, "x0")
    assert similarity(image, a) == 0.0


_LEAF = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=8)
_EXPRS = st.recursive(
    _LEAF,
    lambda children: st.tuples(_LEAF, children) | st.tuples(_LEAF, children, children),
    max_leaves=12,
)


@given(_EXPRS)
def test_expr_serialization_round_trip(expr) -> None:
    assert parse_expr(serialize_expr(expr)) == expr


@given(st.lists(st.tuples(_LEAF, st.lists(_LEAF, max_size=2)), max_size=MAX_EXPR_DEPTH), _LEAF)
@example([("f", [])] * MAX_EXPR_DEPTH, "x0")
def test_expr_round_trip_up_to_the_depth_bound(levels, expr) -> None:
    """A leaf wrapped in one op per level, each with sibling leaves: any
    depth up to the bound."""
    for op, siblings in levels:
        expr = (op, expr, *siblings)
    assert parse_expr(serialize_expr(expr)) == expr


@pytest.mark.parametrize("text", ["", "(", ")", "(summ", "(summ x))", "x y", "(() x)"])
def test_parse_expr_rejects_malformed(text: str) -> None:
    with pytest.raises(ValueError):
        parse_expr(text)


def test_parse_expr_rejects_an_expr_deeper_than_the_bound() -> None:
    deep = "(f " * (MAX_EXPR_DEPTH + 1) + "x0" + ")" * (MAX_EXPR_DEPTH + 1)
    with pytest.raises(ValueError, match=f"deeper than {MAX_EXPR_DEPTH}"):
        parse_expr(deep)


@given(
    st.sampled_from(list(IMAGE_CORRUPTIONS)),
    st.floats(min_value=0.1, max_value=1.0),
)
def test_payload_json_round_trip(corruption: Corruption, quality: float) -> None:
    payload = Payload(
        Modality.IMAGE,
        ("gen", ("summ", "x00001")),
        Language.NONE,
        corruptions=(corruption,),
        quality=quality,
    )
    assert payload_from_json(payload_to_json(payload)) == payload


def _loaded(load, doc) -> str:
    """What a loader makes of a document: the repr of its result, so enum
    members and plain strings differ, or the type and message of its refusal."""
    try:
        return repr(load(doc))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _reference_payload(doc: dict) -> Payload:
    """A payload read with an Enum call per member and the parser per expr."""
    return Payload(
        modality=Modality(doc["modality"]),
        expr=parse_expr(doc["expr"]),
        language=Language(doc["language"]),
        corruptions=tuple(Corruption(c) for c in doc["corruptions"]),
        quality=doc["quality"],
    )


_ENUMS = (Modality, Language, Corruption, SemanticId, TaskCategory, MetricSlot)
# Enum values, near misses and values of other JSON types.
_LOOSE = st.one_of(
    st.sampled_from([m.value for enum in _ENUMS for m in enum]),
    st.text(max_size=8),
    st.integers(),
    st.none(),
    st.lists(st.text(max_size=3), max_size=2),
)
_EXPR_DOCS = st.one_of(
    st.text(),
    st.text(alphabet=" \t\n\x1f\xa0()x1", max_size=8),
    _EXPRS.map(serialize_expr),
    _LOOSE,
)


def _payload_doc(modality="Text", expr="x1", language="en", corruptions=(), quality=1.0) -> dict:
    return {
        "modality": modality,
        "expr": expr,
        "language": language,
        "corruptions": list(corruptions),
        "quality": quality,
    }


@st.composite
def _payload_docs(draw) -> dict:
    doc = _payload_doc(
        draw(st.sampled_from(["Text", "Image"]) | _LOOSE),
        draw(_EXPR_DOCS),
        draw(st.sampled_from(["en", "de", "none"]) | _LOOSE),
        draw(st.lists(st.sampled_from([c.value for c in Corruption]) | _LOOSE, max_size=3)),
        draw(st.floats(min_value=0.0, max_value=1.5) | _LOOSE),
    )
    if draw(st.booleans()):
        doc["corruptions"] = draw(_LOOSE)
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=2)):
        del doc[key]
    return doc


@given(_payload_docs())
@example(_payload_doc(expr=""))
@example(_payload_doc(expr=" x1"))
@example(_payload_doc(expr="x1\tx2"))
@example(_payload_doc(expr="x1\n"))
@example(_payload_doc(expr="("))
@example(_payload_doc(expr="x1)"))
@example(_payload_doc(expr=7))
@example(_payload_doc(expr="(summ x1)"))
@example(_payload_doc(modality="Audio", expr=""))
@example(_payload_doc(modality="Image", language="none", corruptions=["Blur", "Mask"]))
@example({"expr": "", "language": "xx"})
def test_payload_loader_agrees_with_enum_calls_and_the_parser(doc) -> None:
    """payload_from_json looks members up in each enum's value map and
    skips the parser for a bare leaf id; it must return what Enum calls
    and `parse_expr` give, or refuse with the same error."""
    assert _loaded(payload_from_json, doc) == _loaded(_reference_payload, doc)


@given(st.sampled_from(_ENUMS), _LOOSE | st.sampled_from([m for enum in _ENUMS for m in enum]))
def test_member_of_agrees_with_the_enum_call(enum, value) -> None:
    assert _loaded(lambda v: member_of(enum, v), value) == _loaded(enum, value)


# Quality factors out of single-input tools and out of `similarity`; the
# oracle scores every chain through these two facts.

_UNARY = [sem for sem, (inputs, _) in SEMANTIC_SIGNATURES.items() if len(inputs) == 1]
# Qualities in (0, 1]; a normal float stays nonzero after any factor.
_QUALITIES = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_subnormal=False)
# A small label alphabet, so exprs repeat labels and share leaves.
_LABEL = st.sampled_from(["x0", "x1", "summ", "qa", "de"])
_SMALL_EXPRS = st.recursive(
    _LABEL,
    lambda children: st.tuples(_LABEL, children) | st.tuples(_LABEL, children, children),
    max_leaves=8,
)


@st.composite
def _payloads(draw, exprs=_SMALL_EXPRS, modality=None, qualities=_QUALITIES):
    """Any valid payload: both modalities (or the given one), both text
    languages, any stack of the modality's corruptions, any quality in
    (0, 1]."""
    if modality is None:
        modality = draw(st.sampled_from(list(Modality)))
    if modality is Modality.IMAGE:
        language, kinds = Language.NONE, IMAGE_CORRUPTIONS
    else:
        language, kinds = draw(st.sampled_from([Language.EN, Language.DE])), TEXT_CORRUPTIONS
    stack = tuple(draw(st.lists(st.sampled_from(kinds), max_size=4)))
    return Payload(modality, draw(exprs), language, stack, draw(qualities))


def _unit(payload: Payload) -> Payload:
    return Payload(payload.modality, payload.expr, payload.language, payload.corruptions, 1.0)


def _run(semantic: SemanticId, payload: Payload) -> Payload | type:
    try:
        return apply_tool(semantic, (payload,))
    except EngineError as exc:
        return type(exc)


@given(st.sampled_from(_UNARY), _payloads())
def test_single_input_tools_factor_quality_out(semantic, payload) -> None:
    out, unit_out = _run(semantic, payload), _run(semantic, _unit(payload))
    if isinstance(unit_out, type):
        assert out is unit_out
        return
    assert (out.modality, out.expr, out.language, out.corruptions) == (
        unit_out.modality, unit_out.expr, unit_out.language, unit_out.corruptions,
    )
    # Exact float equality: no rounding may differ from the factored form.
    assert out.quality == payload.quality * unit_out.quality


def _counter_jaccard(out, ref) -> float:
    """The structure term as first written: Counters and key-set sums."""
    if out == ref:
        return 1.0
    a = expr_labels(out)
    b = expr_labels(ref)
    keys = set(a) | set(b)
    inter = sum(min(a[k], b[k]) for k in keys)
    union = sum(max(a[k], b[k]) for k in keys)
    return inter / union if union else 0.0


@given(_SMALL_EXPRS, _SMALL_EXPRS, st.booleans())
def test_structure_similarity_matches_counter_jaccard(out, ref, same) -> None:
    if same:
        ref = out
    expected = _counter_jaccard(out, ref)
    assert structure_similarity(out, ref) == expected


def test_structure_similarity_counts_repeated_labels() -> None:
    # labels {qa: 1, x0: 2, summ: 1} against {summ: 1, x0: 1}: inter 2, union 4
    assert structure_similarity(("qa", "x0", ("summ", "x0")), ("summ", "x0")) == 0.5
    assert structure_similarity(("summ", "x0"), ("qa", "x0", ("summ", "x0"))) == 0.5


@given(_payloads(), _payloads())
def test_similarity_is_content_term_times_quality_term(out, ref) -> None:
    gamma = DEFAULT_CONSTANTS.gamma
    expected = content_similarity(out, ref) * (out.quality * gamma ** len(out.corruptions))
    assert similarity(out, ref) == expected
    assert content_similarity(out, ref) == content_similarity(_unit(out), ref)


@given(_payloads(), _payloads(), st.lists(st.sampled_from(_UNARY), max_size=4))
def test_chain_similarity_matches_running_the_chain(start, ref, chain) -> None:
    # Run the chain on the payload itself and on a quality-1.0 copy that
    # records each step's quality; both must score the same float.
    payload, unit, factors = start, _unit(start), []
    for semantic in chain:
        out = _run(semantic, payload)
        if isinstance(out, type):
            assert out is _run(semantic, unit)
            return
        unit_out = apply_tool(semantic, (unit,))
        factors.append(unit_out.quality)
        payload, unit = out, _unit(unit_out)
    content = content_similarity(unit, ref)
    assert similarity(payload, ref) == chain_similarity(
        content, start.quality, tuple(factors), len(unit.corruptions)
    )


_UNIT_FLOATS = st.floats(min_value=0.0, max_value=1.0)
_QUALITIES = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@given(
    _UNIT_FLOATS,
    _QUALITIES,
    st.lists(_UNIT_FLOATS, max_size=6),
    st.integers(min_value=0, max_value=8),
    _QUALITIES,
    _UNIT_FLOATS,
    _UNIT_FLOATS,
    _UNIT_FLOATS,
)
@example(1.0, 5e-324, (1.0,), 0, 1.0, 5e-324, 1.0, 1.0)
@example(1.0, 1.0 - 2**-53, (1.0 - 2**-53,), 1, 1.0 - 2**-53, 1.0 - 2**-53, 1.0 - 2**-53, 1.0 - 2**-53)
def test_no_score_exceeds_its_input_quality(content, q, factors, residuals, gamma, q0, q1, f) -> None:
    # Multiplying by a factor in [0, 1] never rounds upward. The oracle
    # relies on this to leave unscored every tail of a join whose
    # quality is below the best score so far.
    constants = SimConstants(gamma=gamma)
    assert chain_similarity(content, q, tuple(factors), residuals, constants) <= q
    assert (q0 * q1) * f <= q0 * q1


# Expr equivariance: a tool's dynamics depend on its inputs' shapes alone.
# The oracle's tool-dynamics table runs each tool once per input shape and
# carries exprs as op tuples, relying on the three properties below.

_CONSTANTS = st.sampled_from(
    [DEFAULT_CONSTANTS, SimConstants(beta=0.3, gamma=0.7, language_mismatch=0.25)]
)
# A join multiplies two qualities; from 1e-150 up the product stays a
# valid quality rather than underflowing to 0.
_JOIN_QUALITIES = st.floats(min_value=1e-150, max_value=1.0)


@st.composite
def _tool_inputs(draw):
    """A semantic and inputs of its arity, each of the signature's
    modality two times in three (the rest exercise the modality check)."""
    semantic = draw(st.sampled_from(list(SemanticId)))
    expected, _ = SEMANTIC_SIGNATURES[semantic]
    modalities = [draw(st.sampled_from([want, *Modality])) for want in expected]
    inputs = tuple(draw(_payloads(modality=m, qualities=_JOIN_QUALITIES)) for m in modalities)
    return semantic, inputs


def _run_inputs(semantic, inputs, constants) -> Payload | type:
    try:
        return apply_tool(semantic, inputs, constants)
    except EngineError as exc:
        return type(exc)


@given(_tool_inputs(), st.lists(_SMALL_EXPRS, min_size=2, max_size=2), _CONSTANTS)
def test_apply_tool_is_expr_equivariant(case, exprs, constants) -> None:
    semantic, inputs = case
    moved = tuple(
        Payload(p.modality, e, p.language, p.corruptions, p.quality) for p, e in zip(inputs, exprs)
    )
    out, moved_out = _run_inputs(semantic, inputs, constants), _run_inputs(semantic, moved, constants)
    if isinstance(out, type):
        assert moved_out is out
        return
    assert (moved_out.modality, moved_out.language, moved_out.corruptions, moved_out.quality) == (
        out.modality, out.language, out.corruptions, out.quality,
    )
    # An expr never equals an op wrapped around itself, so these two cases
    # are told apart by the output on the first exprs.
    if len(inputs) == 1 and out.expr == inputs[0].expr:
        assert moved_out.expr == moved[0].expr
    else:
        op = out.expr[0]
        assert out.expr == (op, *(p.expr for p in inputs))
        assert moved_out.expr == (op, *(p.expr for p in moved))


@given(_tool_inputs(), _CONSTANTS)
def test_dynamics_table_entry_rebuilds_the_output(case, constants) -> None:
    """A table entry, filled on quality-1.0 placeholder leaves, rebuilt
    around the inputs' exprs and qualities is `apply_tool`'s output."""
    semantic, inputs = case
    table = _DynamicsTable(constants)
    entry = table[semantic, tuple((p.modality, p.language, p.corruptions) for p in inputs)]
    out = _run_inputs(semantic, inputs, constants)
    if entry is None:
        assert isinstance(out, type)
        return
    (modality, language, corruptions), factor, op = entry
    if len(inputs) == 1:
        quality = inputs[0].quality * factor
        expr = inputs[0].expr if op is None else (op, inputs[0].expr)
    else:
        quality = (inputs[0].quality * inputs[1].quality) * factor
        expr = (op, *(p.expr for p in inputs))
    # Payload equality compares quality with ==: bit for bit.
    assert out == Payload(modality, expr, language, corruptions, quality)


def _wrapped(starts, ops):
    """One start wrapped in each op in turn, or two starts joined by the
    first op and then wrapped in the rest, as tool chains build exprs."""
    if len(starts) == 1:
        built, rest = starts[0], ops
    else:
        built, rest = (ops[0], *starts), ops[1:]
    for op in rest:
        built = (op, built)
    return built


@given(
    st.lists(_SMALL_EXPRS, min_size=1, max_size=2),
    st.lists(_LABEL, min_size=1, max_size=4),
    _SMALL_EXPRS,
    st.booleans(),
)
@example(["x0"], ["summ"], ("summ", "x0"), False)
@example(["x0", "x0"], ["qa", "summ"], ("summ", ("qa", "x0", "x0")), False)
@example([("summ", "x0")], ["summ", "summ"], ("summ", "x1"), False)
@example(["x0", "x1"], ["qa", "qa"], "x0", True)
def test_label_countdown_matches_structure_similarity(starts, ops, ref, same) -> None:
    built = _wrapped(starts, ops)
    if same:
        ref = built
    countdown = count_down(label_countdown(expr_labels(ref), *starts), ops)
    assert countdown_structure(countdown) == structure_similarity(built, ref)
