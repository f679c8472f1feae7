"""Symbolic payload simulator.

A payload is an immutable value carrying a modality, a symbolic content
expression, a language tag, a stack of corruptions, and a quality score
in (0, 1]. Corruptions push onto the stack in application order, so the
most recent corruption is the last element. Restoration tools pop them
back off; transform tools consume payloads and emit fresh ones.

Quality accounting:
  * applying a corruption never touches quality (the damage is latent),
  * restoring the top corruption is free,
  * restoring a buried corruption costs a factor beta,
  * restoring an absent corruption costs a factor gamma and is a no-op
    on the stack,
  * transforms multiply input qualities and pay gamma per residual
    corruption still on any input stack, then start a clean stack.

Fixing corruptions in exact reverse order of application is therefore
the only way to reach quality 1.0.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from typing import TypeVar

from .errors import (
    ArityMismatch,
    IllegalCorruption,
    IllegalTranslate,
    LanguageGuard,
    ModalityMismatch,
    QualityUnderflow,
)


class Modality(str, Enum):
    TEXT = "Text"
    IMAGE = "Image"


class Language(str, Enum):
    EN = "en"
    DE = "de"
    NONE = "none"


class Corruption(str, Enum):
    BLUR = "Blur"
    NOISE = "Noise"
    GRAY = "Gray"
    LOWRES = "LowRes"
    MASK = "Mask"
    TRANSLATE = "Translate"


class SemanticId(str, Enum):
    """What a tool does to payloads, independent of its display name."""

    REMOVE_BLUR = "RemoveBlur"
    REMOVE_NOISE = "RemoveNoise"
    REMOVE_GRAY = "RemoveGray"
    REMOVE_LOWRES = "RemoveLowRes"
    REMOVE_MASK = "RemoveMask"
    TRANSLATE_EN_DE = "TranslateEnDe"
    SUMMARIZE = "Summarize"
    SENTIMENT = "Sentiment"
    QA = "QA"
    CLASSIFY = "Classify"
    DETECT = "Detect"
    CAPTION = "Caption"
    GENERATE = "Generate"
    VQA = "VQA"


IMAGE_CORRUPTIONS: tuple[Corruption, ...] = (
    Corruption.BLUR,
    Corruption.NOISE,
    Corruption.GRAY,
    Corruption.LOWRES,
)

TEXT_CORRUPTIONS: tuple[Corruption, ...] = (
    Corruption.MASK,
    Corruption.TRANSLATE,
)

# Pure restorations. TranslateEnDe also restores Corruption.TRANSLATE but
# doubles as a forward translator, so it is handled separately.
RESTORES: dict[SemanticId, Corruption] = {
    SemanticId.REMOVE_BLUR: Corruption.BLUR,
    SemanticId.REMOVE_NOISE: Corruption.NOISE,
    SemanticId.REMOVE_GRAY: Corruption.GRAY,
    SemanticId.REMOVE_LOWRES: Corruption.LOWRES,
    SemanticId.REMOVE_MASK: Corruption.MASK,
}

_I = Modality.IMAGE
_T = Modality.TEXT

SEMANTIC_SIGNATURES: dict[SemanticId, tuple[tuple[Modality, ...], Modality]] = {
    SemanticId.REMOVE_BLUR: ((_I,), _I),
    SemanticId.REMOVE_NOISE: ((_I,), _I),
    SemanticId.REMOVE_GRAY: ((_I,), _I),
    SemanticId.REMOVE_LOWRES: ((_I,), _I),
    SemanticId.REMOVE_MASK: ((_T,), _T),
    SemanticId.TRANSLATE_EN_DE: ((_T,), _T),
    SemanticId.SUMMARIZE: ((_T,), _T),
    SemanticId.SENTIMENT: ((_T,), _T),
    SemanticId.QA: ((_T, _T), _T),
    SemanticId.CLASSIFY: ((_I,), _T),
    SemanticId.DETECT: ((_I,), _T),
    SemanticId.CAPTION: ((_I,), _T),
    SemanticId.GENERATE: ((_T,), _I),
    SemanticId.VQA: ((_I, _T), _T),
}

# Expression wrapper op per transform semantic.
TRANSFORM_OPS: dict[SemanticId, str] = {
    SemanticId.SUMMARIZE: "summ",
    SemanticId.SENTIMENT: "sent",
    SemanticId.QA: "qa",
    SemanticId.CLASSIFY: "class",
    SemanticId.DETECT: "detect",
    SemanticId.CAPTION: "caption",
    SemanticId.GENERATE: "gen",
    SemanticId.VQA: "vqa",
}

TRANSLATE_OP = "de"

# Every op label a tool can wrap around an expr.
TOOL_OPS = frozenset(TRANSFORM_OPS.values()) | {TRANSLATE_OP}

E = TypeVar("E", bound=Enum)

# Expr is either a leaf content id or (op, child, ...).
Expr = str | tuple


@dataclass(frozen=True, slots=True)
class SimConstants:
    """Quality factors: ``beta`` for a buried restore, ``gamma`` for a
    no-op restore and per residual corruption, ``language_mismatch`` for
    an output in the wrong language. ``beta`` and ``gamma`` lie in
    (0, 1], so every quality stays in (0, 1]; ``language_mismatch`` lies
    in [0, 1], so every score does."""

    beta: float = 0.8
    gamma: float = 0.9
    language_mismatch: float = 0.5

    def __post_init__(self) -> None:
        # Comparisons with NaN are false, so these also reject NaN.
        for name in ("beta", "gamma"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")
        if not 0.0 <= self.language_mismatch <= 1.0:
            raise ValueError(f"language_mismatch must lie in [0, 1], got {self.language_mismatch}")


DEFAULT_CONSTANTS = SimConstants()


@dataclass(frozen=True, slots=True)
class Payload:
    modality: Modality
    expr: Expr
    language: Language
    corruptions: tuple[Corruption, ...] = ()
    quality: float = 1.0

    def __post_init__(self) -> None:
        if self.modality is Modality.IMAGE and self.language is not Language.NONE:
            raise ValueError("image payloads carry no language")
        if self.modality is Modality.TEXT and self.language is Language.NONE:
            raise ValueError("text payloads need a language")
        if not 0.0 < self.quality <= 1.0:
            raise ValueError(f"quality out of range: {self.quality}")
        legal = IMAGE_CORRUPTIONS if self.modality is Modality.IMAGE else TEXT_CORRUPTIONS
        for c in self.corruptions:
            if c not in legal:
                raise ValueError(f"{c.value} cannot sit on a {self.modality.value} payload")


def make_leaf(modality: Modality, content_id: str, language: Language | None = None) -> Payload:
    """Fresh uncorrupted payload around a leaf content id."""
    if language is None:
        language = Language.EN if modality is Modality.TEXT else Language.NONE
    return Payload(modality=modality, expr=content_id, language=language)


def apply_corruption(payload: Payload, corruption: Corruption) -> Payload:
    """Push one corruption onto the payload's stack.

    Translate is only defined on English text and flips the language
    tag to German. Quality is untouched; the cost surfaces later when
    the corruption is restored out of order or left in place.
    """
    legal = IMAGE_CORRUPTIONS if payload.modality is Modality.IMAGE else TEXT_CORRUPTIONS
    if corruption not in legal:
        raise IllegalCorruption(
            f"{corruption.value} does not apply to {payload.modality.value}"
        )
    language = payload.language
    if corruption is Corruption.TRANSLATE:
        if payload.language is not Language.EN:
            raise IllegalTranslate("Translate corruption needs English text")
        language = Language.DE
    return Payload(
        payload.modality,
        payload.expr,
        language,
        payload.corruptions + (corruption,),
        payload.quality,
    )


def apply_chain(payload: Payload, chain: tuple[Corruption, ...]) -> Payload:
    for corruption in chain:
        payload = apply_corruption(payload, corruption)
    return payload


def _check_inputs(semantic: SemanticId, inputs: tuple[Payload, ...]) -> None:
    expected, _ = SEMANTIC_SIGNATURES[semantic]
    if len(inputs) != len(expected):
        raise ArityMismatch(
            f"{semantic.value} takes {len(expected)} payloads, got {len(inputs)}"
        )
    for i, (payload, want) in enumerate(zip(inputs, expected)):
        if payload.modality is not want:
            raise ModalityMismatch(
                f"{semantic.value} input {i} wants {want.value}, got {payload.modality.value}"
            )


def _output_quality(quality: float) -> float:
    """An output quality, a product of qualities and factors in (0, 1]:
    positive unless the product underflowed, which raises."""
    if quality == 0.0:
        raise QualityUnderflow("output quality underflows to 0.0")
    return quality


def _restore(payload: Payload, target: Corruption, constants: SimConstants) -> Payload:
    stack = payload.corruptions
    quality = payload.quality
    if stack and stack[-1] is target:
        stack = stack[:-1]
    elif target in stack:
        # Buried layer. Remove the most recent matching one and pay beta
        # for disturbing everything stacked above it.
        idx = len(stack) - 1 - stack[::-1].index(target)
        stack = stack[:idx] + stack[idx + 1 :]
        quality *= constants.beta
    else:
        # Nothing to fix. The tool still ran and degraded the content a bit.
        quality *= constants.gamma
    return Payload(
        payload.modality, payload.expr, payload.language, stack, _output_quality(quality)
    )


def _transform_language(semantic: SemanticId, inputs: tuple[Payload, ...]) -> Language:
    if semantic in (SemanticId.SUMMARIZE, SemanticId.SENTIMENT):
        return inputs[0].language
    if semantic in (SemanticId.CLASSIFY, SemanticId.DETECT, SemanticId.CAPTION):
        return Language.EN
    if semantic is SemanticId.GENERATE:
        return Language.NONE
    # QA and VQA answer in English unless some text input is German.
    text_langs = [p.language for p in inputs if p.modality is Modality.TEXT]
    if all(lang is Language.EN for lang in text_langs):
        return Language.EN
    return Language.DE


def apply_tool(
    semantic: SemanticId,
    inputs: tuple[Payload, ...],
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> Payload:
    """Run one tool on its input payloads and return the output payload.

    Expr equivariance: what the tool does depends only on the inputs'
    shapes (modality, language and corruption stack), never on their
    exprs. Restores and the translate undo pass the input expr through;
    transforms and the translate forward wrap the input exprs in one op
    (a join wraps both). The output's modality, language and stack, the
    op and any error are the same for every expr.

    Quality factors out too. Every branch computes the output quality
    as ``q * c``, or ``((1.0 * q0) * q1) * c`` for two inputs, where
    ``c`` depends only on the inputs' shapes (``c`` is 1.0 where quality
    passes through). So the output at any input qualities is the output
    at quality 1.0, whose quality is ``c``, with the inputs' qualities
    multiplied in. Errors ignore quality too, except `QualityUnderflow`,
    raised when the output quality underflows to 0.0.
    """
    _check_inputs(semantic, inputs)

    if semantic in RESTORES:
        return _restore(inputs[0], RESTORES[semantic], constants)

    if semantic is SemanticId.TRANSLATE_EN_DE:
        payload = inputs[0]
        stack = payload.corruptions
        if stack and stack[-1] is Corruption.TRANSLATE:
            # Undo the translation corruption: back to English, free.
            return Payload(
                payload.modality, payload.expr, Language.EN, stack[:-1], payload.quality
            )
        if payload.language is not Language.EN:
            raise LanguageGuard("translation tool needs English input")
        return Payload(
            modality=Modality.TEXT,
            expr=(TRANSLATE_OP, payload.expr),
            language=Language.DE,
            corruptions=(),
            quality=_output_quality(payload.quality * constants.gamma ** len(stack)),
        )

    # Generic transform: wrap the exprs, combine qualities, pay gamma for
    # every corruption still sitting on an input stack, start clean.
    op = TRANSFORM_OPS[semantic]
    _, out_modality = SEMANTIC_SIGNATURES[semantic]
    quality = 1.0
    residuals = 0
    for payload in inputs:
        quality *= payload.quality
        residuals += len(payload.corruptions)
    return Payload(
        modality=out_modality,
        expr=(op,) + tuple(p.expr for p in inputs),
        language=_transform_language(semantic, inputs),
        corruptions=(),
        quality=_output_quality(quality * constants.gamma**residuals),
    )


def _node_labels(expr: Expr):
    """Every node label of an expression tree, leaves included."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            yield node
        else:
            yield node[0]
            stack.extend(node[1:])


def expr_labels(expr: Expr) -> Counter:
    """Multiset of node labels in an expression tree, leaves included."""
    return Counter(_node_labels(expr))


def _op_heads(expr: Expr):
    """The op label of every inner node of an expression tree."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if not isinstance(node, str):
            yield node[0]
            stack.extend(node[1:])


def relabel_key(payloads: tuple[Payload, ...]) -> tuple:
    """``payloads`` up to a renaming of their leaf labels: each payload's
    modality, language, corruptions and quality, and its expr with leaf
    labels renamed to integers in first-occurrence order across all of
    ``payloads``.

    A leaf label that is also an op label, a tool op or an op head of
    any of ``payloads``, stays verbatim: `similarity` counts labels, so
    a leaf named like an op matches that op. Two payload tuples with
    equal keys then differ by a one-to-one renaming of labels that fixes
    every op label. `apply_tool` is expr-equivariant and `similarity`
    reads exprs only through ``==`` and their label multisets, so a
    plan run on such inputs scores the same against such references.
    """
    kept = TOOL_OPS.union(*(_op_heads(p.expr) for p in payloads))
    names: dict[str, int] = {}

    def rename(expr: Expr):
        if isinstance(expr, str):
            return expr if expr in kept else names.setdefault(expr, len(names))
        return (expr[0], *map(rename, expr[1:]))

    return tuple((p.modality, p.language, p.corruptions, p.quality, rename(p.expr)) for p in payloads)


# A structure term in progress, as the integers `structure_similarity`
# divides: (reference label counts not yet matched, intersection, union).
Countdown = tuple[dict[str, int], int, int]


def count_down(countdown: Countdown, labels: Iterable[str]) -> Countdown:
    """``countdown`` after walking more output labels: a label the
    reference still has left is matched and counted down, any other
    label grows the union. ``countdown`` itself is left as it was."""
    remaining, inter, union = countdown
    remaining = dict(remaining)
    for label in labels:
        left = remaining.get(label)
        if left:
            remaining[label] = left - 1
            inter += 1
        else:
            union += 1
    return remaining, inter, union


def label_countdown(ref_labels: Counter, *exprs: Expr) -> Countdown:
    """The reference labels ``ref_labels`` counted down over every node
    label of ``exprs``. An output whose labels are these plus some ops,
    such as ``exprs`` wrapped by a tool chain, has structure term
    ``countdown_structure(count_down(countdown, ops))``."""
    countdown = (dict(ref_labels), 0, ref_labels.total())
    for expr in exprs:
        countdown = count_down(countdown, _node_labels(expr))
    return countdown


def countdown_structure(countdown: Countdown) -> float:
    """The multiset Jaccard ``inter / union`` of a finished countdown."""
    _, inter, union = countdown
    return inter / union if union else 0.0


def structure_similarity(out: Expr, ref: Expr) -> float:
    """Structure term of `similarity`: 1.0 on identical exprs, multiset
    Jaccard over node labels otherwise.

    The intersection ``inter`` is counted by walking ``out`` against a
    countdown copy of the reference's label counts, and the union grows
    by one per unmatched label from ``|ref|``. Per label
    ``max + min = a + b``, so these are exactly the integers
    ``sum(min)`` and ``sum(max)`` over the two label multisets. On
    identical exprs the two are equal, so the countdown also gives 1.0.
    """
    if out == ref:
        return 1.0
    return countdown_structure(label_countdown(expr_labels(ref), out))


def language_term(language: Language, ref_language: Language, constants: SimConstants) -> float:
    """Language term of `similarity`: 1.0 on a match, else ``language_mismatch``."""
    return 1.0 if language is ref_language else constants.language_mismatch


def content_similarity(
    out: Payload, ref: Payload, constants: SimConstants = DEFAULT_CONSTANTS
) -> float:
    """Content term of `similarity`: the structure term times the
    language term, 0.0 across modalities. It does not read quality or
    corruptions.
    """
    if out.modality is not ref.modality:
        return 0.0
    w_struct = structure_similarity(out.expr, ref.expr)
    return w_struct * language_term(out.language, ref.language, constants)


def scale_quality(quality: float, factors: tuple[float, ...]) -> float:
    """``quality`` multiplied by each factor in order.

    For a chain of single-input tools run on a quality-1.0 payload,
    with ``factors`` the output quality of each step (see `apply_tool`),
    this is the chain's output quality on the same payload at
    ``quality``, bit for bit.
    """
    for factor in factors:
        quality *= factor
    return quality


def chain_similarity(
    content: float,
    quality: float,
    factors: tuple[float, ...],
    residuals: int,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> float:
    """`similarity` of a payload from its terms: content term
    ``content``, quality ``scale_quality(quality, factors)`` and
    ``residuals`` corruptions on its stack.

    This is the one scoring formula; `similarity` is this with no
    factors, so a caller that scores one chain's output at many input
    qualities gets the same floats as scoring each payload.
    """
    return content * (scale_quality(quality, factors) * constants.gamma ** residuals)


def similarity(
    out: Payload, ref: Payload, constants: SimConstants = DEFAULT_CONSTANTS
) -> float:
    """Score an output payload against a reference payload in [0, 1].

    A content term times a quality term, evaluated as
    ``(w_struct * w_lang) * (quality * gamma ** residuals)``: the
    structure term, the language term, and the output's own quality
    discounted per residual corruption. The left factor,
    `content_similarity`, does not depend on quality.
    """
    return chain_similarity(
        content_similarity(out, ref, constants),
        out.quality,
        (),
        len(out.corruptions),
        constants,
    )


def serialize_expr(expr: Expr) -> str:
    if isinstance(expr, str):
        return expr
    inner = " ".join(serialize_expr(child) for child in expr[1:])
    return f"({expr[0]} {inner})" if inner else f"({expr[0]})"


def parse_expr(text: str) -> Expr:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ValueError("empty expression")
    pos = 0

    def walk() -> Expr:
        nonlocal pos
        token = tokens[pos]
        pos += 1
        if token == ")":
            raise ValueError("unexpected )")
        if token != "(":
            return token
        if pos >= len(tokens) or tokens[pos] in "()":
            raise ValueError("expected op after (")
        op = tokens[pos]
        pos += 1
        children = []
        while pos < len(tokens) and tokens[pos] != ")":
            children.append(walk())
        if pos >= len(tokens):
            raise ValueError("unclosed (")
        pos += 1
        return (op, *children)

    expr = walk()
    if pos != len(tokens):
        raise ValueError("trailing tokens")
    return expr


def payload_to_json(payload: Payload) -> dict:
    return {
        "modality": payload.modality.value,
        "expr": serialize_expr(payload.expr),
        "language": payload.language.value,
        "corruptions": [c.value for c in payload.corruptions],
        "quality": payload.quality,
    }


def member_of(enum: type[E], value: object) -> E:
    """``enum(value)``, looked up in the enum's own value map first; a
    value not found there goes to ``enum(value)``, which refuses it."""
    try:
        return enum._value2member_map_[value]
    except (KeyError, TypeError):
        pass
    return enum(value)


def _expr_from_json(text: object) -> Expr:
    """`parse_expr`, without the parser for a bare leaf id: one token, with
    no whitespace and no parens, parses to itself."""
    if type(text) is str and "(" not in text and ")" not in text and text.split() == [text]:
        return text
    return parse_expr(text)


def payload_from_json(doc: dict) -> Payload:
    return Payload(
        member_of(Modality, doc["modality"]),
        _expr_from_json(doc["expr"]),
        member_of(Language, doc["language"]),
        tuple([member_of(Corruption, c) for c in doc["corruptions"]]),
        doc["quality"],
    )
