"""Tool-sequence extraction from free-form text.

Recovers an ordered tool-name sequence from text such as
"module: Image Deblurring, module: Colorization" or loose prose.
Matching is case-insensitive against the registry, longest name first,
leftmost wins. Name-shaped fragments that are not registry entries are
reported as dropped rather than silently ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import UnknownTool
from .registry import ToolRegistry


@dataclass(frozen=True, slots=True)
class DroppedSpan:
    text: str
    reason: str


@dataclass(frozen=True, slots=True)
class ExtractionResult:
    sequence: tuple[str, ...]
    dropped: tuple[DroppedSpan, ...]


_MODULE_SEGMENT = re.compile(r"module\s*:\s*([^,.\n']+)", re.IGNORECASE)
_CAP_WORD = r"[A-Z][A-Za-z]*"
_CAP_RUN = re.compile(rf"\b{_CAP_WORD}(?:[ ]{_CAP_WORD})*\b")
_SENTENCE_START = re.compile(r"(?:^|[.!?]\s+|:\s+|'\s*)$")


def _name_pattern(registry: ToolRegistry) -> re.Pattern:
    names = sorted(registry.names(), key=len, reverse=True)
    alternation = "|".join(re.escape(name) for name in names)
    return re.compile(rf"\b(?:{alternation})\b", re.IGNORECASE)


def extract_sequence(text: str, registry: ToolRegistry) -> ExtractionResult:
    """Ordered registry names found in the text, plus what was rejected."""
    canonical = {name.lower(): name for name in registry.names()}
    # With no names the alternation would be empty and match everywhere.
    matches = list(_name_pattern(registry).finditer(text)) if canonical else []

    sequence: list[str] = []
    for match in matches:
        name = canonical[match.group(0).lower()]
        if not sequence or sequence[-1] != name:
            sequence.append(name)

    spans = [(m.start(), m.end()) for m in matches]

    def overlaps_match(start: int, end: int) -> bool:
        return any(start < s_end and end > s_start for s_start, s_end in spans)

    dropped: list[DroppedSpan] = []
    seen: set[str] = set()

    def reject(fragment: str) -> None:
        cleaned = " ".join(fragment.split())
        if not cleaned or cleaned.lower() in canonical or cleaned.lower() in seen:
            return
        seen.add(cleaned.lower())
        dropped.append(DroppedSpan(text=cleaned, reason="not in registry"))

    for segment in _MODULE_SEGMENT.finditer(text):
        if not overlaps_match(segment.start(1), segment.end(1)):
            reject(segment.group(1))

    for run in _CAP_RUN.finditer(text):
        if overlaps_match(run.start(), run.end()):
            continue
        words = run.group(0).split(" ")
        if len(words) == 1 and _SENTENCE_START.search(text[: run.start()]):
            # Ordinary sentence-initial capitalization, not a name.
            continue
        reject(run.group(0))

    return ExtractionResult(sequence=tuple(sequence), dropped=tuple(dropped))


def format_canonical(names: list[str] | tuple[str, ...], registry: ToolRegistry) -> str:
    for name in names:
        if name not in registry:
            raise UnknownTool(f"not in registry: {name}")
    return ", ".join(f"module: {name}" for name in names)


def extractor_prompt(registry: ToolRegistry, context: str) -> str:
    """Instruction block that asks a language model to do the extraction."""
    names = ", ".join(registry.names())
    return (
        "You are a key phrase extractor who is able to extract potential module "
        "names from the given context. You have already known all the module "
        "names in the full module list. The full module list is: "
        f"[{names}]. Given the following context: '{context}'. Please extract "
        "a module sequence from this context and remove module names which do "
        "not exist in the full module list from this sequence. Output the "
        "module sequence after filtering as the format of 'module: module1, "
        "module: module2, module: module3, etc...'"
    )
