"""Exception types raised across the engine.

Everything inherits from EngineError so callers can catch the whole
family at the CLI boundary and turn it into a structured error report.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateName(EngineError):
    """A name was registered twice (tool registry or trie)."""


class BadArity(EngineError):
    """A tool was declared with an unsupported number of inputs."""


class SemanticMismatch(EngineError):
    """A tool's declared signature disagrees with its semantic id."""


class IllegalCorruption(EngineError):
    """A corruption was applied to a payload of the wrong modality."""


class IllegalTranslate(EngineError):
    """Translate corruption applied to text that is not English."""


class ArityMismatch(EngineError):
    """A tool was executed with the wrong number of payloads."""


class ModalityMismatch(EngineError):
    """A payload's modality does not match the consuming input slot."""


class LanguageGuard(EngineError):
    """Machine translation invoked on non-English text."""


class QualityUnderflow(EngineError):
    """A tool's output quality underflowed to 0.0."""


class UnknownTool(EngineError):
    """A plan or sequence referenced a tool name not in the registry."""


class ArityNotOne(EngineError):
    """Linear plan construction hit a multi-input tool."""


class ModalityBreak(EngineError):
    """Adjacent tools in a linear sequence do not chain by modality."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(message)
        self.position = position


class CycleDetected(EngineError):
    """Plan graph contains a reference cycle."""


class EmptyNameSet(EngineError):
    """Attempted to build a trie from zero names."""


class NoFeasiblePlan(EngineError):
    """Search or enumeration found no valid plan for the task."""


class EmptyAllowedSet(EngineError):
    """Policy asked to score an empty action set."""


class InvalidPlan(EngineError):
    """Plan cannot be replayed as a canonical decoding episode."""


class InfeasibleCount(EngineError):
    """Requested more distinct tasks than the category space holds."""


class ConfigError(EngineError):
    """Configuration file is malformed or has unknown keys."""


class PeerProtocolError(EngineError):
    """A RemotePolicy peer sent a message that breaks the wire protocol."""


class MalformedDocument(EngineError):
    """A catalog, task, plan or checkpoint document has the wrong structure."""


@contextmanager
def reading(what: str) -> Iterator[None]:
    """Raise the errors a loader hits on a malformed ``what`` document
    (missing keys, wrong types, values out of range) as one
    `MalformedDocument` with a one-line message."""
    try:
        yield
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
        raise MalformedDocument(f"malformed {what}: {type(exc).__name__}: {exc}") from exc
