"""Tool registry.

Tools pair a display name with a typed signature and a semantic id from
the simulator. The registry is ordered and immutable; registration is
functional and returns a new registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadArity, DuplicateName, SemanticMismatch, UnknownTool, reading
from .simkit import SEMANTIC_SIGNATURES, Modality, SemanticId


@dataclass(frozen=True, slots=True)
class ToolSpec:
    name: str
    inputs: tuple[Modality, ...]
    output: Modality
    semantic: SemanticId

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise ValueError("tool name must be non-empty")
        if len(self.inputs) not in (1, 2):
            raise BadArity(f"{self.name}: tools take 1 or 2 inputs, got {len(self.inputs)}")
        want_inputs, want_output = SEMANTIC_SIGNATURES[self.semantic]
        if self.inputs != want_inputs or self.output is not want_output:
            raise SemanticMismatch(
                f"{self.name}: signature does not match {self.semantic.value}"
            )


@dataclass(frozen=True)
class ToolRegistry:
    tools: tuple[ToolSpec, ...] = ()
    _by_name: dict[str, ToolSpec] = field(init=False, repr=False, compare=False)
    # Per modality, in registry order: the tools whose first slot takes it,
    # and the names of the two-input tools whose second slot takes it.
    _first_slot: dict[Modality, tuple[ToolSpec, ...]] = field(
        init=False, repr=False, compare=False
    )
    _second_slot: dict[Modality, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name: dict[str, ToolSpec] = {}
        for spec in self.tools:
            if spec.name in by_name:
                raise DuplicateName(f"tool registered twice: {spec.name}")
            by_name[spec.name] = spec
        object.__setattr__(self, "_by_name", by_name)
        first_slot = {
            m: tuple(spec for spec in self.tools if spec.inputs[0] is m) for m in Modality
        }
        second_slot = {
            m: tuple(
                spec.name for spec in self.tools if len(spec.inputs) == 2 and spec.inputs[1] is m
            )
            for m in Modality
        }
        object.__setattr__(self, "_first_slot", first_slot)
        object.__setattr__(self, "_second_slot", second_slot)

    def __iter__(self):
        return iter(self.tools)

    def __len__(self) -> int:
        return len(self.tools)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> ToolSpec:
        spec = self._by_name.get(name)
        if spec is None:
            raise UnknownTool(f"not in registry: {name}")
        return spec

    def names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.tools)

    def joins_into(self, modality: Modality) -> tuple[str, ...]:
        """Names of the two-input tools whose second slot takes the modality."""
        return self._second_slot[modality]


def register_tool(registry: ToolRegistry, spec: ToolSpec) -> ToolRegistry:
    return ToolRegistry(registry.tools + (spec,))


_I = Modality.IMAGE
_T = Modality.TEXT


def default_registry() -> ToolRegistry:
    """The stock fourteen-tool registry used by the benchmark."""
    return ToolRegistry(
        (
            ToolSpec("Image Classification", (_I,), _T, SemanticId.CLASSIFY),
            ToolSpec("Colorization", (_I,), _I, SemanticId.REMOVE_GRAY),
            ToolSpec("Object Detection", (_I,), _T, SemanticId.DETECT),
            ToolSpec("Image Deblurring", (_I,), _I, SemanticId.REMOVE_BLUR),
            ToolSpec("Image Denoising", (_I,), _I, SemanticId.REMOVE_NOISE),
            ToolSpec("Image Super Resolution", (_I,), _I, SemanticId.REMOVE_LOWRES),
            ToolSpec("Image Captioning", (_I,), _T, SemanticId.CAPTION),
            ToolSpec("Text to Image Generation", (_T,), _I, SemanticId.GENERATE),
            ToolSpec("Visual Question Answering", (_I, _T), _T, SemanticId.VQA),
            ToolSpec("Sentiment Analysis", (_T,), _T, SemanticId.SENTIMENT),
            ToolSpec("Question Answering", (_T, _T), _T, SemanticId.QA),
            ToolSpec("Text Summarization", (_T,), _T, SemanticId.SUMMARIZE),
            ToolSpec("Machine Translation", (_T,), _T, SemanticId.TRANSLATE_EN_DE),
            ToolSpec("Fill Mask", (_T,), _T, SemanticId.REMOVE_MASK),
        )
    )


def compatible_successors(
    registry: ToolRegistry,
    modality: Modality,
    used: frozenset[str] | set[str] = frozenset(),
) -> tuple[ToolSpec, ...]:
    """Unused tools whose first input slot accepts the given modality.

    Order follows the registry. Second slots of two-input tools do not
    count here; they are only reachable through joins.
    """
    return tuple([spec for spec in registry._first_slot[modality] if spec.name not in used])


def registry_from_json(docs: list[dict]) -> ToolRegistry:
    with reading("registry"):
        if not isinstance(docs, list):
            raise TypeError(f"registry must be a JSON list, got {type(docs).__name__}")
        return ToolRegistry(
            tuple(
                ToolSpec(
                    name=doc["name"],
                    inputs=tuple(Modality(m) for m in doc["inputs"]),
                    output=Modality(doc["output"]),
                    semantic=SemanticId(doc["semantic"]),
                )
                for doc in docs
            )
        )
