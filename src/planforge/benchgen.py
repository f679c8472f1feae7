"""Benchmark catalog generation and the exhaustive planning oracle.

Tasks are built backwards: pick corruption chains for each input and a
reference recipe for the output, corrupt fresh content accordingly, and
keep the recipe's result on the clean content as the reference. A task
is solvable exactly because it was manufactured from the operations
that undo it.

The oracle enumerates the full canonical plan family up to a depth
bound, scores every candidate that can still win, and keeps the argmax. Besides
the plan data structures it shares only ``replay_steps`` with the decoder: with
``replayable_only`` the winner must replay, and its steps are ``best_steps``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

from .decoder import ReplayStep, replay_steps
from .errors import EngineError, InfeasibleCount, InvalidPlan, NoFeasiblePlan, reading
from .evalkit import assign_slot, task_reward
from .plan_ir import (
    CATEGORY_SIGNATURES,
    NodeOutput,
    PlanGraph,
    PlanNode,
    Sample,
    TaskCategory,
    TaskInput,
    TaskSpec,
    plan_to_json,
    task_from_json,
)
from .registry import ToolRegistry, ToolSpec
from .simkit import (
    DEFAULT_CONSTANTS,
    IMAGE_CORRUPTIONS,
    SEMANTIC_SIGNATURES,
    Corruption,
    Expr,
    Language,
    Modality,
    Payload,
    SemanticId,
    SimConstants,
    apply_chain,
    apply_tool,
    chain_similarity,
    count_down,
    countdown_structure,
    expr_labels,
    label_countdown,
    language_term,
    make_leaf,
    scale_quality,
)

Chain = tuple[Corruption, ...]
Combo = tuple[tuple[Chain, ...], tuple[SemanticId, ...]]


@dataclass(frozen=True, slots=True)
class CatalogConfig:
    """Tasks per category, samples per task, the longest corruption
    chain and the seed. Counts are at least 0, and a count above the
    category's space is an `InfeasibleCount` when the catalog is
    generated; every task has at least one sample."""

    image_image: int = 47
    image_text: int = 24
    text_image: int = 22
    text_text: int = 24
    image_text_text: int = 34
    text_text_text: int = 34
    samples_per_task: int = 20
    max_chain_length: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        for _, _, name in _CATEGORY_ORDER:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.samples_per_task < 1:
            raise ValueError(f"samples_per_task must be >= 1, got {self.samples_per_task}")


# The five well-formed text corruption chains of length <= 2. A second
# Translate is illegal (the text is already German) and repeats of the
# same corruption are not used by the catalog.
TEXT_CHAINS: tuple[Chain, ...] = (
    (),
    (Corruption.MASK,),
    (Corruption.TRANSLATE,),
    (Corruption.MASK, Corruption.TRANSLATE),
    (Corruption.TRANSLATE, Corruption.MASK),
)

_TEXT_STEP_POOL = (SemanticId.SUMMARIZE, SemanticId.SENTIMENT, SemanticId.TRANSLATE_EN_DE)


def _sequences(pool: tuple, lengths: set[int]) -> list[tuple]:
    """Ordered duplicate-free sequences over the pool, of the given lengths."""
    top = max(lengths) if lengths else 0
    out: list[tuple] = []

    def grow(prefix: tuple) -> None:
        if len(prefix) in lengths:
            out.append(prefix)
        if len(prefix) < top:
            for item in pool:
                if item not in prefix:
                    grow(prefix + (item,))

    grow(())
    return out


def _translate_conflict(chains: tuple[Chain, ...], builder: tuple[SemanticId, ...]) -> bool:
    """One Machine Translation tool cannot both restore and translate."""
    corrupted = any(Corruption.TRANSLATE in chain for chain in chains)
    return corrupted and SemanticId.TRANSLATE_EN_DE in builder


def category_space(category: TaskCategory, cfg: CatalogConfig) -> list[Combo]:
    """Every distinct (chains, recipe) combination the category offers."""
    combos: list[Combo] = []
    if category is TaskCategory.IMAGE_TO_IMAGE:
        lengths = {n for n in (3, 4) if n <= cfg.max_chain_length}
        combos = [((chain,), ()) for chain in _sequences(IMAGE_CORRUPTIONS, lengths)]
    elif category is TaskCategory.IMAGE_TO_TEXT:
        # Duplicate-free image chains are at most len(IMAGE_CORRUPTIONS) long.
        lengths = set(range(1, min(cfg.max_chain_length, len(IMAGE_CORRUPTIONS)) + 1))
        combos = [
            ((chain,), (terminal,))
            for chain in _sequences(IMAGE_CORRUPTIONS, lengths)
            for terminal in (SemanticId.CLASSIFY, SemanticId.DETECT, SemanticId.CAPTION)
        ]
    elif category is TaskCategory.TEXT_TO_IMAGE:
        combos = [
            ((chain,), pre + (SemanticId.GENERATE,))
            for chain in TEXT_CHAINS
            for pre in _sequences(_TEXT_STEP_POOL, {1, 2})
            if not _translate_conflict((chain,), pre)
        ]
    elif category is TaskCategory.TEXT_TO_TEXT:
        combos = [
            ((chain,), builder)
            for chain in TEXT_CHAINS
            for builder in _sequences(_TEXT_STEP_POOL, {0, 1, 2})
            if not _translate_conflict((chain,), builder)
            and len(chain) + len(builder) >= 2
        ]
    elif category is TaskCategory.IMAGE_TEXT_TO_TEXT:
        image_chains = _sequences(IMAGE_CORRUPTIONS, {1, 2})
        combos = [
            ((ichain, tchain), (SemanticId.VQA,) + post)
            for ichain in image_chains
            for tchain in TEXT_CHAINS
            if len(tchain) <= len(ichain)
            for post in _sequences(_TEXT_STEP_POOL, {0, 1, 2})
            if not _translate_conflict((ichain, tchain), post)
        ]
    elif category is TaskCategory.TEXT_TEXT_TO_TEXT:
        pairs = [
            (c0, c1)
            for c0 in TEXT_CHAINS
            for c1 in TEXT_CHAINS
            if len(c0) >= len(c1)
            and len(c0) - len(c1) <= 1
            and not (Corruption.TRANSLATE in c0 and Corruption.TRANSLATE in c1)
        ]
        combos = [
            ((c0, c1), (SemanticId.QA,) + post)
            for c0, c1 in pairs
            for post in _sequences(_TEXT_STEP_POOL, {0, 1, 2})
            if not _translate_conflict((c0, c1), post)
            and len(c0) + len(c1) + 1 + len(post) >= 2
        ]
    else:
        raise ValueError(f"unknown category: {category}")

    def key(combo: Combo):
        chains, builder = combo
        return (
            tuple(tuple(c.value for c in chain) for chain in chains),
            tuple(s.value for s in builder),
        )

    return sorted(combos, key=key)


_ADJECTIVES = {
    Corruption.BLUR: "blurry",
    Corruption.NOISE: "noisy",
    Corruption.GRAY: "grayscale",
    Corruption.LOWRES: "low-resolutioned",
    Corruption.MASK: "clozed",
    Corruption.TRANSLATE: "translated",
}

_TERMINAL_PHRASES = {
    SemanticId.CLASSIFY: "return the class label in English",
    SemanticId.DETECT: "return the object names in English",
    SemanticId.CAPTION: "describe the image in English",
    SemanticId.GENERATE: "generate an image",
    SemanticId.SUMMARIZE: "summarize the text in English",
    SemanticId.SENTIMENT: "classify the sentiment",
    SemanticId.TRANSLATE_EN_DE: "translate the text in German",
    SemanticId.QA: "answer the question in English",
    SemanticId.VQA: "answer the question in English",
}

_NOUNS = {
    TaskCategory.IMAGE_TO_IMAGE: ("image",),
    TaskCategory.IMAGE_TO_TEXT: ("image",),
    TaskCategory.TEXT_TO_IMAGE: ("text",),
    TaskCategory.TEXT_TO_TEXT: ("text",),
    TaskCategory.IMAGE_TEXT_TO_TEXT: ("image", "query"),
    TaskCategory.TEXT_TEXT_TO_TEXT: ("document", "query"),
}


def _noun_phrase(chain: Chain, modality: Modality, noun: str) -> str:
    words = [_ADJECTIVES[c] for c in chain]
    if modality is Modality.TEXT:
        words.append("German" if Corruption.TRANSLATE in chain else "English")
    words.append(noun)
    article = "an" if words[0][0].lower() in "aeiou" else "a"
    return f"{article} {' '.join(words)}"


def describe(category: TaskCategory, chains: tuple[Chain, ...], builder: tuple[SemanticId, ...]) -> str:
    signature, out_modality = CATEGORY_SIGNATURES[category]
    nouns = _NOUNS[category]
    subjects = " and ".join(
        _noun_phrase(chain, modality, noun)
        for chain, modality, noun in zip(chains, signature, nouns)
    )
    if not builder:
        phrases = [f"return the regular {nouns[0]}"]
    else:
        phrases = []
        for sem in builder:
            phrase = _TERMINAL_PHRASES[sem]
            if (
                sem is SemanticId.TRANSLATE_EN_DE
                and phrases
                and phrases[-1].endswith("in English")
            ):
                # "summarize ... in English and then translate in German"
                # reads better folded into one step.
                phrases[-1] = phrases[-1][: -len("in English")] + "in German"
            else:
                phrases.append(phrase)
    steps = " and then ".join(phrases)
    return f"Given {subjects}, how to {steps} step by step?"


def _apply_builder(
    cleans: tuple[Payload, ...],
    builder: tuple[SemanticId, ...],
    constants: SimConstants,
) -> Payload:
    if not builder:
        return cleans[0]
    first = builder[0]
    arity = len(SEMANTIC_SIGNATURES[first][0])
    current = apply_tool(first, cleans[:arity], constants)
    for sem in builder[1:]:
        current = apply_tool(sem, (current,), constants)
    return current


def build_task(
    task_id: str,
    category: TaskCategory,
    chains: tuple[Chain, ...],
    builder: tuple[SemanticId, ...],
    samples_per_task: int = 20,
    constants: SimConstants = DEFAULT_CONSTANTS,
    content_counter: "itertools.count | None" = None,
) -> TaskSpec:
    """Samples on fresh leaf ids from ``content_counter``, one per input. The
    chains and the recipe run once, on integer leaves ``0..arity-1``; by expr
    equivariance (see `apply_tool`), putting a sample's ids in their place
    gives what they would build on the sample's own leaves."""
    signature, out_modality = CATEGORY_SIGNATURES[category]
    if len(chains) != len(signature):
        raise ValueError("one corruption chain per task input")
    counter = content_counter if content_counter is not None else itertools.count()
    leaves = tuple(make_leaf(modality, k) for k, modality in enumerate(signature))
    shapes = [*map(apply_chain, leaves, chains), _apply_builder(leaves, builder, constants)]

    def fill(expr: Expr | int, ids: list[str]) -> Expr:
        if isinstance(expr, int):
            return ids[expr]
        return (expr[0], *[fill(child, ids) for child in expr[1:]])

    samples = []
    for _ in range(samples_per_task):
        ids = [f"x{next(counter):05d}" for _ in signature]
        *inputs, reference = [
            Payload(p.modality, fill(p.expr, ids), p.language, p.corruptions, p.quality)
            for p in shapes
        ]
        samples.append(Sample(inputs=tuple(inputs), reference=reference))
    return TaskSpec(
        id=task_id,
        description=describe(category, chains, builder),
        category=category,
        input_signature=signature,
        output_modality=out_modality,
        corruption_chains=chains,
        reference_builder=builder,
        metric_slot=assign_slot(builder, out_modality),
        dataset=tuple(samples),
    )


_CATEGORY_ORDER: tuple[tuple[TaskCategory, str, str], ...] = (
    (TaskCategory.IMAGE_TO_IMAGE, "ii", "image_image"),
    (TaskCategory.IMAGE_TO_TEXT, "it", "image_text"),
    (TaskCategory.TEXT_TO_IMAGE, "ti", "text_image"),
    (TaskCategory.TEXT_TO_TEXT, "tt", "text_text"),
    (TaskCategory.IMAGE_TEXT_TO_TEXT, "itt", "image_text_text"),
    (TaskCategory.TEXT_TEXT_TO_TEXT, "ttt", "text_text_text"),
)


def generate_catalog(
    cfg: CatalogConfig, constants: SimConstants = DEFAULT_CONSTANTS
) -> tuple[TaskSpec, ...]:
    """Deterministic catalog: same config, same tasks, byte for byte."""
    rng = random.Random(cfg.seed)
    counter = itertools.count()
    tasks: list[TaskSpec] = []
    for category, prefix, field_name in _CATEGORY_ORDER:
        count = getattr(cfg, field_name)
        space = category_space(category, cfg)
        if count > len(space):
            raise InfeasibleCount(
                f"{category.value} offers {len(space)} distinct tasks, {count} requested"
            )
        picks = sorted(rng.sample(range(len(space)), count))
        for position, index in enumerate(picks):
            chains, builder = space[index]
            tasks.append(
                build_task(
                    task_id=f"{prefix}-{position:03d}",
                    category=category,
                    chains=chains,
                    builder=builder,
                    samples_per_task=cfg.samples_per_task,
                    constants=constants,
                    content_counter=counter,
                )
            )
    return tuple(tasks)


def catalog_from_json(docs: list[dict]) -> tuple[TaskSpec, ...]:
    """The tasks of a catalog document. Task ids must be unique."""
    with reading("catalog"):
        if not isinstance(docs, list):
            raise TypeError(f"catalog must be a JSON list, got {type(docs).__name__}")
        tasks = tuple(task_from_json(doc) for doc in docs)
        seen: set[str] = set()
        for task in tasks:
            if task.id in seen:
                raise ValueError(f"duplicate task id {task.id!r}")
            seen.add(task.id)
        return tasks


def split_train_test(
    catalog: tuple[TaskSpec, ...] | list[TaskSpec], seed: int
) -> tuple[tuple[TaskSpec, ...], tuple[TaskSpec, ...], tuple[TaskSpec, ...]]:
    """Stratified 10/10/80 split; sizes round half up per category."""
    rng = random.Random(seed)
    train: list[TaskSpec] = []
    test: list[TaskSpec] = []
    rest: list[TaskSpec] = []
    for category in TaskCategory:
        group = [t for t in catalog if t.category is category]
        if not group:
            continue
        shuffled = group[:]
        rng.shuffle(shuffled)
        n = int(len(group) * 0.1 + 0.5)
        train.extend(shuffled[:n])
        test.extend(shuffled[n : 2 * n])
        rest.extend(shuffled[2 * n :])
    return tuple(train), tuple(test), tuple(rest)


def required_oracle_depth(task: TaskSpec) -> int:
    """Tight per-branch depth at which the task's intended plan exists."""
    if len(task.input_signature) == 1:
        return max(1, len(task.corruption_chains[0]) + len(task.reference_builder))
    return max(
        1,
        max(len(chain) for chain in task.corruption_chains),
        len(task.reference_builder) - 1,
    )


@dataclass(frozen=True, slots=True)
class OracleResult:
    best_plan: PlanGraph
    best_reward: float
    plans_examined: int
    best_steps: list[ReplayStep] | None


def _plan(
    heads: tuple[tuple[int, tuple[str, ...]], ...], join: str | None, tail: tuple[str, ...]
) -> PlanGraph:
    """Each (task input, tool names) chain of heads, the join of their
    ends if join is given, then the tail's tools on the one end left."""
    nodes: list[PlanNode] = []

    def chain(names: tuple[str, ...], end: TaskInput | NodeOutput) -> TaskInput | NodeOutput:
        for name in names:
            nodes.append(PlanNode(len(nodes), name, (end,)))
            end = NodeOutput(len(nodes) - 1)
        return end

    ends = tuple(chain(names, TaskInput(i)) for i, names in heads)
    if join is not None:
        nodes.append(PlanNode(len(nodes), join, ends))
        ends = (NodeOutput(len(nodes) - 1),)
    chain(tail, ends[0])
    return PlanGraph(tuple(nodes), nodes[-1].id)


# What the oracle carries of a payload: everything but its expr and
# quality, which the dynamics table shows it need not carry.
Shape = tuple[Modality, Language, Chain]
# A tool chain as the oracle walks it: tool names, output modality,
# output shape (None if a step raises), wrap ops, quality factors.
ToolChain = tuple[tuple[str, ...], Modality, Shape | None, tuple[str, ...], tuple[float, ...]]

_PLACEHOLDER = "_"


def _shape(payload: Payload) -> Shape:
    return payload.modality, payload.language, payload.corruptions


class _DynamicsTable(dict):
    """The oracle's tool-dynamics table: (tool semantic, input shapes) ->
    (output shape, quality factor, wrap op or None), or None where the
    tool raises. One table lives for one `oracle_best_plan` call.

    Each entry is filled on first lookup by one `apply_tool` run on
    quality-1.0 placeholder leaves of the input shapes. By expr
    equivariance (see `apply_tool`) it holds for inputs with any exprs
    and qualities: the output keeps the input expr or wraps the input
    exprs in the op, and its quality is ``q * factor`` on one input of
    quality ``q`` and ``(q0 * q1) * factor`` on a join.
    """

    def __init__(self, constants: SimConstants) -> None:
        super().__init__()
        self.constants = constants

    def __missing__(self, key: tuple[SemanticId, tuple[Shape, ...]]):
        semantic, shapes = key
        leaves = tuple(Payload(m, _PLACEHOLDER, lang, stack) for m, lang, stack in shapes)
        try:
            out = apply_tool(semantic, leaves, self.constants)
        except EngineError:
            entry = None
        else:
            op = None if out.expr == _PLACEHOLDER else out.expr[0]
            entry = _shape(out), out.quality, op
        self[key] = entry
        return entry


def _enumerate_chains(
    arity1: list[ToolSpec],
    start_modality: Modality,
    start_shape: Shape | None,
    max_depth: int,
    table: _DynamicsTable,
    target: Modality | None = None,
) -> list[ToolChain]:
    """All duplicate-free single-input tool chains up to the depth from a
    start of the given modality and shape, as (tool names, output
    modality, output shape, wrap ops, quality factors). Given a
    ``target`` modality, chains of length ``max_depth`` that end off it
    are left out: nothing can extend them onto the target.

    Each step is one lookup in the dynamics ``table``. The ops are the
    wrap ops of the chain's steps in order, so its output expr is the
    start expr wrapped in them, and its labels are the start's labels
    plus the ops. Each step's factor is the quality it leaves on a
    quality-1.0 input, so the output quality on a start of quality
    ``q`` is ``scale_quality(q, factors)``. The list depends only on
    the start's modality and shape. A chain that raises, and every
    chain from a start shape of None (a join that raised), carries
    shape None and scores zero, as the executor would.
    """
    found: list[ToolChain] = [((), start_modality, start_shape, (), ())]

    def grow(
        names: tuple[str, ...],
        modality: Modality,
        shape: Shape | None,
        ops: tuple[str, ...],
        factors: tuple[float, ...],
    ) -> None:
        if len(names) == max_depth:
            return
        last = target is not None and len(names) + 1 == max_depth
        for spec in arity1:
            if spec.name in names or spec.inputs[0] is not modality:
                continue
            if last and spec.output is not target:
                continue
            nxt, grown_ops, grown_factors = None, ops, factors
            if shape is not None:
                entry = table[spec.semantic, (shape,)]
                if entry is not None:
                    nxt, factor, op = entry
                    grown_factors = factors + (factor,)
                    if op is not None:
                        grown_ops = ops + (op,)
            grown = names + (spec.name,)
            found.append((grown, spec.output, nxt, grown_ops, grown_factors))
            grow(grown, spec.output, nxt, grown_ops, grown_factors)

    grow((), start_modality, start_shape, (), ())
    return found


def oracle_best_plan(
    task: TaskSpec,
    registry: ToolRegistry,
    max_depth: int,
    constants: SimConstants = DEFAULT_CONSTANTS,
    replayable_only: bool = False,
) -> OracleResult:
    """Exhaustive argmin of (-score, tool count, plan document) over the
    canonical plan family.

    A candidate is a head followed by a tail chain. A one-input task has
    one head: task input 0, with no tools. A two-input task has a head
    per join, input orientation and pair of chains, one chain on each
    input (each up to max_depth): the join of the chains' outputs. A
    head's tails are the duplicate-free tool chains up to max_depth that
    end on the target modality and share no tool with the head. A
    candidate has at least one tool and is scored on the task's first
    sample. Ties on score break toward fewer tools, then toward the
    lexicographically smallest plan document (``json.dumps`` of
    ``plan_to_json`` with sorted keys). With ``replayable_only``, a
    candidate that would become the best is kept only if the decoder
    can replay it, and ``best_steps`` is that replay of the winner;
    without it, ``best_steps`` is None.

    The search never builds a payload. Chains walk a tool-dynamics
    table local to the call (see `_DynamicsTable`), so each tool runs
    once per distinct input shape, and carry their wrap ops and quality
    factors (see `_enumerate_chains`). Tails are enumerated once per
    head (output modality, shape) and shared by every head of that
    shape. A joined quality is ``(q0 * q1) * factor``, the order
    `apply_tool` multiplies in.

    The structure term comes from label counts: the reference labels
    are counted down once over the start exprs, once more per head over
    its ops (its head chains' ops and join op), and then over each
    distinct tail's ops. These are the integers `structure_similarity`
    divides, so a candidate's score at head quality ``q`` is
    `chain_similarity` of its content term, ``q`` and its tail's
    factors, the same float as `similarity` of the executed output.

    Only candidates that can still win or tie are scored. A candidate
    scores ``content * (scale_quality(q, factors) * gamma ** r)``, and
    the content term, every factor and ``gamma`` lie in [0, 1]. A float
    multiplied by a value in [0, 1] never rounds above itself, so no
    candidate scores above its head's quality ``q``, 0.0 if the join
    raises. When that is strictly below the best score so far, no tail
    of the head can win or tie, and none is scored. ``plans_examined``
    still counts every candidate of the family: such a head adds the
    number of its tails that share no tool with it, counted once per
    head shape and set of the head's tools that those tails use. The
    one-input head comes first, so it is always scored. Under
    ``replayable_only`` the best score is the best replayable one, so
    the bound skips nothing that could be kept. The winner is the argmin
    of a total order, so the order in which heads are visited (grouped
    by output shape) does not change it. The plan graph and its document
    are built only for a candidate whose score and tool count tie or
    beat the current best.
    """
    if len(task.input_signature) > 2:
        raise ValueError("oracle handles one or two task inputs")
    if not task.dataset:
        raise ValueError("oracle needs at least one sample")
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    sample = task.dataset[0]
    reference = sample.reference
    target = task.output_modality
    arity1 = [spec for spec in registry if len(spec.inputs) == 1]
    table = _DynamicsTable(constants)
    # The start exprs' labels, counted down once: a candidate's labels are
    # these plus its head's ops and its tail's ops.
    root = label_countdown(expr_labels(reference.expr), *(start.expr for start in sample.inputs))
    # (head output modality, head shape) -> that key; (names, name set,
    # factors, index into the ops list, language term, residuals) of each
    # tail that ends on the target, factors None if it raises; the ops
    # list, each distinct tail ops tuple once; the union of the tool sets
    tail_memo: dict[tuple, tuple] = {}
    # (that key, the head's ops) -> structure term of each distinct tail
    # ops tuple on that head
    struct_memo: dict[tuple, list[float]] = {}
    # (that key, the head's tools that some tail uses) -> how many of the
    # key's tails are disjoint from those tools
    count_memo: dict[tuple, int] = {}
    examined = 0
    # Every score is >= 0, so the first candidate always becomes the best.
    best_score, best_len = -1.0, 0
    best_plan: PlanGraph | None = None
    best_doc: str | None = None
    best_steps: list[ReplayStep] | None = None

    def tails_from(modality: Modality, shape: Shape | None) -> tuple:
        key = (modality, shape)
        found = tail_memo.get(key)
        if found is None:
            tails, index = [], {}
            for names, end, out, ops, factors in _enumerate_chains(
                arity1, modality, shape, max_depth, table, target
            ):
                if end is not target:
                    continue
                if out is None:
                    tails.append((names, frozenset(names), None, 0, 0.0, 0))
                    continue
                tails.append((
                    names,
                    frozenset(names),
                    factors,
                    index.setdefault(ops, len(index)),
                    language_term(out[1], reference.language, constants),
                    len(out[2]),
                ))
            tools = frozenset().union(*(tail[1] for tail in tails))
            found = tail_memo[key] = key, tails, list(index), tools
        return found

    def score(found, quality, ops, used, head_len, heads, join) -> None:
        """Every candidate of a head: its tails from `tails_from`, its
        quality, ops (None if its join raises), tool set and node count,
        and the `_plan` heads and join that build it."""
        nonlocal examined, best_score, best_len, best_plan, best_doc, best_steps
        key, tails, distinct_ops, tools = found
        if quality < best_score:
            # No tail scores above the head's quality: count them only.
            clash = used & tools
            count = count_memo.get((key, clash))
            if count is None:
                count = count_memo[key, clash] = sum(
                    1 for tail in tails if clash.isdisjoint(tail[1])
                )
            examined += count
            return
        structs = ()
        if ops is not None:
            structs = struct_memo.get((key, ops))
            if structs is None:
                head = count_down(root, ops)
                structs = struct_memo[key, ops] = [
                    countdown_structure(count_down(head, tail_ops)) for tail_ops in distinct_ops
                ]
        for tail, tail_set, factors, k, w_lang, residuals in tails:
            n_nodes = head_len + len(tail)
            if not (n_nodes and used.isdisjoint(tail_set)):
                continue
            examined += 1
            value = 0.0 if factors is None else chain_similarity(
                structs[k] * w_lang, quality, factors, residuals, constants
            )
            if value < best_score or (value == best_score and n_nodes > best_len):
                continue
            plan = _plan(heads, join, tail)
            doc = None
            if value == best_score and n_nodes == best_len:
                doc = json.dumps(plan_to_json(plan), sort_keys=True)
                if best_doc is None:
                    best_doc = json.dumps(plan_to_json(best_plan), sort_keys=True)
                if doc >= best_doc:
                    continue
            steps = None
            if replayable_only:
                try:
                    steps = replay_steps(plan, task, registry)
                except InvalidPlan:
                    continue
            best_score, best_len, best_plan, best_doc, best_steps = value, n_nodes, plan, doc, steps

    if len(task.input_signature) == 1:
        start = sample.inputs[0]
        found = tails_from(task.input_signature[0], _shape(start))
        score(found, start.quality, (), frozenset(), 0, ((0, ()),), None)
    else:
        joins = [spec for spec in registry if len(spec.inputs) == 2]
        # Each input's chains by (output modality, output shape), as the
        # `_plan` chain, tool set, ops and quality each leaves on that input.
        per_input = []
        for i in range(2):
            start = sample.inputs[i]
            groups: dict[tuple, list] = {}
            for names, modality, shape, ops, factors in _enumerate_chains(
                arity1, task.input_signature[i], _shape(start), max_depth, table
            ):
                groups.setdefault((modality, shape), []).append(
                    ((i, names), frozenset(names), ops, scale_quality(start.quality, factors))
                )
            per_input.append(groups)
        for (a, b), join in itertools.product(((0, 1), (1, 0)), joins):
            join_set = frozenset((join.name,))
            for (mod0, shape0), heads0 in per_input[a].items():
                for (mod1, shape1), heads1 in per_input[b].items():
                    if mod0 is not join.inputs[0] or mod1 is not join.inputs[1]:
                        continue
                    entry = None
                    if shape0 is not None and shape1 is not None:
                        entry = table[join.semantic, (shape0, shape1)]
                    found = tails_from(join.output, None if entry is None else entry[0])
                    for (chain0, set0, ops0, q0), (chain1, set1, ops1, q1) in itertools.product(
                        heads0, heads1
                    ):
                        used = set0 | set1 | join_set
                        head_len = len(used)
                        if head_len != len(set0) + len(set1) + 1:
                            continue
                        quality, ops = 0.0, None
                        if entry is not None:
                            quality, ops = (q0 * q1) * entry[1], ops0 + ops1 + (entry[2],)
                        score(found, quality, ops, used, head_len, (chain0, chain1), join.name)

    if best_plan is None:
        raise NoFeasiblePlan(f"no plan reaches {target.value} for {task.id}")
    reward = task_reward(best_plan, task, registry, constants)
    return OracleResult(
        best_plan=best_plan, best_reward=reward, plans_examined=examined, best_steps=best_steps
    )
