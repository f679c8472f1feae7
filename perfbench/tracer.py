"""Outside-in tracer for planforge's public functions.

The tracer changes no program code. It wraps each traced function and
rebinds every ``planforge.*`` module attribute that refers to it, so a
call reached through a ``from .simkit import apply_tool`` copy in another
module is recorded too. Spans (name, start, end, parent span) are kept in
compact in-memory arrays for one run and written out when the run ends;
the per-layer metrics are computed from the written spans alone.

A traced name that no longer exists is reported as absent, and a name
that has become an alias of another traced function is reported as
merged; neither stops the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "planforge"

# Module -> public functions wrapped in a traced run. decode_nonlinear,
# sample_plans and sample_score are candidates for removal; they stay
# here so their absence is reported instead of silently moving their
# time into a caller's self time.
TRACED: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("benchgen", ("catalog_from_json", "oracle_best_plan")),
    ("simkit", ("apply_tool", "similarity")),
    ("executor", ("execute", "execute_task", "sample_score")),
    ("evalkit", ("evaluate", "task_reward")),
    (
        "decoder",
        (
            "decode",
            "decode_nonlinear",
            "beam_search",
            "sample_plan",
            "sample_plans",
            "initial_state",
            "step_frontier",
            "apply_action",
            "replay_steps",
            "expected_action",
        ),
    ),
    ("plan_ir", ("validate_plan", "plan_hash")),
    (
        "policy",
        ("score_tokens", "log_prob", "grad_log_prob", "apply_gradient", "pretrain_supervised"),
    ),
    ("rltf", ("gold_plans", "train", "reinforce_step")),
    ("cli", ("main",)),
)

# Span status codes.
RETURNED = 0
RETURNED_NONE = 1
RAISED_ENGINE_ERROR = 2
RAISED_OTHER = 3

# Which parent span a decoder dead end is charged to.
DEAD_END_PARENTS = {
    "decoder.beam_search": "beam",
    "decoder.sample_plan": "sample",
    "decoder.replay_steps": "replay",
}


def package_modules() -> list:
    """The package and every submodule, except ``__main__``, which runs the CLI."""
    root = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(root.__path__):
        if info.name != "__main__":
            importlib.import_module(f"{PACKAGE}.{info.name}")
    return [
        module
        for name, module in sorted(sys.modules.items())
        if (name == PACKAGE or name.startswith(PACKAGE + ".")) and name != f"{PACKAGE}.__main__"
    ]


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self, run_id: str, traced=TRACED) -> None:
        self.run_id = run_id
        self.traced = traced
        self.names: list[str] = []
        self.absent: list[str] = []
        self.merged: dict[str, str] = {}
        self.name_ids = array("H")
        self.parents = array("q")
        self.status = array("b")
        self.starts = array("d")
        self.ends = array("d")
        # span index -> observation from a return value or the arguments
        self.attrs: dict[int, object] = {}
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        from planforge.errors import EngineError

        modules = package_modules()
        by_name = {module.__name__: module for module in modules}
        # id(original) -> (qualname, original, wrapper)
        wrapped: dict[int, tuple[str, object, object]] = {}
        for short, functions in self.traced:
            module = by_name.get(f"{PACKAGE}.{short}")
            for function in functions:
                qualname = f"{short}.{function}"
                original = getattr(module, function, None)
                if not callable(original):
                    self.absent.append(qualname)
                elif id(original) in wrapped:
                    self.merged[qualname] = wrapped[id(original)][0]
                else:
                    wrapper = self._wrap(qualname, original, EngineError)
                    wrapped[id(original)] = (qualname, original, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrapped.get(id(value))
                if entry is not None and value is entry[1]:
                    setattr(module, attr, entry[2])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, qualname: str, fn, engine_error: type):
        name_id = len(self.names)
        self.names.append(qualname)
        observe = _OBSERVERS.get(qualname)
        signature = inspect.signature(fn) if observe is not None else None
        stack, attrs = self._stack, self.attrs
        name_ids, parents, status = self.name_ids, self.parents, self.status
        starts, ends = self.starts, self.ends
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            status.append(RETURNED)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                stack.pop()
                status[index] = RAISED_ENGINE_ERROR if isinstance(exc, engine_error) else RAISED_OTHER
                raise
            ends[index] = clock()
            stack.pop()
            if result is None:
                status[index] = RETURNED_NONE
            if observe is not None:
                seen = observe(signature.bind(*args, **kwargs).arguments, result)
                if seen is not None:
                    attrs[index] = seen
            return result

        return traced

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the raw span arrays."""
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "absent": self.absent,
            "merged": self.merged,
            "count": len(self.starts),
            "attrs": sorted(self.attrs.items()),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.status, self.starts, self.ends):
                column.tofile(handle)


def _observe_oracle(arguments, result):
    return result.plans_examined


def _observe_execute(arguments, result):
    return None if result.error is None else result.error.kind


def _observe_execute_task(arguments, result):
    return 1 if len({score for _, score in result}) == 1 else None


def _observe_task_reward(arguments, result):
    from planforge import plan_ir

    # The unwrapped plan_hash, so that observing records no span.
    plan_hash = getattr(plan_ir.plan_hash, "__wrapped__", plan_ir.plan_hash)
    return [arguments["task"].id, plan_hash(arguments["plan"])]


def _observe_validate_plan(arguments, result):
    return None if result.ok else 1


# Observations taken from a call's arguments or return value, kept per span.
_OBSERVERS = {
    "benchgen.oracle_best_plan": _observe_oracle,
    "executor.execute": _observe_execute,
    "executor.execute_task": _observe_execute_task,
    "evalkit.task_reward": _observe_task_reward,
    "plan_ir.validate_plan": _observe_validate_plan,
}


class Spans:
    """Spans read back from a file written by ``Tracer.write``."""

    def __init__(self, path: Path) -> None:
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            count = header["count"]
            columns = []
            for code in ("H", "q", "b", "d", "d"):
                column = array(code)
                column.fromfile(handle, count)
                columns.append(column)
        self.run_id = header["run_id"]
        self.names = header["names"]
        self.absent = header["absent"]
        self.merged = header["merged"]
        self.attrs = {index: value for index, value in header["attrs"]}
        self.name_ids, self.parents, self.status, self.starts, self.ends = columns

    def __len__(self) -> int:
        return len(self.starts)


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-function counts and self times plus the derived layer counters.

    Self time is a span's duration minus the durations of its child
    spans; children of one span never overlap because the program is
    single-threaded.
    """
    n = len(spans)
    names, parents, status = spans.name_ids, spans.parents, spans.status
    starts, ends = spans.starts, spans.ends
    durations = [ends[i] - starts[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        parent = parents[i]
        if parent >= 0:
            covered[parent] += durations[i]

    labels = spans.names
    calls = [0] * len(labels)
    self_s = [0.0] * len(labels)
    raised = [0] * len(labels)
    engine_errors = [0] * len(labels)
    for i in range(n):
        k = names[i]
        calls[k] += 1
        self_s[k] += durations[i] - covered[i]
        if status[i] in (RAISED_ENGINE_ERROR, RAISED_OTHER):
            raised[k] += 1
            engine_errors[k] += status[i] == RAISED_ENGINE_ERROR

    metrics: dict[str, float] = {}
    for k, label in enumerate(labels):
        metrics[f"{label}.calls"] = calls[k]
        metrics[f"{label}.self_s"] = self_s[k]
        metrics[f"{label}.raises"] = raised[k]
        metrics[f"{label}.errors"] = engine_errors[k]

    def ancestors(i: int):
        parent = parents[i]
        while parent >= 0:
            yield labels[names[parent]]
            parent = parents[parent]

    label_of = [labels[names[i]] for i in range(n)]
    dead_ends = {kind: 0 for kind in DEAD_END_PARENTS.values()}
    all_dead_ends = episodes = rollouts = 0
    for i in range(n):
        label = label_of[i]
        parent = parents[i]
        parent_label = label_of[parent] if parent >= 0 else None
        if label == "decoder.step_frontier" and status[i] == RETURNED_NONE:
            all_dead_ends += 1
            kind = DEAD_END_PARENTS.get(parent_label)
            if kind is not None:
                dead_ends[kind] += 1
        elif label == "decoder.initial_state" and parent_label == "decoder.sample_plan":
            episodes += 1
        elif label == "decoder.sample_plan" and status[i] == RETURNED:
            if "rltf.train" in ancestors(i):
                rollouts += 1

    metrics["decoder.step_frontier.dead_ends"] = all_dead_ends
    for kind, count in dead_ends.items():
        metrics[f"decoder.step_frontier.dead_ends.{kind}"] = count
    metrics["decoder.sample_plan.episodes"] = episodes
    sampled = metrics.get("decoder.sample_plan.calls", 0)
    metrics["decoder.sample_plan.yield"] = sampled / episodes if episodes else 0.0
    metrics["rltf.rollouts"] = rollouts

    examined = 0
    error_kinds: dict[str, int] = {}
    uniform = rejects = 0
    distinct: set[tuple[str, str]] = set()
    for index, value in spans.attrs.items():
        label = label_of[index]
        if label == "benchgen.oracle_best_plan":
            examined += value
        elif label == "executor.execute":
            error_kinds[value] = error_kinds.get(value, 0) + 1
        elif label == "executor.execute_task":
            uniform += 1
        elif label == "evalkit.task_reward":
            distinct.add(tuple(value))
        elif label == "plan_ir.validate_plan":
            rejects += 1
    metrics["benchgen.oracle.plans_examined"] = examined
    # execute reports a failed tool in its trace instead of raising.
    metrics["executor.execute.errors"] = sum(error_kinds.values())
    for kind, count in error_kinds.items():
        metrics[f"executor.execute.errors.{kind}"] = count
    metrics["executor.execute_task.uniform"] = uniform
    metrics["evalkit.task_reward.distinct"] = len(distinct)
    metrics["plan_ir.validate_plan.rejects"] = rejects
    return metrics
