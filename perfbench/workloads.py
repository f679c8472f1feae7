"""Benchmark workloads: the inputs each one generates and the output checks.

Each workload is one CLI subcommand run on a catalog that the CLI's own
``gen`` builds from the workload's engine config and the benchmark seed,
optionally trimmed to two-input tasks of one oracle depth. The checks
read the artefacts the command wrote, its config and its catalog.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Callable


@dataclass
class Outcome:
    """What one run of a workload produced, as the output checks see it.

    ``failed`` counts operations that failed a check or were reported
    unsolved; ``problems`` lists only the failed checks, which make the
    run's output incorrect.
    """

    attempted: int = 0
    failed: int = 0
    reward_mean: float = 0.0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    command: tuple[str, ...]
    artefacts: tuple[str, ...]
    check: Callable[[Path, Path, Path], Outcome]
    # Two-input category -> how many of its generated tasks to keep, all
    # of tight oracle depth 2. Empty: the generated catalog is used as is.
    depth2_tasks: dict[str, int] = field(default_factory=dict)

    def argv(self, config: Path, seed: int, out: Path, catalog: Path) -> list[str]:
        head = ["--config", str(config), "--seed", str(seed), "--out", str(out)]
        return head + [str(catalog) if arg == "{catalog}" else arg for arg in self.command]


def trim_catalog(path: Path, keep: dict[str, int]) -> None:
    """Keep, in each listed category, the first tasks of tight oracle depth 2.

    A two-input task's oracle cost is set by its tight depth: about 14k
    plans at depth 2 against 250 at depth 1 for image+text tasks. Fixing
    the depth keeps a workload's cost the same from seed to seed while
    the seed still picks the tasks.
    """
    from planforge.benchgen import required_oracle_depth
    from planforge.plan_ir import task_from_json

    kept, seen = [], Counter()
    for doc in json.loads(path.read_text(encoding="utf-8")):
        category = doc["category"]
        if category in keep:
            if seen[category] == keep[category] or required_oracle_depth(task_from_json(doc)) != 2:
                continue
            seen[category] += 1
        kept.append(doc)
    short = {category: n for category, n in keep.items() if seen[category] < n}
    if short:
        raise ValueError(f"too few depth-2 tasks generated: {short}")
    path.write_text(json.dumps(kept, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def digests(out: Path, names: tuple[str, ...]) -> dict[str, str]:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() if (out / name).is_file() else "missing"
        for name in names
    }


def _data_rows(path: Path) -> list[dict]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _load(config: Path, catalog: Path):
    from planforge.benchgen import catalog_from_json
    from planforge.config import load_config
    from planforge.registry import default_registry

    cfg = load_config(str(config))
    tasks = catalog_from_json(json.loads(catalog.read_text(encoding="utf-8")))
    return cfg, tasks, default_registry()


def check_oracle(out: Path, config: Path, catalog: Path) -> Outcome:
    """Every best plan validates for its task and re-executes to its reward."""
    from planforge.executor import execute_task
    from planforge.plan_ir import plan_from_json, validate_plan

    cfg, tasks, registry = _load(config, catalog)
    rows = {row["task_id"]: row for row in _data_rows(out / "oracle.csv")}
    plans = json.loads((out / "oracle_plans.json").read_text(encoding="utf-8"))["plans"]
    outcome = Outcome()
    rewards = []
    for task in tasks:
        outcome.attempted += 1
        row = rows.get(task.id)
        if row is None or task.id not in plans:
            outcome.fail(f"{task.id}: no oracle result")
            continue
        rewards.append(float(row["best_reward"]))
        plan = plan_from_json(plans[task.id])
        if not validate_plan(plan, registry, task.input_signature, task.output_modality).ok:
            outcome.fail(f"{task.id}: oracle plan does not validate")
            continue
        reward = fmean(score for _, score in execute_task(plan, task, registry, cfg.sim))
        if f"{reward:.6f}" != row["best_reward"]:
            outcome.fail(f"{task.id}: plan re-executes to {reward:.6f}, reported {row['best_reward']}")
    outcome.reward_mean = fmean(rewards) if rewards else 0.0
    return outcome


def check_eval(out: Path, config: Path, catalog: Path) -> Outcome:
    """One reward in [0, 1] per task; unsolved tasks count as failed."""
    _, tasks, _ = _load(config, catalog)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))["report"]
    rewards = {entry["task_id"]: entry["reward"] for entry in report["per_task"]}
    unsolved = set(report["failures"])
    outcome = Outcome(reward_mean=report["overall"])
    for task in tasks:
        outcome.attempted += 1
        reward = rewards.get(task.id)
        if reward is None or not 0.0 <= reward <= 1.0:
            outcome.fail(f"{task.id}: reward {reward!r} outside [0, 1]")
        elif task.id in unsolved:
            outcome.failed += 1
    if not 0.0 <= outcome.reward_mean <= 1.0:
        outcome.fail(f"overall {outcome.reward_mean!r} outside [0, 1]")
    return outcome


def check_train(out: Path, config: Path, catalog: Path) -> Outcome:
    """One history row per configured epoch and a loadable checkpoint."""
    from planforge.policy import params_from_json

    cfg, _, _ = _load(config, catalog)
    rows = _data_rows(out / "history.csv")
    outcome = Outcome(attempted=cfg.train.epochs)
    if [int(row["epoch"]) for row in rows] != list(range(cfg.train.epochs)):
        outcome.fail(f"history has {len(rows)} rows for {cfg.train.epochs} epochs")
    for row in rows:
        if not 0.0 <= float(row["mean_reward"]) <= 1.0:
            outcome.fail(f"epoch {row['epoch']}: mean reward {row['mean_reward']} outside [0, 1]")
    outcome.reward_mean = float(rows[-1]["mean_reward"]) if rows else 0.0
    params_from_json(json.loads((out / "checkpoint.json").read_text(encoding="utf-8")))
    return outcome


# Two-input catalogs are generated with more tasks than are kept: the
# image+text and text+text category spaces hold 44 and 20 tasks of tight
# depth 1, so 44 and 20 extra always leave enough tasks of depth 2.
WORKLOADS = {
    w.name: w
    for w in (
        # The oracle dominates the pipeline. This runs benchgen and simkit
        # and never the decoder, policy or rltf, so it is the no-change
        # control for changes to those. About a sixth of the stock catalog,
        # keeping its mix of one-input to two-input tasks (19:11 here,
        # 117:68 in stock).
        Workload(
            name="oracle-sweep",
            config={
                "catalog": {
                    "image_image": 7,
                    "image_text": 4,
                    "text_image": 4,
                    "text_text": 4,
                    "image_text_text": 6 + 44,
                    "text_text_text": 5 + 20,
                }
            },
            depth2_tasks={"image_text_to_text": 6, "text_text_to_text": 5},
            command=("oracle", "--catalog", "{catalog}"),
            artefacts=("oracle.csv", "oracle_plans.json"),
            check=check_oracle,
        ),
        # Beam search, policy scoring and plan_ir dominate; the oracle never
        # runs and the executor scores one plan per task. The stock-size
        # catalog is used as generated: its cost varies little by seed.
        Workload(
            name="decode-eval",
            config={"decoder": {"beam_size": 30}},
            command=("eval", "--catalog", "{catalog}"),
            artefacts=("report.json",),
            check=check_eval,
        ),
        # The same layers used differently: sampling and replay instead of
        # beam search, the oracle's lazy-replay path for gold plans, and
        # repeated execution of the same sampled plans. Stock counts, so the
        # train split holds 17 tasks.
        Workload(
            name="rltf-train",
            config={
                "catalog": {"image_text_text": 34 + 44, "text_text_text": 34 + 20},
                "train": {"epochs": 12, "pretrain_epochs": 150},
            },
            depth2_tasks={"image_text_to_text": 34, "text_text_to_text": 34},
            command=("train", "--catalog", "{catalog}"),
            artefacts=("checkpoint.json", "history.csv"),
            check=check_train,
        ),
    )
}
