"""Batch command-line interface.

Every subcommand reads and writes files under one output directory and
is deterministic: the same config and inputs produce byte-identical
outputs, so reruns are diffable. JSON reports embed a manifest object;
CSV files carry it as a leading comment line; the catalog, which is a
bare JSON array, gets a manifest.json sidecar instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from statistics import fmean

from . import __version__
from .benchgen import (
    catalog_from_json,
    generate_catalog,
    oracle_best_plan,
    required_oracle_depth,
    split_train_test,
)
from .config import EngineConfig, config_sha256, load_config
from .decoder import beam_search
from .errors import EngineError
from .evalkit import comparison_to_csv, evaluate, report_to_json
from .executor import execute_task, trace_record
from .parser import extract_sequence
from .plan_ir import TaskSpec, plan_from_json, plan_to_json, sample_to_json, task_to_json, validate_plan
from .policy import PolicyParams, TabularPolicy, params_from_json, params_to_json
from .registry import default_registry, registry_from_json
from .rltf import fit, run_schema_comparison
from .simkit import serialize_expr


def _manifest(cfg: EngineConfig, command: str, seed: int | None) -> dict:
    return {
        "version": __version__,
        "command": command,
        "config_sha256": config_sha256(cfg),
        "seed": seed,
    }


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _json_array(texts: list[str]) -> str:
    """``_dumps`` of a list, assembled from the ``_dumps`` of its items."""
    if not texts:
        return "[]"
    return "[\n" + ",\n".join("  " + text.replace("\n", "\n  ") for text in texts) + "\n]"


def _task_text(task: TaskSpec) -> str:
    """``_dumps(task_to_json(task))``, each sample written from a template
    keyed by its payloads' shapes and quality types (1 and 1.0 encode
    differently), with null where the exprs go: every other value there is
    a number or a quoted enum value. Quotes in strings are escaped, so
    ``"dataset": [`` occurs once in the dump of the other fields."""
    head, tail = _dumps(task_to_json(replace(task, dataset=()))).split('"dataset": [')
    parts, templates = [head, '"dataset": ['], {}
    for i, sample in enumerate(task.dataset):
        payloads = (*sample.inputs, sample.reference)
        key = tuple((p.modality, p.language, p.corruptions, p.quality, type(p.quality)) for p in payloads)
        pieces = templates.get(key)
        if pieces is None:
            doc = sample_to_json(sample)
            for payload_doc in (*doc["inputs"], doc["reference"]):
                payload_doc["expr"] = None
            pieces = templates[key] = _dumps(doc).replace("\n", "\n    ").split("null")
        parts.append(",\n    " if i else "\n    ")
        for piece, payload in zip(pieces, payloads):
            parts += (piece, encode_basestring_ascii(serialize_expr(payload.expr)))
        parts.append(pieces[-1])
    parts += ("\n  " if task.dataset else "", tail)
    return "".join(parts)


def _write_json(path: Path, doc) -> None:
    """Write the document as ``_dumps`` formats it, but as strict JSON: a NaN
    or infinity in it is an EngineError and nothing is written."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise EngineError(f"cannot write {path}: {exc}") from exc
    _write_text(path, text + "\n")


def _write_text(path: Path, text: str) -> None:
    """Write an output file; a path that cannot be created or written is an EngineError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise EngineError(f"cannot write {path}: {exc}") from exc


def _read_text(path: str, what: str) -> str:
    """Read an input file; a missing, unreadable or non-UTF-8 one is an EngineError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise EngineError(f"cannot read {what} {path}: {exc}") from exc


def _read_json(path: str, what: str):
    """Parse an input file; a missing, unreadable, non-JSON or too deeply
    nested one is an EngineError."""
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise EngineError(f"{what} {path} is not valid JSON: {exc}") from exc


def _load_registry(cfg: EngineConfig):
    if cfg.registry == "default":
        return default_registry()
    return registry_from_json(_read_json(cfg.registry, "registry"))


def _load_catalog(path: str) -> tuple[TaskSpec, ...]:
    return catalog_from_json(_read_json(path, "catalog"))


def _select_tasks(args, cfg: EngineConfig) -> tuple[TaskSpec, ...]:
    catalog = _load_catalog(args.catalog)
    if getattr(args, "task", None):
        chosen = tuple(t for t in catalog if t.id == args.task)
        if not chosen:
            raise EngineError(f"no task named {args.task} in {args.catalog}")
        return chosen
    split = getattr(args, "split", "all")
    if split == "all":
        return catalog
    train_tasks, test_tasks, _ = split_train_test(catalog, cfg.train.seed)
    return train_tasks if split == "train" else test_tasks


def _load_policy(args) -> TabularPolicy:
    checkpoint = getattr(args, "checkpoint", None)
    if not checkpoint:
        return TabularPolicy(PolicyParams())
    return TabularPolicy(params_from_json(_read_json(checkpoint, "checkpoint")))


def _cmd_gen(args, cfg: EngineConfig) -> int:
    out = Path(args.out or cfg.out_dir)
    catalog = generate_catalog(cfg.catalog, cfg.sim)
    # Each task is encoded once; catalog.json is assembled from the same strings.
    texts = [_task_text(task) for task in catalog]
    _write_text(out / "catalog.json", _json_array(texts) + "\n")
    _write_json(out / "manifest.json", _manifest(cfg, "gen", cfg.catalog.seed))
    for task, text in zip(catalog, texts):
        _write_text(out / "tasks" / f"{task.id}.json", text + "\n")
    print(f"wrote {len(catalog)} tasks to {out / 'catalog.json'}")
    return 0


def _cmd_oracle(args, cfg: EngineConfig) -> int:
    if args.max_depth < 0:
        raise EngineError(f"--max-depth must be >= 0, got {args.max_depth}")
    out = Path(args.out or cfg.out_dir)
    registry = _load_registry(cfg)
    tasks = _select_tasks(args, cfg)
    rows = []
    plans = {}
    for task in tasks:
        depth = args.max_depth or required_oracle_depth(task)
        result = oracle_best_plan(task, registry, depth, cfg.sim)
        rows.append((task.id, depth, result.best_reward, result.plans_examined))
        plans[task.id] = plan_to_json(result.best_plan)
    manifest = _manifest(cfg, "oracle", None)
    lines = [f"# manifest {json.dumps(manifest, sort_keys=True)}"]
    lines.append("task_id,depth,best_reward,plans_examined")
    for task_id, depth, reward, examined in rows:
        lines.append(f"{task_id},{depth},{reward:.6f},{examined}")
    _write_text(out / "oracle.csv", "\n".join(lines) + "\n")
    _write_json(out / "oracle_plans.json", {"manifest": manifest, "plans": plans})
    print(f"wrote oracle results for {len(rows)} tasks to {out / 'oracle.csv'}")
    return 0


def _cmd_plan(args, cfg: EngineConfig) -> int:
    out = Path(args.out or cfg.out_dir)
    registry = _load_registry(cfg)
    tasks = _select_tasks(args, cfg)
    policy = _load_policy(args)
    plans, lines = {}, []
    for task in tasks:
        top = next(beam_search(policy, task, registry, cfg.decoder))
        plans[task.id] = {"plan": plan_to_json(top.plan), "log_prob": top.log_prob}
        tools = " -> ".join(node.tool for node in top.plan.nodes)
        lines.append(f"{task.id}: {tools}\n")
    # Printed only once plans.json is written, so a failing write prints no plan.
    _write_json(out / "plans.json", {"manifest": _manifest(cfg, "plan", None), "plans": plans})
    sys.stdout.write("".join(lines))
    return 0


def _cmd_exec(args, cfg: EngineConfig) -> int:
    out = Path(args.out or cfg.out_dir)
    registry = _load_registry(cfg)
    tasks = _select_tasks(args, cfg)
    if len(tasks) != 1:
        raise EngineError("exec needs exactly one task; pass --task")
    task = tasks[0]
    plan = plan_from_json(_read_json(args.plan, "plan"))
    report = validate_plan(plan, registry, task.input_signature, task.output_modality)
    if not report.ok:
        violations = [
            {"code": v.code, "node": v.node, "detail": v.detail} for v in report.violations
        ]
        print(json.dumps({"error": {"type": "InvalidPlan", "violations": violations}}), file=sys.stderr)
        return 2
    results = execute_task(plan, task, registry, cfg.sim)
    records = [trace_record(task.id, plan, score, trace) for trace, score in results]
    text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    _write_text(out / "trace.jsonl", text)
    mean = fmean(score for _, score in results)
    print(f"{task.id}: mean score {mean:.6f} over {len(results)} samples")
    return 0


def _cmd_parse(args, cfg: EngineConfig) -> int:
    registry = _load_registry(cfg)
    text = args.text if args.text is not None else _read_text(args.file, "text file")
    result = extract_sequence(text, registry)
    print(
        json.dumps(
            {
                "sequence": list(result.sequence),
                "dropped": [{"text": d.text, "reason": d.reason} for d in result.dropped],
            },
            sort_keys=True,
        )
    )
    return 0


def _write_trained(out: Path, manifest: dict, params: PolicyParams, history) -> None:
    """Write checkpoint.json, then history.csv. The checkpoint goes first:
    a table that overflowed is refused before anything is written."""
    _write_json(out / "checkpoint.json", {"manifest": manifest, **params_to_json(params)})
    lines = [f"# manifest {json.dumps(manifest, sort_keys=True)}"]
    lines.append("epoch,mean_reward,baseline,epsilon")
    for row in history:
        lines.append(f"{row.epoch},{row.mean_reward:.6f},{row.baseline:.6f},{row.epsilon:.6f}")
    _write_text(out / "history.csv", "\n".join(lines) + "\n")


def _cmd_train(args, cfg: EngineConfig) -> int:
    out = Path(args.out or cfg.out_dir)
    registry = _load_registry(cfg)
    catalog = _load_catalog(args.catalog)
    train_tasks, _, _ = split_train_test(catalog, cfg.train.seed)
    _, params, history = fit(train_tasks, registry, cfg.train, cfg.sim)
    _write_trained(out, _manifest(cfg, "train", cfg.train.seed), params, history)
    final = history[-1].mean_reward if history else 0.0
    print(f"trained on {len(train_tasks)} tasks, final epoch mean reward {final:.6f}")
    return 0


def _cmd_eval(args, cfg: EngineConfig) -> int:
    out = Path(args.out or cfg.out_dir)
    registry = _load_registry(cfg)
    tasks = _select_tasks(args, cfg)
    policy = _load_policy(args)
    table = evaluate(policy, tasks, registry, cfg.decoder, cfg.sim)
    manifest = _manifest(cfg, "eval", None)
    _write_text(out / "report.csv", comparison_to_csv({"eval": table}, manifest))
    _write_json(out / "report.json", {"manifest": manifest, "report": report_to_json(table)})
    print(f"overall {table.overall:.6f} on {len(tasks)} tasks")
    return 0


def _cmd_compare(args, cfg: EngineConfig) -> int:
    out = Path(args.out or cfg.out_dir)
    registry = _load_registry(cfg)
    catalog = _load_catalog(args.catalog)
    train_tasks, test_tasks, _ = split_train_test(catalog, cfg.train.seed)
    result = run_schema_comparison(
        train_tasks, test_tasks, registry, cfg.train, cfg.decoder, cfg.sim
    )
    manifest = _manifest(cfg, "compare", cfg.train.seed)
    _write_trained(out, manifest, result.trained_params, result.history)
    _write_text(out / "report.csv", comparison_to_csv(result.tables, manifest))
    _write_json(
        out / "report.json",
        {
            "manifest": manifest,
            "report": {
                name: (None if table is None else report_to_json(table))
                for name, table in result.tables.items()
            },
        },
    )
    for name, table in result.tables.items():
        overall = "n/a" if table is None else f"{table.overall:.6f}"
        print(f"{name}: {overall}")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="planforge")
    parser.add_argument("--config", help="path to an engine config JSON file")
    parser.add_argument("--seed", type=int, help="override catalog and train seeds")
    parser.add_argument("--out", help="output directory, overrides the config")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen", help="generate the benchmark catalog")

    p = sub.add_parser("oracle", help="exhaustive best plan per task")
    p.add_argument("--catalog", required=True)
    p.add_argument("--task")
    p.add_argument("--split", choices=("train", "test", "all"), default="all")
    p.add_argument("--max-depth", type=int, default=0, help="0 means per-task tight depth")

    p = sub.add_parser("plan", help="decode the top plan per task")
    p.add_argument("--catalog", required=True)
    p.add_argument("--task")
    p.add_argument("--split", choices=("train", "test", "all"), default="all")
    p.add_argument("--checkpoint")

    p = sub.add_parser("exec", help="validate and execute a plan on one task")
    p.add_argument("--catalog", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--plan", required=True, help="path to a plan JSON file")

    p = sub.add_parser("parse", help="extract a tool sequence from text")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text")
    group.add_argument("--file")

    p = sub.add_parser("train", help="pretrain on oracle plans, then reinforce")
    p.add_argument("--catalog", required=True)

    p = sub.add_parser("eval", help="score a policy checkpoint")
    p.add_argument("--catalog", required=True)
    p.add_argument("--task")
    p.add_argument("--split", choices=("train", "test", "all"), default="all")
    p.add_argument("--checkpoint")

    p = sub.add_parser("compare", help="zero-shot vs supervised vs reinforced")
    p.add_argument("--catalog", required=True)

    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "oracle": _cmd_oracle,
    "plan": _cmd_plan,
    "exec": _cmd_exec,
    "parse": _cmd_parse,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(
                cfg,
                catalog=replace(cfg.catalog, seed=args.seed),
                train=replace(cfg.train, seed=args.seed),
            )
        return _COMMANDS[args.command](args, cfg)
    except EngineError as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
