"""Tests for the outside-in tracer, the output checks and the runner."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from planforge import cli, decoder, executor, simkit
from planforge.benchgen import CatalogConfig, generate_catalog
from planforge.errors import ModalityMismatch
from planforge.plan_ir import from_linear_sequence
from planforge.registry import default_registry
from planforge.simkit import Modality, SemanticId, make_leaf

from tracer import RAISED_ENGINE_ERROR, Spans, Tracer, layer_metrics
from workloads import WORKLOADS, check_oracle, digests

ROOT = Path(__file__).resolve().parents[2]

# Small enough for a test, large enough that the train split holds one
# task of every category.
SMALL = {
    "catalog": {
        "image_image": 5,
        "image_text": 5,
        "text_image": 5,
        "text_text": 5,
        "image_text_text": 5,
        "text_text_text": 5,
        "samples_per_task": 3,
    },
    "train": {"epochs": 2, "pretrain_epochs": 5},
}


def written(tracer: Tracer, path: Path) -> Spans:
    tracer.write(path)
    return Spans(path)


@pytest.fixture(scope="module")
def small_catalog(tmp_path_factory) -> tuple[Path, Path]:
    base = tmp_path_factory.mktemp("small")
    config = base / "config.json"
    config.write_text(json.dumps(SMALL), encoding="utf-8")
    assert cli.main(["--config", str(config), "--seed", "3", "--out", str(base / "gen"), "gen"]) == 0
    return config, base / "gen" / "catalog.json"


def run_cli(workload: str, config: Path, catalog: Path, out: Path, tracer: Tracer | None = None) -> dict:
    argv = WORKLOADS[workload].argv(config, 3, out, catalog)
    if tracer is None:
        assert cli.main(argv) == 0
        return {}
    with tracer:
        assert cli.main(argv) == 0
    return layer_metrics(written(tracer, out / "spans.bin"))


def test_self_times_of_nested_spans_add_up_to_the_root(tmp_path):
    task = generate_catalog(CatalogConfig(seed=1))[0]
    registry = default_registry()
    plan = from_linear_sequence(["Image Deblurring", "Image Denoising"], registry)
    tracer = Tracer("nested")
    with tracer:
        executor.execute_task(plan, task, registry)
    spans = written(tracer, tmp_path / "spans.bin")
    roots = [i for i in range(len(spans)) if spans.parents[i] < 0]
    assert len(roots) == 1
    root_duration = spans.ends[roots[0]] - spans.starts[roots[0]]
    metrics = layer_metrics(spans)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(root_duration, rel=1e-9, abs=1e-12)
    for i in range(len(spans)):
        assert spans.starts[i] <= spans.ends[i]
        if spans.parents[i] >= 0:
            parent = spans.parents[i]
            assert spans.starts[parent] <= spans.starts[i] <= spans.ends[i] <= spans.ends[parent]


def test_call_through_from_imported_name_is_counted(tmp_path):
    task = generate_catalog(CatalogConfig(seed=1))[0]
    registry = default_registry()
    plan = from_linear_sequence(["Image Deblurring", "Image Denoising"], registry)
    original = simkit.apply_tool
    tracer = Tracer("from-import")
    with tracer:
        assert executor.apply_tool is not original
        assert executor.apply_tool is simkit.apply_tool
        executor.execute(plan, task.dataset[0].inputs, registry)
    assert executor.apply_tool is original and simkit.apply_tool is original
    metrics = layer_metrics(written(tracer, tmp_path / "spans.bin"))
    assert metrics["simkit.apply_tool.calls"] == len(plan.nodes)
    assert metrics["executor.execute.calls"] == 1


def test_wrappers_pass_results_and_exceptions_through(tmp_path):
    image = make_leaf(Modality.IMAGE, "x1")
    text = make_leaf(Modality.TEXT, "x2")
    expected = simkit.apply_tool(SemanticId.CAPTION, (image,))
    with pytest.raises(ModalityMismatch) as plain:
        simkit.apply_tool(SemanticId.CAPTION, (text,))
    tracer = Tracer("passthrough")
    with tracer:
        assert simkit.apply_tool(SemanticId.CAPTION, (image,)) == expected
        with pytest.raises(ModalityMismatch) as wrapped:
            simkit.apply_tool(SemanticId.CAPTION, (text,))
    assert str(wrapped.value) == str(plain.value)
    spans = written(tracer, tmp_path / "spans.bin")
    assert list(spans.status) == [0, RAISED_ENGINE_ERROR]
    assert layer_metrics(spans)["simkit.apply_tool.errors"] == 1


def test_absent_and_merged_names_are_reported_not_fatal(monkeypatch):
    original = decoder.decode
    monkeypatch.setattr(decoder, "decode_alias", original, raising=False)
    traced = (
        ("decoder", ("decode", "decode_alias", "no_such_function")),
        ("no_such_module", ("anything",)),
    )
    tracer = Tracer("absent", traced=traced)
    with tracer:
        assert decoder.decode is not original
        assert decoder.decode_alias is decoder.decode
    assert tracer.absent == ["decoder.no_such_function", "no_such_module.anything"]
    assert tracer.merged == {"decoder.decode_alias": "decoder.decode"}
    assert tracer.names == ["decoder.decode"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_and_wrapping_keeps_digests(workload, small_catalog, tmp_path):
    config, catalog = small_catalog
    run_cli(workload, config, catalog, tmp_path / "plain")
    first = run_cli(workload, config, catalog, tmp_path / "traced1", Tracer("a"))
    second = run_cli(workload, config, catalog, tmp_path / "traced2", Tracer("b"))

    def counts(metrics: dict) -> dict:
        return {k: v for k, v in metrics.items() if not k.endswith(".self_s")}

    assert counts(first) == counts(second)
    assert first["cli.main.calls"] == 1
    artefacts = WORKLOADS[workload].artefacts
    plain = digests(tmp_path / "plain", artefacts)
    assert "missing" not in plain.values()
    assert digests(tmp_path / "traced1", artefacts) == plain
    assert digests(tmp_path / "traced2", artefacts) == plain


def test_oracle_check_catches_a_wrong_reward(small_catalog, tmp_path):
    config, catalog = small_catalog
    out = tmp_path / "out"
    run_cli("oracle-sweep", config, catalog, out)
    assert check_oracle(out, config, catalog).problems == []
    lines = (out / "oracle.csv").read_text(encoding="utf-8").splitlines()
    fields = lines[2].split(",")
    fields[2] = "0.123456"
    lines[2] = ",".join(fields)
    (out / "oracle.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    outcome = check_oracle(out, config, catalog)
    assert outcome.failed == 1
    assert outcome.problems[0].startswith(f"{fields[0]}: plan re-executes to ")


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode-eval", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
