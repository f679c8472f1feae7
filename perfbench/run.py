"""planforge benchmark: one workload, measured from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-sweep --seed 0 --seconds 30 --trace 0

Each repetition is a fresh worker process (``worker.py``) that sets up,
runs one CLI command in-process and exits; repetitions run one at a time
until ``--seconds`` have passed. Every repetition's artefacts are checked
and digested, and the digests must agree across all repetitions of the
run. With ``--trace 0`` the end-to-end metrics listed in BENCHMARK.json
are reported as medians; with ``--trace 1`` untraced and traced
repetitions alternate and the per-layer metrics are reported. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Spans, layer_metrics  # noqa: E402
from workloads import WORKLOADS, digests  # noqa: E402

# Untraced repetitions at least, and traced cycles at least, per run.
MIN_REPS = 3
MIN_TRACED = 2
# A run must end well inside three minutes; no repetition starts that
# would probably cross this.
RUN_LIMIT_S = 150.0
WORKER_TIMEOUT_S = 140.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Run:
    """The repetitions of one workload at one seed, and what they agreed on."""

    def __init__(self, root: Path, workload, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.dir = root / ".perfbench-work" / f"{workload.name}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        (self.dir / "config.json").write_text(json.dumps(workload.config), encoding="utf-8")
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] | None = None
        self.reward: float | None = None

    def repetition(self, traced: bool) -> dict:
        """Run one worker process; check and digest what it wrote."""
        self.count += 1
        rep_dir = self.dir / f"rep{self.count:03d}"
        rep_dir.mkdir()
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload.name,
            "--seed", str(self.seed),
            "--dir", str(rep_dir),
            "--src", str(self.root / "src"),
            "--trace", "1" if traced else "0",
        ]
        with open(rep_dir / "worker.log", "wb") as log:
            # The monotonic clock is system-wide, so the worker can measure
            # its set-up from this instant.
            started = time.monotonic()
            proc = subprocess.run(
                cmd + ["--started", repr(started)],
                stdout=log, stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S,
            )
        result_path = rep_dir / "result.json"
        if proc.returncode != 0 or not result_path.is_file():
            tail = (rep_dir / "worker.log").read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if result["gen_rc"] != 0 or result["rc"] != 0:
            raise RuntimeError(f"CLI exited with gen {result['gen_rc']}, command {result['rc']}")

        out = rep_dir / "out"
        outcome = self.workload.check(out, self.dir / "config.json", rep_dir / "gen" / "catalog.json")
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(f"rep {self.count}: {p}" for p in outcome.problems)
        found = digests(out, self.workload.artefacts)
        if self.digests is None:
            self.digests, self.reward = found, outcome.reward_mean
        elif found != self.digests or outcome.reward_mean != self.reward:
            self.problems.append(f"rep {self.count}: artefacts differ from rep 1")
        if traced:
            spans = Spans(rep_dir / "spans.bin")
            result["layers"] = layer_metrics(spans)
            result["absent"] = spans.absent
            result["merged"] = spans.merged
        shutil.rmtree(rep_dir)
        return result

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        parent = self.dir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)} min={min(values):.4f} q1={q1:.4f} q3={q3:.4f} max={max(values):.4f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "planforge" / "cli.py").is_file():
        return fail(f"no planforge sources under {root / 'src'}; run from the repository root")
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"no {spec_path.name} in {root}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))

    print(
        f"machine: cpus={os.cpu_count()} python={platform.python_version()} "
        f"platform={platform.platform()}"
    )
    print(
        "method: one worker process at a time, single-threaded; no CPU pinning, "
        "cache drops or machine-wide tracing, only the benchmark's own processes are measured"
    )
    run = Run(root, WORKLOADS[args.workload], args.seed)
    plain: list[dict] = []
    traced: list[dict] = []
    begin = time.monotonic()
    try:
        while True:
            cycle_start = time.monotonic()
            plain.append(run.repetition(traced=False))
            if args.trace:
                traced.append(run.repetition(traced=True))
            now = time.monotonic()
            elapsed = now - begin
            enough = len(traced) >= MIN_TRACED if args.trace else len(plain) >= MIN_REPS
            if enough and elapsed >= args.seconds:
                break
            if elapsed + (now - cycle_start) > RUN_LIMIT_S:
                break
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        return fail(f"{args.workload} seed {args.seed}: {exc}")
    finally:
        run.close()

    for name, digest in sorted(run.digests.items()):
        print(f"sha256 {name} {digest}")
    for problem in run.problems:
        print(f"check failed: {problem}")

    walls = [r["wall_s"] for r in plain]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "reward_mean": run.reward,
        "ok_frac": (run.attempted - run.failed) / run.attempted if run.attempted else 0.0,
    }
    print(f"repetitions: {len(plain)} untraced, {len(traced)} traced; wall_s {describe(walls)}")
    print(f"setup_s {describe([r['setup_s'] for r in plain])}")

    correct = not run.problems
    if args.trace:
        layers = layer_report(traced, walls)
        for name in traced[0]["absent"]:
            print(f"absent: {name}")
        for name, into in traced[0]["merged"].items():
            print(f"merged: {name} is {into}")
        counts = [{k: v for k, v in t["layers"].items() if not k.endswith(".self_s")} for t in traced]
        if any(c != counts[0] for c in counts[1:]):
            print("check failed: per-layer counts differ between traced repetitions")
            correct = False
        wanted = spec["per_layer"]
    else:
        layers = end_to_end
        wanted = spec["end_to_end"]

    metrics = {}
    for entry in wanted:
        value = layers.get(entry["name"], 0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} = {value} {entry['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
        )
    )
    return 0


def layer_report(traced: list[dict], plain_walls: list[float]) -> dict:
    """Counts from the first traced repetition, median self times, overhead."""
    layers = dict(traced[0]["layers"])
    for key in layers:
        if key.endswith(".self_s"):
            layers[key] = statistics.median(t["layers"][key] for t in traced)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    plain_wall = statistics.median(plain_walls)
    layers["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return layers


if __name__ == "__main__":
    raise SystemExit(main())
