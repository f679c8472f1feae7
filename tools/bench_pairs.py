"""Measure two revisions in alternating pairs of benchmark runs: a speed
claim's gain rule, and a no-regression verdict per end-to-end metric.

Run from the repository root:

    python3 tools/bench_pairs.py BASE HEAD --label NAME --workload rltf-train \
        --workload decode-eval --pairs 10

Each revision is exported with ``git archive`` into its own temporary
directory; nothing is fetched. For each workload, each pair runs this
checkout's ``perfbench/run.py --seed 0 --trace 0`` once in each tree, for
BENCHMARK.json's ``run_seconds``, one run at a time, and the side that
goes first alternates from pair to pair. At least 10 pairs are run, as
the gain rule needs: the head wins at least nine of ten pairs, and its
median beats the base's by more than the base's interquartile range.

Every end-to-end metric of BENCHMARK.json is read on every run, in the
direction its ``better`` names, and gets a verdict against its ``bound``,
read as a fraction of the base's median:

- ``worse``: the head's median is past the bound, on the wrong side of
  the base's median (for ``wall_s``, bound 0.25, a head median above
  1.25 times the base's);
- ``unresolved``: not worse, but the base's interquartile range is wider
  than the bound, so the runs spread too widely to tell, unless every
  head run beats every base run;
- ``within``: otherwise.

Before each run, a fixed pure-Python loop is timed in this process
(``probe_s``), so a run that reads slow because the host slowed down
shows it; neither rule reads it.

The result is written to ``BENCH_<label>.json`` at the repository root:
the machine facts; per run, ``probe_s`` and every end-to-end metric; per
side, the median and quartiles of each; per metric, the pairs the head
won (ties count for neither), whether the gain rule holds, and its
verdict; and both sides' artefact digests. The file is not written, and
the exit code is 1, when a run fails or is not correct, or when the
digests differ between runs or between the sides.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "perfbench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
METRICS = tuple(END_TO_END)
SIDES = ("base", "head")
MIN_PAIRS = 10
PROBE_LOOPS = 2_000_000


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, into: Path) -> None:
    """Write the files of `rev` into the empty directory `into`."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True, capture_output=True)


def probe() -> float:
    """Seconds this host takes for a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i % 7
    return time.perf_counter() - start


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One perfbench run in `tree`: its end-to-end values and digests."""
    cmd = [sys.executable, str(RUNNER), "--workload", workload, "--seed", "0",
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} in {tree} was not correct: {proc.stdout}")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    digests = dict(line.split()[1:] for line in lines if line.startswith("sha256 "))
    return {"values": values, "digests": digests}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    """`worse`, `unresolved` or `within`, as the module docstring defines them."""
    sign = 1 if better == "lower" else -1  # sign * value: lower is better
    spread = summary(base)
    allowed = bound * abs(spread["median"])
    if sign * (statistics.median(head) - spread["median"]) > allowed:
        return "worse"
    every_head_beats = max(sign * h for h in head) < min(sign * b for b in base)
    if spread["q3"] - spread["q1"] > allowed and not every_head_beats:
        return "unresolved"
    return "within"


def measure(trees: dict, workload: str, pairs: int, seconds: float) -> dict:
    runs = {side: [] for side in SIDES}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            probe_s = probe()
            runs[side].append({**run_once(trees[side], workload, seconds), "probe_s": probe_s})
            last = runs[side][-1]["values"]
            print(f"{workload} pair {pair + 1}/{pairs} {side}: probe_s={probe_s:.4f} "
                  + " ".join(f"{m}={last[m]:.4f}" for m in METRICS), flush=True)
    digests = {}
    for side in SIDES:
        seen = [run["digests"] for run in runs[side]]
        if any(d != seen[0] for d in seen):
            raise RuntimeError(f"{workload}: {side} runs disagree on their digests")
        digests[side] = seen[0]
    if digests["base"] != digests["head"]:
        raise RuntimeError(f"{workload}: digests differ: {digests}")
    report = {"pairs": pairs, "digests": digests, "runs": {}, "sides": {}, "gain": {}, "verdict": {}}
    for side in SIDES:
        report["runs"][side] = [
            {"probe_s": run["probe_s"], **{m: run["values"][m] for m in METRICS}}
            for run in runs[side]
        ]
        report["sides"][side] = {m: summary([r[m] for r in report["runs"][side]]) for m in METRICS}
    for m in METRICS:
        sign = 1 if END_TO_END[m]["better"] == "lower" else -1
        values = {side: [r[m] for r in report["runs"][side]] for side in SIDES}
        base, head = report["sides"]["base"][m], report["sides"]["head"][m]
        won = sum(sign * h < sign * b for b, h in zip(values["base"], values["head"]))
        gap = sign * (base["median"] - head["median"])
        report["gain"][m] = {
            "pairs_won": won,
            "median_change_frac": (head["median"] - base["median"]) / base["median"],
            "met": (
                pairs >= MIN_PAIRS and won * 10 >= pairs * 9 and gap > base["q3"] - base["q1"]
            ),
        }
        report["verdict"][m] = verdict(
            values["base"], values["head"], END_TO_END[m]["better"], END_TO_END[m]["bound"]
        )
        print(f"{workload} {m}: {report['verdict'][m]}, base median "
              f"{base['median']:.4f}, head median {head['median']:.4f}", flush=True)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench_pairs")
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    seconds = BENCHMARK["run_seconds"]
    try:
        revs = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    except subprocess.CalledProcessError as exc:
        print(f"bench_pairs: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    doc = {
        "label": args.label,
        "revisions": revs,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
            "loadavg_at_start": os.getloadavg(),
        },
        "method": (
            f"perfbench/run.py --seed 0 --seconds {seconds} --trace 0 in a git archive "
            "of each revision, one run at a time, the first side alternating per pair; no CPU "
            "pinning, cache drops or machine-wide tracing"
        ),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        trees = {}
        try:
            for side in SIDES:
                trees[side] = Path(scratch) / side
                trees[side].mkdir()
                export(revs[side], trees[side])
            for name in args.workload:
                doc["workloads"][name] = measure(trees, name, args.pairs, seconds)
        except (subprocess.CalledProcessError, RuntimeError, OSError, ValueError, KeyError) as exc:
            print(f"bench_pairs: {exc}; nothing written", file=sys.stderr)
            return 1
    doc["machine"]["loadavg_at_end"] = os.getloadavg()
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
