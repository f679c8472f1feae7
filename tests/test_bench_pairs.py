"""tools/bench_pairs.py's gain rule and refusals, with perfbench runs stubbed."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

TREES = {"base": Path("base"), "head": Path("head")}


def _base_10_head_9(side: str, count: int) -> float:
    return (1.0 if side == "base" else 0.9) + 0.001 * (count % 3)


def _stub_runs(monkeypatch, digests=None, wall=_base_10_head_9, reward=lambda side, count: 0.5) -> None:
    """Each run's `wall_s` and `setup_s` are `wall(side, run number)` and its
    `reward_mean` is `reward(side, run number)`; by default the head is
    10 % faster with a spread narrower than the gap, so every pair is a
    clear win. The other metrics and the host-speed probe read constants."""
    count = {"base": 0, "head": 0}

    def run_once(tree, workload, seconds):
        side = tree.name
        count[side] += 1
        value = wall(side, count[side])
        values = {"wall_s": value, "setup_s": value, "peak_rss_mb": 40.0,
                  "reward_mean": reward(side, count[side]), "ok_frac": 1.0}
        return {"values": values, "digests": (digests or {}).get(side, {"out": "abc"})}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "probe", lambda: 0.1)


def test_ten_won_pairs_meet_the_gain_rule(monkeypatch) -> None:
    _stub_runs(monkeypatch)
    report = bench_pairs.measure(TREES, "w", 10, 30)
    assert report["gain"]["wall_s"]["pairs_won"] == 10
    assert report["gain"]["wall_s"]["met"] is True
    assert report["gain"]["peak_rss_mb"]["met"] is False


def test_two_won_pairs_cannot_meet_the_gain_rule(monkeypatch) -> None:
    _stub_runs(monkeypatch)
    report = bench_pairs.measure(TREES, "w", 2, 30)
    assert report["gain"]["wall_s"]["pairs_won"] == 2
    assert report["gain"]["wall_s"]["met"] is False


def test_fewer_than_ten_pairs_are_refused(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["HEAD", "HEAD", "--label", "x", "--workload", "w", "--pairs", "2"])
    assert exc.value.code == 2
    assert "--pairs must be at least 10" in capsys.readouterr().err


def test_differing_digests_are_refused(monkeypatch) -> None:
    _stub_runs(monkeypatch, digests={"base": {"out": "abc"}, "head": {"out": "abd"}})
    with pytest.raises(RuntimeError, match="digests differ"):
        bench_pairs.measure(TREES, "w", 10, 30)


def test_each_run_records_the_probe_time_before_it(monkeypatch) -> None:
    """The probe runs once before every run and its time is stored with that
    run; it is not a metric, so the gain rule never reads it."""
    _stub_runs(monkeypatch)
    probes = iter(float(i) for i in range(1, 21))
    monkeypatch.setattr(bench_pairs, "probe", lambda: next(probes))
    report = bench_pairs.measure(TREES, "w", 10, 30)
    # Pairs alternate the side that goes first: base, head, head, base, ...
    assert [run["probe_s"] for run in report["runs"]["base"]][:2] == [1.0, 4.0]
    assert [run["probe_s"] for run in report["runs"]["head"]][:2] == [2.0, 3.0]
    assert all(set(run) == {"probe_s", *bench_pairs.METRICS} for run in report["runs"]["head"])
    assert "probe_s" not in report["gain"] and report["gain"]["wall_s"]["met"] is True


def test_a_head_30_percent_slower_is_worse(monkeypatch) -> None:
    _stub_runs(monkeypatch, wall=lambda side, count: 1.3 if side == "head" else 1.0)
    report = bench_pairs.measure(TREES, "w", 10, 30)
    assert report["verdict"]["wall_s"] == "worse"
    assert report["gain"]["wall_s"]["median_change_frac"] == pytest.approx(0.3)
    assert report["verdict"]["peak_rss_mb"] == "within"


def test_equal_runs_are_within_every_bound(monkeypatch) -> None:
    _stub_runs(monkeypatch, wall=lambda side, count: 1.0 + 0.01 * (count % 3))
    report = bench_pairs.measure(TREES, "w", 10, 30)
    assert report["verdict"] == dict.fromkeys(bench_pairs.METRICS, "within")
    assert not any(gain["met"] for gain in report["gain"].values())


def test_a_wide_base_spread_is_unresolved(monkeypatch) -> None:
    """Base runs alternate 0.7 and 1.3 s: an interquartile range of 0.6 s
    around a 1.0 s median, wider than the 0.25 bound, so a head of equal
    median cannot be told from a regression."""
    _stub_runs(monkeypatch, wall=lambda side, count: 1.0 if side == "head" else 0.7 + 0.6 * (count % 2))
    report = bench_pairs.measure(TREES, "w", 10, 30)
    assert report["verdict"]["wall_s"] == "unresolved"
    assert report["verdict"]["ok_frac"] == "within"


def test_a_head_that_beats_every_base_run_resolves_a_wide_spread(monkeypatch) -> None:
    _stub_runs(monkeypatch, wall=lambda side, count: 0.5 if side == "head" else 0.7 + 0.6 * (count % 2))
    assert bench_pairs.measure(TREES, "w", 10, 30)["verdict"]["wall_s"] == "within"


def test_reward_is_read_on_every_run(monkeypatch) -> None:
    """`reward_mean` is higher-is-better and read on every run, not only the
    first: a head whose later runs lose reward is worse."""
    _stub_runs(monkeypatch, reward=lambda side, count: 0.3 if side == "head" and count > 1 else 0.5)
    report = bench_pairs.measure(TREES, "w", 10, 30)
    assert [run["reward_mean"] for run in report["runs"]["head"]] == [0.5] + [0.3] * 9
    assert report["verdict"]["reward_mean"] == "worse"
    assert report["gain"]["reward_mean"]["pairs_won"] == 0


def test_the_bench_file_records_each_side_s_source_lines(monkeypatch, tmp_path) -> None:
    """Each side's tree is exported, and its package modules' lines are
    counted there: files outside src/planforge/*.py are not."""

    def export(rev, into):
        package = into / "src" / "planforge"
        (package / "sub").mkdir(parents=True)
        (package / "a.py").write_text("x = 1\n" * (3 if rev == "r1" else 2))
        (package / "b.py").write_text("y = 2\n")
        (package / "sub" / "c.py").write_text("z = 3\n")
        (package / "notes.txt").write_text("not code\n")
        (into / "README.md").write_text("not code\n")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: {"BASE": "r1", "HEAD": "r2"}[args[-1]])
    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "measure", lambda trees, workload, pairs, seconds: {})
    assert bench_pairs.main(["BASE", "HEAD", "--label", "x", "--workload", "w"]) == 0
    doc = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert doc["revisions"] == {"base": "r1", "head": "r2"}
    assert doc["source_lines"] == {"base": 4, "head": 3}
