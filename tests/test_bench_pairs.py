"""tools/bench_pairs.py's gain rule and refusals, with perfbench runs stubbed."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

TREES = {"base": Path("base"), "head": Path("head")}


def _stub_runs(monkeypatch, digests=None) -> None:
    """Each run's values are fixed per side: the head is 10 % faster with
    a spread narrower than the gap, so every pair is a clear win. The
    host-speed probe reads a constant."""
    count = {"base": 0, "head": 0}

    def run_once(tree, workload, seconds):
        side = tree.name
        count[side] += 1
        wall = (1.0 if side == "base" else 0.9) + 0.001 * (count[side] % 3)
        values = {"wall_s": wall, "setup_s": wall, "peak_rss_mb": 40.0,
                  "reward_mean": 0.5, "ok_frac": 1.0}
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
