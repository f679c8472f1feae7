"""The stock seed-0 CLI session, byte for byte.

Every file each command writes, and each command's stdout, must hash to
the sha256 recorded in ``golden_session.json``. A change that means to
alter an artefact regenerates that file with
``PYTHONPATH=src python3 tests/test_golden_session.py`` and names every
changed entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from planforge.cli import main

MANIFEST = Path(__file__).resolve().with_name("golden_session.json")

# (output directory, command) in session order. Each command writes to its
# own directory because compare rewrites train's checkpoint.json and
# history.csv. Paths are relative to the session's working directory.
SESSION = [
    ("gen", ["gen"]),
    ("oracle", ["oracle", "--catalog", "gen/catalog.json"]),
    ("plan", ["plan", "--catalog", "gen/catalog.json", "--split", "test"]),
    ("exec", ["exec", "--catalog", "gen/catalog.json", "--task", "ii-000", "--plan", "ii-000.json"]),
    ("train", ["train", "--catalog", "gen/catalog.json"]),
    ("eval", ["eval", "--catalog", "gen/catalog.json", "--split", "test", "--checkpoint", "train/checkpoint.json"]),
    ("compare", ["compare", "--catalog", "gen/catalog.json"]),
]


def run_session() -> dict[str, str]:
    """Run the session in the current directory, with the default config
    at seed 0; return relative path -> sha256 of every file it wrote,
    with ``<dir>/<stdout>`` for each command's stdout."""
    digests = {}
    for out, argv in SESSION:
        if out == "exec":
            plans = json.loads(Path("oracle/oracle_plans.json").read_text())
            Path("ii-000.json").write_text(json.dumps(plans["plans"]["ii-000"]))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["--seed", "0", "--out", out, *argv]) == 0, argv
        digests[f"{out}/<stdout>"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        for path in sorted(Path(out).rglob("*")):
            if path.is_file():
                digests[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_stock_session_is_byte_identical(tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PLANFORGE_CONFIG", raising=False)
    expected = json.loads(MANIFEST.read_text())
    got = run_session()
    assert sorted(got) == sorted(expected)
    assert {path for path in got if got[path] != expected[path]} == set()


if __name__ == "__main__":
    os.environ.pop("PLANFORGE_CONFIG", None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        digests = run_session()
    MANIFEST.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
