"""One measured run of a workload, in a fresh process.

Set-up is process start to ready: interpreter start, importing
planforge, ``gen`` of the seeded catalog through the CLI and, for some
workloads, trimming it to tasks of one oracle depth. The timed
part is the workload's CLI command, called in-process through
``planforge.cli.main``. With ``--trace 1`` the tracer is installed
after set-up and its spans are written next to the outputs; without it
no wrapper exists in the process.

Usage: python3 worker.py --workload NAME --seed N --dir RUN_DIR
       --src SRC_DIR --trace 0|1 --started MONOTONIC_SECONDS
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from planforge import cli
    from workloads import WORKLOADS, trim_catalog

    workload = WORKLOADS[args.workload]
    config = args.dir.parent / "config.json"
    catalog = args.dir / "gen" / "catalog.json"
    gen_rc = cli.main(["--config", str(config), "--seed", str(args.seed), "--out", str(args.dir / "gen"), "gen"])
    if gen_rc == 0 and workload.depth2_tasks:
        trim_catalog(catalog, workload.depth2_tasks)
    setup_s = time.monotonic() - args.started

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=args.dir.name)
        tracer.install()
    argv = workload.argv(config, args.seed, args.dir / "out", catalog)
    begin = time.perf_counter()
    rc = cli.main(argv)
    wall_s = time.perf_counter() - begin
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.dir / "spans.bin")

    result = {"gen_rc": gen_rc, "rc": rc, "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb()}
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
