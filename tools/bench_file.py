"""Write a BENCH file: a change's before and after figures, end to end and per layer.

    python3 tools/bench_file.py --out BENCH_<n>.json [--before REV]

Run it from a checkout whose HEAD is the change.  "After" is this checkout;
"before" is REV (default HEAD~1, the change's parent), checked out with
`git worktree add` into a temporary directory that is removed afterwards.
For each side the file records:

* the wall time of the default `zdbench theorems --suite all`, RUNS runs per
  side in alternating order, each divided by the interpreter slowdown that
  perfbench's reference kernel (`measure.Speedometer`) showed while it ran,
  and the sha256 of the report it printed;
* the Tier-1 wall time (the pytest command of ROADMAP.md), once, with
  pytest's summary line;
* the per-layer self times, calls and counts of one traced round of
  perfbench's `suite` workload (`run.py --trace 1`).

Sides run one after the other on the same host, so the file also records
the host.  It takes about five minutes on a 2-core host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import measure  # noqa: E402  (perfbench's, found through the path above)

RUNS = 5
THEOREMS = [sys.executable, "-m", "zdbench.cli", "theorems", "--suite", "all"]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
TRACED_SUITE = [sys.executable, "perfbench/run.py", "--workload", "suite",
                "--seed", "1", "--seconds", "0", "--trace", "1"]


def _git(*args) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _run(tree: str, command: list) -> tuple[float, subprocess.CompletedProcess]:
    """Run `command` in `tree` with that tree's sources first on the path;
    its wall seconds and the finished process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    start = time.perf_counter()
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, done


def theorems_run(tree: str) -> dict:
    """One default full-suite run, timed while the reference kernel samples
    the interpreter's speed."""
    speedometer = measure.Speedometer()
    with speedometer:
        wall, done = _run(tree, THEOREMS)
    if done.returncode != 0:
        raise RuntimeError(f"theorems failed in {tree}: {done.stderr[-2000:]}")
    slowdown = speedometer.slowdown()
    return {"wall_s": wall, "slowdown": slowdown, "scaled_s": wall / slowdown,
            "report_sha256": hashlib.sha256(done.stdout.encode()).hexdigest()}


def tier1(tree: str) -> dict:
    wall, done = _run(tree, TIER1)
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": done.returncode,
            "summary": lines[-1] if lines else ""}


def layers(tree: str) -> dict:
    _, done = _run(tree, TRACED_SUITE)
    if done.returncode != 0:
        raise RuntimeError(f"traced suite round failed in {tree}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _summary(runs: list) -> dict:
    scaled = [r["scaled_s"] for r in runs]
    return {"runs": runs, "median_scaled_s": statistics.median(scaled),
            "median_wall_s": statistics.median(r["wall_s"] for r in runs)}


def measure_sides(before_tree: str) -> dict:
    sides = {"before": before_tree, "after": ROOT}
    runs = {side: [] for side in sides}
    for i in range(RUNS):
        # alternate which side goes first, so drift in the host's speed
        # falls on both sides alike
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(theorems_run(sides[side]))
            print(f"theorems run {i + 1}/{RUNS} {side}: "
                  f"{runs[side][-1]['scaled_s']:.2f} s scaled", file=sys.stderr)
    out = {side: {"theorems_all": _summary(runs[side])} for side in sides}
    for side, tree in sides.items():
        out[side]["tier1"] = tier1(tree)
        print(f"tier-1 {side}: {out[side]['tier1']['summary']}", file=sys.stderr)
        out[side]["layers"] = layers(tree)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH file to write")
    parser.add_argument("--before", default="HEAD~1",
                        help="the revision to compare against (default: HEAD~1)")
    args = parser.parse_args(argv)
    before_rev = _git("rev-parse", args.before)
    tmp = tempfile.mkdtemp(prefix="bench-before-")
    tree = os.path.join(tmp, "tree")
    _git("worktree", "add", "--detach", tree, before_rev)
    try:
        sides = measure_sides(tree)
    finally:
        _git("worktree", "remove", "--force", tree)
        shutil.rmtree(tmp, ignore_errors=True)
    before, after = sides["before"], sides["after"]
    bench = {
        "command": f"python3 tools/bench_file.py --out {args.out} --before {args.before}",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count(), "system": platform.platform()},
        "before": dict(rev=before_rev, **before),
        "after": dict(rev=_git("rev-parse", "HEAD"),
                      uncommitted_changes=bool(_git("status", "--porcelain")), **after),
        "change": {
            "theorems_all_median_scaled": after["theorems_all"]["median_scaled_s"]
            / before["theorems_all"]["median_scaled_s"],
            "tier1_wall": after["tier1"]["wall_s"] / before["tier1"]["wall_s"],
            "report_identical": len({r["report_sha256"] for side in (before, after)
                                     for r in side["theorems_all"]["runs"]}) == 1,
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(json.dumps(bench["change"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
