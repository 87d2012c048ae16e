"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite|analyze|oracle --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
The run repeats whole rounds until ``--seconds`` have passed.  With
``--trace 0`` it prints the end-to-end metrics, with times scaled to the
reference interpreter speed (see ``measure.py``; the import part of the
set-up is scaled by ``REFERENCE_IMPORTS``).  With ``--trace 1`` it
alternates untraced and traced rounds and prints the per-layer metrics per
traced round, the tracing overhead among them.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The same object, with the unscaled end-to-end figures, and
with ``--trace 1`` every span, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import measure
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 9   # set-up samples per run; their median is reported
SPEED_SAMPLES = 12  # kernel samples taken right after each input construction
# The import time of zdbench is scaled by the import time of these modules:
# import work (file reads, unmarshalling, a fresh heap) drifts with the
# host's load apart from the interpreter loop that the kernel times.
REFERENCE_IMPORTS = ("unittest, email.message, xml.dom.minidom, http.client, "
                     "tarfile, zipfile, csv, pydoc, configparser, plistlib")
REFERENCE_IMPORT_S = 0.05   # their import time at the reference speed
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); exec('import ' + sys.argv[2]); "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "analyze", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(step) -> tuple[float, float]:
    """Median seconds of SETUP_REPEATS runs of `step`, scaled and unscaled.

    `step` returns its seconds and the slowdown measured right after it;
    each sample is divided by its own slowdown, as a round's times are.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        took, slowdown = step()
        raw.append(took)
        scaled.append(took / slowdown)
    return statistics.median(scaled), statistics.median(raw)


def import_seconds(modules: str) -> float:
    """Time a fresh interpreter takes to import `modules`."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, modules],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def import_step() -> tuple[float, float]:
    """Import time of the CLI's modules, and the slowdown of the reference
    imports in another fresh interpreter right after."""
    took = import_seconds("zdbench.cli")
    return took, import_seconds(REFERENCE_IMPORTS) / REFERENCE_IMPORT_S


def end_to_end(workload, rounds, imports, input_setup) -> dict:
    round_setup = [r.setup_s for r in rounds if r.setup_s is not None]
    p50, p99 = workload.latency_ms(rounds)
    return {
        "setup_s": (imports + (statistics.median(round_setup) if round_setup
                               else input_setup), "s"),
        "wall_s": (statistics.median([r.wall_s for r in rounds]), "s"),
        "ops_per_s": (statistics.median([(r.attempted - r.failed) / r.wall_s
                                         for r in rounds]), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p99_ms": (p99, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run(args) -> dict:
    import workloads   # imports zdbench, so only once SRC is on the path

    workload = workloads.WORKLOADS[args.workload](args.seed)
    speedometer = measure.Speedometer()

    def construct() -> tuple[float, float]:
        t = time.perf_counter()
        workload.construct_inputs()
        took = time.perf_counter() - t
        return took, measure.Speedometer().slowdown(at_least=SPEED_SAMPLES)

    if args.trace:
        workload.construct_inputs()
    else:
        imports, raw_imports = setup_seconds(import_step)
        input_setup, raw_input_setup = setup_seconds(construct)

    # spans read the same clock, so they leave the kernel's time out too
    tracer = Tracer(speedometer.clock) if args.trace else None
    plain, raw, traced, raw_traced = [], [], [], []
    min_rounds = 2 if args.trace else workload.min_rounds
    start = time.perf_counter()
    while (len(plain) + len(traced) < min_rounds
           or time.perf_counter() - start < args.seconds):
        gc.collect()
        trace_round = tracer is not None and len(plain) > len(traced)
        first = len(speedometer.samples)
        with speedometer:
            if trace_round:
                workloads.install_layers(tracer)
                try:
                    r = workload.run_round(tracer, speedometer.clock)
                finally:
                    tracer.uninstall()
            else:
                r = workload.run_round(None, speedometer.clock)
        (raw_traced if trace_round else raw).append(r)
        (traced if trace_round else plain).append(r.scaled(speedometer.slowdown(first)))
    rounds = plain + traced

    errors = [e for r in rounds for e in r.errors]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": len(plain), "traced_rounds": len(traced)}
    if tracer is None:
        metrics = end_to_end(workload, plain, imports, input_setup)
        unscaled = end_to_end(workload, raw, raw_imports, raw_input_setup)
        meta["unscaled_metrics"] = {name: value for name, (value, _) in unscaled.items()}
        meta["round_slowdowns"] = [r.wall_s / p.wall_s for r, p in zip(raw, plain)]
    else:
        traced_wall = sum(r.wall_s for r in raw_traced)
        seconds = tracer.seconds_by_name()
        covered = sum(seconds[name] for name in workload.covered)
        metrics = workloads.layer_metrics(tracer, len(traced))
        metrics["trace.overhead_s"] = (
            statistics.median([r.wall_s for r in traced])
            - statistics.median([r.wall_s for r in plain]), "s")
        metrics["trace.covered_share"] = (covered / traced_wall, "ratio")

    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(meta, **result), fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"trace-{stem}.json"), meta)
    print(f"{args.workload}: seed {args.seed}, {len(plain)} untraced and "
          f"{len(traced)} traced rounds, {result['attempted']} operations, "
          f"{result['failed']} failed, correct={result['correct']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zdbench", "__init__.py")):
        print(f"error: no zdbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
