"""Tests of the benchmark itself: seeded inputs, the tail rule, the checks
and the tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import zdbench  # noqa: E402
from zdbench import modules, report, statements  # noqa: E402
from zdbench.universe import generate_universe  # noqa: E402

import checks  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _analyze_stream(seed, passes=2):
    w = workloads.Analyze(seed)
    w.construct_inputs()
    return [w.round_inputs() for _ in range(passes)]


def _oracle_rounds(seed, rounds=2):
    w = workloads.Oracle(seed)
    w.construct_inputs()
    return [[(p.ring_text, p.module_text, degree, coeffs, expected)
             for p, degree, coeffs, expected in w.round_inputs()]
            for _ in range(rounds)]


# -- seeded inputs -----------------------------------------------------------


def test_analyze_inputs_follow_the_seed():
    assert _analyze_stream(7) == _analyze_stream(7)
    assert _analyze_stream(7) != _analyze_stream(8)


def test_analyze_passes_hold_every_request_once():
    first, second = _analyze_stream(3)
    assert first != second
    assert sorted(first) == sorted(second)
    assert len(first) == 273 + 2 * len(workloads.LOCALIZED_RINGS)


def test_oracle_inputs_follow_the_seed():
    assert _oracle_rounds(7) == _oracle_rounds(7)
    assert _oracle_rounds(7) != _oracle_rounds(8)


def test_oracle_rounds_have_the_same_composition_on_every_seed():
    def shape(rounds):
        return [sorted((r, m, d, e) for r, m, d, _, e in items) for items in rounds]
    assert shape(_oracle_rounds(1)) == shape(_oracle_rounds(2))


def test_oracle_quotas_follow_the_class_sizes():
    # Z4 at degree 2: 7 of the 63 nonzero f are zero-divisors
    assert workloads.oracle_quotas(7, 56) == (2, 14)
    assert workloads.oracle_quotas(0, 80) == (0, 16)
    assert workloads.oracle_quotas(3, 4) == (3, 4)
    w = workloads.Oracle(1)
    w.construct_inputs()
    drawn = {}
    for pair, degree, _, expected in w.round_inputs():
        drawn.setdefault((pair.ring_text, pair.module_text, degree), []).append(expected)
    for pair in w.pairs:
        for degree in workloads.ORACLE_DEGREES:
            verdicts = drawn[pair.ring_text, pair.module_text, degree]
            share = len(pair.zero_divisors[degree][0]) / (pair.R.size ** (degree + 1) - 1)
            assert abs(sum(verdicts) / len(verdicts) - share) <= 0.5 / len(verdicts)


# -- the tail rule -----------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert measure.percentile(range(1000), 99) == 989
    assert measure.percentile(range(999), 99) is None
    assert measure.min_samples_for(99) == 1000
    assert measure.percentile(range(19), 50) is None


def test_analyze_runs_enough_passes_for_a_p99():
    w = workloads.Analyze(0)
    w.construct_inputs()
    assert w.min_rounds * len(w.pool) >= measure.min_samples_for(99)


# -- speed scaling -----------------------------------------------------------


def test_speedometer_samples_and_leaves_its_own_time_out():
    speedometer = measure.Speedometer()
    with speedometer:
        wall_start, clock_start = time.perf_counter(), speedometer.clock()
        while time.perf_counter() - wall_start < 0.3:
            sum(range(1000))
        wall, work = time.perf_counter() - wall_start, speedometer.clock() - clock_start
    assert len(speedometer.samples) >= 3
    assert 0 < work < wall
    assert abs((wall - work) - speedometer.spent) < 0.01
    assert speedometer.slowdown() > 0


def test_trimmed_mean_drops_both_tails():
    assert measure.trimmed_mean([100.0] + [1.0] * 8 + [-100.0]) == 1.0


def test_scaled_round_divides_every_time():
    r = workloads.Round(wall_s=2.0, attempted=3, latencies=[0.5, 1.0], setup_s=4.0,
                        op_seconds={"a": 6.0})
    s = r.scaled(2.0)
    assert (s.wall_s, s.latencies, s.setup_s, s.op_seconds) == (1.0, [0.25, 0.5], 2.0, {"a": 3.0})
    assert (s.attempted, s.failed) == (3, 0)


# -- correctness checks reject planted wrong answers -------------------------


def _analyze(ring, module):
    return json.loads(report.canonical_json(report.analyze_report(ring, module)))


def test_check_analyze_accepts_real_reports():
    for ring, module in (("Z12", "Cyclic(4)"), ("Prod(Z2,Z4)", "Reg"),
                         ("Prod(Z2,Z2)", "Cyclic((0,1))"), ("TotalQuotient(Z12)", "Free(2)")):
        assert checks.check_analyze(_analyze(ring, module), module) == []


def test_check_analyze_rejects_a_flipped_auslander_verdict():
    rep = _analyze("Prod(Z2,Z2)", "Cyclic((0,1))")
    rep["module"]["auslander"]["holds"] = not rep["module"]["auslander"]["holds"]
    assert any("Auslander" in e for e in checks.check_analyze(rep, "Cyclic((0,1))"))


def test_check_analyze_rejects_wrong_ring_counts():
    rep = _analyze("Z12", "Reg")
    rep["ring"]["ideal_count"] += 1
    rep["ring"]["units"]["values"].pop()
    errors = checks.check_analyze(rep, "Reg")
    assert any("ideal count" in e for e in errors)
    assert any("unit count" in e for e in errors)


def _decision(**changes):
    d = {"where": "Z4 :: Reg f=(2, 0, 2)", "coeffs": (2, 0, 2), "expected": True,
         "criterion": True, "oracle": True, "gcd_verdict": True, "witness_ok": True}
    d.update(changes)
    return d


def test_check_decision_rejects_a_criterion_oracle_disagreement():
    assert checks.check_decision(_decision()) == []
    assert any("brute force" in e for e in checks.check_decision(_decision(oracle=False)))
    assert any("gcd" in e for e in checks.check_decision(_decision(gcd_verdict=False)))
    assert any("witness" in e for e in checks.check_decision(_decision(witness_ok=False)))


def test_zmod_factors_follow_gcd_arithmetic():
    assert checks.zmod_factors(6, "Cyclic(4)") == [2]
    assert checks.zmod_factors(6, "Hom(Cyclic(0))") == [6]
    assert checks.zmod_factors(6, "Sum(Cyclic(3),Cyclic(2))") == [3, 2]
    assert checks.zmod_factors(6, "Tensor(Reg, Algebra(Z6, Z6))") is None


def _suite_report():
    """A one-statement theorems report carrying a real Auslander witness."""
    witnesses = _analyze("Prod(Z2,Z2)", "Cyclic((0,1))")["witnesses"]
    assert witnesses
    return {"universe": copy.deepcopy(workloads.SUITE_UNIVERSE),
            "statements": [{"id": "def-2.1", "passed": True, "applicable_count": 1,
                            "failures": [], "extra": {"witnesses": witnesses}}],
            "passed": True}


def _check_suite(rep):
    return checks.check_suite(rep, report.revalidate_report(rep), 1,
                              workloads.SUITE_UNIVERSE)


def test_check_suite_accepts_a_passing_report():
    rep = _suite_report()
    assert _check_suite(rep) == []


def test_check_suite_rejects_a_statement_failure():
    rep = _suite_report()
    rep["statements"][0]["passed"] = False
    rep["statements"][0]["failures"] = [{"member": "Z4 :: Reg"}]
    rep["passed"] = False
    assert _check_suite(rep)


def test_check_suite_rejects_zero_applicable_members():
    rep = _suite_report()
    rep["statements"][0]["applicable_count"] = 0
    errors = _check_suite(rep)
    assert any("no applicable" in e for e in errors)


def test_check_suite_rejects_a_witness_that_does_not_revalidate():
    rep = _suite_report()
    planted = copy.deepcopy(rep)
    witness = planted["statements"][0]["extra"]["witnesses"][0]
    witness["value"] = [0, 1]      # (0,1) kills the generator of R/((0,1))
    errors = _check_suite(planted)
    assert any("does not revalidate" in e for e in errors)


def test_check_suite_rejects_a_smaller_universe():
    rep = _suite_report()
    rep["universe"]["pair_count"] -= 1
    rep["universe"]["counts"]["modules_hom"] -= 1
    assert any("universe" in e for e in _check_suite(rep))


def test_suite_limits_build_the_pinned_universe():
    U = generate_universe(workloads.SUITE_LIMITS)
    assert {"ring_count": len(U.rings),
            "pair_count": sum(len(v) for v in U.modules.values()),
            "algebra_count": sum(len(v) for v in U.algebras.values()),
            "counts": U.counts} == workloads.SUITE_UNIVERSE


# -- tracer ------------------------------------------------------------------


def test_tracer_restores_every_wrapped_function():
    originals = (statements.all_submodules, modules.is_flat, report.is_flat,
                 zdbench.FiniteRing.ideals, dict(statements.REGISTRY))
    tracer = Tracer()
    workloads.install_layers(tracer)
    assert statements.all_submodules is not originals[0]
    assert report.is_flat is modules.is_flat
    tracer.uninstall()
    assert (statements.all_submodules, modules.is_flat, report.is_flat,
            zdbench.FiniteRing.ideals, dict(statements.REGISTRY)) == originals


def test_self_times_add_up_to_the_root_spans():
    tracer = Tracer()
    workloads.install_layers(tracer)
    try:
        report.canonical_json(report.analyze_report("Z12", "Hom(Cyclic(2))"))
    finally:
        tracer.uninstall()
    ids = {span[0] for span in tracer.spans}
    assert len(ids) == len(tracer.spans)
    assert all(parent is None or parent in ids for _, parent, *_ in tracer.spans)
    roots = sum(end - start for _, parent, _, _, start, end in tracer.spans
                if parent is None)
    assert abs(sum(tracer.self_s.values()) - roots) < 1e-6
    assert tracer.calls["modules.submodule_generated"] > 0
    assert tracer.counters["modules.hom_module.maps"] > 0


# -- the command -------------------------------------------------------------


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_per_layer_names_match_benchmark_json():
    names = set(workloads.layer_metrics(Tracer(), 1))
    names |= {"trace.overhead_s", "trace.covered_share"}
    assert names == {m["name"] for m in _benchmark_json()["per_layer"]}


def test_run_prints_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "oracle",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _benchmark_json()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
