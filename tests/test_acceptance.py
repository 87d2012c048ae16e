"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (the -v listing is the
per-criterion pass/fail log; add -s to see the explicit summary lines).
"""

import hashlib
import time

from zdbench.extensions import diagonal_algebra, is_mccoy_algebra
from zdbench.report import (analyze_report, canonical_json, revalidate_report,
                            theorems_report)
from zdbench.rings import Zmod, product_ring
from zdbench.statements import (criterion_oracle_agreement, run_statement,
                                z_adapter_check)


def _report(name: str, elapsed: float, detail: str = ""):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s) {detail}".rstrip())


def test_criterion_01_remark_3_3_3_reproduction():
    started = time.monotonic()
    rep = analyze_report("Prod(Z2,Z2)", "Cyclic((0,1))")
    elapsed = time.monotonic() - started
    assert rep["ring"]["zero_divisors"]["values"] == [[0, 0], [1, 0], [0, 1]]
    assert rep["module"]["zero_divisors"]["values"] == [[0, 0], [0, 1]]
    assert rep["module"]["torsion_free"]["holds"] is True
    assert rep["module"]["auslander"]["holds"] is False
    assert rep["module"]["auslander"]["witness"]["value"] == [1, 0]
    assert elapsed < 1.0
    _report("1 (key example reproduction)", elapsed)


def test_criterion_02_integer_adapter():
    started = time.monotonic()
    for n in range(2, 31):
        rep = z_adapter_check(f"Z/{n}")
        assert rep["auslander"] is True, n
        assert rep["torsion_free"] is False, n
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report("2 (integer adapter, n = 2..30)", elapsed)


def test_criterion_03_property_a_universality(universe):
    started = time.monotonic()
    rep = run_statement("prop-a-def", universe)
    elapsed = time.monotonic() - started
    assert len(rep.applicable) >= 60
    assert rep.passed, rep.failures[:3]
    assert elapsed < 120.0
    _report("3 (property (A) universality)", elapsed,
            f"pairs={len(rep.applicable)}")


def test_criterion_04_extension_transfer_both_directions(universe):
    started = time.monotonic()
    ausl = run_statement("thm-2.4", universe)
    tf = run_statement("thm-3.2", universe)
    assert ausl.passed and tf.passed, (ausl.failures[:2], tf.failures[:2])
    assert len(ausl.applicable) == len(tf.applicable) >= 60
    agreement = criterion_oracle_agreement(universe, max_ring=6, max_module=8,
                                           degree=2)
    elapsed = time.monotonic() - started
    assert agreement["discrepancies"] == []
    assert agreement["elements_checked"] > 1000
    assert elapsed < 600.0
    _report("4 (polynomial transfer + criterion/oracle agreement)", elapsed,
            f"f_checked={agreement['elements_checked']}")


def test_criterion_05_constructive_witnesses(universe):
    started = time.monotonic()
    rep = run_statement("lem-2.7", universe)
    elapsed = time.monotonic() - started
    assert rep.passed, rep.failures[:3]
    assert rep.checked > 1000
    assert elapsed < 300.0
    _report("5 (constructive annihilation witnesses)", elapsed,
            f"pairs={rep.checked}")


def test_criterion_06_localization_transfer(universe):
    started = time.monotonic()
    rep = run_statement("prop-2.3", universe)
    elapsed = time.monotonic() - started
    assert rep.passed, rep.failures[:3]
    instances = rep.extra["zero_divisor_S_instances"]
    key = [i for i in instances
           if i["member"] == "Prod(Z2,Z2) :: Cyclic((0,1))"
           and "(1,0)" in i["S"]]
    assert key, "the square-of-F2 localization instance must be logged"
    assert elapsed < 300.0
    _report("6 (localization transfer)", elapsed,
            f"checked={rep.checked} zd_instances={len(instances)}")


def test_criterion_07_torsion_free_definitions_agree(universe):
    started = time.monotonic()
    rep = run_statement("tf-3.1", universe)
    elapsed = time.monotonic() - started
    assert rep.passed, rep.failures[:3]
    assert rep.checked >= 60
    assert elapsed < 60.0
    _report("7 (torsion-free definition equivalence)", elapsed,
            f"checked={rep.checked}")


def test_criterion_08_mccoy_calibration(universe):
    started = time.monotonic()
    R2 = Zmod(2)
    verdict = is_mccoy_algebra(diagonal_algebra(R2, product_ring(R2, R2)))
    assert not verdict.holds
    assert verdict.witness["pair"] == ((1, 0), (0, 1))
    for R in universe.rings:
        self_alg = universe.algebras[R.descriptor][0]
        assert self_alg.is_trivial_extension
        assert is_mccoy_algebra(self_alg).holds, R.descriptor
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report("8 (McCoy calibration)", elapsed,
            f"rings={len(universe.rings)}")


def test_criterion_09_tensor_transfer(universe):
    started = time.monotonic()
    ausl = run_statement("thm-2.13", universe)
    tf = run_statement("thm-3.8", universe)
    elapsed = time.monotonic() - started
    assert ausl.passed and tf.passed, (ausl.failures[:2], tf.failures[:2])
    nontrivial = set(ausl.extra["nontrivial_applicable"])
    assert len(nontrivial) >= 3, nontrivial
    assert elapsed < 600.0
    _report("9 (faithfully flat McCoy tensor transfer)", elapsed,
            f"applicable={len(ausl.applicable)} nontrivial={len(nontrivial)}")


def test_criterion_10_determinism_and_witness_integrity():
    started = time.monotonic()
    first = theorems_report("all")
    # the digest of the default report as separate interpreter runs print it,
    # so one run checks determinism across processes and hash seeds
    digest = hashlib.sha256(canonical_json(first).encode()).hexdigest()
    assert digest == "8a130b2f48cd8361f516a1f3c23807518a9270ce99ed7c1367de46d969aa2372"
    assert first["passed"] is True
    reval = revalidate_report(first)
    assert not reval["failed"], reval["failed"][:3]
    analyze = analyze_report("Prod(Z2,Z2)", "Cyclic((0,1))")
    reval2 = revalidate_report(analyze)
    assert not reval2["failed"]
    elapsed = time.monotonic() - started
    assert elapsed < 900.0
    _report("10 (determinism + witness integrity)", elapsed,
            f"witnesses={reval['total'] + reval2['total']}")
