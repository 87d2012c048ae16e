"""Pinned sha256 digests of canonical reports.

The digests were taken before the subgroup helpers of `zdbench.rings`
replaced the per-structure closure, lattice and coset loops; any change in
report bytes shows up here first.
"""

import hashlib

import pytest

from zdbench.report import (analyze_report, canonical_json, collect_witnesses,
                            theorems_report, witness_report)
from zdbench.universe import UniverseLimits

# every field given, so a change to the default limits leaves this universe alone
LIMITS = UniverseLimits(
    zmod_max=6, product_component_max=2, max_ring=6, max_module=36,
    max_algebra=16, max_sum_pairs=6, hom_budget=256, presentation_budget=30000,
    brute_budget=300_000, degree_bound=2, series_precision=8, axiom_check_max=64)

ANALYZE_PAIRS = (
    ("PolyQuot(Z4, x^2)", "Cyclic(2,x)"),
    ("Z12", "Hom(Cyclic(2))"),
    ("Prod(Z2,Z4)", "Sum(Cyclic((1,0)),Cyclic((0,2)))"),
    ("TotalQuotient(Z12)", "Free(2)"),
    ("Localize(Prod(Z3,Z4), {(1,0)})", "Reg"),
    ("PolyQuot(Z3, x^3)", "Free(2)"),
)


# the keys of a witness entry, in the one order every entry holds them
WITNESS_KEYS = ("kind", "ring", "module", "algebra", "value", "display", "variant", "f_support")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_theorems():
    return theorems_report("all", limits=LIMITS)


def test_theorems_report_digest(golden_theorems):
    text = canonical_json(golden_theorems)
    assert _sha256(text) == "f55383fb1414fff8c25269df470221a9713aee034f5a452e5b116b9af8af688d"


def test_analyze_reports_digest():
    text = "".join(canonical_json(analyze_report(r, m)) for r, m in ANALYZE_PAIRS)
    assert _sha256(text) == "0a8b230262960cea47b651e8abb7b9eefb1b019d98d174bc428623b42df7de35"


def test_witness_entries_hold_one_key_order(golden_theorems):
    reports = [golden_theorems, *(analyze_report(r, m) for r, m in ANALYZE_PAIRS),
               witness_report("2*X+2", "2", "Z4")]
    entries = [e for rep in reports for e in collect_witnesses(rep)]
    kinds = {e["kind"] for e in entries}
    assert {"torsion_free", "mccoy", "auslander", "mccoy_witness"} <= kinds
    for entry in entries:
        assert list(entry) == [k for k in WITNESS_KEYS if k in entry], entry
