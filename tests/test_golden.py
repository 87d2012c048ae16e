"""Pinned sha256 digests of canonical reports.

The digests were taken before the subgroup helpers of `zdbench.rings`
replaced the per-structure closure, lattice and coset loops; any change in
report bytes shows up here first.
"""

import hashlib

from zdbench.report import analyze_report, canonical_json, theorems_report
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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_theorems_report_digest():
    text = canonical_json(theorems_report("all", limits=LIMITS))
    assert _sha256(text) == "e1bbb5ad703dd3b496882f096419e50750637f14d38477498b41f550b3292bae"


def test_analyze_reports_digest():
    text = "".join(canonical_json(analyze_report(r, m)) for r, m in ANALYZE_PAIRS)
    assert _sha256(text) == "0a8b230262960cea47b651e8abb7b9eefb1b019d98d174bc428623b42df7de35"
