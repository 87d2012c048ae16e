"""Exhaustive harnesses that the acceptance and universe tests share: the
integer adapter's per-case analysis and the extension criterion against the
brute-force oracle; and `negative`, element-level negation for the table
tests.  They check the program from outside; no report runs them."""

import itertools
import math
import re

from zdbench.extensions import brute_force_zd, is_zd_on_extension, ring_poly
from zdbench.statements import witness_entry
from zdbench.universe import Universe

Z_CASE_MAX = 30  # the cases are Z/n, 1 <= n <= this; Z/1 is degenerate


def negative(X, a):
    """-a in the carrier X, read off its `minus` table."""
    return X.elements[X.minus[X.index(a)]]


def z_adapter_check(case_id: str) -> dict:
    """Analytic verification for one Z-module Z/n case, by gcd arithmetic
    alone: k in Z kills a nonzero class of Z/n iff gcd(k, n) > 1, which
    depends on k mod n only, and Z(Z) = {0}."""
    tag = re.fullmatch(r"Z/([0-9]+)", case_id)
    if tag is None:
        raise ValueError(f"unknown adapter case {case_id!r}")
    n = int(tag[1])
    if not 1 <= n <= Z_CASE_MAX:
        raise ValueError(
            f"adapter case {case_id!r} outside the registered range 1..{Z_CASE_MAX}")
    if n == 1:
        return {"case": case_id, "degenerate": True, "excluded": True}
    torsion = [k for k in range(1, n + 1) if math.gcd(k, n) > 1]
    return {
        "case": case_id,
        "degenerate": False,
        "auslander": math.gcd(0, n) > 1,
        "torsion_free": not torsion,
        "torsion_free_witness": witness_entry("torsion_free", "Z", case_id,
                                              torsion[0], str(torsion[0])),
        "zero_divisors_contain_ideal_n": math.gcd(0, n) > 1,
        "zero_divisor_rule": f"{{k in Z : gcd(k, {n}) > 1}}",
    }


def criterion_oracle_agreement(U: Universe, max_ring: int = 6, max_module: int = 8,
                               degree: int = 2) -> dict:
    """Criterion vs brute force on every f of degree <= `degree`.

    When the criterion holds, its witness is a constant cofactor, so the
    degree-0 search must confirm it (and monotonicity in the degree bound
    extends agreement to every d).  When the criterion fails, the full
    degree-`degree` search must come up empty.
    """
    report = {"pairs": 0, "elements_checked": 0, "discrepancies": []}
    exponents = [(i,) for i in range(degree + 1)]
    for R, M in U.pairs():
        if M.is_zero or R.size > max_ring or M.size > max_module:
            continue
        report["pairs"] += 1
        for coeffs in itertools.product(R.elements, repeat=len(exponents)):
            support = {e: c for e, c in zip(exponents, coeffs) if c != R.zero}
            if not support:
                continue
            f = ring_poly(R, support)
            report["elements_checked"] += 1
            crit = is_zd_on_extension(f, M)
            oracle = brute_force_zd(f, M, 0 if crit.holds else degree,
                                    budget=U.limits.brute_budget)
            if crit.holds != oracle.holds:
                report["discrepancies"].append({
                    "ring": R.descriptor, "module": M.tag,
                    "f": str(f), "criterion": crit.holds, "oracle": oracle.holds})
    return report
