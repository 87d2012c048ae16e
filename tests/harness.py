"""Exhaustive harnesses that the acceptance and universe tests share: the
integer adapter's per-case analysis and the extension criterion against the
brute-force oracle.  They check the program from outside; no report runs
them."""

import itertools

from zdbench.extensions import brute_force_zd, is_zd_on_extension, ring_poly
from zdbench.statements import witness_entry
from zdbench.universe import Z_ADAPTER_MAX, Universe, ZAdapterCase


def z_adapter_check(case_id: str) -> dict:
    """Analytic verification for one Z-module Z/n case (gcd arithmetic only)."""
    if not case_id.startswith("Z/"):
        raise ValueError(f"unknown adapter case {case_id!r}")
    try:
        n = int(case_id[2:])
    except ValueError:
        raise ValueError(f"unknown adapter case {case_id!r}") from None
    if not 1 <= n <= Z_ADAPTER_MAX:
        raise ValueError(
            f"adapter case {case_id!r} outside the registered range 1..{Z_ADAPTER_MAX}")
    case = ZAdapterCase(n)
    if case.degenerate:
        return {"case": case.case_id, "degenerate": True, "excluded": True}
    tf = case.is_torsion_free()
    k = tf.witness["element"]
    return {
        "case": case.case_id,
        "degenerate": False,
        "auslander": case.is_auslander().holds,
        "torsion_free": tf.holds,
        "torsion_free_witness": witness_entry("torsion_free", "Z", case.case_id, k, str(k)),
        "zero_divisors_contain_ideal_n": case.contains_ideal_n(),
        "zero_divisor_rule": f"{{k in Z : gcd(k, {case.n}) > 1}}",
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
