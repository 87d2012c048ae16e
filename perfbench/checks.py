"""Correctness checks on the outputs the benchmark collects.

Each check returns a list of error strings, empty when the output is right.
The checks recompute what they can apart from the program (gcd arithmetic
for Z/n, products of the factors' counts) and otherwise test properties the
method must have (inclusions between the reported sets, agreement of two
independent deciders, witnesses that revalidate).
"""

from __future__ import annotations

import math
import re

_ZMOD = re.compile(r"Z(\d+)$")
_PROD_ZMOD = re.compile(r"Prod\(Z(\d+),Z(\d+)\)$")


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _hashable(value):
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value


def _values(section) -> set:
    return {_hashable(v) for v in section["values"]}


def check_analyze(report: dict, module_text: str) -> list[str]:
    """Check one parsed `analyze` report."""
    errors = []
    ring, module = report["ring"], report["module"]
    where = f"{ring['descriptor']} :: {module['descriptor']}"
    zr = _values(ring["zero_divisors"])
    zm = _values(module["zero_divisors"])
    units = _values(ring["units"])

    m = _ZMOD.match(ring["descriptor"])
    p = _PROD_ZMOD.match(ring["descriptor"])
    if m:
        n = int(m.group(1))
        expected_zr = {k for k in range(n) if math.gcd(k, n) > 1}
        expected = (divisor_count(n), euler_phi(n), expected_zr)
    elif p:
        a, b = int(p.group(1)), int(p.group(2))
        expected_zr = {(x, y) for x in range(a) for y in range(b)
                       if math.gcd(x, a) > 1 or math.gcd(y, b) > 1}
        expected = (divisor_count(a) * divisor_count(b),
                    euler_phi(a) * euler_phi(b), expected_zr)
    else:
        expected = None
    if expected is not None:
        ideals, unit_count, expected_zr = expected
        if ring["ideal_count"] != ideals:
            errors.append(f"{where}: ideal count {ring['ideal_count']} != {ideals}")
        if len(units) != unit_count:
            errors.append(f"{where}: unit count {len(units)} != {unit_count}")
        if zr != expected_zr:
            errors.append(f"{where}: Z(R) differs from the gcd criterion")

    # 0 lies in Z(R) and in Z(M) for a nonzero ring and module, so the
    # inclusions may be taken with 0 on both sides
    if module["size"] > 1:
        if module["auslander"]["holds"] != (zr <= zm):
            errors.append(f"{where}: Auslander verdict disagrees with Z(R) <= Z(M)")
        if module["torsion_free"]["holds"] != (zm <= zr):
            errors.append(f"{where}: torsion-free verdict disagrees with Z(M) <= Z(R)")
        if module["natural_map_kernel_trivial"] != module["torsion_free"]["holds"]:
            errors.append(f"{where}: natural map kernel disagrees with torsion-freeness")
    if module["property_a"]["holds"] is not True:
        errors.append(f"{where}: property (A) fails over a finite ring")
    if module_text in ("Reg", "Free(2)") and module["flat"]["holds"] is not True:
        errors.append(f"{where}: a free module is reported not flat")
    return errors


def zmod_factors(n: int, module_text: str):
    """Orders d of the cyclic factors Z/d of a universe module over Z/n.

    Over Z/n, Cyclic(a) = R/(a) is Z/gcd(a, n) and Hom(Z/d, Z/d) is Z/d.
    Returns None for a descriptor of another shape.
    """
    if module_text == "Reg":
        return [n]
    if module_text == "Free(2)":
        return [n, n]
    parts = re.fullmatch(r"Cyclic\((\d+)\)|Hom\(Cyclic\((\d+)\)\)", module_text)
    if parts:
        return [math.gcd(int(parts.group(1) or parts.group(2)), n)]
    parts = re.fullmatch(r"Sum\(Cyclic\((\d+)\),Cyclic\((\d+)\)\)", module_text)
    if parts:
        return [math.gcd(int(parts.group(1)), n), math.gcd(int(parts.group(2)), n)]
    return None


def check_decision(d: dict) -> list[str]:
    """Check one oracle decision record.

    Keys: ``where``, ``coeffs`` (ring elements), ``expected`` (the sampling
    class from the benchmark's own annihilator loop), ``criterion`` and
    ``oracle`` (the program's two verdicts), ``gcd_verdict`` (None unless the
    ring is Z/n), and for a zero-divisor ``witness_ok`` (the witness is
    nonzero and killed by every coefficient).
    """
    errors = []
    where = d["where"]
    if d["criterion"] != d["oracle"]:
        errors.append(f"{where}: criterion {d['criterion']} != brute force {d['oracle']}")
    if d["criterion"] != d["expected"]:
        errors.append(f"{where}: criterion {d['criterion']} != annihilator class {d['expected']}")
    if d["gcd_verdict"] is not None and d["criterion"] != d["gcd_verdict"]:
        errors.append(f"{where}: criterion {d['criterion']} != gcd verdict {d['gcd_verdict']}")
    if d["criterion"] and not d["witness_ok"]:
        errors.append(f"{where}: McCoy witness is zero or not killed by c(f)")
    return errors


def check_suite(report: dict, revalidation: dict, statement_count: int,
                universe: dict) -> list[str]:
    """Check a parsed `theorems` report and the result of revalidating it.

    `universe` is the report's expected ``universe`` section: the ring, pair
    and algebra counts that pin how much work the suite does.
    """
    errors = []
    if report["universe"] != universe:
        errors.append(f"universe {report['universe']} != expected {universe}")
    statements = report["statements"]
    if len(statements) != statement_count:
        errors.append(f"{len(statements)} statements reported, {statement_count} registered")
    for st in statements:
        if not st["passed"] or st["failures"]:
            errors.append(f"{st['id']}: {len(st['failures'])} failures")
        if st["applicable_count"] == 0:
            errors.append(f"{st['id']}: no applicable members")
    if not report["passed"]:
        errors.append("report does not pass")
    if revalidation["total"] == 0:
        errors.append("no witnesses collected")
    for entry in revalidation["failed"]:
        errors.append(f"witness {entry.get('kind')} {entry.get('display')!r} does not revalidate")
    return errors
