"""Structured reports and witness re-validation.

Reports are single JSON documents with deterministic field order; identical
inputs and bounds produce byte-identical output.  Wall-clock timing is
deliberately excluded from the canonical document and only attached on
request, since it would break byte-level determinism.
"""

from __future__ import annotations

import json

from . import dsl
from .encoding import from_jsonable, to_jsonable
from .errors import BoundExceeded
from .extensions import mccoy_witness
from .localize import natural_map_kernel
from .modules import (ann, content_of_element, has_property_A, ideal_action,
                      ideal_tensor_kernel, is_auslander, is_content_module,
                      is_faithfully_flat, is_flat, is_torsion_free,
                      regular_module, zero_divisors_module)
from .rings import FiniteRing, ideal_generated
from .statements import (ADAPTER_MODULI, adapter_torsion,
                         faithfully_flat_mccoy_algebras, kills_nonzero,
                         predicate_entry, run_suite, search_counterexample,
                         search_query, witness_entry)
from .universe import DEFAULT_LIMITS, UniverseLimits, generate_universe

SCHEMA_VERSION = 1


def canonical_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


# ---------------------------------------------------------------------------
# reports


def _zd_section(R: FiniteRing, values) -> dict:
    ordered = R.sorted_elements(values)
    return {"values": to_jsonable(ordered),
            "display": [R.element_str(v) for v in ordered]}


def _verdict_section(verdict, M) -> dict:
    out = {"holds": verdict.holds}
    if verdict.degenerate:
        out["degenerate"] = True
    if verdict.witness is not None:
        out["witness"] = predicate_entry(M, verdict.witness)
    return out


def analyze_report(ring_text: str, module_text: str,
                   limits: UniverseLimits = DEFAULT_LIMITS) -> dict:
    R = dsl.build_ring(ring_text)
    ideals = R.ideals()  # refuses a ring past its bound before any |R|^2 table
    M = dsl.build_module(R, module_text)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "inputs": {"ring": ring_text, "module": module_text},
        "bounds": limits.as_dict(),
        "ring": {
            "descriptor": R.descriptor,
            "size": R.size,
            "is_field": R.is_field(),
            "is_domain": R.is_domain(),
            "is_local": R.is_local(),
            "maximal_ideals": [R.tuple_str(I.small_generators())
                               for I in R.maximal_ideals()],
            "ideal_count": len(ideals),
            "zero_divisors": _zd_section(R, R.zero_divisors()),
            "units": _zd_section(R, R.units()),
        },
    }
    # a Tensor(...) module lives over its algebra, not over the input ring
    S = M.ring
    module_section = {
        "descriptor": M.tag,
        "size": M.size,
        "is_zero": M.is_zero,
        "zero_divisors": _zd_section(S, zero_divisors_module(M)),
        "annihilator": S.tuple_str(ann(M).small_generators()),
        "auslander": _verdict_section(is_auslander(M), M),
        "torsion_free": _verdict_section(is_torsion_free(M), M),
        "property_a": _verdict_section(has_property_A(M), M),
        "content_module": _verdict_section(is_content_module(M), M),
        "natural_map_kernel_trivial": natural_map_kernel(M).is_zero,
    }
    try:
        flat = is_flat(M, budget=limits.presentation_budget)
        ffl = is_faithfully_flat(M, budget=limits.presentation_budget)
        module_section["flat"] = {"holds": flat.holds}
        module_section["faithfully_flat"] = {"holds": ffl.holds}
    except BoundExceeded as exc:
        module_section["flat"] = {"holds": None, "note": str(exc)}
        module_section["faithfully_flat"] = {"holds": None, "note": str(exc)}
    report["module"] = module_section
    report["witnesses"] = collect_witnesses(module_section)
    return report


def theorems_report(suite: str = "all",
                    limits: UniverseLimits = DEFAULT_LIMITS) -> dict:
    U = generate_universe(limits)
    reports = run_suite(suite, U)
    if not reports:
        raise ValueError(f"suite pattern {suite!r} matches no statements")
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "theorems",
        "suite": suite,
        "bounds": limits.as_dict(),
        "universe": {
            "ring_count": len(U.rings),
            "pair_count": sum(len(v) for v in U.modules.values()),
            "algebra_count": sum(len(v) for v in U.algebras.values()),
            "counts": U.counts,
        },
        "statements": [rep.to_dict() for rep in reports],
        "ffl_mccoy_algebras": faithfully_flat_mccoy_algebras(U),
        "passed": all(rep.passed for rep in reports),
    }


def search_report(hyp: str, concl: str,
                  limits: UniverseLimits = DEFAULT_LIMITS) -> dict:
    search_query(hyp, concl)  # a refused query builds no universe
    witnesses, skipped = search_counterexample(hyp, concl, generate_universe(limits))
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "search",
        "inputs": {"hyp": hyp, "concl": concl},
        "bounds": limits.as_dict(),
        "witnesses": witnesses,
        "count": len(witnesses),
        "skipped": skipped,
    }


def witness_report(f_text: str, g_text: str, ring_text: str) -> dict:
    R = dsl.build_ring(ring_text)
    M = regular_module(R)
    # both literals live in as many variables as either names
    g = dsl.parse_ext(g_text, R, M, dsl.parse_ext(f_text, R).arity)
    f = dsl.parse_ext(f_text, R, arity=g.arity)
    m = mccoy_witness(f, g)
    entry = witness_entry("mccoy_witness", R.descriptor, M.tag, m, R.element_str(m))
    entry["f_support"] = to_jsonable(list(f.support))
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "witness",
        "inputs": {"ring": ring_text, "f": f_text, "g": g_text},
        "witness": entry,
    }


# ---------------------------------------------------------------------------
# witness re-validation


def collect_witnesses(node, out=None) -> list:
    """Walk a report for witness entries (dicts carrying a known kind)."""
    if out is None:
        out = []
    if isinstance(node, dict):
        if "kind" in node and "value" in node:
            out.append(node)
        for v in node.values():
            collect_witnesses(v, out)
    elif isinstance(node, list):
        for v in node:
            collect_witnesses(v, out)
    return out


def revalidate_witness(entry: dict) -> bool:
    """Independently re-check one witness entry against its defining predicate.

    Witness values are resolved through their carrier's `index`, which
    raises ValueError on a value outside it."""
    kind = entry["kind"]
    value = from_jsonable(entry["value"])
    ring_desc = entry.get("ring")
    module_tag = entry.get("module")
    if ring_desc == "Z":
        # integer-adapter witnesses: the gcd rule on a Z/n that rem-3.3-2 names
        moduli = {f"Z/{n}": n for n in ADAPTER_MODULI}
        return (kind == "torsion_free" and module_tag in moduli
                and adapter_torsion(value, moduli[module_tag]))
    if kind in ("auslander", "torsion_free", "property_a", "content", "ext_ideal",
                "flat", "faithfully_flat"):
        node = dsl.parse_module(module_tag)
        # Tensor(..., Algebra(B, R0)) is built over R0 and lives over B
        base = node.algebra.base if isinstance(node, dsl.TensorNode) else ring_desc
        M = dsl.build_module(dsl.build_ring(base), node)
        if M.ring.descriptor != ring_desc:
            return False
        R = M.ring
        zr = R.zero_divisors()
        zm = zero_divisors_module(M)
        if kind == "auslander":
            return value in zr and value not in zm and value != R.zero
        if kind == "torsion_free":
            return value in zm and value not in zr and value != R.zero
        if kind == "property_a":
            I = ideal_generated(R, value)
            inside = (I.elements - {R.zero}) <= (zm - {R.zero})
            return inside and not kills_nonzero(value, M)
        if kind == "ext_ideal":
            # f with content c(f) = (value) is a zero-divisor on R[X] or
            # R[[X]] (on M[X] or M[[X]]) iff c(f) kills a nonzero r (m)
            return kills_nonzero(value, R) != kills_nonzero(value, M)
        if kind == "content":
            c = content_of_element(M, value)
            return value not in ideal_action(c, M).elements
        I = ideal_generated(R, value)
        if kind == "flat":
            # I (x) M -> M is not injective
            return not ideal_tensor_kernel(I, M)[0]
        if kind == "faithfully_flat":
            # M is flat, I is maximal and I*M = M
            return (is_flat(M).holds and I in R.maximal_ideals()
                    and len(ideal_action(I, M).elements) == M.size)
    if kind in ("mccoy", "ohm_rush"):
        alg = dsl.build_algebra(entry["algebra"])
        B, Rb, BR = alg.ring, alg.base, alg.as_module()
        if kind == "ohm_rush":
            f = value
            return f not in ideal_action(content_of_element(BR, f), BR).elements
        f, g = value
        if g == B.zero or B.rows[B.index(f)][B.index(g)] != B.index(B.zero):
            return False
        gens = content_of_element(BR, f).generators
        return not kills_nonzero(gens, Rb)
    if kind == "mccoy_witness":
        R = dsl.build_ring(entry["ring"])
        m, zero = R.index(value), R.index(R.zero)
        coeffs = [R.index(from_jsonable(c)) for _, c in entry["f_support"]]
        return m != zero and all(R.rows[c][m] == zero for c in coeffs)
    raise ValueError(f"no revalidator for witness kind {kind!r}")


def revalidate_report(report: dict) -> dict:
    entries = collect_witnesses(report)
    failed = []
    for entry in entries:
        try:
            ok = revalidate_witness(entry)
        except (KeyError, TypeError, ValueError, BoundExceeded):
            # a malformed entry: a missing field, a value of the wrong shape,
            # an element outside its carrier or a name past a budget
            ok = False
        if not ok:
            failed.append(entry)
    return {"total": len(entries), "failed": failed}


# ---------------------------------------------------------------------------
# human-readable rendering (derived from the structured report)


def render_text(report: dict) -> str:
    lines = []
    cmd = report.get("command")
    if cmd == "analyze":
        ring = report["ring"]
        mod = report["module"]
        lines.append(f"ring {ring['descriptor']} (size {ring['size']})")
        lines.append(f"  field={ring['is_field']} domain={ring['is_domain']} "
                     f"local={ring['is_local']} ideals={ring['ideal_count']}")
        lines.append(f"  Z(R) = {{{', '.join(ring['zero_divisors']['display'])}}}")
        lines.append(f"module {mod['descriptor']} (size {mod['size']})")
        lines.append(f"  Z(M) = {{{', '.join(mod['zero_divisors']['display'])}}}")
        lines.append(f"  annihilator = {mod['annihilator']}")
        for name in ("auslander", "torsion_free", "property_a", "content_module"):
            v = mod[name]
            suffix = ""
            if v.get("witness"):
                suffix = f" (witness {v['witness']['display']})"
            lines.append(f"  {name} = {v['holds']}{suffix}")
        lines.append(f"  flat = {mod['flat']['holds']}  "
                     f"faithfully_flat = {mod['faithfully_flat']['holds']}")
        lines.append(f"  torsion_free_kernel_trivial = {mod['natural_map_kernel_trivial']}")
    elif cmd == "theorems":
        u = report["universe"]
        lines.append(f"suite {report['suite']}: rings={u['ring_count']} "
                     f"pairs={u['pair_count']} algebras={u['algebra_count']}")
        for st in report["statements"]:
            status = "PASS" if st["passed"] else "FAIL"
            lines.append(f"  [{status}] {st['id']}: applicable={st['applicable_count']} "
                         f"checked={st['checked']} failures={len(st['failures'])}")
            for w in st["warnings"]:
                lines.append(f"      warning: {w}")
        lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    elif cmd == "search":
        lines.append(f"search hyp={report['inputs']['hyp']!r} "
                     f"concl={report['inputs']['concl']!r}: {report['count']} witnesses, "
                     f"{len(report['skipped'])} skipped")
        for w in report["witnesses"]:
            lines.append(f"  {w['kind']}: {w['member']}")
    elif cmd == "witness":
        w = report["witness"]
        lines.append(f"witness m = {w['display']} over {w['ring']}")
    else:
        lines.append(json.dumps(report, indent=2))
    return "\n".join(lines) + "\n"
